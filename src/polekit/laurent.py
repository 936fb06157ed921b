"""Truncated Laurent-series arithmetic in the regularization parameter.

Everything the workbench regularizes is carried by :class:`EpsilonSeries`,
a truncated Laurent series in ``eps`` (the deviation of the spacetime
dimension from four, ``eps = n - 4``) with complex coefficients for powers
``min_order .. max_order``.  Poles deeper than order four are outside the
validated scope and are rejected rather than silently truncated.

The minimal-subtraction split (:func:`ms_split`) separates a series into
its negative-power coefficients and its constant term — the
(singular, finite) decomposition :class:`SplitValue` that the graph and
renormalization modules consume.

Expansion constructors :func:`gamma_laurent` and :func:`scale_power`
produce the two special-function series every dimensionally regularized
one- and two-loop graph is assembled from.  ``gamma_laurent`` takes an
integer ``a``, so its coefficients are exact combinations of Euler's
constant, harmonic sums ``sum_{j<a} j^{-k}`` and the four-entry table
``_ZETA`` of ``zeta(2) .. zeta(5)``; no special-function library is
needed.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvalAtZeroWithPoles, PoleDepthExceeded

__all__ = [
    "DEFAULT_MAX_ORDER",
    "POLE_DEPTH_CAP",
    "EpsilonSeries",
    "SplitValue",
    "series_add",
    "series_mul",
    "series_reciprocal",
    "gamma_laurent",
    "scale_power",
    "ms_split",
    "series_eval",
]

#: Default truncation order: enough for pole-times-series products at
#: second order in the coupling.
DEFAULT_MAX_ORDER = 2

#: Deepest representable pole order (as a negative power of eps).
POLE_DEPTH_CAP = -4


def _as_complex(value) -> complex:
    if not isinstance(value, numbers.Complex):
        raise TypeError(f"coefficient {value!r} is not a complex number")
    value = complex(value)
    if not cmath.isfinite(value):
        raise DomainError(f"coefficient {value!r} is not finite")
    return value


@dataclass(frozen=True)
class EpsilonSeries:
    """Immutable truncated Laurent series ``sum_k c_k eps^k``.

    ``coefficients[i]`` is the coefficient of ``eps**(min_order + i)``;
    the truncation order is ``max_order = min_order + len(coefficients) - 1``.
    Powers above ``max_order`` are *unknown* (truncated), powers below
    ``min_order`` are exactly zero.  A NaN or infinite coefficient raises
    :class:`DomainError`.
    """

    min_order: int
    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_as_complex(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise DomainError("series needs at least one coefficient")
        if self.min_order < POLE_DEPTH_CAP:
            raise PoleDepthExceeded(
                f"pole order {self.min_order} deeper than cap {POLE_DEPTH_CAP}"
            )
        if self.min_order > 0:
            raise DomainError("min_order must be <= 0")
        if self.max_order < 0:
            raise DomainError("max_order must be >= 0")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value, max_order: int = DEFAULT_MAX_ORDER) -> "EpsilonSeries":
        """Pole-free series whose only nonzero coefficient is ``eps^0``."""
        coeffs = [complex(value)] + [0j] * max_order
        return cls(0, tuple(coeffs))

    @classmethod
    def zero(cls, max_order: int = DEFAULT_MAX_ORDER) -> "EpsilonSeries":
        return cls.constant(0.0, max_order)

    @classmethod
    def from_terms(cls, terms: dict[int, complex],
                   max_order: int | None = None) -> "EpsilonSeries":
        """Build a series from a ``{power: coefficient}`` map."""
        if not terms and max_order is None:
            max_order = DEFAULT_MAX_ORDER
        lo = min(min(terms, default=0), 0)
        hi = max(terms, default=0) if max_order is None else max_order
        hi = max(hi, 0)
        coeffs = [complex(terms.get(k, 0.0)) for k in range(lo, hi + 1)]
        return cls(lo, tuple(coeffs))

    # -- basic queries ---------------------------------------------------------

    @property
    def max_order(self) -> int:
        return self.min_order + len(self.coefficients) - 1

    def coeff(self, power: int) -> complex:
        """Coefficient of ``eps**power``; zero below ``min_order``."""
        if power > self.max_order:
            raise DomainError(
                f"power {power} beyond truncation order {self.max_order}"
            )
        if power < self.min_order:
            return 0j
        return self.coefficients[power - self.min_order]

    def is_finite(self, tol: float = 1e-12) -> bool:
        """True when every pole coefficient is negligible.

        Negligible means below ``tol`` relative to the largest coefficient
        magnitude (absolute for an all-zero series).
        """
        scale = max((abs(c) for c in self.coefficients), default=0.0)
        bound = tol * scale if scale > 0.0 else tol
        return all(
            abs(c) <= bound
            for k, c in self._items()
            if k < 0
        )

    def _items(self):
        for i, c in enumerate(self.coefficients):
            yield self.min_order + i, c

    def truncate(self, max_order: int) -> "EpsilonSeries":
        """Drop coefficients above ``max_order`` (never extends)."""
        if max_order >= self.max_order:
            return self
        keep = max_order - self.min_order + 1
        return EpsilonSeries(self.min_order, self.coefficients[:keep])

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "EpsilonSeries":
        if isinstance(other, EpsilonSeries):
            return series_add(self, other)
        if isinstance(other, numbers.Complex):
            return series_add(self, EpsilonSeries.constant(other, self.max_order))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "EpsilonSeries":
        return EpsilonSeries(self.min_order, tuple(-c for c in self.coefficients))

    def __sub__(self, other) -> "EpsilonSeries":
        if isinstance(other, EpsilonSeries):
            return series_add(self, -other)
        if isinstance(other, numbers.Complex):
            return self + (-complex(other))
        return NotImplemented

    def __rsub__(self, other) -> "EpsilonSeries":
        return (-self) + other

    def __mul__(self, other) -> "EpsilonSeries":
        if isinstance(other, EpsilonSeries):
            return series_mul(self, other)
        if isinstance(other, numbers.Complex):
            w = complex(other)
            return EpsilonSeries(
                self.min_order, tuple(w * c for c in self.coefficients)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for k, c in self._items():
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c:.6g}")
            else:
                parts.append(f"{c:.6g}*eps^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(eps^{self.max_order + 1})>"

    # -- serialization ---------------------------------------------------------

    def to_record(self) -> dict:
        """Structured-text record ``{"min_order": k, "coeffs": [[re, im], ...]}``."""
        return {
            "min_order": self.min_order,
            "coeffs": [[c.real, c.imag] for c in self.coefficients],
        }

    @classmethod
    def from_record(cls, record: dict) -> "EpsilonSeries":
        coeffs = tuple(complex(re, im) for re, im in record["coeffs"])
        return cls(int(record["min_order"]), coeffs)


@dataclass(frozen=True)
class SplitValue:
    """Minimal-subtraction decomposition of a series.

    ``singular`` maps pole order ``g >= 1`` to the coefficient of
    ``eps**(-g)`` (exact zeros omitted — canonical form); ``finite`` is
    the ``eps^0`` coefficient.  Positive powers of the source series are
    discarded by the split.
    """

    singular: dict[int, complex] = field(default_factory=dict)
    finite: complex = 0j

    def __post_init__(self) -> None:
        cleaned = {}
        for order, coeff in self.singular.items():
            order = int(order)
            coeff = _as_complex(coeff)
            if order < 1:
                raise DomainError(f"pole order {order} must be >= 1")
            if order > -POLE_DEPTH_CAP:
                raise PoleDepthExceeded(
                    f"pole order {order} deeper than cap {-POLE_DEPTH_CAP}"
                )
            if coeff != 0:
                cleaned[order] = coeff
        object.__setattr__(self, "singular", cleaned)
        object.__setattr__(self, "finite", _as_complex(self.finite))

    @property
    def is_pole_free(self) -> bool:
        return not self.singular

    def reconstruct(self, max_order: int = 0) -> EpsilonSeries:
        """Series whose powers <= 0 reproduce this split exactly."""
        terms = {-g: c for g, c in self.singular.items()}
        terms[0] = self.finite
        return EpsilonSeries.from_terms(terms, max_order=max_order)

    def to_record(self) -> dict:
        return {
            "singular": [
                [g, c.real, c.imag] for g, c in sorted(self.singular.items())
            ],
            "finite": [self.finite.real, self.finite.imag],
        }

    @classmethod
    def from_record(cls, record: dict) -> "SplitValue":
        singular = {int(g): complex(re, im) for g, re, im in record["singular"]}
        re, im = record["finite"]
        return cls(singular, complex(re, im))


# -- ring operations ----------------------------------------------------------


def series_add(a: EpsilonSeries, b: EpsilonSeries) -> EpsilonSeries:
    """Coefficient-wise sum, truncated at ``min(a.max_order, b.max_order)``."""
    lo = min(a.min_order, b.min_order)
    hi = min(a.max_order, b.max_order)
    coeffs = tuple(a.coeff(k) + b.coeff(k) for k in range(lo, hi + 1))
    return EpsilonSeries(lo, coeffs)


def series_mul(a: EpsilonSeries, b: EpsilonSeries) -> EpsilonSeries:
    """Cauchy product truncated at the smaller usable max order.

    A product coefficient is *usable* only when every contributing pair of
    factor coefficients is inside both truncation windows, i.e. up to
    ``min(a.max_order + b.min_order, b.max_order + a.min_order)``.
    """
    lo = a.min_order + b.min_order
    if lo < POLE_DEPTH_CAP:
        raise PoleDepthExceeded(
            f"product pole order {lo} deeper than cap {POLE_DEPTH_CAP}"
        )
    hi = min(a.max_order + b.min_order, b.max_order + a.min_order)
    if hi < 0:
        raise DomainError(
            "factor truncation orders too low to form the product through eps^0"
        )
    coeffs = []
    for k in range(lo, hi + 1):
        total = 0j
        for i in range(a.min_order, a.max_order + 1):
            j = k - i
            if b.min_order <= j <= b.max_order:
                total += a.coeff(i) * b.coeff(j)
        coeffs.append(total)
    return EpsilonSeries(lo, tuple(coeffs))


def series_reciprocal(s: EpsilonSeries) -> EpsilonSeries:
    """Multiplicative inverse of a series with nonzero ``eps^0`` leading term.

    Requires every pole coefficient to be exactly zero and ``coeff(0) != 0``;
    the result carries the same truncation order.
    """
    if any(c != 0 for k, c in s._items() if k < 0):
        raise DomainError("reciprocal requires a pole-free series")
    c0 = s.coeff(0)
    if c0 == 0:
        raise DomainError("reciprocal requires a nonzero eps^0 coefficient")
    n = s.max_order
    inv = [1.0 / c0] + [0j] * n
    for k in range(1, n + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += s.coeff(j) * inv[k - j]
        inv[k] = -acc / c0
    return EpsilonSeries(0, tuple(inv))


# -- polynomial helpers for the expansion constructors ------------------------


def _poly_mul(p: list[complex], q: list[complex], order: int) -> list[complex]:
    out = [0j] * (order + 1)
    for i, pi in enumerate(p):
        if i > order or pi == 0:
            continue
        for j, qj in enumerate(q):
            if i + j > order:
                break
            out[i + j] += pi * qj
    return out


def _poly_exp(p: list[complex], order: int) -> list[complex]:
    """exp of a polynomial with zero constant term, through ``x^order``."""
    out = [0j] * (order + 1)
    out[0] = 1.0 + 0j
    # exp' = p' * exp  =>  (k) out_k = sum_{j=1..k} j * p_j * out_{k-j}
    for k in range(1, order + 1):
        acc = 0j
        for j in range(1, k + 1):
            pj = p[j] if j < len(p) else 0j
            acc += j * pj * out[k - j]
        out[k] = acc / k
    return out


#: ``zeta(2) .. zeta(5)``, the only zeta values ``gamma_laurent`` reaches
#: (order <= 4 needs ``x^5`` of ``ln Gamma(1 + x)`` at a pole); ``zeta(4)``
#: is ``pi^4/90`` correctly rounded, one ulp above the float expression
_ZETA = {
    2: math.pi**2 / 6.0,
    3: 1.2020569031595942,
    4: 1.0823232337111381,
    5: 1.0369277551433699,
}


def _ln_gamma_taylor(a: int, order: int) -> list[complex]:
    """Taylor coefficients of ``ln Gamma(a + x)`` through ``x^order``, ``a >= 1``.

    The ``x^k`` coefficient is ``psi^{(k-1)}(a)/k!``; at a positive integer
    the polygammas are harmonic sums: ``psi(a) = -gamma + H_{a-1}`` and
    ``psi^{(k-1)}(a)/k! = (-1)^k (zeta(k) - sum_{j<a} j^{-k}) / k``.
    """
    harmonic = math.fsum(1.0 / j for j in range(1, a))
    coeffs = [0j, complex(-np.euler_gamma + harmonic)]
    for k in range(2, order + 1):
        tail = math.fsum([_ZETA[k]] + [-(j ** -k) for j in range(1, a)])
        coeffs.append(complex((-1) ** k * tail / k))
    return coeffs[: order + 1]


def gamma_laurent(a: int, b, order: int = DEFAULT_MAX_ORDER) -> EpsilonSeries:
    """Laurent expansion of ``Gamma(a + b*eps)`` about ``eps = 0``.

    For ``a >= 1`` the result is pole-free; for ``a <= 0`` it has a simple
    pole with residue ``(-1)**|a| / (|a|! * b)``.  Every coefficient is
    built from Euler's constant, harmonic sums and ``zeta(2) .. zeta(5)``.
    """
    if not isinstance(a, numbers.Integral) or isinstance(a, bool):
        raise DomainError("gamma_laurent: 'a' must be an integer")
    a = int(a)
    b = float(b)
    if not math.isfinite(b) or b == 0.0:
        raise DomainError("gamma_laurent: 'b' must be finite and nonzero")
    if not 0 <= order <= 4:
        raise DomainError("gamma_laurent: order must be between 0 and 4")

    if a >= 1:
        # Gamma(a + x) = Gamma(a) * exp(ln Gamma(a + x) - ln Gamma(a))
        series_x = _poly_exp(_ln_gamma_taylor(a, order), order)
        gamma_a = math.gamma(a)
        coeffs = tuple(
            gamma_a * series_x[k] * b**k for k in range(order + 1)
        )
        return EpsilonSeries(0, coeffs)

    # a = -N <= 0:  Gamma(-N + x) = Gamma(1 + x) / (x * prod_{k=1..N} (x - k))
    #             = [(-1)^N / N!] * Gamma(1 + x) * prod_k 1/(1 - x/k) / x
    n_abs = -a
    depth = order + 1  # need x^{order+1} of the regular factor (one power feeds the pole)
    regular = _poly_exp(_ln_gamma_taylor(1, depth), depth)
    for k in range(1, n_abs + 1):
        geom = [complex(k ** -j) for j in range(depth + 1)]
        regular = _poly_mul(regular, geom, depth)
    sign = (-1) ** n_abs / math.factorial(n_abs)
    # coefficient of x^{j-1} in Gamma(-N + x) is sign * regular[j]
    coeffs = tuple(
        sign * regular[power + 1] * b**power for power in range(-1, order + 1)
    )
    return EpsilonSeries(-1, coeffs)


def scale_power(ratio: float, b, order: int = DEFAULT_MAX_ORDER) -> EpsilonSeries:
    """Expansion of ``ratio**(b*eps) = sum_k (b ln ratio)^k eps^k / k!``."""
    ratio, b = float(ratio), float(b)
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise DomainError("scale_power: ratio must be finite and positive")
    if not math.isfinite(b):
        raise DomainError("scale_power: b must be finite")
    if order < 0:
        raise DomainError("scale_power: order must be >= 0")
    t = b * math.log(ratio)
    coeffs = tuple(complex(t**k / math.factorial(k)) for k in range(order + 1))
    return EpsilonSeries(0, coeffs)


def ms_split(s: EpsilonSeries) -> SplitValue:
    """Minimal-subtraction split: pole coefficients plus the ``eps^0`` term."""
    singular = {-k: c for k, c in s._items() if k < 0 and c != 0}
    return SplitValue(singular, s.coeff(0))


def series_eval(s: EpsilonSeries, epsilon: float) -> complex:
    """Evaluate ``sum_k c_k epsilon^k`` at a numeric ``epsilon``."""
    eps = complex(epsilon)
    if eps == 0:
        if s.min_order < 0 and any(c != 0 for k, c in s._items() if k < 0):
            raise EvalAtZeroWithPoles("series has poles; cannot evaluate at 0")
        return s.coeff(0)
    return sum((c * eps**k for k, c in s._items()), start=0j)
