"""The primitive divergent graphs of the quartic scalar theory.

Each evaluator returns a :class:`GraphResult`: the graph's value in
``n = 4 + eps`` dimensions as an :class:`~polekit.laurent.EpsilonSeries`
(the conventional ``mu**(n-4)`` coupling-dimension factor stripped, so
the series is dimensionless times the appropriate mass power), together
with its minimal-subtraction split.

All evaluations are Euclidean; the Feynman-function counterparts differ
by a factor of ``i`` that is documented here and never enters a code
path.  The four graphs in scope:

* ``tadpole``      — the one-loop self-contraction, value of the
  propagator at coincident points.
* ``fish``         — the one-loop four-point bubble as a function of the
  (Euclidean) momentum-transfer square ``P_sq``, via a Feynman-parameter
  quadrature (exact at ``P_sq = 0``, where the integrand is constant);
  ``fish_closed_form`` gives its finite part in closed form at every
  Mandelstam ``s``: spacelike, below threshold and above threshold.
* ``double_scoop`` — the two-loop mass graph built from the product of
  the zero-momentum fish and the tadpole (double pole).
* ``setting_sun``  — the momentum-dependent two-loop self-energy
  structure proportional to ``p_sq``.

Only ``fish`` at ``P_sq != 0`` integrates numerically; it imports
``scipy.integrate`` on first use, so importing this module needs numpy
alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutCrossing, DomainError, QuadratureNotConverged
from .laurent import (
    DEFAULT_MAX_ORDER,
    EpsilonSeries,
    SplitValue,
    gamma_laurent,
    ms_split,
    scale_power,
    series_mul,
    series_reciprocal,
)

__all__ = [
    "FOUR_PI_SQ",
    "KinematicPoint",
    "GraphResult",
    "tadpole",
    "fish",
    "fish_closed_form",
    "double_scoop",
    "setting_sun",
]

#: the ubiquitous loop factor (4*pi)**2
FOUR_PI_SQ = (4.0 * math.pi) ** 2

#: default adaptive-quadrature tolerance for the Feynman-parameter integral
DEFAULT_QUAD_TOL = 1e-10


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class KinematicPoint:
    """Model parameters and the arbitrary renormalization scale.

    ``m_sq`` is the (bare) mass square, ``lambda0`` the dimensionless
    quartic coupling, ``mu`` the arbitrary mass scale, ``Lambda0`` the
    bare cosmological constant (energy^4, may be zero or negative).
    """

    m_sq: float
    lambda0: float = 0.0
    mu: float = 1.0
    Lambda0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("m_sq", "lambda0", "mu", "Lambda0"):
            _require_finite(f"KinematicPoint: {name}", getattr(self, name))
        if self.m_sq < 0.0:
            raise DomainError("KinematicPoint: m_sq must be >= 0")
        if self.lambda0 < 0.0:
            raise DomainError("KinematicPoint: lambda0 must be >= 0")
        if self.mu <= 0.0:
            raise DomainError("KinematicPoint: mu must be > 0")

    def _require_massive(self, graph: str) -> None:
        if self.m_sq <= 0.0:
            raise DomainError(
                f"{graph}: massive propagators required (m_sq > 0); "
                "the massless limit develops an infrared log"
            )


@dataclass(frozen=True)
class GraphResult:
    """A graph value with its singular/finite decomposition.

    ``position_space_tag`` records the distributional shape of the
    graph's position-space singular part ("delta" for a pure contact
    term, "laplacian-delta" for a gradient contact term) with
    ``position_space_pole`` its coefficient — exactly the momentum-space
    residue already stored in ``split``.
    """

    graph_name: str
    series: EpsilonSeries
    split: SplitValue
    position_space_tag: str | None = None
    position_space_pole: complex = 0j


def _zero_result(name: str, order: int) -> GraphResult:
    series = EpsilonSeries.zero(max_order=order)
    return GraphResult(name, series, ms_split(series))


def tadpole(k: KinematicPoint, order: int = DEFAULT_MAX_ORDER) -> GraphResult:
    """One-loop tadpole: ``(m^2/(4 pi)^2) (m^2/4 pi mu^2)^{eps/2} Gamma(-1 - eps/2)``.

    Singular part ``{1: 2 m^2/(4 pi)^2}``; the massless probe vanishes
    identically.
    """
    if order < 1:
        raise DomainError("tadpole: order must be >= 1")
    if k.m_sq == 0.0:
        return _zero_result("tadpole", order)
    ratio = k.m_sq / (4.0 * math.pi * k.mu**2)
    series = series_mul(
        scale_power(ratio, 0.5, order + 1), gamma_laurent(-1, -0.5, order + 1)
    ) * (k.m_sq / FOUR_PI_SQ)
    return GraphResult("tadpole", series, ms_split(series))


def _log_moment(j: int, p_sq: float, k: KinematicPoint, quad_tol: float) -> float:
    """``\\int_0^1 ln^j [(m^2 + a(1-a) P^2)/(4 pi mu^2)] da`` by adaptive quadrature.

    At ``P^2 = 0`` the integrand is the constant ``ln^j(m^2/4 pi mu^2)``,
    returned exactly without integrating.
    """
    denom = 4.0 * math.pi * k.mu**2
    if p_sq == 0.0:
        return math.log(k.m_sq / denom) ** j
    from scipy.integrate import IntegrationWarning, quad

    def integrand(alpha: float) -> float:
        return math.log((k.m_sq + alpha * (1.0 - alpha) * p_sq) / denom) ** j

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, abserr = quad(
                integrand, 0.0, 1.0, epsabs=quad_tol, epsrel=quad_tol, limit=200
            )
        except IntegrationWarning as exc:
            raise QuadratureNotConverged(
                f"Feynman-parameter integral (log moment {j}) did not reach "
                f"tolerance {quad_tol}: {exc}"
            ) from exc
    if abserr > 10.0 * max(quad_tol, quad_tol * abs(value)):
        raise QuadratureNotConverged(
            f"Feynman-parameter integral (log moment {j}): estimated error "
            f"{abserr} above tolerance {quad_tol}"
        )
    return value


def fish(
    P_sq: float,
    k: KinematicPoint,
    order: int = DEFAULT_MAX_ORDER,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> GraphResult:
    """One-loop bubble at Euclidean momentum-transfer square ``P_sq``.

    ``-(1/(4 pi)^2) Gamma(-eps/2) \\int_0^1 da [(m^2 + a(1-a) P_sq)/(4 pi mu^2)]^{eps/2}``,
    the scale-power expanded in ``eps`` with each log moment integrated
    adaptively to ``quad_tol``.  Valid for ``P_sq > -4 m^2`` (the
    integrand's argument stays positive); beyond that the two-particle
    branch cut is crossed and only :func:`fish_closed_form` applies.
    """
    if order < 1:
        raise DomainError("fish: order must be >= 1")
    _require_finite("fish: P_sq", P_sq)
    if not (math.isfinite(quad_tol) and quad_tol > 0.0):
        raise DomainError(f"fish: quad_tol must be finite and > 0, got {quad_tol!r}")
    k._require_massive("fish")
    if P_sq <= -4.0 * k.m_sq:
        raise BranchCutCrossing(
            f"fish: P_sq = {P_sq} crosses the branch cut at -4 m^2 = {-4.0 * k.m_sq}"
        )
    # integral series: sum_j (eps/2)^j / j! * <ln^j ratio>
    coeffs = [1.0 + 0j]
    for j in range(1, order + 2):
        coeffs.append(
            complex(_log_moment(j, P_sq, k, quad_tol) / (2.0**j * math.factorial(j)))
        )
    integral = EpsilonSeries(0, tuple(coeffs))
    series = series_mul(gamma_laurent(0, -0.5, order + 1), integral) * (
        -1.0 / FOUR_PI_SQ
    )
    return GraphResult(
        "fish",
        series,
        ms_split(series),
        position_space_tag="delta",
        position_space_pole=series.coeff(-1),
    )


def fish_closed_form(s: float, k: KinematicPoint) -> complex:
    """Closed-form finite part of the bubble at Mandelstam ``s``.

    ``(1/(4 pi)^2) [ ln(m^2 e^gamma / 4 pi mu^2) - 2 + beta ln((beta+1)/(beta-1)) ]``
    with ``beta = sqrt(1 - 4 m^2/s)``: real for spacelike ``s < 0``,
    complex (``s + i0`` prescription, absorptive part ``-pi beta/(4 pi)^2``)
    above threshold ``s > 4 m^2``.  At threshold the velocity factor
    vanishes and the bracketed log term drops.  Below threshold,
    ``0 <= s < 4 m^2``, ``beta = i b`` is imaginary and the bracket is the
    real ``2 b arctan(1/b)`` with ``b = sqrt(4 m^2/s - 1)``; it tends to 2
    as ``s -> 0``, where the result is the bubble's ``P^2 = 0`` finite part.
    Outside the window the logarithm is assembled from ``log1p`` terms, so
    the bracket keeps full precision as ``s -> 0-`` and as ``|s| -> inf``.

    The additive constant ``-2`` is pinned by requiring agreement with the
    Feynman-parameter quadrature on the spacelike overlap (a frozen
    regression value).
    """
    _require_finite("fish_closed_form: s", s)
    k._require_massive("fish_closed_form")
    m_sq = k.m_sq
    log_term = math.log(m_sq / (4.0 * math.pi * k.mu**2)) + np.euler_gamma
    prefactor = 1.0 / FOUR_PI_SQ
    if 0.0 <= s < 4.0 * m_sq:
        # 2 b arctan(1/b) = 2 arctan(u)/u with u = 1/b, which cannot overflow
        u = math.sqrt(s / (4.0 * m_sq - s))
        bracket = 2.0 * math.atan(u) / u if u > 0.0 else 2.0
        return complex(prefactor * (log_term - 2.0 + bracket))
    if s == 4.0 * m_sq:
        return complex(prefactor * (log_term - 2.0))
    if s < 0.0:
        # beta ln((beta+1)/(beta-1)) with v = 1/beta, free of cancellation:
        # (beta+1)/(beta-1) = (1+v)^2 / (1-v^2) and 1 - v^2 = 1/(1 - s/4m^2)
        v = math.sqrt(-s / (4.0 * m_sq - s))
        bracket = (2.0 * math.log1p(v) + math.log1p(-s / (4.0 * m_sq))) / v
        return complex(prefactor * (log_term - 2.0 + bracket))
    # timelike, above threshold: beta in (0, 1), s + i0 prescription;
    # (1+beta)/(1-beta) = (1+beta)^2 s/4m^2 since 1 - beta^2 = 4m^2/s
    beta = math.sqrt((s - 4.0 * m_sq) / s)
    log_ratio = 2.0 * math.log1p(beta) + math.log(s / (4.0 * m_sq))
    bracket = beta * complex(log_ratio, -math.pi)
    return prefactor * (log_term - 2.0 + bracket)


def double_scoop(
    k: KinematicPoint, quad_tol: float = DEFAULT_QUAD_TOL
) -> GraphResult:
    """Two-loop double scoop: ``-1/4 lambda0^2 * fish(0) * tadpole`` (double pole)."""
    k._require_massive("double_scoop")
    if k.lambda0 == 0.0:
        return _zero_result("double_scoop", DEFAULT_MAX_ORDER)
    series = series_mul(
        fish(0.0, k, order=DEFAULT_MAX_ORDER, quad_tol=quad_tol).series,
        tadpole(k, order=DEFAULT_MAX_ORDER).series,
    ) * (-0.25 * k.lambda0**2)
    return GraphResult("double_scoop", series, ms_split(series))


def setting_sun(
    p_sq: float, k: KinematicPoint, order: int = DEFAULT_MAX_ORDER
) -> GraphResult:
    """Two-loop setting sun (momentum-dependent part, proportional to ``p_sq``).

    ``-(1/6) (lambda0/(4 pi)^2)^2 p^2 (p^2/4 pi mu^2)^{eps}
    Gamma(1 + eps/2)^3 Gamma(-1 - eps) / Gamma(3 + 3 eps/2)``.

    Singular part ``{1: -(1/12) (lambda0/(4 pi)^2)^2 p^2}``; the finite
    part is ``-(1/12) X^2 p^2 (ln(p^2/4 pi mu^2) + const)`` with the
    constant frozen as a regression value.
    """
    if not 1 <= order <= 3:
        raise DomainError("setting_sun: order must be in [1, 3]")
    _require_finite("setting_sun: p_sq", p_sq)
    k._require_massive("setting_sun")
    if p_sq < 0.0:
        raise DomainError("setting_sun: p_sq must be >= 0 (Euclidean)")
    if p_sq == 0.0:
        return _zero_result("setting_sun", order)
    work = order + 1
    numerator = gamma_laurent(1, 0.5, work)
    numerator = series_mul(numerator, gamma_laurent(1, 0.5, work))
    numerator = series_mul(numerator, gamma_laurent(1, 0.5, work))
    numerator = series_mul(numerator, gamma_laurent(-1, -1.0, work))
    ratio = series_mul(numerator, series_reciprocal(gamma_laurent(3, 1.5, work)))
    x_coupling = k.lambda0 / FOUR_PI_SQ
    series = series_mul(
        scale_power(p_sq / (4.0 * math.pi * k.mu**2), 1.0, work), ratio
    ) * (-(x_coupling**2) * p_sq / 6.0)
    return GraphResult(
        "setting_sun",
        series,
        ms_split(series),
        position_space_tag="laplacian-delta",
        position_space_pole=series.coeff(-1),
    )
