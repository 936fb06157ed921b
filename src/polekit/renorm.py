"""Subtraction-recipe assembly of physical quantities and RG flows.

The module realizes both renormalization paths and checks they agree:

* the *subtraction* path drops every pole and keeps finite bare
  parameters (``physical_mass_sq``, ``amplitude_T``, ``energy_density``,
  ``propagator_inverse``);
* the *standard* path assembles bare-parameter series whose poles must
  cancel identically (``bare_coupling_standard``,
  ``pole_cancellation_report``).

In minimal subtraction the one-loop renormalization-group functions are
the simple-pole residues of the bare parameters ('t Hooft, Nucl. Phys.
B61 (1973) 455): each one-loop beta is minus the ``1/eps`` residue of its
bare parameter, so ``beta_functions`` reads them off in closed form.
The operational definition, scale independence of the finite parts
measured by central differences in ``ln mu``, is kept in the test suite
as the oracle for those closed forms.  The one-loop system solves
exactly (``1/lambda`` is linear in ``ln mu``, ``m^2 ~ lambda^(1/3)``), so
``rg_flow`` samples that solution on a uniform ``ln mu`` grid instead of
integrating it; a Runge–Kutta integrator stays in the test suite as the
oracle for the sampled trajectory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, LandauPoleWarning
from .graphs import (
    FOUR_PI_SQ,
    KinematicPoint,
    double_scoop,
    fish,
    fish_closed_form,
    setting_sun,
    tadpole,
)
from .laurent import DEFAULT_MAX_ORDER, EpsilonSeries, ms_split, series_add

__all__ = [
    "CouplingSet",
    "PoleReport",
    "physical_mass_sq",
    "amplitude_T",
    "bare_coupling_standard",
    "energy_density",
    "scheme_offset",
    "propagator_inverse",
    "beta_functions",
    "rg_flow",
    "pole_cancellation_report",
    "superficial_divergence",
]

#: Landau-pole guard: trajectories are truncated once lambda0 exceeds this
LANDAU_GUARD = 10.0


@dataclass(frozen=True)
class CouplingSet:
    """Running parameters (lambda0, m0_sq, Lambda0) at the scale mu."""

    lambda0: float
    m0_sq: float
    Lambda0: float
    mu: float

    def __post_init__(self) -> None:
        for name in ("lambda0", "m0_sq", "Lambda0", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"CouplingSet: {name} must be finite")
        if self.lambda0 < 0.0:
            raise DomainError("CouplingSet: lambda0 must be >= 0")
        if self.mu <= 0.0:
            raise DomainError("CouplingSet: mu must be > 0")

    def kinematic_point(self) -> KinematicPoint:
        return KinematicPoint(
            m_sq=self.m0_sq, lambda0=self.lambda0, mu=self.mu, Lambda0=self.Lambda0
        )

    def at(self, *, lambda0=None, m0_sq=None, Lambda0=None, mu=None) -> "CouplingSet":
        return CouplingSet(
            self.lambda0 if lambda0 is None else lambda0,
            self.m0_sq if m0_sq is None else m0_sq,
            self.Lambda0 if Lambda0 is None else Lambda0,
            self.mu if mu is None else mu,
        )


@dataclass(frozen=True)
class PoleReport:
    """Residual pole coefficients of an assembled quantity.

    ``is_finite`` holds when every residual is below 1e-10 relative to
    the finite part (exact zero required if the finite part vanishes).
    """

    quantity_name: str
    residuals: dict[int, complex]
    finite: complex
    is_finite: bool

    @classmethod
    def from_series(cls, name: str, series: EpsilonSeries) -> "PoleReport":
        residuals = {
            g: series.coeff(-g) for g in range(1, -series.min_order + 1)
        }
        finite = series.coeff(0)
        tolerance = 1e-10 * abs(finite)
        ok = all(abs(r) <= tolerance for r in residuals.values())
        return cls(name, residuals, finite, ok)


# ------------------------------------------------------------- finite assembly


def _tadpole_finite(c: CouplingSet) -> float:
    return tadpole(c.kinematic_point()).split.finite.real


def physical_mass_sq(c: CouplingSet) -> float:
    """``m0^2 + (1/2) lambda0 * (tadpole finite part)``."""
    return c.m0_sq + 0.5 * c.lambda0 * _tadpole_finite(c)


def _fish_finite_sum(c: CouplingSet, s: float, t: float, u: float) -> complex:
    """Closed-form finite bubble summed over the three channels."""
    k = c.kinematic_point()
    # canonical argument order makes crossing symmetry bit-exact
    total = 0j
    for x in sorted((s, t, u)):
        total += fish_closed_form(x, k)
    return total


def amplitude_T(c: CouplingSet, s: float, t: float, u: float) -> complex:
    """Subtraction-path four-point amplitude
    ``lambda0 + (1/2) lambda0^2 [F(s) + F(t) + F(u)]``."""
    for name, value in (("s", s), ("t", t), ("u", u)):
        if not math.isfinite(value):
            raise DomainError(f"amplitude_T: {name} must be finite")
    if c.lambda0 == 0.0:
        return 0j
    return c.lambda0 + 0.5 * c.lambda0**2 * _fish_finite_sum(c, s, t, u)


def bare_coupling_standard(
    lambda_ren: float, mu: float, epsilon: float = 0.0,
    order: int = DEFAULT_MAX_ORDER,
) -> EpsilonSeries:
    """Standard-path bare coupling ``mu^{-eps} lambda (1 - 3 lambda/(4 pi)^2 * 1/eps)``.

    The dimensionful ``mu`` power is attached as the exact scalar
    ``mu**(-epsilon)``; with ``epsilon = 0`` (the default) the series is in
    the adimensional convention used by every assembly, and the residue of
    the ``1/eps`` term is ``-3 lambda^2/(4 pi)^2``.
    """
    prefactor = mu ** (-epsilon)
    return EpsilonSeries.from_terms(
        {
            -1: -3.0 * lambda_ren**2 / FOUR_PI_SQ * prefactor,
            0: lambda_ren * prefactor,
        },
        max_order=order,
    )


def energy_density(
    c: CouplingSet, perturbative_order: int = 1, path: str = "subtraction"
) -> float:
    """Vacuum energy density at the given perturbative order.

    subtraction path, order 1:
        ``(m^4/(4 (4 pi)^2)) (L + gamma - 1) - Lambda0``,  L = ln(m^2/4 pi mu^2)
    order 2 adds ``(lambda0/8) (m^4/(4 pi)^2) (L + gamma - 1)^2``.

    The renormalization path replaces the first constant by ``-3/2``
    (its ``L + gamma - 3/2`` combination), shifting the result by the
    scheme offset ``-m^4/(8 (4 pi)^2)``; see :func:`scheme_offset`.
    """
    if perturbative_order not in (1, 2):
        raise DomainError("energy_density: perturbative_order must be 1 or 2")
    if path not in ("subtraction", "renormalization"):
        raise DomainError(
            "energy_density: path must be 'subtraction' or 'renormalization'"
        )
    tad_fin = _tadpole_finite(c)
    value = 0.25 * c.m0_sq * tad_fin - c.Lambda0
    if path == "renormalization":
        value -= c.m0_sq**2 / (8.0 * FOUR_PI_SQ)
    if perturbative_order == 2:
        value += (c.lambda0 / 8.0) * FOUR_PI_SQ * tad_fin**2
    return value


def scheme_offset(c: CouplingSet, perturbative_order: int = 1) -> float:
    """Measured difference (renormalization path) - (subtraction path)."""
    return energy_density(c, perturbative_order, "renormalization") - energy_density(
        c, perturbative_order, "subtraction"
    )


def propagator_inverse(p_sq: float, c: CouplingSet) -> float:
    """Subtraction-path inverse propagator at Euclidean ``p_sq``.

    ``p^2 + m0^2 + (1/2) lambda0 tad_fin + (double-scoop finite)
    + (setting-sun finite)(p^2)``; the wave-function factor is unity
    (the standard path's z1^2 is pure pole, so dropping poles gives z1 = 1).
    """
    if not math.isfinite(p_sq) or p_sq <= 0.0:
        raise DomainError("propagator_inverse: p_sq must be finite and > 0")
    k = c.kinematic_point()
    value = p_sq + c.m0_sq + 0.5 * c.lambda0 * _tadpole_finite(c)
    if c.lambda0 > 0.0:
        value += double_scoop(k).split.finite.real
        total = setting_sun(p_sq, k).split.finite
        if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
            raise DomainError("propagator_inverse: unexpected imaginary part")
        value += total.real
    return value


# ----------------------------------------------------------------- RG machinery


def beta_functions(c: CouplingSet) -> dict[str, float]:
    """One-loop RG derivatives read off the simple-pole residues.

    In minimal subtraction each one-loop beta is minus the ``1/eps``
    residue of its bare parameter:

    * ``beta_lambda = 3 lambda0^2/(4 pi)^2`` from the bare coupling,
    * ``gamma_m    = lambda0 m0^2/(4 pi)^2`` from the bare mass,
    * ``beta_Lambda = -m0^4/(2 (4 pi)^2)`` from the vacuum term.

    They equal the leading-order stationarity conditions of ``amplitude_T``,
    the tadpole mass shift and the vacuum energy under ``ln mu``; the test
    suite measures those slopes by central differences as the oracle.
    """
    if c.m0_sq < 0.0:
        raise DomainError("beta_functions: m0_sq must be >= 0")
    return {
        # minus the 1/eps residue -3 lambda^2/(4 pi)^2 of bare_coupling_standard
        "beta_lambda": 3.0 * c.lambda0**2 / FOUR_PI_SQ,
        # minus the 1/eps residue -lambda m^2/(4 pi)^2 of the bare mass m0^2
        "gamma_m": c.lambda0 * c.m0_sq / FOUR_PI_SQ,
        # minus the 1/eps residue m^4/(2 (4 pi)^2) of the vacuum term (1/4) m^2 tadpole
        "beta_Lambda": -(c.m0_sq**2) / (2.0 * FOUR_PI_SQ),
    }


def _warn_landau(start: CouplingSet, reason: str) -> None:
    # exact pole scale mu_L = mu0 exp((4 pi)^2/(3 lambda0)); a guard trip
    # near the top of the float range can put mu_L beyond it
    try:
        mu_pole = math.exp(math.log(start.mu) + FOUR_PI_SQ / (3.0 * start.lambda0))
    except OverflowError:
        mu_pole = math.inf
    warnings.warn(
        f"rg_flow: {reason}; trajectory truncated (Landau pole at "
        f"mu_L = {mu_pole!r})",
        LandauPoleWarning,
        stacklevel=3,
    )


def rg_flow(start: CouplingSet, mu_end: float, steps: int = 64) -> list[CouplingSet]:
    """Exact one-loop flow from ``start.mu`` to ``mu_end``.

    Samples the closed-form solution of the :func:`beta_functions` system
    at ``steps`` uniform steps in ``ln mu``.  With ``L = ln(mu/mu0)`` and
    ``a = 3 lambda0 L/(4 pi)^2``::

        lambda = lambda0/(1 - a)
        m^2    = m0^2 (1 - a)^(-1/3)
        Lambda = Lambda0 + m0^4/(2 lambda0) ((1 - a)^(1/3) - 1)

    the powers of ``1 - a`` taken through ``log1p``/``expm1`` so nothing
    cancels as ``lambda0 -> 0``; at ``lambda0 = 0`` the exact limit
    ``Lambda = Lambda0 - m0^4 L/(2 (4 pi)^2)`` is used.  The result holds
    ``steps + 1`` points, the start first.  If the running coupling
    exceeds :data:`LANDAU_GUARD`, the trajectory ends at the offending
    point; if a grid point lies at or past the Landau pole ``a = 1``
    before that, it ends at the last point below the pole.  Either way one
    :class:`LandauPoleWarning` names the pole scale
    ``mu_L = mu0 exp((4 pi)^2/(3 lambda0))``.
    """
    if not math.isfinite(mu_end) or mu_end <= 0.0:
        raise DomainError("rg_flow: mu_end must be finite and > 0")
    if steps < 16:
        raise DomainError("rg_flow: steps must be >= 16")
    lam0, m0_sq, Lam0 = start.lambda0, start.m0_sq, start.Lambda0
    if m0_sq < 0.0:
        raise DomainError("rg_flow: m0_sq must be >= 0")
    ln_mu0 = math.log(start.mu)
    h = (math.log(mu_end) - ln_mu0) / steps
    trajectory = [start]
    for i in range(steps):
        ln_ratio = (i + 1) * h
        mu = math.exp((ln_mu0 + i * h) + h)
        if lam0 == 0.0:
            point = CouplingSet(
                0.0, m0_sq, Lam0 - m0_sq**2 * ln_ratio / (2.0 * FOUR_PI_SQ), mu
            )
        else:
            a = 3.0 * lam0 * ln_ratio / FOUR_PI_SQ
            if a >= 1.0:
                _warn_landau(start, f"the step to mu = {mu!r} crosses the pole")
                return trajectory
            third_log = math.log1p(-a) / 3.0
            point = CouplingSet(
                lam0 / (1.0 - a),
                m0_sq * math.exp(-third_log),
                Lam0 + m0_sq**2 / (2.0 * lam0) * math.expm1(third_log),
                mu,
            )
        trajectory.append(point)
        if point.lambda0 > LANDAU_GUARD:
            _warn_landau(
                start, f"lambda0 exceeded {LANDAU_GUARD} at mu = {point.mu}"
            )
            return trajectory
    return trajectory


# -------------------------------------------------------- pole cancellation


def _standard_amplitude_series(c: CouplingSet, s: float, t: float, u: float,
                               order: int = DEFAULT_MAX_ORDER) -> EpsilonSeries:
    """Standard-path amplitude with the bare-coupling series inserted.

    Order-lambda^2 truncation: the one-loop terms multiply the
    renormalized ``lambda**2`` directly.  Their poles are
    ``(1/2) lambda^2 * 3`` times the pole part of the bubble's own series,
    taken at ``P^2 = 0`` (the residue does not depend on the momentum);
    the finite part sums the closed-form bubble over ``s, t, u``.  The
    bare coupling's pole must cancel them.
    """
    lam = c.lambda0
    series = bare_coupling_standard(lam, c.mu, 0.0, order)
    if lam == 0.0:
        return series
    bubble_poles = fish(0.0, c.kinematic_point(), order=1).split.singular
    terms = {-g: 0.5 * lam**2 * 3.0 * r for g, r in bubble_poles.items()}
    terms[0] = 0.5 * lam**2 * _fish_finite_sum(c, s, t, u)
    return series_add(series, EpsilonSeries.from_terms(terms, max_order=order))


def _standard_propagator_series(c: CouplingSet, p_sq: float,
                                order: int = DEFAULT_MAX_ORDER) -> EpsilonSeries:
    """Standard-path inverse propagator assembled to order lambda^2.

    Assembles the two-loop pole bookkeeping term by term: the bare-mass
    series ``m0^2 = m^2 (1 - X/eps + X^2 (2/eps^2 + 5/12 /eps))``, the
    one-loop tadpole series, the literal two-loop mass poles
    ``-X^2 m^2 (2/eps^2 + 1/2 /eps)``, the setting-sun series, the
    double-scoop finite part, and the wave-function factor
    ``z1^2 = 1 + (1/12) X^2/eps`` applied to the lambda^0 part only
    (its product with one-loop poles is order lambda^3, beyond scope).

    Only the tadpole and setting-sun poles come from graph series; the
    rest are entered by hand, not derived:

    * ``bare_mass``: its ``-X m^2/eps`` is minus the tadpole residue
      ``(1/2) lambda * 2 m^2/(4 pi)^2`` (the residue ``gamma_m`` is read
      off); its two-loop ``X^2 m^2 (2/eps^2 + 5/12 /eps)`` is a literal.
    * ``literal_two_loop``: stands in for the two-loop mass poles the
      assembly does not build from graphs (the double scoop enters through
      its finite part only).  Its ``-2/eps^2`` cancels the bare mass's
      double pole and its ``-1/2 /eps`` leaves ``-(1/12) X^2 m^2/eps``
      against the bare mass's ``5/12``.
    * the ``z1^2`` term ``(1/12) X^2 (p^2 + m^2)/eps``: its ``p^2`` part
      cancels the setting sun's pole ``-(1/12) X^2 p^2``, and its ``m^2``
      part the ``-(1/12) X^2 m^2/eps`` left above.
    """
    lam, m_sq = c.lambda0, c.m0_sq
    if lam == 0.0:
        return EpsilonSeries.from_terms(
            {-2: 0.0, -1: 0.0, 0: p_sq + m_sq}, max_order=order
        )
    k = c.kinematic_point()
    x = lam / FOUR_PI_SQ
    two_loop_mass = x * x * m_sq
    bare_mass = EpsilonSeries.from_terms(
        {
            -2: 2.0 * two_loop_mass,
            -1: -x * m_sq + (5.0 / 12.0) * two_loop_mass,
            0: m_sq,
        },
        max_order=order,
    )
    tad_term = tadpole(k, order).series * (0.5 * lam)
    literal_two_loop = EpsilonSeries.from_terms(
        {-2: -2.0 * two_loop_mass, -1: -0.5 * two_loop_mass}, max_order=order
    )
    wave_function = EpsilonSeries.from_terms(
        {-1: (1.0 / 12.0) * x * x * (p_sq + m_sq), 0: p_sq}, max_order=order
    )
    ss = setting_sun(p_sq, k, order).series
    ds_finite = double_scoop(k).split.finite
    total = series_add(bare_mass, tad_term)
    total = series_add(total, literal_two_loop)
    total = series_add(total, wave_function)
    total = series_add(total, ss)
    return total + ds_finite


def pole_cancellation_report(
    c: CouplingSet,
    s: float | None = None,
    p_sq: float | None = None,
) -> list[PoleReport]:
    """Assemble the standard-path T and G^-1 series and report residual poles.

    Defaults probe the symmetric spacelike amplitude point
    ``s = t = u = -m0^2`` and the propagator at ``p_sq = m0^2``.
    A failing report is data, not an error.
    """
    if c.lambda0 > 0.0 and c.m0_sq <= 0.0:
        raise DomainError(
            "pole_cancellation_report: m0_sq > 0 required at nonzero coupling"
        )
    s_ref = -c.m0_sq if s is None else s
    p_ref = c.m0_sq if p_sq is None else p_sq
    t_series = _standard_amplitude_series(c, s_ref, s_ref, s_ref)
    g_series = _standard_propagator_series(c, p_ref)
    return [
        PoleReport.from_series("T_standard", t_series),
        PoleReport.from_series("G_inv_standard", g_series),
    ]


def superficial_divergence(external_legs: int) -> int:
    """Superficial divergence degree ``D = 4 - N`` of an N-point graph."""
    if external_legs < 0:
        raise DomainError("superficial_divergence: external_legs must be >= 0")
    return 4 - external_legs
