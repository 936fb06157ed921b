"""Tests for the subtraction-recipe assembly and RG machinery.

Frozen expected values (recorded before implementation, from independent
derivations):

* beta_lambda   = 3 lambda0^2/(4 pi)^2      (textbook 3 lambda^2/16 pi^2)
* gamma_m       = lambda0 m0^2/(4 pi)^2
* beta_Lambda   = -m0^4/(2 (4 pi)^2)
* scheme offset = -m0^4/(8 (4 pi)^2), identical at both perturbative orders
* amplitude mu-slope at fixed couplings = -3 lambda0^2/(4 pi)^2
  (the positive value is the beta function; see the ledger)
* d(G^-1)/dp^2 at p^2 = 4 pi mu^2 = 1 - (1/12) X^2 (1 + K) with
  X = lambda0/(4 pi)^2 and K = euler_gamma - 13/4 the frozen
  setting-sun regression constant
"""

import dataclasses
import math
import random
import re
import warnings

import pytest

from polekit import (
    CouplingSet,
    DomainError,
    FOUR_PI_SQ,
    KinematicPoint,
    LandauPoleWarning,
    amplitude_T,
    bare_coupling_standard,
    beta_functions,
    double_scoop,
    energy_density,
    physical_mass_sq,
    pole_cancellation_report,
    propagator_inverse,
    rg_flow,
    scheme_offset,
    superficial_divergence,
    tadpole,
)
from polekit import renorm
from polekit.laurent import EpsilonSeries, ms_split, series_add

import oracles

EULER_GAMMA = 0.5772156649015329
SETTING_SUN_CONST = -2.6727843350984677

C_GENERIC = CouplingSet(lambda0=0.1, m0_sq=1.7, Lambda0=0.2, mu=1.3)
C_STRONG = CouplingSet(lambda0=0.5, m0_sq=1.7, Lambda0=0.2, mu=1.3)
C_FREE = CouplingSet(lambda0=0.0, m0_sq=1.7, Lambda0=0.2, mu=1.3)


def tad_finite(c: CouplingSet) -> float:
    k = KinematicPoint(m_sq=c.m0_sq, lambda0=c.lambda0, mu=c.mu)
    return tadpole(k).split.finite.real


def lnmu_slope(fn, c: CouplingSet, h: float = 1e-4) -> float:
    """Central difference d(fn)/d ln mu at fixed couplings: the operational
    definition of the RG functions (scale independence of finite parts)."""
    up = fn(c.at(mu=c.mu * math.exp(h)))
    down = fn(c.at(mu=c.mu * math.exp(-h)))
    return (up - down) / (2.0 * h)


# ----------------------------------------------------------------- CouplingSet


class TestCouplingSet:
    def test_validation(self):
        with pytest.raises(DomainError):
            CouplingSet(lambda0=-0.1, m0_sq=1.0, Lambda0=0.0, mu=1.0)
        with pytest.raises(DomainError):
            CouplingSet(lambda0=0.1, m0_sq=1.0, Lambda0=0.0, mu=0.0)

    @pytest.mark.parametrize("field", ["lambda0", "m0_sq", "Lambda0", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        fields = {"lambda0": 0.1, "m0_sq": 1.0, "Lambda0": 0.0, "mu": 1.0}
        fields[field] = value
        with pytest.raises(DomainError):
            CouplingSet(**fields)

    def test_at_returns_modified_copy(self):
        c2 = C_GENERIC.at(mu=2.6)
        assert c2.mu == 2.6
        assert (c2.lambda0, c2.m0_sq, c2.Lambda0) == (0.1, 1.7, 0.2)
        assert C_GENERIC.mu == 1.3


# ------------------------------------------------------------ physical_mass_sq


class TestPhysicalMass:
    def test_free_theory(self):
        assert physical_mass_sq(C_FREE) == C_FREE.m0_sq

    def test_unit_point(self):
        # m0^2 = 4 pi mu^2 makes the scale log vanish; the tadpole finite
        # part is then (m0^2/(4 pi)^2)(euler_gamma - 1)
        m0_sq = 4.0 * math.pi
        c = CouplingSet(lambda0=0.1, m0_sq=m0_sq, Lambda0=0.0, mu=1.0)
        expected = m0_sq * (1.0 + 0.05 * (EULER_GAMMA - 1.0) / FOUR_PI_SQ)
        assert math.isclose(physical_mass_sq(c), expected, rel_tol=1e-12)

    def test_formula_shape(self):
        expected = C_GENERIC.m0_sq + 0.5 * C_GENERIC.lambda0 * tad_finite(C_GENERIC)
        assert physical_mass_sq(C_GENERIC) == expected


# ----------------------------------------------------------------- amplitude_T


class TestAmplitude:
    def test_free_theory(self):
        assert amplitude_T(C_FREE, -1.0, -2.0, -3.0) == 0j

    def test_crossing_symmetry_all_permutations(self):
        rng = random.Random(42)
        for _ in range(5):
            s, t, u = (rng.uniform(-8.0, -0.5) for _ in range(3))
            base = amplitude_T(C_GENERIC, s, t, u)
            for perm in ((s, u, t), (t, s, u), (t, u, s), (u, s, t), (u, t, s)):
                assert amplitude_T(C_GENERIC, *perm) == base

    def test_mu_slope_is_minus_three_lambda_sq(self):
        # d T / d ln mu at fixed couplings; the beta function is its negative
        h = 1e-4
        s = t = u = -C_GENERIC.m0_sq

        def t_of(c):
            return amplitude_T(c, s, t, u).real

        up = t_of(C_GENERIC.at(mu=C_GENERIC.mu * math.exp(h)))
        down = t_of(C_GENERIC.at(mu=C_GENERIC.mu * math.exp(-h)))
        slope = (up - down) / (2.0 * h)
        expected = -3.0 * C_GENERIC.lambda0**2 / FOUR_PI_SQ
        assert math.isclose(slope, expected, rel_tol=1e-6)

    @pytest.mark.parametrize("c", [C_GENERIC, C_STRONG])
    def test_mass_shift_slope_is_minus_gamma_m(self, c):
        # stationarity of the physical mass m0^2 + (1/2) lambda0 tad_fin
        slope = lnmu_slope(lambda cc: 0.5 * cc.lambda0 * tad_finite(cc), c)
        assert math.isclose(slope, -beta_functions(c)["gamma_m"], rel_tol=1e-6)

    @pytest.mark.parametrize("c", [C_GENERIC, C_STRONG])
    def test_vacuum_term_slope_is_beta_Lambda(self, c):
        # stationarity of the vacuum energy (1/4) m0^2 tad_fin - Lambda0
        slope = lnmu_slope(lambda cc: 0.25 * cc.m0_sq * tad_finite(cc), c)
        assert math.isclose(slope, beta_functions(c)["beta_Lambda"], rel_tol=1e-6)

    def test_region_dispatch_is_continuous_at_zero(self):
        delta = 1e-6 * C_GENERIC.m0_sq
        below = amplitude_T(C_GENERIC, -delta, -1.0, -1.0)
        above = amplitude_T(C_GENERIC, +delta, -1.0, -1.0)
        assert abs(below - above) < 1e-5 * abs(below)

    @pytest.mark.parametrize("c", [C_GENERIC, C_FREE])
    @pytest.mark.parametrize(
        "stu",
        [(math.nan, -1.0, -1.0), (-1.0, math.inf, -1.0), (-1.0, -1.0, -math.inf)],
    )
    def test_non_finite_mandelstam_rejected(self, c, stu):
        with pytest.raises(DomainError):
            amplitude_T(c, *stu)

    def test_window_uses_closed_form(self, monkeypatch):
        # inside [0, 4 m^2) the bubble comes from the arctan branch, not quadrature
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        m_sq = C_GENERIC.m0_sq
        value = amplitude_T(C_GENERIC, 0.0, 2.0 * m_sq, 3.9 * m_sq)
        assert value.imag == 0.0

    def test_above_threshold_is_complex(self):
        s = 5.0 * C_GENERIC.m0_sq
        value = amplitude_T(C_GENERIC, s, -1.0, -1.0)
        beta = math.sqrt(1.0 - 4.0 * C_GENERIC.m0_sq / s)
        expected_imag = 0.5 * C_GENERIC.lambda0**2 * (-math.pi * beta / FOUR_PI_SQ)
        assert math.isclose(value.imag, expected_imag, rel_tol=1e-12)


# ------------------------------------------------------- bare_coupling_standard


class TestBareCouplingStandard:
    def test_zero_coupling_is_zero_series(self):
        series = bare_coupling_standard(0.0, 1.0, 0.0)
        assert all(c == 0j for c in series.coefficients)

    def test_residue(self):
        lam = 0.3
        series = bare_coupling_standard(lam, 2.0, 0.0)
        assert math.isclose(
            series.coeff(-1).real, -3.0 * lam**2 / FOUR_PI_SQ, rel_tol=1e-15
        )
        assert series.coeff(0) == lam

    def test_cancels_standard_pole_term(self):
        lam = 0.3
        bare = bare_coupling_standard(lam, 2.0, 0.0)
        counterterm = EpsilonSeries.from_terms(
            {-1: 3.0 * lam**2 / FOUR_PI_SQ}, max_order=2
        )
        total = series_add(bare, counterterm)
        assert abs(total.coeff(-1)) < 1e-18

    def test_mu_power_prefactor(self):
        flat = bare_coupling_standard(0.3, 2.0, 0.0)
        scaled = bare_coupling_standard(0.3, 2.0, 0.5)
        factor = 2.0 ** (-0.5)
        for power in (-1, 0):
            assert math.isclose(
                scaled.coeff(power).real, factor * flat.coeff(power).real,
                rel_tol=1e-15,
            )


# -------------------------------------------------------------- energy_density


class TestEnergyDensity:
    def test_definitional_cancellation(self):
        c = C_GENERIC.at(Lambda0=0.25 * C_GENERIC.m0_sq * tad_finite(C_GENERIC))
        assert energy_density(c, 1) == 0.0

    def test_scheme_offset_value(self):
        expected = -C_GENERIC.m0_sq**2 / (8.0 * FOUR_PI_SQ)
        assert math.isclose(scheme_offset(C_GENERIC, 1), expected, rel_tol=1e-12)
        assert math.isclose(scheme_offset(C_GENERIC, 2), expected, rel_tol=1e-12)

    def test_order_two_reduces_at_zero_coupling(self):
        assert energy_density(C_FREE, 2) == energy_density(C_FREE, 1)

    def test_order_two_adds_square_term(self):
        tf = tad_finite(C_GENERIC)
        gap = energy_density(C_GENERIC, 2) - energy_density(C_GENERIC, 1)
        expected = (C_GENERIC.lambda0 / 8.0) * FOUR_PI_SQ * tf**2
        assert math.isclose(gap, expected, rel_tol=1e-12)

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            energy_density(C_GENERIC, 3)
        with pytest.raises(DomainError):
            energy_density(C_GENERIC, 1, "minimal")


# ---------------------------------------------------------- propagator_inverse


class TestPropagatorInverse:
    def test_free_theory(self):
        assert propagator_inverse(2.5, C_FREE) == 2.5 + C_FREE.m0_sq

    def test_requires_positive_momentum(self):
        with pytest.raises(DomainError):
            propagator_inverse(0.0, C_GENERIC)

    @pytest.mark.parametrize("c", [C_GENERIC, C_FREE])
    @pytest.mark.parametrize("p_sq", [math.nan, math.inf])
    def test_non_finite_momentum_rejected(self, c, p_sq):
        with pytest.raises(DomainError):
            propagator_inverse(p_sq, c)

    def test_momentum_dependent_part_is_setting_sun_log(self):
        c = C_STRONG
        x = c.lambda0 / FOUR_PI_SQ
        k = KinematicPoint(m_sq=c.m0_sq, lambda0=c.lambda0, mu=c.mu)
        base = (
            c.m0_sq
            + 0.5 * c.lambda0 * tad_finite(c)
            + double_scoop(k).split.finite.real
        )
        for p_sq in (0.7, 2.0, 9.0):
            log = math.log(p_sq / (4.0 * math.pi * c.mu**2))
            expected = (
                p_sq + base - (x**2 / 12.0) * p_sq * (log + SETTING_SUN_CONST)
            )
            assert math.isclose(
                propagator_inverse(p_sq, c), expected, rel_tol=1e-10
            )

    def test_slope_at_reference_scale(self):
        c = C_STRONG
        x = c.lambda0 / FOUR_PI_SQ
        p_ref = 4.0 * math.pi * c.mu**2
        h = 1e-6 * p_ref
        slope = (
            propagator_inverse(p_ref + h, c) - propagator_inverse(p_ref - h, c)
        ) / (2.0 * h)
        expected = 1.0 - (x**2 / 12.0) * (1.0 + SETTING_SUN_CONST)
        assert math.isclose(slope, expected, rel_tol=1e-6)


# -------------------------------------------------------------- beta_functions


class TestBetaFunctions:
    def test_beta_lambda(self):
        for c in (C_GENERIC, C_STRONG):
            expected = 3.0 * c.lambda0**2 / FOUR_PI_SQ
            assert math.isclose(
                beta_functions(c)["beta_lambda"], expected, rel_tol=1e-6
            )

    def test_gamma_m(self):
        for c in (C_GENERIC, C_STRONG):
            expected = c.lambda0 * c.m0_sq / FOUR_PI_SQ
            assert math.isclose(beta_functions(c)["gamma_m"], expected, rel_tol=1e-6)

    def test_beta_Lambda(self):
        expected = -C_GENERIC.m0_sq**2 / (2.0 * FOUR_PI_SQ)
        assert math.isclose(
            beta_functions(C_GENERIC)["beta_Lambda"], expected, rel_tol=1e-6
        )

    def test_free_theory(self):
        b = beta_functions(C_FREE)
        assert b["beta_lambda"] == 0.0
        assert b["gamma_m"] == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            beta_functions(C_GENERIC.at(m0_sq=-1.0))


# --------------------------------------------------------------------- rg_flow


class TestRgFlow:
    def test_validation(self):
        with pytest.raises(DomainError):
            rg_flow(C_GENERIC, -1.0, 32)
        with pytest.raises(DomainError):
            rg_flow(C_GENERIC, 10.0, 8)
        for mu_end in (math.nan, math.inf):
            with pytest.raises(DomainError):
                rg_flow(C_GENERIC, mu_end, 32)
        with pytest.raises(DomainError):
            rg_flow(C_GENERIC.at(m0_sq=-1.0), 10.0, 32)

    def test_trajectory_shape(self):
        traj = rg_flow(C_GENERIC, 10.0, 32)
        assert len(traj) == 33
        assert traj[0] == C_GENERIC
        assert math.isclose(traj[-1].mu, 10.0, rel_tol=1e-12)

    def test_closed_form_coupling(self):
        traj = rg_flow(C_GENERIC, 10.0, 32)
        lam_end = traj[-1].lambda0
        expected_inverse = 1.0 / C_GENERIC.lambda0 - (3.0 / FOUR_PI_SQ) * math.log(
            10.0 / C_GENERIC.mu
        )
        assert abs(1.0 / lam_end - expected_inverse) / expected_inverse < 1e-7

    def test_closed_form_trajectory(self):
        # one-loop solution: 1/lambda linear in ln mu, m^2 ~ lambda^(1/3),
        # Lambda = Lambda0 + m0^4/(2 lambda0^(2/3)) (lambda^(-1/3) - lambda0^(-1/3))
        start = C_STRONG.at(lambda0=2.0)
        lam0, m0_sq, Lam0 = start.lambda0, start.m0_sq, start.Lambda0
        traj = rg_flow(start, start.mu * math.exp(12.0), 128)
        assert traj[-1].lambda0 > 1.8 * lam0
        scale = m0_sq**2 / (2.0 * lam0 ** (2.0 / 3.0))
        for p in traj:
            lam = 1.0 / (1.0 / lam0 - (3.0 / FOUR_PI_SQ) * math.log(p.mu / start.mu))
            m_sq = m0_sq * (lam / lam0) ** (1.0 / 3.0)
            Lam = Lam0 + scale * (lam ** (-1.0 / 3.0) - lam0 ** (-1.0 / 3.0))
            assert math.isclose(p.lambda0, lam, rel_tol=1e-9)
            assert math.isclose(p.m0_sq, m_sq, rel_tol=1e-9)
            assert abs(p.Lambda0 - Lam) <= 1e-9 * max(abs(Lam), abs(Lam0))

    def test_zero_coupling_massless_constant_trajectory(self):
        start = CouplingSet(lambda0=0.0, m0_sq=0.0, Lambda0=0.4, mu=1.0)
        traj = rg_flow(start, 5.0, 16)
        assert all(
            (p.lambda0, p.m0_sq, p.Lambda0) == (0.0, 0.0, 0.4) for p in traj
        )

    def test_zero_coupling_massive_keeps_lambda_and_mass(self):
        # the vacuum term still runs in the free massive theory
        traj = rg_flow(C_FREE, 5.0, 16)
        assert all((p.lambda0, p.m0_sq) == (0.0, C_FREE.m0_sq) for p in traj)
        assert traj[-1].Lambda0 != C_FREE.Lambda0

    def test_amplitude_drift_is_cubic(self):
        drifts = {}
        s = t = u = -1.0
        for lam in (0.05, 0.1, 0.2):
            start = CouplingSet(lambda0=lam, m0_sq=1.0, Lambda0=0.0, mu=1.0)
            traj = rg_flow(start, 2.0, 32)
            drifts[lam] = abs(
                amplitude_T(traj[-1], s, t, u) - amplitude_T(traj[0], s, t, u)
            )
        assert abs(drifts[0.1] / drifts[0.05] - 8.0) < 1.6
        assert abs(drifts[0.2] / drifts[0.1] - 8.0) < 1.6

    def test_mass_drift_is_quadratic(self):
        drifts = {}
        for lam in (0.05, 0.1, 0.2):
            start = CouplingSet(lambda0=lam, m0_sq=1.0, Lambda0=0.0, mu=1.0)
            traj = rg_flow(start, 2.0, 32)
            drifts[lam] = abs(
                physical_mass_sq(traj[-1]) - physical_mass_sq(traj[0])
            )
        assert abs(drifts[0.1] / drifts[0.05] - 4.0) < 0.8
        assert abs(drifts[0.2] / drifts[0.1] - 4.0) < 0.8

    def test_landau_guard_truncates_with_warning(self):
        start = CouplingSet(lambda0=9.0, m0_sq=1.0, Lambda0=0.0, mu=1.0)
        with pytest.warns(LandauPoleWarning):
            traj = rg_flow(start, math.exp(2.0), 32)
        assert len(traj) < 33
        assert traj[-1].lambda0 > 10.0

    @pytest.mark.parametrize(
        "start, mu_end",
        [
            (C_GENERIC.at(lambda0=0.8), 1.3 * math.exp(12.0)),
            (C_GENERIC.at(lambda0=0.8), 1.3 * math.exp(-30.0)),
            (CouplingSet(lambda0=2.0, m0_sq=1.0, Lambda0=0.0, mu=1.0), math.exp(18.0)),
        ],
        ids=["upward", "downward", "strong"],
    )
    def test_matches_rk4_oracle(self, start, mu_end):
        traj = rg_flow(start, mu_end, 512)
        rows = oracles.rk4_flow(
            start.lambda0, start.m0_sq, start.Lambda0, start.mu, mu_end, 512
        )
        assert len(traj) == len(rows) == 513
        for p, (mu, lam, m_sq, Lam) in zip(traj, rows):
            assert math.isclose(p.mu, mu, rel_tol=1e-12)
            assert math.isclose(p.lambda0, lam, rel_tol=1e-9)
            assert math.isclose(p.m0_sq, m_sq, rel_tol=1e-9)
            assert math.isclose(p.Lambda0, Lam, rel_tol=1e-9)

    def test_weak_coupling_continuous_with_free_limit(self):
        # lambda^(-1/3) - lambda0^(-1/3) would cancel catastrophically here
        weak = rg_flow(C_GENERIC.at(lambda0=1e-12), 1.3 * math.exp(12.0), 32)
        free = rg_flow(C_GENERIC.at(lambda0=0.0), 1.3 * math.exp(12.0), 32)
        for p, q in zip(weak, free):
            assert p.mu == q.mu
            assert math.isclose(p.lambda0, 1e-12, rel_tol=1e-12)
            assert math.isclose(p.m0_sq, q.m0_sq, rel_tol=1e-12)
            assert math.isclose(p.Lambda0, q.Lambda0, rel_tol=1e-12)

    def test_step_across_landau_pole_truncates(self):
        start = CouplingSet(lambda0=9.9, m0_sq=1.0, Lambda0=0.0, mu=1.0)
        mu_pole = math.exp(FOUR_PI_SQ / (3.0 * 9.9))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = rg_flow(start, 1e300, 16)
        assert [w.category for w in caught] == [LandauPoleWarning]
        assert len(traj) < 17 and traj[-1].mu < mu_pole
        assert all(
            math.isfinite(v)
            for p in traj
            for v in (p.lambda0, p.m0_sq, p.Lambda0, p.mu)
        )
        reported = re.search(r"mu_L = ([^)]+)\)", str(caught[0].message))
        assert math.isclose(float(reported.group(1)), mu_pole, rel_tol=1e-12)


# ----------------------------------------------------- pole_cancellation_report


class TestPoleCancellation:
    def test_report_names(self):
        reports = pole_cancellation_report(C_GENERIC)
        assert [r.quantity_name for r in reports] == ["T_standard", "G_inv_standard"]

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
    def test_all_reports_finite(self, lam):
        c = C_GENERIC.at(lambda0=lam)
        for report in pole_cancellation_report(c):
            assert report.is_finite

    def test_amplitude_residual_small(self):
        report = pole_cancellation_report(C_STRONG)[0]
        assert abs(report.residuals[1]) < 1e-10 * abs(report.finite)

    def test_propagator_residuals_small(self):
        report = pole_cancellation_report(C_STRONG)[1]
        assert set(report.residuals) == {1, 2}
        for residual in report.residuals.values():
            assert abs(residual) < 1e-10 * abs(report.finite)

    def test_zero_coupling_residuals_exactly_zero(self):
        for report in pole_cancellation_report(C_FREE):
            assert all(residual == 0 for residual in report.residuals.values())
            assert report.is_finite

    def test_broken_bubble_residue_is_caught(self, monkeypatch):
        assert pole_cancellation_report(C_STRONG)[0].is_finite
        fish = renorm.fish

        def broken_fish(*args, **kwargs):
            graph = fish(*args, **kwargs)
            series = graph.series * (1.0 + 1e-6)
            return dataclasses.replace(graph, series=series, split=ms_split(series))

        monkeypatch.setattr(renorm, "fish", broken_fish)
        assert not pole_cancellation_report(C_STRONG)[0].is_finite

    def test_method_equivalence_amplitude(self):
        for c in (C_GENERIC, C_STRONG):
            report = pole_cancellation_report(c)[0]
            direct = amplitude_T(c, -c.m0_sq, -c.m0_sq, -c.m0_sq)
            assert abs(report.finite - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_method_equivalence_propagator(self):
        for c in (C_GENERIC, C_STRONG):
            report = pole_cancellation_report(c)[1]
            direct = propagator_inverse(c.m0_sq, c)
            assert abs(report.finite - direct) <= 1e-12 * max(1.0, abs(direct))


# ------------------------------------------------------- superficial_divergence


class TestSuperficialDivergence:
    def test_known_values(self):
        assert superficial_divergence(2) == 2
        assert superficial_divergence(4) == 0
        assert superficial_divergence(6) == -2

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            superficial_divergence(-1)
