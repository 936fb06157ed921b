"""Tests for the primitive divergent graphs.

Frozen expected values (recorded before implementation, from independent
oracles):

* tadpole finite at m^2 = 4 pi mu^2:   (m^2/(4 pi)^2) * (euler_gamma - 1)
* fish finite at P^2 = 0:              +(1/(4 pi)^2) * (ln(m^2/4 pi mu^2) + euler_gamma)
  (the + sign is pinned by the closed form and by the positive coupling
  beta function; see the ledger)
* closed-form additive constant:       -2 (regression value, quadrature-matched)
* setting-sun finite constant:         euler_gamma - 13/4 = -2.6727843350984677
* double-scoop 1/eps^2 coefficient:    -lambda0^2 m^2 / (4 pi)^4
"""

import math

import mpmath as mp
import pytest

from polekit import (
    BranchCutCrossing,
    DomainError,
    ms_split,
    series_eval,
    series_mul,
)
from polekit import graphs
from polekit.graphs import (
    FOUR_PI_SQ,
    GraphResult,
    KinematicPoint,
    double_scoop,
    fish,
    fish_closed_form,
    setting_sun,
    tadpole,
)

import oracles

EULER_GAMMA = 0.5772156649015329
SETTING_SUN_CONST = -2.6727843350984677

# m^2 = 4 pi mu^2 makes every scale log vanish
K_UNIT = KinematicPoint(m_sq=1.0, lambda0=0.5, mu=1.0 / math.sqrt(4.0 * math.pi))
K_GENERIC = KinematicPoint(m_sq=1.7, lambda0=0.8, mu=1.3, Lambda0=0.2)


def split_is_exact(result: GraphResult) -> bool:
    return result.split == ms_split(result.series)


# -------------------------------------------------------------- KinematicPoint


class TestKinematicPoint:
    def test_validation(self):
        with pytest.raises(DomainError):
            KinematicPoint(m_sq=-1.0)
        with pytest.raises(DomainError):
            KinematicPoint(m_sq=1.0, mu=0.0)
        with pytest.raises(DomainError):
            KinematicPoint(m_sq=1.0, lambda0=-0.1)

    @pytest.mark.parametrize("field", ["m_sq", "lambda0", "mu", "Lambda0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        # rejected at construction, so no graph ever sees the value
        fields = {"m_sq": 1.0, field: value}
        with pytest.raises(DomainError):
            KinematicPoint(**fields)

    def test_massless_allowed_for_tadpole_only(self):
        k = KinematicPoint(m_sq=0.0)
        assert tadpole(k).series.coeff(0) == 0.0
        with pytest.raises(DomainError):
            fish(0.0, k)
        with pytest.raises(DomainError):
            setting_sun(1.0, k)


# --------------------------------------------------------------------- tadpole


class TestTadpole:
    def test_singular_part(self):
        for k in (K_UNIT, K_GENERIC):
            sv = tadpole(k).split
            assert set(sv.singular) == {1}
            assert math.isclose(
                sv.singular[1].real, 2.0 * k.m_sq / FOUR_PI_SQ, rel_tol=1e-14
            )

    def test_massless_vanishes(self):
        res = tadpole(KinematicPoint(m_sq=0.0))
        assert all(c == 0 for c in res.series.coefficients)
        assert res.split.singular == {}

    def test_finite_part_at_unit_ratio(self):
        sv = tadpole(K_UNIT).split
        expected = (K_UNIT.m_sq / FOUR_PI_SQ) * (EULER_GAMMA - 1.0)
        assert abs(sv.finite - expected) < 1e-15

    def test_series_eval_matches_direct_numeric(self):
        eps = 1e-3
        for k in (K_UNIT, K_GENERIC):
            res = tadpole(k, order=2)
            ratio = k.m_sq / (4.0 * math.pi * k.mu**2)
            direct = (
                k.m_sq
                / FOUR_PI_SQ
                * ratio ** (eps / 2.0)
                * oracles.lanczos_gamma(-1.0 - eps / 2.0)
            )
            ours = series_eval(res.series, eps)
            assert abs(ours - direct) / abs(direct) < 1e-6

    def test_split_consistent(self):
        assert split_is_exact(tadpole(K_GENERIC, order=3))


# ------------------------------------------------------------------------ fish


class TestFish:
    def test_singular_independent_of_momentum(self):
        m_sq = K_GENERIC.m_sq
        residues = [
            fish(p, K_GENERIC).split.singular[1]
            for p in (0.0, m_sq, 10.0 * m_sq)
        ]
        expected = 2.0 / FOUR_PI_SQ
        for r in residues:
            assert abs(r - expected) / expected < 1e-10

    def test_finite_part_at_zero_momentum(self):
        # +(1/(4 pi)^2)(ln(m^2/4 pi mu^2) + euler_gamma); the log term
        # vanishes at m^2 = 4 pi mu^2
        sv = fish(0.0, K_UNIT, quad_tol=1e-10).split
        assert abs(sv.finite - EULER_GAMMA / FOUR_PI_SQ) < 1e-12
        sv2 = fish(0.0, K_GENERIC).split
        log_term = math.log(K_GENERIC.m_sq / (4.0 * math.pi * K_GENERIC.mu**2))
        expected = (log_term + EULER_GAMMA) / FOUR_PI_SQ
        assert abs(sv2.finite - expected) < 1e-12

    def test_branch_cut_guard(self):
        with pytest.raises(BranchCutCrossing):
            fish(-4.0 * K_GENERIC.m_sq, K_GENERIC)
        with pytest.raises(BranchCutCrossing):
            fish(-5.0 * K_GENERIC.m_sq, K_GENERIC)

    def test_quadrature_agrees_with_closed_form_on_overlap(self):
        m_sq = K_GENERIC.m_sq
        spacelike = (0.1 * m_sq, m_sq, 10.0 * m_sq)
        # P^2 = -s for s in the window [0, 4 m^2) below threshold
        window = tuple(-f * m_sq for f in (0.0, 0.1, 1.0, 2.0, 3.0, 3.9, 3.999))
        for p_sq in spacelike + window:
            quad_fin = fish(p_sq, K_GENERIC).split.finite
            closed = fish_closed_form(-p_sq, K_GENERIC)
            assert closed.imag == 0.0
            assert abs(quad_fin - closed) / abs(closed) < 1e-8

    @pytest.mark.parametrize("k", [K_UNIT, K_GENERIC])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_zero_momentum_log_moments_match_quadrature(self, k, j):
        # at P^2 = 0 the Feynman-parameter integrand is a constant; the
        # exact moment must equal its adaptive quadrature
        from scipy.integrate import quad

        denom = 4.0 * math.pi * k.mu**2
        value, _ = quad(
            lambda a: math.log((k.m_sq + a * (1.0 - a) * 0.0) / denom) ** j,
            0.0,
            1.0,
            epsabs=1e-10,
            epsrel=1e-10,
            limit=200,
        )
        assert graphs._log_moment(j, 0.0, k, 1e-10) == pytest.approx(
            value, rel=1e-15, abs=0.0
        )

    def test_zero_momentum_never_integrates(self, monkeypatch):
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called at P^2 = 0")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        fish(0.0, K_GENERIC, order=3)
        double_scoop(K_GENERIC)
        with pytest.raises(AssertionError):
            fish(1.0, K_GENERIC)

    @pytest.mark.parametrize("p_sq", [math.nan, math.inf, -math.inf])
    def test_non_finite_momentum_rejected(self, p_sq):
        with pytest.raises(DomainError):
            fish(p_sq, K_GENERIC)

    def test_position_space_tag(self):
        res = fish(0.0, K_GENERIC)
        assert res.position_space_tag == "delta"
        assert res.position_space_pole == res.series.coeff(-1)

    def test_split_consistent(self):
        assert split_is_exact(fish(1.3, K_GENERIC))


class TestFishClosedForm:
    def test_spacelike_is_real(self):
        v = fish_closed_form(-2.5, K_GENERIC)
        assert v.imag == 0.0

    def test_agrees_with_quadrature_at_minus_m_sq(self):
        v = fish_closed_form(-K_GENERIC.m_sq, K_GENERIC)
        quad_fin = fish(K_GENERIC.m_sq, K_GENERIC).split.finite
        assert abs(v - quad_fin) < 1e-8 * abs(v)

    def test_asymptotic_leading_log_is_plus(self):
        # F(s) ~ +(1/(4 pi)^2) ln(|s|/mu^2) + const for s -> -infinity
        s1, s2 = -1e6, -1e8
        v1 = fish_closed_form(s1, K_GENERIC).real
        v2 = fish_closed_form(s2, K_GENERIC).real
        slope = (v2 - v1) / math.log(abs(s2) / abs(s1))
        assert math.isclose(slope, 1.0 / FOUR_PI_SQ, rel_tol=1e-3)

    def test_threshold_log_term_drops(self):
        m_sq = K_UNIT.m_sq
        v = fish_closed_form(4.0 * m_sq, K_UNIT)
        # at m^2 = 4 pi mu^2 only gamma - 2 survives
        assert abs(v - (EULER_GAMMA - 2.0) / FOUR_PI_SQ) < 1e-14
        assert v.imag == 0.0

    def test_frozen_regression_constant_minus_two(self):
        # strip the known pieces; what remains is the quadrature-pinned -2
        k = K_UNIT
        s = -k.m_sq
        beta = math.sqrt(1.0 - 4.0 * k.m_sq / s)
        bracket = beta * math.log((beta + 1.0) / (beta - 1.0))
        const = fish_closed_form(s, k).real * FOUR_PI_SQ - EULER_GAMMA - bracket
        assert abs(const - (-2.0)) < 1e-12

    @pytest.mark.parametrize("s", [-1e-12, -1e9, -1e12, 1e12])
    def test_tails_match_mpmath(self, s):
        # textbook beta ln((beta+1)/(beta-1)) at 60 digits, s + i0 above threshold
        with mp.workdps(60):
            m_sq, mu = mp.mpf(K_GENERIC.m_sq), mp.mpf(K_GENERIC.mu)
            beta = mp.sqrt(1 - 4 * m_sq / mp.mpf(s))
            if s < 0:
                bracket = beta * mp.log((beta + 1) / (beta - 1))
            else:
                bracket = beta * (mp.log((1 + beta) / (1 - beta)) - 1j * mp.pi)
            log_term = mp.log(m_sq / (4 * mp.pi * mu**2)) + mp.euler
            expected = complex((log_term - 2 + bracket) / (16 * mp.pi**2))
        got = fish_closed_form(s, K_GENERIC)
        assert abs(got - expected) <= 1e-14 * abs(expected)

    def test_timelike_absorptive_part(self):
        m_sq = K_GENERIC.m_sq
        s = 9.0 * m_sq
        v = fish_closed_form(s, K_GENERIC)
        beta = math.sqrt(1.0 - 4.0 * m_sq / s)
        assert v.imag < 0.0
        assert math.isclose(v.imag, -math.pi * beta / FOUR_PI_SQ, rel_tol=1e-12)

    def test_window_below_threshold(self):
        # beta = i b in [0, 4 m^2): the bracket 2 b arctan(1/b) is real,
        # equals 2 at s = 0 and vanishes toward threshold
        k = K_GENERIC
        m_sq = k.m_sq
        log_term = math.log(m_sq / (4.0 * math.pi * k.mu**2))
        at_zero = fish_closed_form(0.0, k)
        assert at_zero == complex((log_term + EULER_GAMMA) / FOUR_PI_SQ)
        mid = fish_closed_form(2.0 * m_sq, k)
        b = math.sqrt(4.0 * m_sq / (2.0 * m_sq) - 1.0)
        bracket = 2.0 * b * math.atan(1.0 / b)
        expected = (log_term + EULER_GAMMA - 2.0 + bracket) / FOUR_PI_SQ
        assert mid.imag == 0.0
        assert math.isclose(mid.real, expected, rel_tol=1e-14)
        # continuous at both ends of the window (|F'(0)| < 1/(6 m^2 (4 pi)^2)),
        # with no overflow at tiny s
        for s in (-1e-6, 1e-6, 1e-12, 1e-300, 5e-324):
            change = abs(fish_closed_form(s, k) - at_zero)
            assert change <= (abs(s) / m_sq + 1e-15) / FOUR_PI_SQ
        threshold = fish_closed_form(4.0 * m_sq, k)
        below = fish_closed_form(4.0 * m_sq * (1.0 - 1e-12), k)
        assert abs(below - threshold) < 1e-5 / FOUR_PI_SQ

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(DomainError):
            fish_closed_form(s, K_GENERIC)


# ---------------------------------------------------------------- double scoop


class TestDoubleScoop:
    def test_pole_orders(self):
        sv = double_scoop(K_GENERIC).split
        assert set(sv.singular) == {1, 2}

    def test_zero_coupling_vanishes(self):
        res = double_scoop(KinematicPoint(m_sq=1.0, lambda0=0.0))
        assert all(c == 0 for c in res.series.coefficients)

    def test_double_pole_coefficient(self):
        k = K_GENERIC
        coeff = double_scoop(k).series.coeff(-2)
        expected = -(k.lambda0**2) * k.m_sq / FOUR_PI_SQ**2
        assert abs(coeff - expected) / abs(expected) < 1e-10

    def test_equals_product_assembled_in_test(self):
        k = K_GENERIC
        expected = series_mul(fish(0.0, k).series, tadpole(k).series) * (
            -0.25 * k.lambda0**2
        )
        assert double_scoop(k).series == expected

    def test_split_consistent(self):
        assert split_is_exact(double_scoop(K_GENERIC))


# ----------------------------------------------------------------- setting sun


class TestSettingSun:
    def test_gamma_ratio_limit(self):
        # (n-4) * Gamma(n/2-1)^3 Gamma(3-n) / Gamma(3n/2-3) -> 1/2, checked
        # numerically with the independent oracle at eps = 1e-4
        eps = 1e-4
        ratio = (
            oracles.lanczos_gamma(1.0 + eps / 2.0) ** 3
            * oracles.lanczos_gamma(-1.0 - eps)
            / oracles.lanczos_gamma(3.0 + 1.5 * eps)
        )
        assert abs(eps * ratio - 0.5) < 1e-3

    def test_singular_part(self):
        k = K_GENERIC
        p_sq = 2.3
        sv = setting_sun(p_sq, k).split
        expected = -(k.lambda0 / FOUR_PI_SQ) ** 2 * p_sq / 12.0
        assert set(sv.singular) == {1}
        assert abs(sv.singular[1] - expected) / abs(expected) < 1e-12

    def test_zero_momentum_vanishes(self):
        res = setting_sun(0.0, K_GENERIC)
        assert all(c == 0 for c in res.series.coefficients)

    def test_frozen_finite_constant(self):
        k = K_GENERIC
        p_sq = 2.3
        sv = setting_sun(p_sq, k).split
        scale = -(k.lambda0 / FOUR_PI_SQ) ** 2 * p_sq / 12.0
        log_term = math.log(p_sq / (4.0 * math.pi * k.mu**2))
        const = sv.finite / scale - log_term
        assert abs(const - SETTING_SUN_CONST) < 1e-12

    def test_series_eval_matches_direct_numeric(self):
        eps = 1e-3
        k = K_GENERIC
        p_sq = 2.3
        res = setting_sun(p_sq, k, order=2)
        x = k.lambda0 / FOUR_PI_SQ
        direct = (
            -(x**2)
            * p_sq
            / 6.0
            * (p_sq / (4.0 * math.pi * k.mu**2)) ** eps
            * oracles.lanczos_gamma(1.0 + eps / 2.0) ** 3
            * oracles.lanczos_gamma(-1.0 - eps)
            / oracles.lanczos_gamma(3.0 + 1.5 * eps)
        )
        ours = series_eval(res.series, eps)
        assert abs(ours - direct) / abs(direct) < 1e-6

    def test_position_space_tag(self):
        res = setting_sun(1.0, K_GENERIC)
        assert res.position_space_tag == "laplacian-delta"
        assert res.position_space_pole == res.series.coeff(-1)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            setting_sun(-1.0, K_GENERIC)
        with pytest.raises(DomainError):
            setting_sun(1.0, K_GENERIC, order=4)

    @pytest.mark.parametrize("p_sq", [math.nan, math.inf])
    def test_non_finite_momentum_rejected(self, p_sq):
        with pytest.raises(DomainError):
            setting_sun(p_sq, K_GENERIC)

    def test_split_consistent(self):
        assert split_is_exact(setting_sun(0.7, K_GENERIC, order=3))
