"""Tests for the truncated-Laurent-series engine.

Frozen expected values (recorded before implementation, from independent
oracles):

* eps^0 coefficient of Gamma(-1 - eps/2):  euler_gamma - 1 = -0.42278433509846713
* eps^0 coefficient of Gamma(-eps/2):     -euler_gamma     = -0.5772156649015329
* eps^0 coefficient of Gamma(-1 - eps):    euler_gamma - 1 = -0.42278433509846713
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polekit import (
    DomainError,
    EpsilonSeries,
    EvalAtZeroWithPoles,
    KinematicPoint,
    PoleDepthExceeded,
    SplitValue,
    fish,
    gamma_laurent,
    ms_split,
    scale_power,
    series_add,
    series_eval,
    series_mul,
    series_reciprocal,
)

EULER_GAMMA = 0.5772156649015329
GAMMA_MINUS_ONE = -0.42278433509846713


def coeffs_close(a: EpsilonSeries, b: EpsilonSeries, tol: float = 1e-12) -> bool:
    """Coefficient-wise closeness on the window both series define."""
    lo = max(a.min_order, b.min_order)
    hi = min(a.max_order, b.max_order)
    lo = min(lo, a.min_order, b.min_order)  # below either min, coeff is exactly 0
    return all(abs(a.coeff(k) - b.coeff(k)) <= tol for k in range(lo, hi + 1))


# ---------------------------------------------------------------- oracle sanity


def test_lanczos_oracle_validates_against_sqrt_pi():
    assert math.isclose(oracles.lanczos_gamma(0.5), math.sqrt(math.pi), rel_tol=1e-10)
    assert math.isclose(oracles.lanczos_gamma(1.0), 1.0, rel_tol=1e-10)
    assert math.isclose(oracles.lanczos_gamma(4.0), 6.0, rel_tol=1e-10)
    # reflection branch
    assert math.isclose(
        oracles.lanczos_gamma(-0.5), -2.0 * math.sqrt(math.pi), rel_tol=1e-10
    )


# ------------------------------------------------------------------ type basics


class TestEpsilonSeries:
    def test_invariants_enforced(self):
        with pytest.raises(PoleDepthExceeded):
            EpsilonSeries(-5, tuple([1.0] * 6))
        with pytest.raises(DomainError):
            EpsilonSeries(1, (1.0,))  # min_order > 0
        with pytest.raises(DomainError):
            EpsilonSeries(-2, (1.0,))  # max_order = -1 < 0
        with pytest.raises(DomainError):
            EpsilonSeries(0, ())

    def test_coeff_window(self):
        s = EpsilonSeries.from_terms({-1: 2.0, 0: 5.0, 1: 7.0})
        assert s.coeff(-1) == 2.0
        assert s.coeff(0) == 5.0
        assert s.coeff(-4) == 0.0  # below min_order: exactly zero
        with pytest.raises(DomainError):
            s.coeff(2)  # above truncation: unknown

    def test_is_finite(self):
        assert EpsilonSeries.constant(3.0).is_finite()
        assert EpsilonSeries.from_terms({-1: 0.0, 0: 1.0}).is_finite()
        assert not EpsilonSeries.from_terms({-1: 1.0, 0: 1.0}).is_finite()
        # relative tolerance: a 1e-13 pole against an O(10) coefficient is noise
        assert EpsilonSeries.from_terms({-1: 1e-13, 0: 10.0}).is_finite()

    def test_scalar_arithmetic_dundered(self):
        s = EpsilonSeries.from_terms({-1: 1.0, 0: 2.0}, max_order=2)
        t = 3.0 * s - s * 2.0 - s
        assert all(abs(c) == 0.0 for c in t.coefficients)
        u = s + 1.0
        assert u.coeff(0) == 3.0 and u.coeff(-1) == 1.0

    def test_record_round_trip(self):
        s = EpsilonSeries.from_terms({-2: 1.5 + 2j, 0: -3.0, 1: 0.25})
        rec = s.to_record()
        assert rec["min_order"] == -2
        assert EpsilonSeries.from_record(rec) == s

    def test_truncate(self):
        s = EpsilonSeries.from_terms({-1: 1.0, 0: 2.0, 2: 4.0})
        t = s.truncate(0)
        assert t.max_order == 0 and t.coeff(-1) == 1.0
        assert s.truncate(5) is s


class TestSplitValue:
    def test_canonical_no_zero_entries(self):
        sv = SplitValue({1: 0.0, 2: 3.0}, finite=1.0)
        assert sv.singular == {2: 3.0}

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            SplitValue({0: 1.0}, 0.0)
        with pytest.raises(PoleDepthExceeded):
            SplitValue({5: 1.0}, 0.0)

    def test_reconstruction_matches_source_nonpositive_powers(self):
        s = EpsilonSeries.from_terms({-2: 1.25, -1: -0.5, 0: 3.0, 1: 9.0})
        rebuilt = ms_split(s).reconstruct()
        for k in range(-4, 1):
            assert rebuilt.coeff(k) == s.coeff(k)

    def test_record_round_trip(self):
        sv = SplitValue({1: 2.0 + 1j, 3: -4.0}, finite=0.5j)
        assert SplitValue.from_record(sv.to_record()) == sv


# ------------------------------------------------------------------- series_add


class TestSeriesAdd:
    def test_pole_cancellation(self):
        a = EpsilonSeries.from_terms({-1: 2.0})
        b = EpsilonSeries.from_terms({-1: -2.0, 0: 3.0})
        out = series_add(a, b)
        assert out.is_finite()
        assert out.coeff(0) == 3.0
        assert out.coeff(-1) == 0.0

    def test_additive_identity(self):
        s = EpsilonSeries.from_terms({-1: 1.0, 0: 2.5, 2: -1.0})
        assert series_add(s, EpsilonSeries.zero(s.max_order)) == s

    def test_coefficientwise_sum(self):
        gamma_hat = 0.123
        a = EpsilonSeries.from_terms({-1: 1.0, 0: gamma_hat})
        b = EpsilonSeries.from_terms({-1: 1.0})
        out = series_add(a, b)
        assert out.coeff(-1) == 2.0
        assert out.coeff(0) == gamma_hat

    def test_truncates_to_smaller_max_order(self):
        a = EpsilonSeries.from_terms({0: 1.0, 3: 1.0})
        b = EpsilonSeries.from_terms({0: 1.0, 1: 1.0})
        assert series_add(a, b).max_order == 1


# ------------------------------------------------------------------- series_mul


class TestSeriesMul:
    def test_inverse_powers(self):
        pole = EpsilonSeries.from_terms({-1: 1.0}, max_order=1)
        eps = EpsilonSeries.from_terms({1: 1.0})
        out = series_mul(pole, eps)
        assert out.coeff(0) == 1.0
        assert out.coeff(-1) == 0.0

    def test_binomial_square(self):
        c = 0.7
        s = EpsilonSeries.from_terms({-1: 1.0, 0: c}, max_order=2)
        sq = series_mul(s, s)
        assert sq.coeff(-2) == 1.0
        assert sq.coeff(-1) == 2 * c
        assert abs(sq.coeff(0) - c**2) < 1e-15

    def test_pole_depth_cap(self):
        a = EpsilonSeries.from_terms({-2: 1.0}, max_order=2)
        b = EpsilonSeries.from_terms({-3: 1.0}, max_order=3)
        with pytest.raises(PoleDepthExceeded):
            series_mul(a, b)

    def test_starved_truncation_rejected(self):
        # eps^0 of the product would need coefficients beyond a's truncation
        a = EpsilonSeries.from_terms({0: 1.0}, max_order=0)
        b = EpsilonSeries.from_terms({-1: 1.0}, max_order=0)
        with pytest.raises(DomainError):
            series_mul(a, b)

    def test_tadpole_like_product_matches_direct_numeric(self):
        # Gamma(-1 - eps/2) * ratio^{eps/2} at eps = 1e-3, against the
        # independent Lanczos gamma oracle; rel. err. well under 1e-6.
        ratio = 0.37
        prod = series_mul(
            gamma_laurent(-1, -0.5, 4), scale_power(ratio, 0.5, 4)
        )
        eps = 1e-3
        direct = oracles.lanczos_gamma(-1.0 - eps / 2) * ratio ** (eps / 2)
        ours = series_eval(prod, eps)
        assert abs(ours - direct) / abs(direct) < 1e-6
        assert abs(ours.imag) < 1e-12


# ---------------------------------------------------------------- gamma_laurent


class TestGammaLaurent:
    def test_pole_residue_gamma_one_minus_half_n(self):
        # Gamma(1 - n/2) = Gamma(-1 - eps/2): pole 2/(n-4), residue 2
        g = gamma_laurent(-1, -0.5)
        assert abs(g.coeff(-1) - 2.0) == 0.0

    def test_pole_residue_gamma_two_minus_half_n(self):
        # Gamma(2 - n/2) = Gamma(-eps/2): pole 2/(4-n), i.e. residue -2
        g = gamma_laurent(0, -0.5)
        assert abs(g.coeff(-1) + 2.0) == 0.0

    def test_frozen_constant_terms(self):
        assert abs(gamma_laurent(-1, -0.5).coeff(0) - GAMMA_MINUS_ONE) < 1e-14
        assert abs(gamma_laurent(0, -0.5).coeff(0) + EULER_GAMMA) < 1e-14
        assert abs(gamma_laurent(-1, -1.0).coeff(0) - GAMMA_MINUS_ONE) < 1e-14

    @pytest.mark.parametrize("a", [0, -1, -2])
    @pytest.mark.parametrize("b", [-0.5, 1.0, 0.25, 1.5])
    def test_residue_closed_form(self, a, b):
        g = gamma_laurent(a, b)
        expected = (-1) ** abs(a) / (math.factorial(abs(a)) * b)
        assert math.isclose(g.coeff(-1).real, expected, rel_tol=1e-14)
        assert g.coeff(-1).imag == 0.0

    @pytest.mark.parametrize("a,b", [(1, 1.0), (2, -0.5), (3, 1.5)])
    def test_positive_a_is_finite_and_matches_oracle(self, a, b):
        g = gamma_laurent(a, b, order=3)
        assert g.min_order == 0 or g.coeff(-1) == 0.0
        eps = 1e-3
        direct = oracles.lanczos_gamma(a + b * eps)
        assert abs(series_eval(g, eps) - direct) / abs(direct) < 1e-9

    def test_pole_value_against_oracle_at_small_eps(self):
        g = gamma_laurent(-1, -0.5, order=2)
        for eps in (1e-3, 1e-4):
            direct = oracles.lanczos_gamma(-1.0 - eps / 2)
            rel = abs(series_eval(g, eps) - direct) / abs(direct)
            assert rel < 1e-6

    @pytest.mark.parametrize(
        "a,b,order", [(-1, -0.5, 1), (-1, -0.5, 2), (0, -0.5, 2), (1, 1.0, 2), (-2, 1.0, 2)]
    )
    def test_truncation_error_halving_ratio(self, a, b, order):
        # |series(eps) - Gamma(a + b eps)| = O(eps^{order+1}): halving eps
        # divides the error by ~2^{order+1}, within a factor of two.
        g = gamma_laurent(a, b, order=order)
        direct = lambda e: mp.gamma(a + mp.mpf(b) * e)
        eps = 1e-2
        ratio = oracles.truncation_error(g, direct, eps) / oracles.truncation_error(
            g, direct, eps / 2
        )
        expected = 2.0 ** (order + 1)
        assert expected / 2 < ratio < expected * 2

    @pytest.mark.parametrize("a", range(-4, 7))
    @pytest.mark.parametrize("b", [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])
    def test_coefficients_match_mpmath_taylor(self, a, b):
        # mpmath's Taylor coefficients of Gamma(a + b eps), or of
        # eps Gamma(a + b eps) (shifted one power down) where a <= 0 puts a
        # pole at eps = 0
        with mp.workdps(30):
            mb = mp.mpf(b)
            if a >= 1:
                taylor = mp.taylor(lambda e: mp.gamma(a + mb * e), 0, 4)
                reference = {k: complex(c) for k, c in enumerate(taylor)}
            else:
                taylor = mp.taylor(
                    lambda e: e * mp.gamma(a + mb * e), 0, 5, singular=True
                )
                reference = {k - 1: complex(c) for k, c in enumerate(taylor)}
        for order in range(5):
            g = gamma_laurent(a, b, order)
            assert g.min_order == (0 if a >= 1 else -1)
            assert g.max_order == order
            for k in range(g.min_order, order + 1):
                expected = reference[k]
                assert abs(g.coeff(k) - expected) <= 1e-14 * abs(expected), (k, order)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            gamma_laurent(-1, 0.0)
        with pytest.raises(DomainError):
            gamma_laurent(-1, 1.0, order=5)
        with pytest.raises(DomainError):
            gamma_laurent(0.5, 1.0)  # non-integer a


# ------------------------------------------------------------------ scale_power


class TestScalePower:
    def test_ratio_one_is_unity(self):
        s = scale_power(1.0, 0.5, order=3)
        assert s.coeff(0) == 1.0
        assert all(s.coeff(k) == 0.0 for k in range(1, 4))

    def test_first_order(self):
        r, b = 2.5, 0.5
        s = scale_power(r, b, order=1)
        assert s.coeff(0) == 1.0
        assert math.isclose(s.coeff(1).real, b * math.log(r), rel_tol=1e-15)

    def test_matches_direct_power_at_order_three(self):
        r, b = 0.37, 0.5
        s = scale_power(r, b, order=3)
        eps = 1e-3
        direct = r ** (b * eps)
        assert abs(series_eval(s, eps) - direct) / abs(direct) <= 1e-9

    def test_halving_ratio(self):
        r, b, order = 3.0, 0.7, 2
        s = scale_power(r, b, order=order)
        direct = lambda e: mp.power(mp.mpf(r), mp.mpf(b) * e)
        eps = 1e-2
        ratio = oracles.truncation_error(s, direct, eps) / oracles.truncation_error(
            s, direct, eps / 2
        )
        assert 2.0**order < ratio < 2.0 ** (order + 2)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(DomainError):
            scale_power(0.0, 0.5)
        with pytest.raises(DomainError):
            scale_power(-1.0, 0.5)


# --------------------------------------------------------- ms_split, series_eval


class TestMsSplit:
    def test_direct_read_off(self):
        s = EpsilonSeries.from_terms({-1: 2.0, 0: 5.0, 1: 7.0})
        sv = ms_split(s)
        assert sv.singular == {1: 2.0}
        assert sv.finite == 5.0

    def test_pure_finite(self):
        sv = ms_split(EpsilonSeries.from_terms({0: 4.0, 2: 1.0}))
        assert sv.singular == {}
        assert sv.finite == 4.0

    def test_positive_powers_discarded(self):
        s = EpsilonSeries.from_terms({-2: 1.0, 0: 2.0, 2: 99.0})
        rebuilt = ms_split(s).reconstruct(max_order=2)
        assert rebuilt.coeff(2) == 0.0
        assert rebuilt.coeff(-2) == 1.0


class TestSeriesEval:
    def test_pole_substitution(self):
        s = EpsilonSeries.from_terms({-1: 1.0}, max_order=0)
        assert series_eval(s, 0.5) == 2.0

    def test_constant(self):
        assert series_eval(EpsilonSeries.constant(3.5 + 1j), 0.123) == 3.5 + 1j

    def test_eval_at_zero_with_poles_raises(self):
        s = EpsilonSeries.from_terms({-1: 1.0}, max_order=0)
        with pytest.raises(EvalAtZeroWithPoles):
            series_eval(s, 0.0)

    def test_eval_at_zero_finite_ok(self):
        assert series_eval(EpsilonSeries.constant(2.0), 0.0) == 2.0


# ------------------------------------------------------------- series_reciprocal


class TestSeriesReciprocal:
    def test_product_with_original_is_unity(self):
        s = gamma_laurent(3, 1.5, order=3)
        inv = series_reciprocal(s)
        prod = series_mul(s, inv)
        assert abs(prod.coeff(0) - 1.0) < 1e-14
        for k in range(1, prod.max_order + 1):
            assert abs(prod.coeff(k)) < 1e-13

    def test_rejects_poles_and_zero_leading(self):
        with pytest.raises(DomainError):
            series_reciprocal(EpsilonSeries.from_terms({-1: 1.0, 0: 1.0}))
        with pytest.raises(DomainError):
            series_reciprocal(EpsilonSeries.from_terms({0: 0.0, 1: 1.0}))


# ---------------------------------------------------------- ring-law properties


finite_coeff = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def eps_series(draw, min_min_order=-2, max_max_order=3):
    lo = draw(st.integers(min_value=min_min_order, max_value=0))
    hi = draw(st.integers(min_value=0, max_value=max_max_order))
    coeffs = tuple(draw(finite_coeff) for _ in range(hi - lo + 1))
    return EpsilonSeries(lo, coeffs)


@st.composite
def mul_safe_series(draw):
    # min_order >= -1 and max_order >= 2 keep every pairwise product inside
    # the pole-depth cap with a usable window through eps^0.
    lo = draw(st.integers(min_value=-1, max_value=0))
    hi = draw(st.integers(min_value=2, max_value=3))
    coeffs = tuple(draw(finite_coeff) for _ in range(hi - lo + 1))
    return EpsilonSeries(lo, coeffs)


@settings(max_examples=200)
@given(eps_series(), eps_series())
def test_add_commutative(a, b):
    assert series_add(a, b) == series_add(b, a)


@settings(max_examples=200)
@given(eps_series(), eps_series(), eps_series())
def test_add_associative(a, b, c):
    lhs = series_add(series_add(a, b), c)
    rhs = series_add(a, series_add(b, c))
    assert coeffs_close(lhs, rhs, tol=1e-12)


@settings(max_examples=200)
@given(mul_safe_series(), mul_safe_series())
def test_mul_commutative(a, b):
    assert coeffs_close(series_mul(a, b), series_mul(b, a), tol=1e-12)


@settings(max_examples=200)
@given(mul_safe_series(), mul_safe_series(), mul_safe_series())
def test_mul_distributes_over_add(a, b, c):
    lhs = series_mul(a, series_add(b, c))
    rhs = series_add(series_mul(a, b), series_mul(a, c))
    lo = max(lhs.min_order, rhs.min_order)
    hi = min(lhs.max_order, rhs.max_order)
    assert hi >= 0
    for k in range(lo, hi + 1):
        assert abs(lhs.coeff(k) - rhs.coeff(k)) <= 1e-12


@settings(max_examples=200)
@given(eps_series())
def test_split_reconstruction_exact(s):
    rebuilt = ms_split(s).reconstruct()
    for k in range(-4, 1):
        assert rebuilt.coeff(k) == s.coeff(k)


# ------------------------------------------------------------ non-finite inputs


@pytest.mark.parametrize(
    "build",
    [
        lambda: EpsilonSeries(0, (math.nan,)),
        lambda: EpsilonSeries(-1, (1.0, complex(math.inf, 0.0))),
        lambda: EpsilonSeries(0, (complex(0.0, math.nan),)),
        lambda: EpsilonSeries.from_terms({-1: -math.inf, 0: 1.0}),
        lambda: SplitValue({1: math.nan}),
        lambda: SplitValue({}, finite=math.inf),
        lambda: gamma_laurent(1, math.nan),
        lambda: gamma_laurent(0, math.inf),
        lambda: scale_power(math.nan, 1.0),
        lambda: scale_power(math.inf, 1.0),
        lambda: scale_power(2.0, math.nan),
        lambda: fish(1.0, KinematicPoint(m_sq=1.0), quad_tol=math.nan),
        lambda: fish(0.0, KinematicPoint(m_sq=1.0), quad_tol=math.inf),
    ],
    ids=[
        "series-nan", "series-inf", "series-imag-nan", "from_terms-inf",
        "split-pole-nan", "split-finite-inf", "gamma-b-nan", "gamma-b-inf",
        "scale-ratio-nan", "scale-ratio-inf", "scale-b-nan",
        "fish-quad_tol-nan", "fish-quad_tol-inf",
    ],
)
def test_non_finite_input_raises_domain_error(build):
    with pytest.raises(DomainError):
        build()
