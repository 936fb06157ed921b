"""Independent reference checks for every benchmark operation.

Nothing here imports polekit.  The references are closed forms written out
from the defining expressions, or the defining Gamma-function expressions
evaluated with mpmath at 40 digits; the checkers take plain numbers pulled
out of polekit's results, so the self-test can perturb them.  A checker
returns a list of error strings; an empty list means the result passed.

Tolerances sit far below the 1e-6 relative perturbation the self-test must
catch, and at least 60 times above the largest disagreement seen over
thousands of operations of every workload.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath as mp

from inputs import EULER_GAMMA, FOUR_PI_SQ, OMEGA_MAX

#: relative tolerance against closed forms and 40-digit references
RTOL = 1e-10

#: slope of 1/lambda in ln mu at one loop
ONE_LOOP = 3.0 / FOUR_PI_SQ


def _close(name: str, got, want, scale: float, rtol: float = RTOL) -> list[str]:
    if abs(got - want) <= rtol * scale:
        return []
    return [f"{name}: got {got!r}, want {want!r} (scale {scale:.3g})"]


# ------------------------------------------------------------------- rgflow


def flow_reference(lambda0: float, m0_sq: float, Lambda0: float, ln_mu: float):
    """Closed-form one-loop flow from ``mu0`` to ``mu0 * exp(ln_mu)``.

    ``1/lambda = 1/lambda0 - 3/(4 pi)^2 ln(mu/mu0)``, ``m^2 = m0^2
    (lambda/lambda0)^(1/3)`` and ``Lambda = Lambda0 + m0^4/(2 lambda0^(2/3))
    (lambda^(-1/3) - lambda0^(-1/3))``.
    """
    lam = 1.0 / (1.0 / lambda0 - ONE_LOOP * ln_mu)
    m_sq = m0_sq * (lam / lambda0) ** (1.0 / 3.0)
    shift = m0_sq**2 / (2.0 * lambda0 ** (2.0 / 3.0))
    Lam = Lambda0 + shift * (lam ** (-1.0 / 3.0) - lambda0 ** (-1.0 / 3.0))
    return lam, m_sq, Lam, abs(Lambda0) + shift * (lam ** (-1.0 / 3.0) + lambda0 ** (-1.0 / 3.0))


def check_flow(inp, data: dict) -> list[str]:
    """``data``: ``points`` as (mu, lambda0, m0_sq, Lambda0) rows, the number
    of Landau-pole warnings raised and the program's guard value."""
    errors = []
    points, guard = data["points"], data["guard"]
    mu0 = points[0][0]
    if points[0] != (1.0, inp.lambda0, inp.m0_sq, inp.Lambda0):
        errors.append(f"first point {points[0]} is not the start")
    if inp.landau:
        if data["landau_warnings"] != 1:
            errors.append(f"{data['landau_warnings']} Landau warnings, want 1")
        if not points[-1][1] > guard:
            errors.append("truncated flow ends below the Landau guard")
        if any(p[1] > guard for p in points[:-1]):
            errors.append("a point before the last exceeds the Landau guard")
        if len(points) > inp.steps + 1:
            errors.append(f"{len(points)} points for {inp.steps} steps")
    else:
        if data["landau_warnings"]:
            errors.append("Landau warning on a flow below the guard")
        if len(points) != inp.steps + 1:
            errors.append(f"{len(points)} points for {inp.steps} steps")
        errors += _close("mu_end", points[-1][0], inp.mu_end, inp.mu_end, 1e-12)
        if any(p[1] > guard for p in points):
            errors.append("a full flow exceeds the Landau guard")
    for mu, lam, m_sq, Lam in points:
        ln_mu = math.log(mu / mu0)
        lam_ref, m_ref, Lam_ref, Lam_scale = flow_reference(
            inp.lambda0, inp.m0_sq, inp.Lambda0, ln_mu
        )
        errors += _close(f"lambda at mu={mu:.6g}", lam, lam_ref, lam_ref, 1e-9)
        errors += _close(f"m^2 at mu={mu:.6g}", m_sq, m_ref, m_ref, 1e-9)
        errors += _close(f"Lambda at mu={mu:.6g}", Lam, Lam_ref, Lam_scale, 1e-9)
        if errors:
            break
    return errors


# --------------------------------------------------------------- kinematics


def bubble_finite(s: float, m_sq: float, mu: float) -> tuple[complex, float]:
    """Finite part of the one-loop bubble at Mandelstam ``s`` and its scale.

    ``(1/(4 pi)^2)[ln(m^2 e^gamma / 4 pi mu^2) - 2 + B]`` with
    ``B = beta ln((beta+1)/(beta-1))``, ``beta = sqrt(1 - 4 m^2/s)``, below
    zero; ``B = 2 b arctan(1/b)``, ``b = sqrt(4 m^2/s - 1)``, on the window
    ``0 <= s < 4 m^2``; and the ``s + i0`` continuation, with absorptive part
    ``-pi beta``, above threshold.
    """
    log_term = math.log(m_sq / (4.0 * math.pi * mu**2)) + EULER_GAMMA
    threshold = 4.0 * m_sq
    if s < 0.0:
        beta = math.sqrt(1.0 - threshold / s)
        bracket = complex(beta * math.log((beta + 1.0) / (beta - 1.0)))
    elif s == 0.0:
        bracket = 2.0 + 0j
    elif s < threshold:
        b = math.sqrt(threshold / s - 1.0)
        bracket = complex(2.0 * b * math.atan(1.0 / b))
    elif s == threshold:
        bracket = 0j
    else:
        beta = math.sqrt(1.0 - threshold / s)
        bracket = beta * complex(math.log((1.0 + beta) / (1.0 - beta)), -math.pi)
    value = (log_term - 2.0 + bracket) / FOUR_PI_SQ
    return value, (abs(log_term) + 2.0 + abs(bracket)) / FOUR_PI_SQ


def amplitude_reference(lam, m_sq, mu, s, t, u) -> tuple[complex, float]:
    """``lambda + (1/2) lambda^2 [F(s) + F(t) + F(u)]`` and its scale."""
    total, scale = 0j, 0.0
    for x in (s, t, u):
        value, size = bubble_finite(x, m_sq, mu)
        total += value
        scale += size
    return lam + 0.5 * lam**2 * total, lam + 0.5 * lam**2 * scale


def tadpole_finite(m_sq: float, mu: float) -> tuple[float, float]:
    """``(m^2/(4 pi)^2)(ln(m^2/4 pi mu^2) + gamma - 1)`` and its scale."""
    log_r = math.log(m_sq / (4.0 * math.pi * mu**2))
    pre = m_sq / FOUR_PI_SQ
    return pre * (log_r + EULER_GAMMA - 1.0), pre * (abs(log_r) + EULER_GAMMA + 1.0)


def _laurent_by_cauchy(f, pole: int, radius: float, powers: range) -> dict[int, float]:
    """Laurent coefficients of ``f`` about 0 from the Cauchy integral of
    ``eps^pole f(eps)`` on a circle inside the nearest other singularity,
    by the trapezoid rule (64 nodes, 40 digits; aliasing below 1e-19)."""
    nodes = 64
    with mp.workdps(40):
        zs = [radius * mp.expjpi(mp.mpf(2 * j) / nodes) for j in range(nodes)]
        gs = [z**pole * f(z) for z in zs]
        out = {}
        for k in powers:
            n = k + pole
            c = mp.fsum(g * z ** (-n) for g, z in zip(gs, zs)) / nodes
            out[k] = float(mp.re(c))
    return out


@lru_cache(maxsize=None)
def setting_sun_ratio() -> dict[int, float]:
    """Coefficients of ``Gamma(1 + e/2)^3 Gamma(-1 - e) / Gamma(3 + 3e/2)``
    (simple pole; nearest other singularities at e = +-1)."""
    return _laurent_by_cauchy(
        lambda e: mp.gamma(1 + e / 2) ** 3 * mp.gamma(-1 - e) / mp.gamma(3 + 3 * e / 2),
        1,
        0.5,
        range(-1, 5),
    )


@lru_cache(maxsize=None)
def double_scoop_ratio() -> dict[int, float]:
    """Coefficients of ``Gamma(-e/2) Gamma(-1 - e/2)`` (double pole; nearest
    other singularities at e = +-2)."""
    return _laurent_by_cauchy(
        lambda e: mp.gamma(-e / 2) * mp.gamma(-1 - e / 2), 2, 1.0, range(-2, 5)
    )


def _scaled_series(prefactor: float, log_ratio: float, gamma_part: dict, k: int):
    """Coefficient ``k`` of ``prefactor * exp(log_ratio * e) * gamma_part(e)``
    and the sum of the magnitudes of its terms."""
    value = scale = 0.0
    lo = min(gamma_part)
    for j in range(0, k - lo + 1):
        term = prefactor * log_ratio**j / math.factorial(j) * gamma_part[k - j]
        value += term
        scale += abs(term)
    return value, scale


def setting_sun_reference(lam, mu, p_sq, k) -> tuple[float, float]:
    """``-(1/6) (lambda/(4 pi)^2)^2 p^2 (p^2/4 pi mu^2)^e`` times the ratio."""
    prefactor = -((lam / FOUR_PI_SQ) ** 2) * p_sq / 6.0
    log_ratio = math.log(p_sq / (4.0 * math.pi * mu**2))
    return _scaled_series(prefactor, log_ratio, setting_sun_ratio(), k)


def double_scoop_reference(lam, m_sq, mu, k) -> tuple[float, float]:
    """``-(1/4) lambda^2 fish(0) tadpole``: with ``fish(0) = -Gamma(-e/2)
    r^(e/2)/(4 pi)^2`` and ``tadpole = (m^2/(4 pi)^2) r^(e/2) Gamma(-1 - e/2)``,
    ``r = m^2/4 pi mu^2``."""
    prefactor = lam**2 * m_sq / (4.0 * FOUR_PI_SQ**2)
    log_ratio = math.log(m_sq / (4.0 * math.pi * mu**2))
    return _scaled_series(prefactor, log_ratio, double_scoop_ratio(), k)


def propagator_reference(lam, m_sq, mu, p_sq) -> tuple[float, float]:
    """``p^2 + m^2 + (1/2) lambda tad_fin + double-scoop finite + setting-sun
    finite``, each finite part from its own reference."""
    tad, tad_scale = tadpole_finite(m_sq, mu)
    ds, ds_scale = double_scoop_reference(lam, m_sq, mu, 0)
    ss, ss_scale = setting_sun_reference(lam, mu, p_sq, 0)
    value = p_sq + m_sq + 0.5 * lam * tad + ds + ss
    return value, p_sq + m_sq + 0.5 * lam * tad_scale + ds_scale + ss_scale


def _check_series(name, series, reference) -> list[str]:
    min_order, coeffs = series
    errors = []
    for i, c in enumerate(coeffs):
        k = min_order + i
        want, scale = reference(k)
        errors += _close(f"{name} eps^{k}", c, want, scale, 1e-12)
    return errors


def check_point(inp, data: dict) -> list[str]:
    """``data`` holds the plain values of one kinematic point (see
    ``workloads.Kinematics.extract``)."""
    lam, m_sq, mu = inp.lambda0, inp.m_sq, inp.mu
    errors = []

    T_ref, T_scale = amplitude_reference(lam, m_sq, mu, inp.s, inp.t, inp.u)
    errors += _close("T", data["T"], T_ref, T_scale)
    if inp.region == "above":
        beta = math.sqrt(1.0 - 4.0 * m_sq / inp.s)
        im_ref = -0.5 * lam**2 * math.pi * beta / FOUR_PI_SQ
        errors += _close("Im T above threshold", data["T"].imag, im_ref, abs(im_ref))
    elif data["T"].imag != 0.0:
        errors.append(f"Im T = {data['T'].imag!r} below threshold")

    fish_min, fish_coeffs = data["fish"]
    errors += _close("fish residue", fish_coeffs[-1 - fish_min], 2.0 / FOUR_PI_SQ,
                     2.0 / FOUR_PI_SQ, 1e-12)
    fish_ref, fish_scale = bubble_finite(-inp.P_sq, m_sq, mu)
    errors += _close("fish finite", fish_coeffs[-fish_min], fish_ref, fish_scale)

    tad_min, tad_coeffs = data["tadpole"]
    residue = 2.0 * m_sq / FOUR_PI_SQ
    errors += _close("tadpole residue", tad_coeffs[-1 - tad_min], residue, residue, 1e-12)
    tad_ref, tad_scale = tadpole_finite(m_sq, mu)
    errors += _close("tadpole finite", tad_coeffs[-tad_min], tad_ref, tad_scale, 1e-12)

    errors += _check_series(
        "setting_sun", data["setting_sun"],
        lambda k: setting_sun_reference(lam, mu, inp.p_sq, k),
    )
    errors += _check_series(
        "double_scoop", data["double_scoop"],
        lambda k: double_scoop_reference(lam, m_sq, mu, k),
    )
    G_ref, G_scale = propagator_reference(lam, m_sq, mu, inp.p_sq)
    errors += _close("G^-1", data["G_inv"], G_ref, G_scale)

    for name, is_finite, residuals, finite in data["reports"]:
        if not is_finite:
            errors.append(f"{name}: poles do not cancel")
        if any(abs(r) > 1e-10 * abs(finite) for r in residuals):
            errors.append(f"{name}: residual poles {residuals}")
        if name == "T_standard":
            want, scale = amplitude_reference(lam, m_sq, mu, -m_sq, -m_sq, -m_sq)
        else:
            want, scale = propagator_reference(lam, m_sq, mu, m_sq)
        errors += _close(f"{name} finite", finite, want, scale)

    bridged = -1j * data["bridge"]
    errors += _close("curved/flat bridge", bridged, tad_ref, tad_scale)

    if data["reconstructed"] != data["expansion"]:
        errors.append("reconstruct(hadamard_split(e)) differs from e")
    return errors


# ----------------------------------------------------------------- spectral


def gaussian_overlap(c1: float, w1: float, c2: float, w2: float, t: float) -> complex:
    """``int g1 g2 exp(-i w t) dw`` over the real line for unit-peak
    Gaussians (the window edges sit more than seven product widths away)."""
    var = w1**2 + w2**2
    s_sq = w1**2 * w2**2 / var
    centre = (c1 * w2**2 + c2 * w1**2) / var
    amplitude = math.exp(-((c1 - c2) ** 2) / (2.0 * var))
    return (
        amplitude
        * math.sqrt(2.0 * math.pi * s_sq)
        * math.exp(-0.5 * s_sq * t * t)
        * cmath.exp(-1j * centre * t)
    )


def gaussian_mass(c: float, w: float) -> float:
    """``int_0^OMEGA_MAX g`` for a unit-peak Gaussian (the state's norm)."""
    root = w * math.sqrt(2.0)
    return w * math.sqrt(math.pi / 2.0) * (
        math.erf((OMEGA_MAX - c) / root) - math.erf(-c / root)
    )


def graded_reference(inp) -> tuple[complex, dict[int, complex]]:
    """Finite part and pole terms of the graded pairing, exactly: Simpson
    integrates these polynomials of degree two per axis without error.

    Regular parts ``1 + c0 x + c1 y`` on ``[0, 1]^2``; sectors ``p (1 + x)``
    (order 1, on the first axis) and the constant ``q`` (order 2)."""
    (a0, a1), (b0, b1) = inp.graded_regular
    finite = (
        1.0 + (a0 + b0) / 2.0 + (a1 + b1) / 2.0
        + (a0 * b0 + a1 * b1) / 3.0 + (a0 * b1 + a1 * b0) / 4.0
    )
    (p1, q1), (p2, q2) = inp.graded_poles
    return complex(finite), {1: complex(p1 * p2 * 7.0 / 3.0), 2: complex(q1 * q2)}


def check_pair(inp, data: dict) -> list[str]:
    """``data``: pairing value, (t, off-diagonal, evolved) rows, and the
    graded results (finite, pole_terms) for the four regularize variants."""
    errors = []
    norm = gaussian_mass(inp.state_diagonal.center, inp.state_diagonal.width)
    diagonal = gaussian_overlap(
        inp.state_diagonal.center, inp.state_diagonal.width,
        inp.operator_diagonal.center, inp.operator_diagonal.width, 0.0,
    ).real / norm

    def off_reference(t: float) -> float:
        amplitude = gaussian_overlap(
            inp.state_kernel.center, inp.state_kernel.width,
            inp.operator_kernel.center, inp.operator_kernel.width, t,
        )
        return abs(amplitude) ** 2 / norm

    at_zero = off_reference(0.0)
    errors += _close("pairing", data["pairing"], diagonal + at_zero, diagonal + at_zero, 1e-9)
    if len(data["sweep"]) != inp.times:
        errors.append(f"{len(data['sweep'])} time samples, want {inp.times}")
    for t, off, evolved in data["sweep"]:
        want = off_reference(t)
        errors += _close(f"off-diagonal at t={t:.4g}", off, want, at_zero, 1e-9)
        errors += _close(f"evolved at t={t:.4g}", evolved, diagonal + want,
                         diagonal + at_zero, 1e-9)
        if errors:
            break

    finite_ref, poles_ref = graded_reference(inp)
    base_finite, base_poles = data["graded"][0]
    errors += _close("graded finite", base_finite, finite_ref, abs(finite_ref), 1e-12)
    if sorted(base_poles) != sorted(poles_ref):
        errors.append(f"graded pole orders {sorted(base_poles)}, want {sorted(poles_ref)}")
    else:
        for order, want in poles_ref.items():
            errors += _close(f"graded pole {order}", base_poles[order], want, abs(want), 1e-12)
    for finite, poles in data["graded"][1:]:
        if poles:
            errors.append(f"regularized pairing reports pole terms {poles}")
        if finite != base_finite:
            errors.append("regularizing changed the finite part")
    return errors


# ---------------------------------------------------------------------- cli


def check_cli(first: dict, second: dict) -> list[str]:
    """Two runs of one config: ``status``, the ``table`` and ``meta`` bytes."""
    errors = []
    for run in (first, second):
        if run["status"] != 0:
            errors.append(f"exit status {run['status']}: {run['stderr']}")
            return errors
        meta = run["meta_json"]
        if meta["row_count"] != run["rows"]:
            errors.append(f"meta row_count {meta['row_count']}, table has {run['rows']}")
        if meta["columns"] != run["columns"]:
            errors.append(f"meta columns {meta['columns']}, table has {run['columns']}")
    if first["table"] != second["table"] or first["meta"] != second["meta"]:
        errors.append("rerun of the same config is not byte-identical")
    return errors
