"""Independent numeric oracles for the test suite.

Deliberately shares no code with the package under test:

* a self-contained Lanczos log-gamma (the classic six-coefficient fit),
  validated against Gamma(1/2) = sqrt(pi), for double-precision value
  agreement checks;
* mpmath high-precision evaluation for truncation-error measurements,
  where double-precision noise near poles would swamp the signal;
* a fixed-step classical Runge–Kutta integrator of the one-loop RG
  system, the numerical route the exact ``rg_flow`` is checked against.
"""

from __future__ import annotations

import math

import mpmath as mp

_LANCZOS_COF = (
    76.18009172947146,
    -86.50532032941677,
    24.01409824083091,
    -1.231739572450155,
    0.1208650973866179e-2,
    -0.5395239384953e-5,
)


def lanczos_ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 via the Lanczos approximation."""
    if x <= 0.0:
        raise ValueError("lanczos_ln_gamma requires x > 0")
    y = x
    tmp = x + 5.5
    tmp -= (x + 0.5) * math.log(tmp)
    ser = 1.000000000190015
    for c in _LANCZOS_COF:
        y += 1.0
        ser += c / y
    return -tmp + math.log(2.5066282746310005 * ser / x)


def lanczos_gamma(x: float) -> float:
    """Gamma(x) for real non-pole x, using reflection for x < 0."""
    if x > 0.0:
        return math.exp(lanczos_ln_gamma(x))
    if x == math.floor(x):
        raise ValueError(f"Gamma pole at {x}")
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
    return math.pi / (math.sin(math.pi * x) * math.exp(lanczos_ln_gamma(1.0 - x)))


def mp_eval_series(series, eps: float, dps: int = 40) -> mp.mpc:
    """Evaluate a truncated series at eps entirely in mp precision.

    The stored double coefficients are taken as exact; this isolates the
    genuine truncation error from double-precision summation noise.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        acc = mp.mpc(0)
        for i, c in enumerate(series.coefficients):
            k = series.min_order + i
            acc += mp.mpc(c) * e**k
        return acc


def truncation_error(series, direct_mp, eps: float, dps: int = 40) -> float:
    """|series(eps) - direct(eps)| with all arithmetic in mp precision.

    ``direct_mp`` maps an mpf eps to the exact reference value.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        return float(abs(mp_eval_series(series, eps, dps) - direct_mp(e)))


_ONE_LOOP = 1.0 / (16.0 * math.pi**2)


def _one_loop_rhs(y):
    lam, m_sq, _ = y
    return (
        3.0 * lam * lam * _ONE_LOOP,
        lam * m_sq * _ONE_LOOP,
        -0.5 * m_sq * m_sq * _ONE_LOOP,
    )


def rk4_flow(lambda0, m0_sq, Lambda0, mu0, mu_end, steps):
    """One-loop flow by fixed-step RK4 in ``ln mu``.

    Integrates ``d lambda = 3 lambda^2/(4 pi)^2``, ``d m^2 = lambda m^2/(4 pi)^2``
    and ``d Lambda = -m^4/(2 (4 pi)^2)`` per unit ``ln mu`` and returns
    ``steps + 1`` rows ``(mu, lambda, m^2, Lambda)``, the start first.
    """
    ln_mu0 = math.log(mu0)
    h = (math.log(mu_end) - ln_mu0) / steps
    y = (lambda0, m0_sq, Lambda0)
    rows = [(mu0, *y)]
    for i in range(steps):
        k1 = _one_loop_rhs(y)
        k2 = _one_loop_rhs(tuple(v + 0.5 * h * d for v, d in zip(y, k1)))
        k3 = _one_loop_rhs(tuple(v + 0.5 * h * d for v, d in zip(y, k2)))
        k4 = _one_loop_rhs(tuple(v + h * d for v, d in zip(y, k3)))
        y = tuple(
            v + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            for v, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)
        )
        rows.append((math.exp(ln_mu0 + (i + 1) * h), *y))
    return rows
