"""The first-order Marcum Q function, cross-checks of the exact BER.

    Q(a, b) = integral_b^inf x exp(-(x^2 + a^2)/2) I0(a x) dx

`bounds` computes the exact BER without it, from the single-angle form,
and the formula table takes its Bessel and error functions from
`scipy.special` directly. The two routes here (series and adaptive
quadrature) and the scaled Bessel function the quadrature integrates are
not exported: they are reached as `dqpskber.specfun.*`, which `import
dqpskber` loads. They stay in the package because the benchmark's probe
(`perfbench/probe.py`) calls them, and its tracer wraps them, under these
names.

scipy is imported inside each function that calls it, not at module
load, so importing the package loads numpy only; the first call pays
scipy's import once. NaN arguments and arguments outside each function's
domain raise ValueError.
"""

from __future__ import annotations

import math

import numpy as np

# Relative accuracy requested from the adaptive quadrature.
_QUAD_EPSREL = 1e-12


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) I0(x) (`scipy.special.i0e`); strictly decreasing, in (0, 1], never overflows."""
    from scipy import special
    if not x >= 0.0:  # also NaN
        raise ValueError("x must be >= 0")
    return float(special.i0e(x))


def marcum_q_series(a: float, b: float) -> float:
    """Marcum Q by the canonical series exp(-(a^2+b^2)/2) sum (a/b)^k I_k(ab).

    For a <= b it is evaluated in scaled form
    exp(-(b-a)^2/2) sum_{k<K} (a/b)^k [exp(-x) I_k(x)], x = ab, with one
    `scipy.special.ive` call over the orders. The weights are at most 1 and
    exp(-x) I_k(x) falls below 1e-17 of exp(-x) I_0(x) by K = 10 + 9 sqrt(x),
    so the sum, which is at most 1, is complete there. For a > b the
    weights grow, so the value comes from the complement identity
    Q(a, b) = 1 + exp(-(a^2+b^2)/2) I0(ab) - Q(b, a); Q(a, b) >= 1/2 there,
    so nothing cancels.
    """
    from scipy import special
    a, b = _check_marcum_args(a, b)
    if b == 0.0:
        return 1.0
    x, d = a * b, b - a
    front = math.exp(-0.5 * d * d)
    if front == 0.0:  # the sum is at most 1; also keeps K finite for huge ab
        return float(a > b)
    if a > b:
        return 1.0 + front * float(special.ive(0, x)) - marcum_q_series(b, a)
    k = np.arange(10 + int(9.0 * math.sqrt(x)))
    return front * float(np.sum((a / b) ** k * special.ive(k, x)))


def marcum_q_quad(a: float, b: float) -> float:
    """Marcum Q by adaptive quadrature of the defining integral; relative error <= 1e-10.

    Uses the scaled integrand x exp(-(x-a)^2/2) [exp(-ax) I0(ax)], which
    never overflows; the integral is truncated at b + a + 12 where the
    Gaussian factor bounds the remainder below 1e-15 of the value. It and
    `marcum_q_series` agree to 1e-9 relative over the supported SNR range.
    """
    from scipy.integrate import quad  # deferred: only this cross-check route needs it
    a, b = _check_marcum_args(a, b)

    def integrand(x: float) -> float:
        return x * math.exp(-0.5 * (x - a) ** 2) * bessel_i0_scaled(a * x)

    value, _ = quad(integrand, b, b + a + 12.0, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=200)
    return value


def _check_marcum_args(a: float, b: float) -> tuple[float, float]:
    a, b = float(a), float(b)
    if not a > 0.0:  # also NaN, as below
        raise ValueError("a must be > 0")
    if not b >= 0.0:
        raise ValueError("b must be >= 0")
    return a, b
