"""Scalar special functions: scipy.special behind this package's input checks.

Modified Bessel functions I0 and I1 (plain and exponentially scaled) are
`scipy.special.i0`, `i1`, `i0e` and `i1e`; the complementary error
function and the Gaussian tail-difference helpers are `math.erfc`. Each
wrapper adds the package's contract: NaN inputs are rejected with
ValueError rather than propagated (every consumer produces deterministic
tables), negative Bessel arguments with ValueError, and an unscaled
Bessel value beyond the double range with OverflowError. The scaled
variants exp(-x) I0(x), exp(-x) I1(x) keep downstream formulas finite at
large SNR where exp(a b) overflows a double.

The two routes to the first-order Marcum Q integral

    Q(a, b) = integral_b^inf x exp(-(x^2 + a^2)/2) I0(a x) dx

are cross-checks of the exact BER in `bounds`, which does not use them;
they stay in the package because the benchmark's probe and tracer call
them by these names.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Relative accuracy requested from the adaptive quadrature.
_QUAD_EPSREL = 1e-12

_SQRT2 = math.sqrt(2.0)


def _check_real(x: float, name: str) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError(f"{name} must not be NaN")
    return x


def _check_nonneg(x: float) -> float:
    x = _check_real(x, "x")
    if x < 0.0:
        raise ValueError("x must be >= 0")
    return x


def _check_finite(value: float, x: float) -> float:
    if math.isinf(value):
        raise OverflowError(f"modified Bessel function overflows a double at x = {x:g}")
    return value


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero (`scipy.special.i0`).

    Relative error <= 1e-13. Raises OverflowError where the true value
    exceeds the double range (x > ~709.7).
    """
    x = _check_nonneg(x)
    return _check_finite(float(special.i0(x)), x)


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) I0(x) (`scipy.special.i0e`); strictly decreasing, in (0, 1], never overflows."""
    return float(special.i0e(_check_nonneg(x)))


def bessel_i1(x: float) -> float:
    """Modified Bessel function of the first kind, order one (`scipy.special.i1`).

    Relative error <= 1e-13; OverflowError as for :func:`bessel_i0`.
    """
    x = _check_nonneg(x)
    return _check_finite(float(special.i1(x)), x)


def bessel_i1_scaled(x: float) -> float:
    """exp(-x) I1(x) (`scipy.special.i1e`); finite for every representable x >= 0."""
    return float(special.i1e(_check_nonneg(x)))


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) integral_x^inf exp(-t^2) dt.

    Delegates to the C library implementation, which meets the 1e-13
    relative-error contract across the full double range.
    """
    x = _check_real(x, "x")
    return math.erfc(x)


def e_fn(a: float, b: float) -> float:
    """Gaussian tail weight erfc((b - a)/sqrt(2)) of the channel pair (a, b)."""
    a = _check_real(a, "a")
    b = _check_real(b, "b")
    return math.erfc((b - a) / _SQRT2)


def E_fn(a: float, b: float) -> float:
    """erfc((b-a)/sqrt(2)) - erfc((b+a)/sqrt(2)).

    Equals (2/sqrt(pi)) integral of exp(-t^2) over
    [(b-a)/sqrt(2), (b+a)/sqrt(2)]; positive for a > 0.
    """
    a = _check_real(a, "a")
    b = _check_real(b, "b")
    return math.erfc((b - a) / _SQRT2) - math.erfc((b + a) / _SQRT2)


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
    """Marcum Q by adaptive quadrature of the defining integral.

    Uses the scaled integrand x exp(-(x-a)^2/2) [exp(-ax) I0(ax)], which
    never overflows; the integral is truncated at b + a + 12 where the
    Gaussian factor bounds the remainder below 1e-15 of the value.
    """
    from scipy.integrate import quad  # deferred: only this cross-check route needs it
    a, b = _check_marcum_args(a, b)

    def integrand(x: float) -> float:
        return x * math.exp(-0.5 * (x - a) ** 2) * bessel_i0_scaled(a * x)

    value, _ = quad(integrand, b, b + a + 12.0, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=200)
    return value


def marcum_q(a: float, b: float) -> float:
    """Reference Marcum Q value by the quadrature route; relative error <= 1e-10.

    The exact BER in `bounds` does not use it; this route and the series
    route are independent cross-checks of that and of each other (they
    agree to 1e-9 relative over the supported SNR range, per the tests).
    """
    return marcum_q_quad(a, b)


def _check_marcum_args(a: float, b: float) -> tuple[float, float]:
    a = _check_real(a, "a")
    b = _check_real(b, "b")
    if a <= 0.0:
        raise ValueError("a must be > 0")
    if b < 0.0:
        raise ValueError("b must be >= 0")
    return a, b
