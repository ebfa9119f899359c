"""Independent reference implementations.

Everything but ref_chunk_errors, ref_omega5..7 and solve_rho0 is computed
from first principles with mpmath at 30 significant digits, sharing no
code with the package: the grid tests compare the shipped double-precision
kernels against these. ref_chunk_errors is the Monte-Carlo chunk kernel in
its plain allocating form, the reference for the documented draw order;
ref_omega5..7 are the weight functions in their np.piecewise form, the
reference for the package's np.where form, which must match them bit for
bit. solve_rho0 is the double-precision solver whose two results the
package stores as `bounds.solve_rho0()`, which must match them bit for bit.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy import special

mp.mp.dps = 30

_SQRT2 = mp.sqrt(2)


def ref_i0(x: float) -> mp.mpf:
    return mp.besseli(0, mp.mpf(x))


def ref_i1(x: float) -> mp.mpf:
    return mp.besseli(1, mp.mpf(x))


def ref_i0_scaled(x: float) -> mp.mpf:
    x = mp.mpf(x)
    return mp.exp(-x) * mp.besseli(0, x)


def ref_i1_scaled(x: float) -> mp.mpf:
    x = mp.mpf(x)
    return mp.exp(-x) * mp.besseli(1, x)


def ref_erfcx(x: float) -> mp.mpf:
    x = mp.mpf(x)
    return mp.exp(x * x) * mp.erfc(x)


def ref_marcum(a: float, b: float) -> mp.mpf:
    # mp.quad stops on an absolute error estimate, so the integrand is
    # scaled by exp(c) to be O(1) at its largest point on [b, inf); left
    # unscaled it is ~1e-26 at 20 dB and the result keeps two digits. The
    # interval is split at b and at the peak of the Gaussian factor
    # exp(-(x - a)^2 / 2), where the integrand turns.
    a, b = mp.mpf(a), mp.mpf(b)
    peak = max(a, b)
    c = (peak - a) ** 2 / 2
    f = lambda x: x * mp.exp(c - (x - a) ** 2 / 2 - a * x) * mp.besseli(0, a * x)
    return mp.exp(-c) * mp.quad(f, sorted({b, peak, b + a + 40}))


def ref_channel(gamma_lin: float) -> tuple[mp.mpf, mp.mpf]:
    g = mp.mpf(gamma_lin)
    return mp.sqrt(g * (2 - _SQRT2)), mp.sqrt(g * (2 + _SQRT2))


def ref_exact_ber(gamma_lin: float) -> mp.mpf:
    a, b = ref_channel(gamma_lin)
    return ref_marcum(a, b) - mp.besseli(0, a * b) * mp.exp(-(a * a + b * b) / 2) / 2


@functools.cache
def ref_lambda0() -> mp.mpf:
    # lambda0 = e^rho0 (I0(rho0)/I1(rho0) - 1) at the root of (x+1) I1(x) = x I0(x)
    rho0 = mp.findroot(lambda x: (x + 1) * mp.besseli(1, x) - x * mp.besseli(0, x), 1.5)
    return mp.exp(rho0) * (mp.besseli(0, rho0) / mp.besseli(1, rho0) - 1)


def _i0_i1(x: float) -> tuple[float, float]:
    # Python floats, so the results do not depend on numpy's scalar type
    return float(special.i0(x)), float(special.i1(x))


def _rho_equation(x: float) -> float:
    i0, i1 = _i0_i1(x)
    return (x + 1.0) * i1 - x * i0


def _rho_equation_prime(x: float) -> float:
    i0, i1 = _i0_i1(x)
    return x * i0 - x * i1 - i1 / x


def solve_rho0() -> tuple[float, float]:
    """Unique positive root rho0 of (x+1) I1(x) = x I0(x) and lambda0 = e^rho0 (I0/I1 - 1) there.

    Bracketing bisection on [1, 2] followed by Newton refinement to
    |f(rho0)| <= 1e-14, in double precision with scipy.special.i0 and i1.
    """
    lo, hi = 1.0, 2.0
    flo = _rho_equation(lo)
    if flo * _rho_equation(hi) >= 0.0:
        raise RuntimeError("root bracket [1, 2] failed")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if flo * _rho_equation(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = _rho_equation(lo)
    root = 0.5 * (lo + hi)
    for _ in range(4):
        root -= _rho_equation(root) / _rho_equation_prime(root)
    if abs(_rho_equation(root)) > 1e-14:
        raise RuntimeError("root refinement did not reach 1e-14 residual")
    i0, i1 = _i0_i1(root)
    lam = math.exp(root) * (i0 / i1 - 1.0)
    return root, lam


def ref_bounds(gamma_lin: float) -> dict[str, mp.mpf]:
    # The five bounds as the paper writes them, with unscaled exponentials.
    a, b = ref_channel(gamma_lin)
    ab = a * b
    i0 = mp.besseli(0, ab)
    e = mp.erfc((b - a) / _SQRT2)
    big_e = e - mp.erfc((b + a) / _SQRT2)
    c = mp.sqrt(mp.pi / 2)
    half = mp.exp(-(a * a + b * b) / 2) / 2
    return {
        "l1": i0 * (c * b * e / mp.exp(ab) - half),
        "l2": i0 * (c * b * big_e / (mp.exp(ab) - mp.exp(-ab)) - half),
        "u1": i0 * (c * a * e / mp.exp(ab) + half),
        "u2": i0 * (c * a * big_e / (mp.exp(ab) + mp.exp(-ab)) + half),
        "u3": i0 * (c * a * e / (mp.exp(ab) + ref_lambda0()) + half),
    }


def rel_err(value: float, reference: mp.mpf) -> float:
    return float(abs(mp.mpf(value) - reference) / abs(reference))


def ref_normal_quantile(p: float) -> mp.mpf:
    """Standard normal quantile: sqrt(2) erfinv(2p - 1)."""
    return _SQRT2 * mp.erfinv(2 * mp.mpf(p) - 1)


_ANGLES = np.arange(8) * (math.pi / 4.0)
_COS = np.cos(_ANGLES)
_SIN = np.sin(_ANGLES)


def ref_chunk_errors(seed: int, index: int, n: int, sigma: float) -> int:
    """Bit errors of chunk `index`: n data symbols after its own reference."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
    ref = sigma * rng.standard_normal(2) + (1.0, 0.0)
    raw = np.frombuffer(rng.bytes((2 * n + 7) // 8), dtype=np.uint8)
    bits = np.unpackbits(raw, count=2 * n)
    b0, b1 = bits[0::2], bits[1::2]

    # Gray index m, phase increment (2m + 1) pi/4; uint8 wraps mod 256,
    # a multiple of 8, so the running sum stays exact mod 8
    m = 2 * b0 + (b0 ^ b1)
    t = np.cumsum(2 * m + 1, dtype=np.uint8)
    t &= 7

    # column 0 is the reference symbol
    r = np.empty((2, n + 1))
    r[:, 0] = ref
    x, y = r
    rng.standard_normal(out=x[1:])
    rng.standard_normal(out=y[1:])
    x[1:] *= sigma
    x[1:] += _COS[t]
    y[1:] *= sigma
    y[1:] += _SIN[t]

    # r_k conj(r_{k-1}) in real arithmetic: a complex multiply may be
    # fused (FMA) and move a decision across a quadrant edge
    re = x[1:] * x[:-1] + y[1:] * y[:-1]
    im = y[1:] * x[:-1] - x[1:] * y[:-1]
    # inverse Gray map of the detected quadrant: b0 = (im < 0), b1 = (re <= 0)
    return int(np.count_nonzero(b0 != (im < 0))) + int(np.count_nonzero(b1 != (re <= 0)))


def ref_omega5(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    return np.piecewise(g, [g < 1.0], [
        lambda x: 0.65 * x**0.25,
        lambda x: 0.5 + 1.1 * np.exp(-math.pi / (2.0 * np.sqrt(x))) / x**1.5 * math.sqrt(0.5),
    ])


def ref_omega6(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    return np.piecewise(g, [g < 1.0, (1.0 <= g) & (g < 5.0)], [
        lambda x: np.exp(-x * x / 2.9) * 0.25 + 0.5,
        lambda x: np.exp(-1.0 / (2.0 * x + 1.0)) / (x + 0.5) ** 1.5 * math.sqrt(1.0 / (2.0 * math.pi)) * 1.15 + 0.5,
        lambda x: (1.0 / math.pi) / (1.0 + x) * 0.65 + 0.5,
    ])


def ref_omega7(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    return np.piecewise(g, [g < 1.0, (1.0 <= g) & (g < 8.0)], [
        lambda x: (1.0 - x) ** 2 * 0.95,
        lambda x: 0.5 - 1.4 * np.exp(-(x**1.2)) + 0.02,
        lambda x: 1.0 / (5.2 * x) + 0.5,
    ])
