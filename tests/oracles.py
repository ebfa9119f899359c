"""Independent high-precision reference implementations (mpmath).

Everything here is computed from first principles at 30 significant
digits, sharing no code with the package: the grid tests compare the
shipped double-precision kernels against these.
"""

from __future__ import annotations

import mpmath as mp

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


def ref_erfc(x: float) -> mp.mpf:
    return mp.erfc(mp.mpf(x))


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


def rel_err(value: float, reference: mp.mpf) -> float:
    return float(abs(mp.mpf(value) - reference) / abs(reference))
