"""Symbol-level Monte-Carlo oracle for Gray-coded DQPSK over AWGN.

Transmit pipeline per run: draw 2N data bits; Gray-map each dibit to a
phase increment in {pi/4, 3pi/4, 5pi/4, 7pi/4} (00 -> pi/4, 01 -> 3pi/4,
11 -> 5pi/4, 10 -> 7pi/4); accumulate phase onto a unit-energy carrier
whose first symbol is a known reference at phase 0; add circular complex
Gaussian noise with per-dimension variance 1/(4 gamma_lin) (two bits per
symbol, so Es/N0 = 2 gamma); detect each symbol from the phase quadrant
of r_k conj(r_{k-1}); inverse-Gray-map and count bit errors.

Draw order (a contract, pinned by tests/test_montecarlo.py): all
randomness comes from numpy's PCG64 generator seeded with McConfig.seed.
It draws the reference symbol's two noise normals first (in-phase, then
quadrature), then per chunk of n <= 2**21 symbols: (2n + 7) // 8 random
bytes expanded MSB-first into 2n bits (dibit k is bits 2k, 2k+1), n
in-phase normals and n quadrature normals. A given McConfig therefore
always yields a bit-identical McResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .bounds import SnrPoint

_CHUNK = 1 << 21

_ANGLES = np.arange(8) * (math.pi / 4.0)
_COS = np.cos(_ANGLES)
_SIN = np.sin(_ANGLES)


@dataclass(frozen=True)
class McConfig:
    """One simulation request; num_symbols counts data symbols only."""

    snr: SnrPoint
    num_symbols: int
    seed: int
    confidence: float = 0.99

    def __post_init__(self) -> None:
        import operator

        for name in ("num_symbols", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.num_symbols < 1000:
            raise ValueError("num_symbols must be >= 1000")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class McResult:
    """Empirical BER with its normal-approximation confidence half-width."""

    ber_estimate: float
    bit_errors: int
    bits_sent: int
    ci_half_width: float


def simulate(config: McConfig) -> McResult:
    """Run the DQPSK transmission and return the empirical error rate.

    Deterministic for a fixed config; the first symbol is a data-free
    phase reference, so bits_sent == 2 * num_symbols.
    """
    gamma = config.snr.gamma_lin
    sigma = math.sqrt(1.0 / (4.0 * gamma))
    rng = np.random.default_rng(config.seed)

    prev = sigma * rng.standard_normal(2) + (1.0, 0.0)
    phase = 0
    bit_errors = 0
    for start in range(0, config.num_symbols, _CHUNK):
        n = min(_CHUNK, config.num_symbols - start)
        raw = np.frombuffer(rng.bytes((2 * n + 7) // 8), dtype=np.uint8)
        bits = np.unpackbits(raw, count=2 * n)
        b0, b1 = bits[0::2], bits[1::2]

        # Gray index m, phase increment (2m + 1) pi/4; uint8 wraps mod 256,
        # a multiple of 8, so the running sum stays exact mod 8
        m = 2 * b0 + (b0 ^ b1)
        t = np.cumsum(2 * m + 1, dtype=np.uint8)
        t += phase
        t &= 7
        phase = int(t[-1])

        # column 0 is the previous chunk's last symbol
        r = np.empty((2, n + 1))
        r[:, 0] = prev
        x, y = r
        rng.standard_normal(out=x[1:])
        rng.standard_normal(out=y[1:])
        x[1:] *= sigma
        x[1:] += _COS[t]
        y[1:] *= sigma
        y[1:] += _SIN[t]
        prev = r[:, -1].copy()  # a view would keep the whole chunk alive

        # r_k conj(r_{k-1}) in real arithmetic: a complex multiply may be
        # fused (FMA) and move a decision across a quadrant edge
        re = x[1:] * x[:-1] + y[1:] * y[:-1]
        im = y[1:] * x[:-1] - x[1:] * y[:-1]
        # inverse Gray map of the detected quadrant: b0 = (im < 0), b1 = (re <= 0)
        bit_errors += int(np.count_nonzero(b0 != (im < 0)))
        bit_errors += int(np.count_nonzero(b1 != (re <= 0)))

    bits_sent = 2 * config.num_symbols
    p_hat = bit_errors / bits_sent
    z = float(ndtri(0.5 + 0.5 * config.confidence))
    half_width = z * math.sqrt(p_hat * (1.0 - p_hat) / bits_sent)
    return McResult(
        ber_estimate=p_hat,
        bit_errors=bit_errors,
        bits_sent=bits_sent,
        ci_half_width=half_width,
    )
