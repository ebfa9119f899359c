"""Symbol-level Monte-Carlo oracle for Gray-coded DQPSK over AWGN.

Transmit pipeline per run: draw 2N data bits; Gray-map each dibit to a
phase increment in {pi/4, 3pi/4, 5pi/4, 7pi/4} (00 -> pi/4, 01 -> 3pi/4,
11 -> 5pi/4, 10 -> 7pi/4); accumulate phase onto a unit-energy carrier
whose first symbol in each chunk is a known reference at phase 0; add
circular complex Gaussian noise with per-dimension variance
1/(4 gamma_lin) (two bits per symbol, so Es/N0 = 2 gamma); detect each
symbol from the phase quadrant of r_k conj(r_{k-1}); inverse-Gray-map
and count bit errors.

Draw order (a contract, pinned by tests/test_montecarlo.py): the run is
cut into chunks of n <= 2**16 symbols, and chunk i draws from its own
numpy PCG64 generator seeded with SeedSequence(McConfig.seed,
spawn_key=(i,)), which is child i of SeedSequence(seed).spawn(...).
Each chunk draws its own reference symbol's two noise normals first
(in-phase, then quadrature; the reference sits at phase 0), then
(2n + 7) // 8 random bytes expanded MSB-first into 2n bits (dibit k is
bits 2k, 2k+1), n in-phase normals and n quadrature normals. Nothing is
carried from one chunk to the next, so bits_sent is still 2N.

simulate runs the chunks on W workers, one per CPU in the process's
affinity mask (numpy's fills and large ufuncs release the GIL): the
calling thread is worker 0 and W - 1 pool threads are the rest, and the
calling thread runs everything when one chunk or one CPU leaves nothing
to share. Worker k runs chunks k, k + W, k + 2W, ... (the chunks i with
i mod W == k) in a float workspace it allocates per call and reuses from
chunk to chunk, so chunks do not fault in fresh memory. The workspace
holds what the draw order makes a worker keep, about 1.3 MB: one
chunk-long in-phase row, since all n in-phase normals come before the
first quadrature one, and a (3, _TILE + 1) block for one tile of
quadrature symbols and two scratch rows. The quadrature normals are
drawn one tile at a time; consecutive standard_normal fills continue
one stream, so the draw order above is unchanged. Chunk results are
summed as integers, so a given McConfig always yields a bit-identical
McResult, however many CPUs run it. The confidence half-width takes its
normal quantile from statistics.NormalDist, so the simulation loads no
scipy.

McConfig rejects a linear SNR below 1e-12 with ValueError: there the noise
is so large that the detector's products overflow to NaN.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import SnrPoint

__all__ = ["McConfig", "McResult", "simulate"]

_CHUNK = 1 << 16
# quadrature normals are drawn and the arithmetic runs in tiles of this many
# symbols; 2**14 and 2**13 kept 0.5-1 MB less but ran about 6% slower on two
# threads, where more numpy calls per chunk contend for the GIL
_TILE = 1 << 15
# one allocation: as a separate row and block, glibc trimmed the heap after
# each call and the next call faulted the workspace in again
_WORK = _CHUNK + 1 + 3 * (_TILE + 1)

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
        import numbers
        import operator

        # first, so `mc` reports it before a bad run size; below it the noise
        # sigma 1/sqrt(4 gamma) overflows the detector's products to NaN
        if self.snr.gamma_lin < 1e-12:
            raise ValueError("gamma must be positive and not vanishingly small (>= 1e-12 linear)")
        for name in ("num_symbols", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.num_symbols < 1000:
            raise ValueError("num_symbols must be >= 1000")
        # `simulate` takes the normal quantile at 0.5 + 0.5 confidence, which must round below 1
        if not (isinstance(self.confidence, numbers.Real) and 0.0 < self.confidence and 0.5 + 0.5 * self.confidence < 1.0):
            raise ValueError("confidence must be a real number in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class McResult:
    """Empirical BER with its normal-approximation confidence half-width."""

    ber_estimate: float
    bit_errors: int
    bits_sent: int
    ci_half_width: float


def _workers() -> int:
    """CPUs this process may run on; the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS, Windows
        return os.cpu_count() or 1


def _chunk_errors(seed: int, index: int, n: int, sigma: float, work: np.ndarray) -> int:
    """Bit errors of chunk `index`: n data symbols after its own reference.

    `work` is a float scratch array of _WORK elements, overwritten, so a
    chunk's float passes allocate nothing. Its first _CHUNK + 1 hold the
    chunk's in-phase symbols x, all drawn in one fill; the rest is a
    (3, _TILE + 1) tile block. Each tile of up to _TILE symbols draws its
    quadrature normals into block row 0 after column 0, which carries the
    previous tile's last symbol; rows 1 and 2 hold the carrier gathers and
    the products. The symbol and product arithmetic runs tile by tile,
    each element in the same order as in one pass over the chunk.
    """
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
    x = work[: n + 1]
    y, p, q = work[_CHUNK + 1 :].reshape(3, _TILE + 1)
    x[0], y[0] = ref
    rng.standard_normal(out=x[1:])
    errors = 0
    for s in range(0, n, _TILE):
        k = min(_TILE, n - s)
        x0, x1, y0, y1 = x[s : s + k], x[s + 1 : s + k + 1], y[:k], y[1 : k + 1]
        ts, pk, qk = t[s : s + k], p[:k], q[:k]
        rng.standard_normal(out=y1)
        # t is in [0, 7], so mode="clip" takes the same entries; the default
        # mode="raise" buffers `out` and takes about 5x as long
        x1 *= sigma
        x1 += np.take(_COS, ts, out=pk, mode="clip")
        y1 *= sigma
        y1 += np.take(_SIN, ts, out=pk, mode="clip")

        # r_k conj(r_{k-1}) in real arithmetic: a complex multiply may be
        # fused (FMA) and move a decision across a quadrant edge
        re = np.multiply(x1, x0, out=pk)
        re += np.multiply(y1, y0, out=qk)
        # inverse Gray map of the detected quadrant: b0 = (im < 0), b1 = (re <= 0)
        errors += int(np.count_nonzero(b1[s : s + k] != (re <= 0)))
        im = np.multiply(y1, x0, out=pk)
        im -= np.multiply(x1, y0, out=qk)
        errors += int(np.count_nonzero(b0[s : s + k] != (im < 0)))
        y[0] = y[k]
    return errors


def simulate(config: McConfig) -> McResult:
    """Run the DQPSK transmission and return the empirical error rate.

    Deterministic for a fixed config, whatever the CPU count; each chunk
    starts from a data-free phase reference, so bits_sent == 2 * num_symbols.
    """
    from statistics import NormalDist

    gamma = config.snr.gamma_lin
    sigma = math.sqrt(1.0 / (4.0 * gamma))
    num = config.num_symbols
    chunks = -(-num // _CHUNK)
    workers = min(_workers(), chunks)

    def run(k: int) -> int:
        work = np.empty(_WORK)
        return sum(
            _chunk_errors(config.seed, i, min(_CHUNK, num - i * _CHUNK), sigma, work)
            for i in range(k, chunks, workers)
        )

    from concurrent.futures import ThreadPoolExecutor

    # the calling thread is worker 0; with one worker nothing is submitted,
    # so the pool starts no thread
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        rest = pool.map(run, range(1, workers))
        bit_errors = run(0) + sum(rest)

    bits_sent = 2 * num
    p_hat = bit_errors / bits_sent
    z = NormalDist().inv_cdf(0.5 + 0.5 * config.confidence)
    half_width = z * math.sqrt(p_hat * (1.0 - p_hat) / bits_sent)
    return McResult(
        ber_estimate=p_hat,
        bit_errors=bit_errors,
        bits_sent=bits_sent,
        ci_half_width=half_width,
    )
