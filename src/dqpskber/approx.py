"""Closed-form approximations to the DQPSK error rate.

Seven approximations: three fixed-weight means of the bracketing bounds
(ber1, ber2, ber3, each with an equivalent closed form), one standalone
closed form (ber4), and three variable-weight means (ber5, ber6, ber7)
driven by the piecewise weight functions omega5..omega7. `_FORMULAS`
extends the table of `bounds` with the weights, the approximations and
eps5..eps7; `evaluate` computes any of the 19 sweep columns (`COLUMNS`)
over an array of SNRs in one call, and only the entries they need. The
scalar functions read the same table at one SNR, and omega5..omega7
read its w5..w7 entries at a scalar or an array.

Weight-argument convention: the weight functions take the LINEAR bit
SNR. This was fixed empirically by evaluating the relative errors of
ber5..ber7 under both the linear and the decibel reading and keeping
the one that reproduces the reference error tables; the choice is
pinned by regression tests.

The weights are intentionally discontinuous at their breakpoints; no
smoothing is applied. omega7 applies its high-SNR branch from 8
onward, which is what the reference tabulation used at that point;
the reading is pinned by a regression test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import bounds
from .bounds import SnrPoint

__all__ = ["ApproxSet", "approx_set", "ber1", "ber2", "ber3", "ber4", "ber5", "ber6", "ber7",
           "evaluate", "omega5", "omega6", "omega7"]

_SQRT_PI_8 = math.sqrt(math.pi / 8.0)

# The sweep columns, in their CSV order.
COLUMNS = (
    "exact", "l1", "l2", "u1", "u2", "u3", "ber1", "ber2", "ber3", "ber4",
    "ber5", "ber6", "ber7", "eps5", "eps6", "eps7", "w5", "w6", "w7",
)
_KNOWN = frozenset(COLUMNS)


@dataclass(frozen=True)
class ApproxSet:
    """All seven approximations plus the relative errors of the last three."""

    ber1: float
    ber2: float
    ber3: float
    ber4: float
    ber5: float
    ber6: float
    ber7: float
    eps5: float
    eps6: float
    eps7: float


def weighted_mean(x, y, w):
    """w x + (1 - w) y; lies in [min(x, y), max(x, y)] for w in [0, 1]."""
    return w * x + (1.0 - w) * y


def _weight(gamma, name: str):
    # the weight column `name` from `evaluate`, an array of gamma's shape; a
    # float for a scalar, read from evaluate's 1-element array, not from
    # numpy-scalar arithmetic, which can differ in the last bit
    w = evaluate(gamma, (name,))[name]
    return float(w[0]) if np.ndim(gamma) == 0 else w


def omega5(gamma):
    """Weight for the ber5 mean, two branches split at gamma = 1 (linear SNR)."""
    return _weight(gamma, "w5")


def omega6(gamma):
    """Weight for the ber6 mean, three branches split at gamma = 1 and 5."""
    return _weight(gamma, "w6")


def omega7(gamma):
    """Weight for the ber7 mean, three branches split at gamma = 1 and 8."""
    return _weight(gamma, "w7")


def _weight_gamma(r, minimum_exclusive: bool) -> np.ndarray:
    """"gamma" for a weight column, once its NaN rows and those below the
    weight's domain are recorded through `r.check`; `_evaluate` reports the
    lowest and discards the values computed there."""
    g = r["gamma"]
    ok = g > 0.0 if minimum_exclusive else g >= 0.0  # never at NaN
    if np.count_nonzero(ok) < ok.size:
        nan = np.isnan(g)
        r.check(g, ~nan, "gamma must not be NaN")
        r.check(g, ok | nan, "gamma must be positive" if minimum_exclusive else "gamma must be >= 0")
    return g


def _ber4(r) -> np.ndarray:
    a, b = r["a"], r["b"]
    head = np.exp(-0.5 * (b + a) ** 2) / np.sqrt(8.0 * math.pi * a * b)
    ber4 = head + 0.25 * (np.sqrt(a / b) + np.sqrt(b / a)) * r["big_e"]
    return r.check(ber4, r["g"] >= 1e-12, "gamma too small for ber4 (diverges as gamma -> 0)")


# The table of `bounds` plus every column built on it: the closed forms in
# the docstrings of the scalar functions below, and the weights, the only
# place their branches and domain check are written. The weights read
# "gamma" through `_weight_gamma`, not "g", as w6 and w7 are defined at 0.
# Only weighted_mean is looked up at each call, so a wrapper set on the
# module sees it. eps<k> reads "exact>0", the exact BER once checked,
# after ber<k>.
_FORMULAS = {
    **bounds._FORMULAS,
    "w5": lambda r: np.where(
        (x := _weight_gamma(r, True)) < 1.0,
        0.65 * x**0.25,
        0.5 + 1.1 * np.exp(-math.pi / (2.0 * np.sqrt(x))) / x**1.5 * math.sqrt(0.5),
    ),
    "w6": lambda r: np.where(
        (x := _weight_gamma(r, False)) < 1.0,
        np.exp(-x * x / 2.9) * 0.25 + 0.5,
        np.where(
            x < 5.0,
            np.exp(-1.0 / (2.0 * x + 1.0)) / (x + 0.5) ** 1.5 * math.sqrt(1.0 / (2.0 * math.pi)) * 1.15 + 0.5,
            (1.0 / math.pi) / (1.0 + x) * 0.65 + 0.5,
        ),
    ),
    "w7": lambda r: np.where(
        (x := _weight_gamma(r, False)) < 1.0,
        (1.0 - x) ** 2 * 0.95,
        np.where(x < 8.0, 0.5 - 1.4 * np.exp(-(x**1.2)) + 0.02, 1.0 / (5.2 * x) + 0.5),
    ),
    "ber1": lambda r: _SQRT_PI_8 * (r["a"] + r["b"]) * r["ive"] * r["e"],
    "ber2": lambda r: (_SQRT_PI_8 * r["ive"] * r["big_e"] * ((r["a"] + r["b"]) - (r["a"] - r["b"]) * r["exp_2ab"])
                       / (1.0 - r["exp_2ab"] * r["exp_2ab"])),
    "ber3": lambda r: (_SQRT_PI_8 * r["ive"] * (r["b"] * r["big_e"] / (1.0 - r["exp_2ab"])
                                                + r["a"] * r["e"] / (1.0 + bounds._CONSTANTS.lambda0 * r["exp_ab"]))),
    "ber4": _ber4,
    "ber5": lambda r: weighted_mean(r["l1"], r["u1"], r["w5"]),
    "ber6": lambda r: weighted_mean(r["l2"], r["u2"], r["w6"]),
    "ber7": lambda r: weighted_mean(r["l2"], r["u3"], r["w7"]),
    "exact>0": lambda r: r.check(r["exact"], r["exact"] > 0.0, "exact must be positive"),
    "eps5": lambda r: (r["ber5"] - r["exact>0"]) / r["exact>0"],
    "eps6": lambda r: (r["ber6"] - r["exact>0"]) / r["exact>0"],
    "eps7": lambda r: (r["ber7"] - r["exact>0"]) / r["exact>0"],
}


def evaluate(gamma_lin, columns) -> dict[str, np.ndarray]:
    """The named `COLUMNS` at every linear SNR in `gamma_lin`, one array each.

    ValueError for an unknown column, and for the lowest-index SNR at which
    a requested column is undefined, with the scalar function's message.
    """
    columns = tuple(columns)  # read a one-shot iterable once
    if not _KNOWN.issuperset(columns):
        raise ValueError(f"unknown columns {[c for c in columns if c not in _KNOWN]!r}")
    return bounds._evaluate(np.atleast_1d(np.asarray(gamma_lin, dtype=float)), columns, _FORMULAS)


def ber1(snr: SnrPoint) -> float:
    """Midpoint of (l1, u1): sqrt(pi/8) (a+b) e^{-ab} I0(ab) e(a,b)."""
    return bounds._at(snr, ("ber1",), _FORMULAS)[0]


def ber2(snr: SnrPoint) -> float:
    """Midpoint of (l2, u2), in scaled form.

    sqrt(pi/8) I0(ab) E(a,b) [(a+b) e^{ab} - (a-b) e^{-ab}] / (e^{2ab} - e^{-2ab}).
    """
    return bounds._at(snr, ("ber2",), _FORMULAS)[0]


def ber3(snr: SnrPoint) -> float:
    """Midpoint of (l2, u3), in scaled form.

    sqrt(pi/8) I0(ab) [b E(a,b)/(e^{ab} - e^{-ab}) + a e(a,b)/(e^{ab} + lambda0)].
    """
    return bounds._at(snr, ("ber3",), _FORMULAS)[0]


def ber4(snr: SnrPoint) -> float:
    """Standalone closed form e^{-(b+a)^2/2}/sqrt(8 pi ab) + (1/4)(sqrt(a/b)+sqrt(b/a)) E(a,b).

    Diverges like 1/sqrt(ab) as gamma -> 0; inputs below 1e-12 linear are
    rejected.
    """
    return bounds._at(snr, ("ber4",), _FORMULAS)[0]


def ber5(snr: SnrPoint) -> float:
    """Variable-weight mean omega5 l1 + (1 - omega5) u1."""
    return bounds._at(snr, ("ber5",), _FORMULAS)[0]


def ber6(snr: SnrPoint) -> float:
    """Variable-weight mean omega6 l2 + (1 - omega6) u2."""
    return bounds._at(snr, ("ber6",), _FORMULAS)[0]


def ber7(snr: SnrPoint) -> float:
    """Variable-weight mean omega7 l2 + (1 - omega7) u3."""
    return bounds._at(snr, ("ber7",), _FORMULAS)[0]


def approx_set(snr: SnrPoint) -> ApproxSet:
    """All seven approximations and eps5..eps7 from one consistent evaluation."""
    return ApproxSet(*bounds._at(snr, tuple(f.name for f in fields(ApproxSet)), _FORMULAS))
