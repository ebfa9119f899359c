"""Channel parameterization, exact error rate, and its five analytic bounds.

At linear bit SNR g, with a = sqrt(g (2 - sqrt 2)) and b = sqrt(g (2 + sqrt 2)),
the bit error rate of Gray-coded DQPSK over AWGN is

    BER = Q(a, b) - (1/2) I0(ab) exp(-(a^2 + b^2)/2)
        = (1/4 pi) integral_{-pi}^{pi} exp(-g (2 + sqrt2 sin t)) / (sqrt2 + sin t) dt,

the single-angle form holding because b/a = 1 + sqrt 2 is fixed (Pawula,
Rice and Roberts, IEEE Trans. Commun. 30(8), 1982). Its integrand is
positive, periodic and analytic, so its trapezoid sum, the exact BER here,
converges geometrically (Trefethen and Weideman, SIAM Review 56(3), 2014).
Each SNR g takes N = 2 ceil(32 + 8 sqrt g) nodes of its own, at most 64
terms of one fixed table, so row i of an array call is bit-identical to
a call on row i alone. The Marcum Q routes in `specfun` are cross-checks
it does not use. The exact BER and the two lower bounds (l1, l2) and
three upper bounds (u1, u2, u3) that bracket it are evaluated over arrays
of SNRs, in exponentially scaled arithmetic so results stay finite far
beyond any tabulated range. Each array is one entry of the formula table
`_FORMULAS`, which a `_Resolver` computes on first use, so a call pays
only for what it asks; the scalar functions read the table at one SNR
through `_at`.

The sharp constant lambda0 in u3 and the root rho0 of
(x + 1) I1(x) = x I0(x) it comes from are stored as two doubles,
`_CONSTANTS`. The solver that gives them, bisection and Newton steps on
`scipy.special.i0` and `i1`, is kept in the test suite, which holds it to
these bits and the doubles to mpmath reference digits. Every special
function here comes from `scipy.special`, imported on first use through
`_special`, so the exact BER and the constants load numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["BoundSet", "LambdaConstants", "SnrPoint", "bound_set", "channel_params", "exact_ber", "solve_rho0"]

_SQRT2 = math.sqrt(2.0)
_A_COEF = 2.0 - _SQRT2
_B_COEF = 2.0 + _SQRT2
_HALF_PI_SQRT = math.sqrt(0.5 * math.pi)

# 2 - sqrt(2) as the unevaluated sum _A_HI + _A_LO: exp(-g (2 - sqrt 2))
# sets the size of the exact BER, and _A_COEF alone is 1e-16 off, which
# would cost g times 1e-16 of relative accuracy (1e-13 at 30 dB).
_A_HI = 0.585786437626905
_A_LO = -1.4349369327986523e-17
# exp(-g (2 - sqrt 2)) underflows to 0 beyond this g, so there the exact
# BER is 0 whatever the node count.
_G_UNDERFLOW = 746.0 / _A_HI
# SNRs per block of the exact sum (64 nodes each), and rows per block of the
# CSV renderer.
_ROWS = 4096
# The trapezoid table of `_exact`. Row j holds the nodes k < 64 of the sum
# on N = 2 (32 + j) = 2 _HALF nodes: u = 2 sin^2(pi k/N), and the weight 1
# at k = 0 and k = N/2, 2 between and 0 beyond, over 2 N (sqrt2 - 1 + u).
# An SNR g takes row j = ceil(8 sqrt g), so g > ((j - 1)/8)^2; from j = 32
# on, the nodes k >= 64 the row drops have g sqrt2 u >= 42.47 there and
# sum to less than 1e-20 of the rest (tests/test_bounds.py checks >= 40).
_K, _HALF = np.arange(64), 32 + np.arange(math.ceil(8.0 * math.sqrt(_G_UNDERFLOW)) + 1)[:, None]
_U = 2.0 * np.sin(_K * (math.pi / (2 * _HALF))) ** 2
_W = np.where((_K == 0) | (_K == _HALF), 1.0, 2.0 * (_K < _HALF)) / (4 * _HALF * (_SQRT2 - 1.0 + _U))


def db_to_linear(gamma_db: float) -> float:
    """Linear SNR 10^(gamma_db/10); ValueError where it overflows a double."""
    try:
        return 10.0 ** (gamma_db / 10.0)
    except OverflowError:
        raise ValueError(f"gamma_db = {gamma_db:g} overflows the linear SNR") from None


@dataclass(frozen=True)
class SnrPoint:
    """A bit SNR carried in both decibel and linear form."""

    gamma_db: float
    gamma_lin: float

    def __post_init__(self) -> None:
        if math.isnan(self.gamma_db) or math.isinf(self.gamma_db):
            raise ValueError("gamma_db must be finite")
        if not (0.0 < self.gamma_lin < math.inf):
            raise ValueError("gamma_lin must be positive and finite")
        expected = db_to_linear(self.gamma_db)
        if abs(expected - self.gamma_lin) > 1e-12 * self.gamma_lin:
            raise ValueError("gamma_db and gamma_lin disagree")

    @classmethod
    def from_db(cls, gamma_db: float) -> "SnrPoint":
        # a non-finite gamma_db maps to a non-finite or zero linear SNR,
        # which __post_init__ rejects with "gamma_db must be finite"
        gamma_db = float(gamma_db)
        return cls(gamma_db, db_to_linear(gamma_db))

    @classmethod
    def from_linear(cls, gamma_lin: float) -> "SnrPoint":
        gamma_lin = float(gamma_lin)
        if not (0.0 < gamma_lin < math.inf):
            raise ValueError("gamma_lin must be positive and finite")
        return cls(10.0 * math.log10(gamma_lin), gamma_lin)


@dataclass(frozen=True)
class ChannelParams:
    """Noncoherent detection parameters (a, b) derived from one SNR point."""

    a: float
    b: float


@dataclass(frozen=True)
class LambdaConstants:
    """Root rho0 of (x+1) I1(x) = x I0(x) and the sharp constant lambda0."""

    rho0: float
    lambda0: float


# What the solver in tests/oracles.py returns, bit for bit: rho0 2.5 ulp
# and lambda0 2.1 ulp below the correctly rounded values. The last bits of
# u3, ber3 and ber7 depend on them.
_CONSTANTS = LambdaConstants(rho0=1.5451272579925421, lambda0=3.034422066266148)


def solve_rho0() -> LambdaConstants:
    """Unique positive root of (x+1) I1(x) = x I0(x) and the derived constant, as stored Python floats."""
    return _CONSTANTS


@dataclass(frozen=True)
class BoundSet:
    """The five bounds evaluated at one SNR point (l1 < l2 <= BER <= u2, u3 <= u1).

    l1 = I0(ab) [sqrt(pi/2) b e(a,b)/e^{ab} - (1/2) e^{-(a^2+b^2)/2}]; u1 swaps
    b for a and adds the second term; l2, u2, u3 use b E(a,b)/(e^{ab} - e^{-ab}),
    a E(a,b)/(e^{ab} + e^{-ab}) and a e(a,b)/(e^{ab} + lambda0) (see `_FORMULAS`).
    """

    l1: float
    l2: float
    u1: float
    u2: float
    u3: float


def _special(r=None):
    # scipy.special, imported on first use: the exact BER needs numpy only
    import scipy.special

    return scipy.special


def _scale(g: np.ndarray) -> np.ndarray:
    """exp(-g (2 - sqrt 2)) = exp(-(b - a)^2 / 2), the size of the exact BER and of every bound.

    The exact BER and the closed forms take it from this one expression, so
    its rounding cancels in the relative errors eps5..eps7. Clamped at
    `_G_UNDERFLOW`, where it is 0 already: beyond g ~ 5e19 (197 dB),
    exp(-g _A_LO) would overflow and 0 inf give NaN.
    """
    g = np.fmin(g, _G_UNDERFLOW)
    return np.exp(-g * _A_HI) * np.exp(-g * _A_LO)


def _exact(g: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Trapezoid sum of the single-angle form, each SNR g on its own N = 2 ceil(32 + 8 sqrt g) nodes, times `scale` = `_scale(g)`.

    With u = 1 + sin t the integrand is
    exp(-g (2 - sqrt 2)) exp(-g sqrt2 u) / (sqrt2 - 1 + u). Nodes
    t = -pi/2 + 2 pi k/N give u = 2 sin^2(pi k/N), free of the cancellation
    in 1 + sin t near its zero; nodes k and N - k give the same u, which
    halves the work. A row sums the 64 terms of its row of `_U`, `_W` in a
    fixed order, so its value depends on its own SNR only: row i of a call
    is bit-identical to a call on row i alone.
    """
    g = np.fmax(np.fmin(g, _G_UNDERFLOW), 0.0).ravel()  # a row that failed its check (NaN, <= 0) still indexes the table
    total = np.empty_like(g)
    for lo in range(0, g.size, _ROWS):
        x = g[lo : lo + _ROWS]
        j = np.ceil(32.0 + 8.0 * np.sqrt(x)).astype(np.intp) - 32  # N/2 = 32 + j
        total[lo : lo + _ROWS] = np.einsum("ij,ij->i", np.exp(-(x[:, None] * _SQRT2) * _U[j]), _W[j])
    return scale * total.reshape(scale.shape)


class _Resolver(dict):
    """The entries of a formula table at one array of SNRs, "gamma": each
    is computed on first use, as `table[name](self)`, and then kept."""

    __slots__ = ("table", "problems")

    def __init__(self, gamma: np.ndarray, table: dict):
        self["gamma"] = gamma
        self.table = table
        self.problems: list = []

    def __missing__(self, name: str) -> np.ndarray:
        value = self[name] = self.table[name](self)
        return value

    def check(self, value: np.ndarray, ok: np.ndarray, message: str) -> np.ndarray:
        """`value`, once the first row where `ok` fails, if any, is recorded; `message` may hold one {} for its SNR."""
        if np.count_nonzero(ok) < ok.size:  # cheaper than ok.all() on short arrays
            bad = int(np.flatnonzero(~ok)[0])
            self.problems.append((bad, message.format(self["gamma"].flat[bad])))
        return value


# The exact BER, the five bounds and what they share, name -> formula over
# a `_Resolver` r. A domain check is part of the entry it guards: "g" is
# "gamma" once checked, and every formula but the weights' reads the SNR
# from "g", so its check is always recorded first. Reciprocals of
# e^{ab} +- e^{-ab} and e^{ab} + lambda0 are evaluated as
# e^{-ab}/(1 +- e^{-2ab}) and e^{-ab}/(1 + lambda0 e^{-ab}) so every bound
# stays finite at any SNR.
_FORMULAS = {
    # log(gamma) is finite exactly where 0 < gamma < inf: two ufuncs instead of three
    "g": lambda r: r.check(r["gamma"], np.isfinite(np.log(r["gamma"])), "gamma_lin must be positive and finite"),
    "a": lambda r: np.sqrt(r["g"] * _A_COEF),
    "b": lambda r: r.check(b := np.sqrt(r["g"] * _B_COEF), np.isfinite(b), "gamma_lin = {:g} overflows b = sqrt(gamma (2 + sqrt 2))"),
    "ab": lambda r: r["a"] * r["b"],
    "special": _special,
    "ive": lambda r: r["special"].i0e(r["ab"]),
    "exp_ab": lambda r: np.exp(-r["ab"]),
    "exp_2ab": lambda r: np.exp(-2.0 * r["ab"]),
    "scale": lambda r: _scale(r["g"]),
    # erfc(x) = erfcx(x) exp(-x^2), with the exponents taken exactly:
    # (b-a)^2/2 = g (2 - sqrt 2) and (b+a)^2/2 = (b-a)^2/2 + 2ab. Rounding
    # them in double instead costs ~1e-13 relative at 30 dB.
    "tail": lambda r: r["special"].erfcx((r["b"] - r["a"]) / _SQRT2),
    "e": lambda r: r["scale"] * r["tail"],
    "big_e": lambda r: r["scale"] * (r["tail"] - r["exp_2ab"] * r["special"].erfcx((r["b"] + r["a"]) / _SQRT2)),
    # (1/2) I0(ab) exp(-(a^2+b^2)/2), via (a^2+b^2)/2 - ab = (b-a)^2/2
    "half": lambda r: 0.5 * r["ive"] * r["scale"],
    "common": lambda r: _HALF_PI_SQRT * r["ive"],
    "exact": lambda r: _exact(r["g"], r["scale"]),
    "l1": lambda r: r["common"] * r["b"] * r["e"] - r["half"],
    "l2": lambda r: r["common"] * r["b"] * r["big_e"] / (1.0 - r["exp_2ab"]) - r["half"],
    "u1": lambda r: r["common"] * r["a"] * r["e"] + r["half"],
    "u2": lambda r: r["common"] * r["a"] * r["big_e"] / (1.0 + r["exp_2ab"]) + r["half"],
    "u3": lambda r: r["common"] * r["a"] * r["e"] / (1.0 + _CONSTANTS.lambda0 * r["exp_ab"]) + r["half"],
}


def _evaluate(gamma: np.ndarray, names, table: dict) -> dict[str, np.ndarray]:
    """The named entries of `table` over the SNRs `gamma`; ValueError for
    the lowest row where a check they need fails, so a sweep reports its
    first offending point."""
    r = _Resolver(gamma, table)
    with np.errstate(all="ignore"):
        values = {name: r[name] for name in names}
    if r.problems:
        raise ValueError(min(r.problems, key=lambda problem: problem[0])[1])
    return values


def _at(snr: SnrPoint, names: tuple, table: dict = _FORMULAS) -> list[float]:
    # The named entries of `table` at one SNR point, as floats.
    values = _evaluate(np.array([snr.gamma_lin]), names, table)
    return [float(values[name][0]) for name in names]


def channel_params(snr: SnrPoint) -> ChannelParams:
    """Map an SNR point to (a, b); b/a is the fixed constant 1 + sqrt(2)."""
    return ChannelParams(*_at(snr, ("a", "b")))


def exact_ber(snr: SnrPoint) -> float:
    """Exact bit error rate Q(a, b) - (1/2) I0(ab) exp(-(a^2+b^2)/2), as `_exact` sums it.

    Underflows to 0.0 at extreme SNR (beyond roughly 31 dB) where the true
    value drops out of the double range.
    """
    return _at(snr, ("exact",))[0]


def bound_set(snr: SnrPoint) -> BoundSet:
    """All five bounds from one shared channel parameterization (see `_FORMULAS`)."""
    return BoundSet(*_at(snr, tuple(f.name for f in fields(BoundSet))))
