"""Exact DQPSK/AWGN bit error rate, analytic bounds, approximations, and a Monte-Carlo oracle."""

from .approx import (
    ApproxSet,
    approx_set,
    ber1,
    ber2,
    ber3,
    ber4,
    ber5,
    ber6,
    ber7,
    evaluate,
    omega5,
    omega6,
    omega7,
)
from .bounds import (
    BoundSet,
    LambdaConstants,
    SnrPoint,
    bound_set,
    channel_params,
    exact_ber,
    solve_rho0,
)
from .montecarlo import McConfig, McResult, simulate
from . import specfun  # the Marcum Q cross-checks, not exported: reached as dqpskber.specfun.*

__version__ = "0.1.0"

__all__ = [
    "ApproxSet",
    "BoundSet",
    "LambdaConstants",
    "McConfig",
    "McResult",
    "SnrPoint",
    "approx_set",
    "ber1",
    "ber2",
    "ber3",
    "ber4",
    "ber5",
    "ber6",
    "ber7",
    "bound_set",
    "channel_params",
    "evaluate",
    "exact_ber",
    "omega5",
    "omega6",
    "omega7",
    "simulate",
    "solve_rho0",
]
