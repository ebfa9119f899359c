"""Exact DQPSK/AWGN bit error rate, analytic bounds, approximations, and a Monte-Carlo oracle.

Each module's `__all__` lists the public names it defines; the package
exports their concatenation.
"""

from . import approx, bounds, montecarlo
from .approx import *
from .bounds import *
from .montecarlo import *
from . import specfun  # the Marcum Q cross-checks, not exported: reached as dqpskber.specfun.*

__version__ = "0.1.0"
__all__ = [*approx.__all__, *bounds.__all__, *montecarlo.__all__]
