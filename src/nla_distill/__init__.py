"""Quantum-scissor amplifier distillation of lossy EPR entanglement.

Truncated-Fock-space simulation of the heralded amplifier circuits, closed
forms for every benchmark and operating curve, and the constrained searches
that reproduce the operating-point figures.  The top-level names are the
``__all__`` of `analytic`, `fock`, `metrics`, `nla` and `optimize`.
"""

from . import analytic, fock, metrics, nla, optimize
from .analytic import *
from .fock import *
from .metrics import *
from .nla import *
from .optimize import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += analytic.__all__
__all__ += fock.__all__
__all__ += metrics.__all__
__all__ += nla.__all__
__all__ += optimize.__all__
