"""Toolkit for log-ergodic price processes.

Simulates Wiener/GBM paths, transforms them into mean-reverting Z
processes, extracts recurrence and sojourn statistics for trade timing,
runs circle-rotation ergodicity diagnostics, and prices European calls
through three mutually cross-checking engines.

The package re-exports the `__all__` of each library module.
"""

from .ergodic import *
from .pricing import *
from .rotation import *
from .stochastic import *
from .trading import *

__version__ = "0.1.0"
