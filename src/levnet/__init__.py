"""Bank leverage-dependence networks.

Builds Pearson-correlation networks over banks' leverage ratio series,
decomposes them into clusters across thresholds, and simulates a corporate
plus interbank lending system whose balance-sheet panel feeds the same
pipeline.
"""

# each module's __all__ is the one list of the names the package exports
from .balance_sheet import *
from .growth import *
from .network import *
from .sim import *

__version__ = "0.1.0"
