"""Monte Carlo interbank default cascades.

Two engines simulate the same contagion process on directed random loan
networks: one works through explicit bank balance sheets hit by random
asset returns, the other through per-bank flip thresholds sampled from the
law those returns imply. Fed the same draw they default the same banks in
the same rounds; fed independent draws they produce statistically
indistinguishable crisis frequencies and sizes. The experiment harness
sweeps average degree to map out the connectivity window where system-wide
crises occur.
"""
from . import balance, balance_cascade, experiment, network, threshold_cascade
from .balance import *
from .balance_cascade import *
from .experiment import *
from .network import *
from .threshold_cascade import *

__version__ = "0.1.0"

# each public name is listed once, in its own module's ``__all__``
__all__ = ["__version__", *balance.__all__, *balance_cascade.__all__, *experiment.__all__,
           *network.__all__, *threshold_cascade.__all__]
