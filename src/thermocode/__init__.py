"""Statistical mechanics of optimal binary prefix codes.

The package treats the set of coded messages of a prefix code as a physical
ensemble: counting messages at fixed total length gives entropy and a
discrete temperature, canonical weights over codeword lengths give the
matching continuous picture, two codes sharing a bit budget reach thermal
equilibrium, and the message set carries a temperature-dependent
box-counting dimension.  Exact integer and rational arithmetic backs every
float path.
"""

from . import codes, dimension, equilibrium, errors, gibbs, microcanonical
from .codes import *
from .dimension import *
from .equilibrium import *
from .errors import *
from .gibbs import *
from .microcanonical import *

__version__ = "0.1.0"

__all__ = [
    *codes.__all__,
    *microcanonical.__all__,
    *gibbs.__all__,
    *equilibrium.__all__,
    *dimension.__all__,
    *errors.__all__,
    "__version__",
]
