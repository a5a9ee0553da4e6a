"""Resonances of finitely perturbed discrete-time quantum walks on the line.

The walk is free (identity coin) outside a window [0, n0] and arbitrary
unitary inside.  Everything the package computes hangs off three
equivalent pictures of a resonance: a root of the transfer polynomial, a
nonzero eigenvalue of the window restriction K, and a pole met by a
winding integral of the transfer product.  On top of those sit the
scattering matrix, the resonance expansion of evolved states, the
resolvent on finite windows, and the splitting of multiple resonances
under generic coin perturbations.  The public names are those of each
library module's ``__all__``, re-exported here.
"""

from .coins import *
from .errors import *
from .expansion import *
from .genericity import *
from .resolvent import *
from .resonances import *
from .scattering import *
from .states import *
from .transfer import *
from .walk import *

__version__ = "0.1.0"
