"""Exact Mukai-lattice arithmetic for K3 surfaces.

Integer-exact tools for the lattice side of moduli of sheaves on a K3:
Mukai vectors and their pairing, the Beauville-Bogomolov form on the
Hilbert scheme of points, isotropic-class search (the numerical fibration
criterion), the Mukai-dual surface's numeric data, and an equivalence
decision for integral binary quadratic forms by reduction.
"""

from .bb import *
from .checks import *
from .dual_surface import *
from .mukai import *
from .quadforms import *

__version__ = "0.1.0"
