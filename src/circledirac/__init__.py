"""circledirac: numerical verification of a biquaternion reflector form of
the Dirac system on circular spacetime charts.

The library covers the quaternion algebra with complex coefficients, the
off-diagonal block (reflector) calculus, the circular chart bijections,
plane-wave residual checks, the infinite-velocity rotor transformation,
the Sommerfeld fine-structure bound-state spectrum computed by two
independent routes, and the per-point charge-density decomposition.
Every name in a module's ``__all__`` can be imported from the package.
"""

from .biquaternion import *
from .circle_spaces import *
from .errors import *
from .planewave import *
from .qed import *
from .reflector import *
from .spectrum import *
from .tachyon import *

__version__ = "0.1.0"
