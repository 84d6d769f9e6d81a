"""Exact arithmetic for congruence subgroups of braid groups.

The package evaluates the integral Burau representation at t = -1, decides
membership in level-m congruence subgroups, computes their abelianizations
by coset enumeration and Smith normal form, and provides a normal-form
calculus for the crystallographic quotient of the braid group by the
commutator subgroup of the pure braid group.

Each module's __all__ lists the public names it defines; the package
re-exports exactly those lists.
"""

__version__ = "0.1.0"

from . import burau, claims, congruence, cryst, smith, words
from .words import *  # noqa: F401,F403
from .burau import *  # noqa: F401,F403
from .smith import *  # noqa: F401,F403
from .congruence import *  # noqa: F401,F403
from .cryst import *  # noqa: F401,F403
from .claims import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *words.__all__,
    *burau.__all__,
    *smith.__all__,
    *congruence.__all__,
    *cryst.__all__,
    *claims.__all__,
]
