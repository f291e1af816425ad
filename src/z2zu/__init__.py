"""Additive codes over Z2 x (Z2 + uZ2), u^2 = 0.

Mixed-alphabet codewords live in Z2^alpha x R^beta where R is the
four-element ring {0, 1, u, 1+u}.  The package computes spans, standard
generator matrices, Lee weight enumerators, Gray images, duals (read
off the basis, enumerators by transform), and the structural
predicates used to classify one- and two-Lee-weight codes.

The package re-exports every name in each module's ``__all__``, which
is the one list of that module's public names.
"""

from . import classify, core, errors, presets, ring, search, standard_form, weights

# read before the star imports rebind z2zu.classify and
# z2zu.standard_form to the functions of those names
__all__ = [name for module in (classify, core, errors, presets, ring, search,
                               standard_form, weights)
           for name in module.__all__]

from .classify import *  # noqa: E402, F403
from .core import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .presets import *  # noqa: E402, F403
from .ring import *  # noqa: E402, F403
from .search import *  # noqa: E402, F403
from .standard_form import *  # noqa: E402, F403
from .weights import *  # noqa: E402, F403

__version__ = "0.1.0"
