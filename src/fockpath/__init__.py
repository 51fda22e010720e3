"""Few-photon linear optics with two independent evolution engines.

States are superpositions of Fock occupancies over (port, polarization)
modes.  The `paths` engine sums amplitudes over labeled-photon routings;
the `operators` engine substitutes creation operators.  Each module has the
same two entry points, `evolve(state, circuit.bound)` for a whole circuit
and `apply_transform(state, t)` for one element; `run_circuit(...,
engine="both")` runs both engines' `evolve` and cross-checks the results.

The package exports each module's ``__all__``.  Neither engine lists its
entry points, so the star imports below cannot shadow one with the other.
"""

from .fock import *
from .elements import *
from .paths import *
from .operators import *
from .coherent import *
from .circuit import *
from .mirror import *
from .errors import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (fock, elements, paths, operators, coherent, circuit, mirror, errors)
    for name in module.__all__
]
