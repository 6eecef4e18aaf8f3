"""Complete sets of cyclic mutually unbiased bases for m-qubit systems.

The construction works at the level of 2m x 2m symplectic stabilizer
matrices over F2 built from a matrix B whose characteristic polynomial is
irreducible with Fibonacci index 2^m + 1, optionally dressed with a
symmetrizer R and an additive matrix A that control how many bases of the
resulting set are completely factorizable (three, two, or one).  A complex
numeric tier builds the cyclic generator U as a circuit and independently
verifies that its powers are unbiased.

numpy is loaded only by the numeric tier in `pauli`.  So its
`verify_mub` is resolved on first access, and `import mubforge` stays free
of numpy.
"""

from .construct import (
    GeneratorSet,
    SpecValidationError,
    StabilizerSpec,
    StandardFormError,
    Z_BASIS,
    bandyopadhyay_check,
    build_stabilizer,
    cyclicity_check,
    find_addend,
    generators,
    search_specs,
)
from .entangle import EntanglementVector, entanglement_vector
from .equiv import (
    SymplecticMap,
    classes_equal,
    equivalence_map,
    is_symplectic,
    symplectic_form,
    transport,
)
from .gf2 import (
    BitMatrix,
    NotInvertibleError,
    char_poly,
    mat_inverse,
    mat_mul,
    rank,
)
from .poly2 import fibonacci_index, is_irreducible, stabilizer_char_polys

__version__ = "0.1.0"


def __getattr__(name):
    if name == "verify_mub":
        from .pauli import verify_mub

        return verify_mub
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
