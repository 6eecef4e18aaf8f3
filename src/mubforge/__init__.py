"""Complete sets of cyclic mutually unbiased bases for m-qubit systems.

The construction works at the level of 2m x 2m symplectic stabilizer
matrices over F2 built from a matrix B whose characteristic polynomial is
irreducible with Fibonacci index 2^m + 1, optionally dressed with a
symmetrizer R and an additive matrix A that control how many bases of the
resulting set are completely factorizable (three, two, or one).  A complex
numeric tier builds the cyclic generator U as a circuit and independently
verifies that its powers are unbiased.
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
from .pauli import verify_mub
from .poly2 import fibonacci_index, is_irreducible, stabilizer_char_polys

__version__ = "0.1.0"
