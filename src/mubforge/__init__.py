"""Complete sets of cyclic mutually unbiased bases for m-qubit systems.

The construction works at the level of 2m x 2m symplectic stabilizer
matrices over F2 built from a matrix B whose characteristic polynomial is
irreducible with Fibonacci index 2^m + 1, optionally dressed with a
symmetrizer R and an additive matrix A that control how many bases of the
resulting set are completely factorizable (three, two, or one).  A complex
numeric tier builds the cyclic generator U as a circuit and independently
verifies that its powers are unbiased.

The package re-exports nothing, so a process loads only the modules it
imports: `from mubforge.search import search_specs`.
"""
