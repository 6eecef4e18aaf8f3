"""Numeric tier: the cyclic generator U as a circuit, and its powers.

A spec's stabilizer matrix C is the action on Pauli labels (z; x) of one
Clifford unitary U, which is built here from the spec's matrices, never
from its d + 1 standard forms.  U has three kinds of layers:

- H^(x)m, which maps labels by J = [[0, I], [I, 0]];
- the quadratic phase D_S = diag(i^(y^t S y)) of a symmetric S, with y^t S y
  taken over Z4 as sum_i S_ii y_i + 2 sum_{i<j} S_ij y_i y_j, which maps
  labels by [[I, S], [0, I]];
- the permutation P_G: |y> -> |G y>, which maps labels by diag(G^-t, G).

So U follows the factorization of C:

- field kind: C = [[I, B], [0, I]] J, so U = D_B H^(x)m;
- group kind: C = diag(R, R^-1) [[I, R^-1 B], [0, I]] J, where R^-1 B is
  symmetric because B R is, so U = P_(R^-1) D_(R^-1 B) H^(x)m;
- semigroup kind: C = T C_group T with T = [[I, A], [0, I]], so
  U = D_A U_group D_A.

With R = I and A = 0 where the kind fixes them, the semigroup formula
covers all three.  Basis j is U^j applied to the computational basis: its
columns are the joint eigenvectors of the class C^j (I; 0), up to phase and
order.  Since (U^i)^+ U^j = U^(j-i), the whole set is unbiased iff every
entry of U^j has squared modulus 1/d for j = 1..d.  `verify_mub` keeps one
d x d matrix M = U^j and applies U to it d times, each time a fast
Walsh-Hadamard pass, a row permutation and two diagonals: O(d^3 log d) in
place of the d + 1 eigenbases and (d + 1) d / 2 products of an all-pairs
overlap check.  That check, the eigenbases of the classes and the dense
Pauli matrices live with the tests (`tests/oracles.py`), where they tie the
powers of U to the symbolic classes.

This is the one place numpy is used; the package and the CLI import this
module only when the numeric tier of `build` runs, or when `verify_mub` is
read off `mubforge`.

Conventions: qubit 0 is the leftmost tensor factor (most significant bit of
the computational index).  H^(x)m carries the scale 2^(-m/2), exact for
even m, where every entry of every power is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .construct import NUMERIC_QUBIT_CAP, StabilizerSpec
from .gf2 import BitMatrix, mat_inverse, mat_mul

_POWERS_OF_I = np.array([1, 1j, -1, -1j])


def _quadratic_phase(S: BitMatrix, bits: np.ndarray) -> np.ndarray:
    """The diagonal of D_S: i^(y^t S y) for the qubit bits y of each index."""
    s = np.array(S.to_lists())
    q = bits @ np.diag(s) + 2 * ((bits @ np.triu(s, 1)) * bits).sum(axis=1)
    return _POWERS_OF_I[q % 4]


def _generator_layers(spec: StabilizerSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U = D_A P_(R^-1) D_(R^-1 B) H^(x)m D_A as (pre, post, src).

    (U M)[r] = post[r] * (H^(x)m (pre * M))[src[r]] row by row, since
    P_(R^-1) moves row R r to row r.
    """
    m = spec.m
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    src = (bits @ np.array(spec.R.to_lists()).T) % 2 @ (1 << np.arange(m - 1, -1, -1))
    phase = _quadratic_phase(mat_mul(mat_inverse(spec.R), spec.B), bits)
    outer = _quadratic_phase(spec.A, bits)
    return outer, outer * phase[src], src


def _hadamard(M: np.ndarray) -> None:
    """Apply H^(x)m to the rows of M in place: one butterfly pass per qubit."""
    d = M.shape[0]
    h = 1
    while h < d:
        pairs = M.reshape(d // (2 * h), 2, h, -1)
        total = pairs[:, 0] + pairs[:, 1]
        pairs[:, 1] = pairs[:, 0] - pairs[:, 1]
        pairs[:, 0] = total
        h *= 2
    # 2.0 ** (-m / 2) is 2^(-m/2) correctly rounded; 1 / np.sqrt(d) rounds
    # twice, which at m = 5 moves the reported deviation from 2^-56 to 1.5e-16.
    M *= 2.0 ** (-(d.bit_length() - 1) / 2)


def generator_powers(spec: StabilizerSpec, count: int) -> Iterator[np.ndarray]:
    """U^1, ..., U^count as d x d complex matrices, each a new array."""
    if spec.m > NUMERIC_QUBIT_CAP:
        raise ValueError(
            f"the numeric tier is capped at m = {NUMERIC_QUBIT_CAP}, got m = {spec.m}"
        )
    pre, post, src = _generator_layers(spec)
    M = np.eye(spec.d, dtype=complex)
    for _ in range(count):
        M = M * pre[:, None]
        _hadamard(M)
        M = post[:, None] * M[src]
        yield M


@dataclass(frozen=True)
class MubVerification:
    max_deviation: float
    unitarity_deviation: float
    passed: bool
    worst_pair: tuple[int, int] | None  # bases (0, j): the power U^j at max_deviation


def verify_mub(spec: StabilizerSpec, tol: float = 1e-10) -> MubVerification:
    """Largest deviation of |U^j_xy|^2 from 1/d over j = 1..d, checked against tol.

    Unitarity is checked once, on U.  The cap is checked before anything is
    allocated.
    """
    d = spec.d
    dev, worst, unit_dev = 0.0, None, 0.0
    for j, M in enumerate(generator_powers(spec, d), start=1):
        if j == 1:
            # U^+ U from real products: a complex one (zgemm) took 16 ms at
            # d = 64 with OpenBLAS 0.3.31 on 2 cores, the four real ones 0.1 ms.
            re, im = M.real, M.imag
            gram = re.T @ re + im.T @ im + 1j * (re.T @ im - im.T @ re)
            unit_dev = float(np.max(np.abs(gram - np.eye(d))))
        power_dev = float(np.max(np.abs(np.abs(M) ** 2 - 1.0 / d)))
        if worst is None or power_dev > dev:
            dev, worst = power_dev, (0, j)
    return MubVerification(dev, unit_dev, dev <= tol and unit_dev <= tol, worst)
