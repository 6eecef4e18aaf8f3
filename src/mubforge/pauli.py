"""Numeric oracle: explicit Pauli matrices, eigenbases, MUB verification.

This module double-checks the symbolic layer with dense complex arithmetic:
it builds the d-dimensional Pauli operators from their F2 labels, extracts
the joint eigenbasis of each commuting class by projector products, and
verifies unbiasedness of a full set.  The Schmidt-rank probes across qubit
cuts live with the tests (`tests/oracles.py`).

Conventions: qubit 0 is the leftmost tensor factor (most significant bit of
the computational index); every eigenvector's global phase is fixed by making
its first sufficiently-large component real positive, so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import GeneratorSet
from .gf2 import BitMatrix, BitVec, rank

NUMERIC_QUBIT_CAP = 6

_I2 = np.eye(2, dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)  # (-i) Z X
_SITE = {(0, 0): _I2, (1, 0): _Z, (0, 1): _X, (1, 1): _Y}


@dataclass(frozen=True)
class PauliLabel:
    """Pauli operator label a = (z; x) in F2^(2m), bit i = qubit i."""

    m: int
    z: int
    x: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for part in (self.z, self.x):
            if part < 0 or part >> self.m:
                raise ValueError("label bits outside qubit count")

    @classmethod
    def from_bitvec(cls, v: BitVec) -> "PauliLabel":
        if v.n % 2:
            raise ValueError("label vector must have even length")
        m = v.n // 2
        lo = (1 << m) - 1
        return cls(m, v.bits & lo, v.bits >> m)

    @classmethod
    def from_bits(cls, m: int, packed: int) -> "PauliLabel":
        lo = (1 << m) - 1
        return cls(m, packed & lo, packed >> m)

    def site(self, k: int) -> tuple[int, int]:
        return ((self.z >> k) & 1, (self.x >> k) & 1)


def pauli_matrix(a: PauliLabel) -> np.ndarray:
    """Tensor product over sites of (-i)^(z_k x_k) Z^(z_k) X^(x_k)."""
    if a.m > NUMERIC_QUBIT_CAP:
        raise ValueError(f"numeric Pauli matrices are capped at m = {NUMERIC_QUBIT_CAP}")
    out = np.array([[1.0 + 0j]])
    for k in range(a.m):
        out = np.kron(out, _SITE[a.site(k)])
    return out


def symplectic_product(a: PauliLabel, b: PauliLabel) -> int:
    """Sum_k (a_z_k b_x_k + a_x_k b_z_k) mod 2; zero iff the operators commute."""
    if a.m != b.m:
        raise ValueError("qubit count mismatch")
    return bin((a.z & b.x) ^ (a.x & b.z)).count("1") & 1


def _fix_phase(v: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    scale = np.max(np.abs(v))
    for comp in v:
        if abs(comp) > tol * scale:
            return v * (comp.conjugate() / abs(comp))
    raise ValueError("zero vector has no phase")


def class_eigenbasis(gen: BitMatrix) -> np.ndarray:
    """Unitary whose columns are the joint eigenvectors of one class.

    The m generator labels are the columns of the 2m x m matrix; they must be
    independent and pairwise commuting.  Column t holds the eigenvector with
    sign pattern read from the bits of t (qubit-0 generator = most significant
    bit, bit 0 meaning eigenvalue +1).
    """
    m = gen.cols
    if gen.rows != 2 * m:
        raise ValueError("expected a 2m x m generator")
    labels = [PauliLabel.from_bitvec(gen.column(j)) for j in range(m)]
    if rank(gen) < m:
        raise ValueError("class generators are dependent")
    for i in range(m):
        for j in range(i + 1, m):
            if symplectic_product(labels[i], labels[j]):
                raise ValueError("class generators do not commute")
    d = 1 << m
    ops = [pauli_matrix(lab) for lab in labels]
    eye = np.eye(d, dtype=complex)
    basis = np.empty((d, d), dtype=complex)
    for t in range(d):
        proj = eye
        for i in range(m):
            sign = -1.0 if (t >> (m - 1 - i)) & 1 else 1.0
            proj = proj @ ((eye + sign * ops[i]) / 2.0)
        col = int(np.argmax(np.linalg.norm(proj, axis=0)))
        v = proj[:, col]
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise ValueError("projector collapsed: generators not independent")
        basis[:, t] = _fix_phase(v / norm)
    return basis


def mub_from_generators(gens: GeneratorSet) -> list[np.ndarray]:
    """The d + 1 eigenbases of a generator set, in the order of its standard forms."""
    return [class_eigenbasis(g) for g in gens.generators]


@dataclass(frozen=True)
class MubVerification:
    max_deviation: float
    unitarity_deviation: float
    passed: bool


def verify_mub(bases: list[np.ndarray], tol: float = 1e-10) -> MubVerification:
    """Largest deviation of any cross-basis overlap from 1/d, checked against tol."""
    if not bases:
        raise ValueError("empty basis list")
    d = bases[0].shape[0]
    eye = np.eye(d)
    unit_dev = max(float(np.max(np.abs(b.conj().T @ b - eye))) for b in bases)
    dev = 0.0
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            overlaps = np.abs(bases[i].conj().T @ bases[j]) ** 2
            dev = max(dev, float(np.max(np.abs(overlaps - 1.0 / d))))
    return MubVerification(dev, unit_dev, dev <= tol and unit_dev <= tol)
