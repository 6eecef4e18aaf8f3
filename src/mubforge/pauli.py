"""Numeric oracle: eigenbases from the monomial Pauli action, MUB verification.

This module double-checks the symbolic layer with complex arithmetic.  A
Pauli operator is monomial: it maps e_y to a phase times e_(y XOR x).  So the
joint eigenbasis of each commuting class is read off by half-sums
v <- (v + s P v) / 2 on single vectors, each a permutation and a phase,
without forming a Pauli matrix or a d x d projector.  `verify_mub` then checks
unbiasedness of a full set.  The dense Pauli matrices and projector products
this replaces, and the Schmidt-rank probes across qubit cuts, live with the
tests (`tests/oracles.py`).

This is the one place numpy is used; the package and the CLI import this
module only when the numeric tier of `build` runs, or when one of its names
is read off `mubforge`.

Conventions: qubit 0 is the leftmost tensor factor (most significant bit of
the computational index); every eigenvector's global phase is fixed by making
its first sufficiently-large component real positive, so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import NUMERIC_QUBIT_CAP, GeneratorSet
from .gf2 import BitMatrix, rank


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
    def from_bits(cls, m: int, packed: int) -> "PauliLabel":
        lo = (1 << m) - 1
        return cls(m, packed & lo, packed >> m)

    def site(self, k: int) -> tuple[int, int]:
        return ((self.z >> k) & 1, (self.x >> k) & 1)


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


_POWERS_OF_MINUS_I = (1 + 0j, -1j, -1 + 0j, 1j)


def _monomial_action(a: PauliLabel, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase) with (P_a v)[r] = phase[r] * v[src[r]] for v indexed by idx.

    P_a = (-i)^(z.x) Z^z X^x maps e_y to (-i)^(z.x) (-1)^(z.(y ^ x)) e_(y ^ x),
    with qubit k at index bit m - 1 - k.
    """
    xmask = 0
    parity = np.zeros(len(idx), dtype=idx.dtype)
    for k in range(a.m):
        z_k, x_k = a.site(k)
        bit = a.m - 1 - k
        xmask |= x_k << bit
        if z_k:
            parity ^= (idx >> bit) & 1
    phase = _POWERS_OF_MINUS_I[bin(a.z & a.x).count("1") % 4] * (1 - 2 * parity)
    return idx ^ xmask, phase


def _check_cap(m: int) -> None:
    if m > NUMERIC_QUBIT_CAP:
        raise ValueError(f"numeric eigenbases are capped at m = {NUMERIC_QUBIT_CAP}, got m = {m}")


def class_eigenbasis(gen: BitMatrix) -> np.ndarray:
    """Unitary whose columns are the joint eigenvectors of one class.

    The m generator labels are the columns of the 2m x m matrix; they must be
    independent and pairwise commuting, and m at most NUMERIC_QUBIT_CAP.
    Column t holds the eigenvector with sign pattern read from the bits of t
    (qubit-0 generator = most significant bit, bit 0 meaning eigenvalue +1):
    the normalised first nonzero column of the projector prod_i (I + s_i P_i) / 2.
    Every intermediate value is a dyadic Gaussian rational, so the arithmetic
    is exact.
    """
    m = gen.cols
    if gen.rows != 2 * m:
        raise ValueError("expected a 2m x m generator")
    _check_cap(m)
    labels = [PauliLabel.from_bits(m, gen.column(j)) for j in range(m)]
    if rank(gen) < m:
        raise ValueError("class generators are dependent")
    for i in range(m):
        for j in range(i + 1, m):
            if symplectic_product(labels[i], labels[j]):
                raise ValueError("class generators do not commute")
    d = 1 << m
    idx = np.arange(d)
    actions = [_monomial_action(lab, idx) for lab in labels]
    basis = np.empty((d, d), dtype=complex)
    todo = idx  # sign patterns still without an eigenvector
    for j in range(d):
        # Project e_j for every pending pattern at once.  A rank-1 stabilizer
        # projector has nonzero columns of one norm, so the first j that a
        # pattern does not annihilate is its largest-norm column.
        vecs = np.zeros((len(todo), d), dtype=complex)
        vecs[:, j] = 1.0
        for i, (src, phase) in enumerate(actions):
            sign = 1 - 2 * ((todo >> (m - 1 - i)) & 1)
            vecs = (vecs + sign[:, None] * (phase * vecs[:, src])) / 2.0
        hit = np.linalg.norm(vecs, axis=1) >= 1e-9
        for t, v in zip(todo[hit], vecs[hit]):
            basis[:, t] = _fix_phase(v / np.linalg.norm(v))
        todo = todo[~hit]
        if not len(todo):
            return basis
    raise ValueError("projector collapsed: generators not independent")


def mub_from_generators(gens: GeneratorSet) -> list[np.ndarray]:
    """The d + 1 eigenbases of a generator set, in the order of its standard forms.

    The cap is checked before any form is derived, since a set has 2^m of them.
    """
    _check_cap(gens.m)
    return [class_eigenbasis(g) for g in gens.generators]


@dataclass(frozen=True)
class MubVerification:
    max_deviation: float
    unitarity_deviation: float
    passed: bool
    worst_pair: tuple[int, int] | None  # the pair of bases at max_deviation


def verify_mub(bases: list[np.ndarray], tol: float = 1e-10) -> MubVerification:
    """Largest deviation of any cross-basis overlap from 1/d, checked against tol."""
    if not bases:
        raise ValueError("empty basis list")
    d = bases[0].shape[0]
    eye = np.eye(d)
    unit_dev = max(float(np.max(np.abs(b.conj().T @ b - eye))) for b in bases)
    dev, worst = 0.0, None
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            overlaps = np.abs(bases[i].conj().T @ bases[j]) ** 2
            pair_dev = float(np.max(np.abs(overlaps - 1.0 / d)))
            if worst is None or pair_dev > dev:
                dev, worst = pair_dev, (i, j)
    return MubVerification(dev, unit_dev, dev <= tol and unit_dev <= tol, worst)
