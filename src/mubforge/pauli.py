"""Numeric tier: the cyclic generator U as a circuit, and its powers.

A spec's stabilizer matrix C is the action on Pauli labels (z; x) of one
Clifford unitary U, which is built here from the spec's matrices, never
from its d + 1 standard forms.  U has three kinds of layers:

- H^(x)m, which maps labels by J = [[0, I], [I, 0]];
- the quadratic phase D_S = diag(i^(y^t S y)) of a symmetric S, with y^t S y
  taken over Z4 as sum_i S_ii y_i + 2 sum_{i<j} S_ij y_i y_j, which for
  symmetric S is sum_i y_i |S_i & y|, one popcount per set bit of y; D_S
  maps labels by [[I, S], [0, I]];
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
entry of U^j has squared modulus 1/d for j = 1..d.

One column of each power decides this.  Each layer maps Pauli operators to
Pauli operators up to a phase, for any symmetric S and any invertible G, so
U^j X^y U^-j = i^c Z^a X^b for some c, a and b.  Then column y of U^j is

    U^j e_y = U^j X^y e_0 = i^c Z^a X^b U^j e_0,

column 0 with its entries permuted by x -> x + b and multiplied by
i^c (-1)^(a.x): the same squared moduli.  The float steps keep this exactly.
Multiplying by a phase in {+-1, +-i} is exact.  A butterfly fed (p u, +-p v)
or (p v, +-p u) for one phase p returns p (u + v) and p (u - v), in some
order and with some signs, because float addition commutes and rounds
symmetrically about 0.  Scaling by a real number and permuting entries
commute with both.  By induction over the layers, the computed column y of
every power is the computed column 0 moved by such a map, so the largest
deviation of |U^j_x0|^2 from 1/d is that of the whole power, bit for bit.
`verify_mub` applies U d times to one vector, U^(j-1) e_0 -> U^j e_0, in
pure Python: a diagonal, m butterfly passes, a permutation and a diagonal,
O(m d) per power and O(m d^2) in all, where the d x d powers took
O(d^3 log d).  Unitarity is not covered by that argument, so it is checked
on every column of U: the adjoint circuit D_pre^* H^(x)m P^t D_post^* takes
U e_y back to e_y, which is U^+ U = I column by column, O(m d^2) again.

The full d x d powers (numpy), the class eigenbases, the all-pairs overlap
check and the dense Pauli matrices live with the tests (`tests/oracles.py`),
where they tie the powers of U to the symbolic classes and check this
module bit for bit.

Conventions: qubit 0 is the leftmost tensor factor (most significant bit of
the computational index).  H^(x)m carries the scale 2^(-m/2), exact for
even m, where every entry of every power is exact.
"""

from __future__ import annotations

from typing import NamedTuple

from .construct import DEFAULT_TOL, NUMERIC_QUBIT_CAP, StabilizerSpec, reverse_bits
from .gf2 import BitMatrix, mat_inverse, mat_mul

_POWERS_OF_I = (1 + 0j, 1j, -1 + 0j, -1j)


def _quadratic_phase(S: BitMatrix) -> list[complex]:
    """The diagonal of D_S: i^(y^t S y) for the qubit bits y of each index.

    For symmetric S the integer sum_i y_i |S_i & y| counts S_ii y_i once and
    each S_ij y_i y_j with i < j twice, so mod 4 it is y^t S y over Z4.
    """
    phases = []
    for y in (reverse_bits(r, S.rows) for r in range(1 << S.rows)):
        q = sum((row & y).bit_count() for i, row in enumerate(S.data) if y >> i & 1)
        phases.append(_POWERS_OF_I[q % 4])
    return phases


def _generator_layers(spec: StabilizerSpec) -> tuple[list[complex], list[complex], list[int]]:
    """U = D_A P_(R^-1) D_(R^-1 B) H^(x)m D_A as (pre, post, src).

    (U v)[r] = post[r] * (H^(x)m (pre * v))[src[r]] entry by entry, since
    P_(R^-1) moves entry R r to entry r.
    """
    # The qubit bits y of each index, as a mask with bit i = y_i: the index
    # bits reversed.  That is an involution, so the index of a mask is its mask.
    masks = [reverse_bits(r, spec.m) for r in range(1 << spec.m)]
    rows = spec.R.data
    src = [
        masks[sum(((row & y).bit_count() & 1) << i for i, row in enumerate(rows))]
        for y in masks
    ]
    phase = _quadratic_phase(mat_mul(mat_inverse(spec.R), spec.B))
    outer = _quadratic_phase(spec.A)
    return outer, [o * phase[s] for o, s in zip(outer, src)], src


def _hadamard(v: list[complex]) -> list[complex]:
    """H^(x)m v: one butterfly pass per qubit, from the last qubit to the first.

    Each pass pairs entries 2k and 2k + 1 and writes (a + b, a - b) to k and
    k + d/2, which moves the low index bit to the top: after m passes the
    order is back, and pass t has paired indices that differ in bit t.
    """
    for _ in range(len(v).bit_length() - 1):
        even, odd = v[0::2], v[1::2]
        v = [a + b for a, b in zip(even, odd)] + [a - b for a, b in zip(even, odd)]
    # 2.0 ** (-m / 2) is 2^(-m/2) correctly rounded; 1 / sqrt(d) rounds
    # twice, which at m = 5 moves the reported deviation from 2^-56 to 1.5e-16.
    scale = 2.0 ** (-(len(v).bit_length() - 1) / 2)
    return [x * scale for x in v]


class MubVerification(NamedTuple):
    max_deviation: float
    unitarity_deviation: float
    passed: bool
    worst_pair: tuple[int, int] | None  # bases (0, j): the power U^j at max_deviation


def verify_mub(spec: StabilizerSpec, tol: float = DEFAULT_TOL) -> MubVerification:
    """Largest deviation of |U^j_x0|^2 from 1/d over j = 1..d, checked against tol.

    Column 0 of each power stands for the whole power (module docstring).
    Unitarity is checked once, on every column of U.  The cap is checked
    before anything is allocated.
    """
    if spec.m > NUMERIC_QUBIT_CAP:
        raise ValueError(
            f"the numeric tier is capped at m = {NUMERIC_QUBIT_CAP}, got m = {spec.m}"
        )
    d = spec.d
    pre, post, src = _generator_layers(spec)
    pre_conj = [p.conjugate() for p in pre]
    post_conj = [p.conjugate() for p in post]

    def apply(v: list[complex]) -> list[complex]:
        h = _hadamard([p * x for p, x in zip(pre, v)])
        return [p * h[s] for p, s in zip(post, src)]

    unit_dev = 0.0
    for y in range(d):
        column = apply([1.0 if x == y else 0.0 for x in range(d)])
        back = [0j] * d
        for p, s, x in zip(post_conj, src, column):
            back[s] += p * x
        back = [p * x for p, x in zip(pre_conj, _hadamard(back))]
        back[y] -= 1.0
        unit_dev = max(unit_dev, max(map(abs, back)))

    inv_d = 1.0 / d
    dev, worst = 0.0, None
    v: list[complex] = [1 + 0j] + [0j] * (d - 1)
    for j in range(1, d + 1):
        v = apply(v)
        power_dev = max(abs(a * a - inv_d) for a in map(abs, v))
        if worst is None or power_dev > dev:
            dev, worst = power_dev, (0, j)
    return MubVerification(dev, unit_dev, dev <= tol and unit_dev <= tol, worst)
