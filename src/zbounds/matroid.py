"""GF(q) linear algebra, matroid Potts / random-cluster models, and
weight enumerators of linear codes.

Fields are supported for prime q and for the prime powers 4, 8, 9, 16,
25, 27 (through fixed irreducible polynomials), up to q = 4096; elements
are integers 0..q-1 encoding coefficient vectors in base p.  One numpy
construction builds the full operation tables of every field, once per
field, and all arithmetic is lookups in them: ranks, codewords, and the
factor tables of the incidence graph, which are read off the codewords.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import models
from .covers import CoverSpec, layered_masks
from .errors import EnumerationCapError, ModelError
from .models import (
    DEFAULT_ENUMERATION_CAP,
    FactorGraph,
    check_exp_range,
    check_subset_cap,
    exact_partition,
    float_array,
    fsum_blocks,
    subset_products,
)

# Irreducible monic polynomials over GF(p), coefficients low-to-high degree.
_IRREDUCIBLE = {
    4: (1, 1, 1),          # x^2 + x + 1
    8: (1, 1, 0, 1),       # x^3 + x + 1
    9: (1, 0, 1),          # x^2 + 1
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1
    25: (1, 1, 1),         # x^2 + x + 1
    27: (1, 2, 0, 1),      # x^3 + 2x + 1
}

# The largest field order GaloisField builds.  Its construction holds
# (q, q, k) int32 arrays, and its tables are int16.
_MAX_FIELD_ORDER = 1 << 12


def _factor_prime_power(q: int) -> tuple:
    if q < 2:
        raise ModelError(f"field order must be >= 2, got {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ModelError(f"{q} is not a prime power")
    return p, k


class GaloisField:
    """GF(q) with integer-encoded elements and full lookup tables.

    Element a stands for the polynomial whose coefficient of x^i is the
    i-th base-p digit of a, taken modulo the irreducible polynomial; a
    prime field is the degree-1 case, modulo x.
    """

    def __init__(self, q: int) -> None:
        if q > _MAX_FIELD_ORDER:
            raise ModelError(f"field order {q} exceeds the largest supported, {_MAX_FIELD_ORDER}")
        p, k = _factor_prime_power(q)
        poly = np.asarray(_IRREDUCIBLE.get(q, (0, 1)))
        if len(poly) != k + 1:
            raise ModelError(
                f"GF({q}) is not supported (prime powers available: "
                f"{sorted(_IRREDUCIBLE)})"
            )
        self.q = q
        # int32 holds every digit product, since p^2 < 2^31 below the limit
        place = p ** np.arange(k, dtype=np.int32)
        digits = np.arange(q, dtype=np.int32)[:, None] // place % p
        # x^j * b for every b and j < k: shift up one degree, then replace
        # x^k by minus the polynomial's lower terms
        powers = [digits]
        for _ in range(k - 1):
            b = powers[-1]
            powers.append((np.pad(b[:, :-1], ((0, 0), (1, 0))) - b[:, -1:] * poly[:k]) % p)
        # a * b = sum_j a_j (x^j b), digit by digit
        product = np.einsum("aj,jbi->abi", digits, np.stack(powers))
        self.add_table = ((digits[:, None] + digits[None]) % p @ place).astype(np.int16)
        self.mul_table = (product % p @ place).astype(np.int16)
        self.neg_table = np.argmax(self.add_table == 0, axis=1).astype(np.int16)
        # row 0 holds no 1, so the inverse of 0 reads as 0
        self.inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.int16)

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.cache
def gf(q: int) -> GaloisField:
    """Cached field factory."""
    return GaloisField(q)


@dataclass
class GFMatrix:
    """A matrix over GF(q); rows index the model variables, columns the
    matroid elements."""

    field: GaloisField
    entries: np.ndarray

    def __init__(self, field: GaloisField, entries) -> None:
        arr = float_array(entries, "matrix entries")
        if arr.ndim != 2:
            raise ModelError("matrix must be two-dimensional")
        # as for any count, 2.0 is read as 2 and 1.7 is refused
        if arr.size and (arr.min() < 0 or arr.max() >= field.q or (arr % 1).any()):
            raise ModelError(f"entries must be integers in 0..{field.q - 1}")
        self.field = field
        self.entries = arr.astype(np.int64)

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]


def rank(matrix: GFMatrix, mask: int | None = None) -> int:
    """Rank over GF(q) of the columns selected by ``mask`` (all if None):
    the one-mask case of ``ranks``, for a Python int mask of any width."""
    full = (1 << matrix.n_cols) - 1
    return int(_eliminate(matrix, _selection(matrix, [full if mask is None else mask]))[0])


def _selection(matrix: GFMatrix, masks) -> np.ndarray:
    """The columns each Python int mask selects, as a (masks, columns) bool array."""
    return np.array([[(m >> c) & 1 for c in range(matrix.n_cols)] for m in masks], dtype=bool)


def ranks(matrix: GFMatrix, masks) -> np.ndarray:
    """Rank over GF(q) of the columns selected by each mask, as an int64
    array; equal to ``rank(matrix, mask)`` for every mask.

    The masks are eliminated 2^_MASK_BLOCK_BITS at a time, so the working
    array does not grow with their number.
    """
    masks = np.asarray(masks, dtype=np.int64)
    columns = np.arange(matrix.n_cols)
    out = np.zeros(masks.size, dtype=np.int64)
    step = 1 << models._MASK_BLOCK_BITS
    for start in range(0, masks.size, step):
        block = masks[start : start + step]
        out[start : start + step] = _eliminate(matrix, ((block[:, None] >> columns) & 1) == 1)
    return out


def _eliminate(matrix: GFMatrix, selected: np.ndarray) -> np.ndarray:
    """Rank over GF(q) of the columns selected by each row of ``selected``,
    a (sets, columns) bool array, as an int64 array.

    One Gaussian elimination runs over a (sets, rows, columns) array whose
    unselected columns are zero, one column step at a time, for all sets at
    once.  A step subtracts a multiple of the set's pivot row from every
    row, the pivot row itself included, in the later columns, so a used row
    is zero there and never pivots again.
    """
    f = matrix.field
    found = np.zeros(len(selected), dtype=np.int64)
    if matrix.n_rows == 0:
        return found
    entries = matrix.entries.astype(f.add_table.dtype)
    which = np.arange(len(selected))
    sub = np.where(selected[:, None, :], entries, 0).astype(entries.dtype)
    for c in np.flatnonzero(selected.any(axis=0)):  # columns no set selects stay 0
        col = sub[:, :, c]
        pivot = (col != 0).argmax(axis=1)  # the first nonzero row, else row 0
        value = col[which, pivot]
        found += value != 0
        # every row plus -(its entry / the pivot's) times the pivot row;
        # the multiple is 0 in every row where the column is all zero
        factor = f.neg_table[f.mul_table[col, f.inv_table[value][:, None]]]
        scaled = f.mul_table[factor[:, :, None], sub[which, pivot, c + 1 :][:, None, :]]
        sub[:, :, c + 1 :] = f.add_table[sub[:, :, c + 1 :], scaled]
    return found


def _codewords(matrix: GFMatrix) -> np.ndarray:
    """All products sigma @ S over the field, one row per sigma.

    Row r belongs to the sigma whose base-q digits, most significant
    first, spell r.  The words grow one row of S at a time: each word so
    far is extended by every multiple of the next row, so no (q^k, k)
    array of sigmas is formed.
    """
    f = matrix.field
    q, k, n = f.q, matrix.n_rows, matrix.n_cols
    if q**k > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{q}^{k} spin configurations exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    words = np.zeros((1, n), dtype=f.add_table.dtype)
    for row in matrix.entries:
        multiples = f.mul_table[np.arange(q)[:, None], row[None, :]]
        words = f.add_table[words[:, None], multiples[None]].reshape(len(words) * q, n)
    return words


def matroid_potts_partition(matrix: GFMatrix, couplings) -> float:
    """Normalized matroid Potts partition function.

    Z = q^(-k) sum_sigma prod_alpha exp(J_alpha * [sum_i S_{i,alpha} sigma_i = 0]),
    enumerated by ``exact_partition`` on the incidence factor graph.
    """
    fg = incidence_factor_graph(matrix, couplings)
    return exact_partition(fg) / float(matrix.field.q) ** matrix.n_rows


def matroid_rc_partition(matrix: GFMatrix, weights) -> float:
    """Normalized matroid random-cluster partition function.

    Z = sum_{A subseteq columns} q^(-r_S(A)) prod_{alpha in A} p_alpha.
    """
    p = float_array(weights, "column weights", nonnegative=True)
    if p.shape != (matrix.n_cols,):
        raise ModelError("need one weight per column")
    n = matrix.n_cols
    check_subset_cap(n, "column")
    q = float(matrix.field.q)
    # one product row per possible rank r, each started from q^(-r)
    first = [q ** (-r) for r in range(min(matrix.n_rows, n) + 1)]

    def blocks():
        start = 0
        for products in subset_products(p, first):
            size = products.shape[1]
            yield products[ranks(matrix, np.arange(start, start + size)), np.arange(size)]
            start += size

    return fsum_blocks(blocks())


def incidence_factor_graph(matrix: GFMatrix, couplings) -> FactorGraph:
    """Unnormalized factor-graph form of the matroid Potts model.

    Variables are the rows (cardinality q); each column alpha becomes a
    factor over the rows with a nonzero entry, with table
    exp(J_alpha * [sum_i S_{i,alpha} sigma_i = 0]).  The 1/q^k
    normalization is NOT included.  A table has q^|support| entries.
    Refuses a non-finite coupling with ModelError, and one whose weight
    exp(J) overflows with NumericRangeError.
    """
    J = float_array(couplings, "couplings")
    if J.shape != (matrix.n_cols,):
        raise ModelError("need one coupling per column")
    check_exp_range(J, "the coupling weight")
    q = matrix.field.q
    variables = [(f"r{i}", q) for i in range(matrix.n_rows)]
    factors = []
    for c in range(matrix.n_cols):
        support = np.flatnonzero(matrix.entries[:, c])
        # one word per assignment of the support, first row slowest
        words = _codewords(GFMatrix(matrix.field, matrix.entries[support, c : c + 1]))[:, 0]
        table = np.where(words == 0, math.exp(J[c]), 1.0)
        scope = tuple(f"r{i}" for i in support)
        factors.append((f"c{c}", scope, table))
    return FactorGraph(variables, factors)


def lift_matrix(matrix: GFMatrix, spec: CoverSpec) -> GFMatrix:
    """Lift S along a cover of its incidence hypergraph.

    The spec must be built on incidence_factor_graph(S, ...): one variable
    per row and one factor per column over the rows where it is nonzero,
    in order; any other base is refused with a ModelError.  Row copy
    (i, l) meets column copy (alpha, m) with entry S_{i,alpha} iff
    l = perm[alpha,i](m).
    """
    m_total = spec.m
    supports = [[i for i, x in enumerate(col) if x] for col in matrix.entries.T.tolist()]
    spec.require_base(matrix.n_rows, supports, "the matrix's column supports")
    lifted = np.zeros((matrix.n_rows * m_total, matrix.n_cols * m_total), dtype=np.int64)
    # column k*M + m is copy m of column k
    for col, rows in enumerate(spec.lifted_scopes):
        c = col // m_total
        lifted[list(rows), col] = matrix.entries[supports[c], c]
    return GFMatrix(matrix.field, lifted)


@dataclass
class RankCoverReport:
    lhs_rank: int
    rhs_rank: int

    @property
    def ok(self) -> bool:
        return self.lhs_rank >= self.rhs_rank

    @property
    def slack(self) -> int:
        return self.lhs_rank - self.rhs_rank


def check_rank_cover_inequality(
    matrix: GFMatrix, spec: CoverSpec, layers: Sequence[int]
) -> RankCoverReport:
    """Check r_{S^H}(A^1..A^M) >= sum_m r_S(A^[m]) for one layered subset.

    ``layers[m]`` is a bitmask over base columns selecting copy m of each
    column; the right side sorts the layer indicators coordinatewise.
    """
    cover_mask, stack_masks = layered_masks(layers, spec.m, matrix.n_cols)
    lhs = rank(lift_matrix(matrix, spec), cover_mask)
    # one elimination ranks every stack mask, at the base's width
    rhs = int(_eliminate(matrix, _selection(matrix, stack_masks)).sum())
    return RankCoverReport(lhs_rank=lhs, rhs_rank=rhs)


# ---------------------------------------------------------------------------
# Weight enumerators of linear codes
# ---------------------------------------------------------------------------


@dataclass
class WeightEnumeratorResult:
    """Exact weight enumerator plus its Potts identity value and the
    variational lower bounds (None when lam > 1, where the bound claims
    do not apply)."""

    lam: float
    exact: float
    identity_value: float
    bethe_bound: float | None
    mean_field_bound: float | None
    codewords: int


def weight_enumerator(
    matrix: GFMatrix,
    lam: float,
    restarts: int = 32,
    seed: int = 0,
) -> WeightEnumeratorResult:
    """Evaluate sum_c lam^w(c) over the row span of a generator matrix.

    Returns the exact enumeration, the equivalent scaled matroid-Potts
    value q^k lam^n Z_Potts(S; q, log(1/lam)), and Bethe / mean-field
    lower bounds computed on the factor-graph form.  For lam > 1 the
    bounds are suppressed (the inequality only holds on (0, 1]).  Raises
    ModelError unless lam is finite and positive with log(1/lam) finite
    (below about 5.6e-309, 1/lam overflows).
    """
    from .bethe import maximize_bethe, mean_field

    if not (math.isfinite(lam) and lam > 0 and math.isfinite(math.log(1.0 / lam))):
        raise ModelError(
            f"lambda must be positive and finite, with log(1/lambda) finite; got {lam!r}"
        )
    q = matrix.field.q
    k, n = matrix.n_rows, matrix.n_cols
    words = _codewords(matrix)
    distinct = {tuple(row) for row in words}
    exact = math.fsum(lam ** sum(1 for x in row if x) for row in distinct)

    fg = incidence_factor_graph(matrix, np.full(n, math.log(1.0 / lam)))
    # the unnormalized sum over sigma counts every codeword q^(k-r) times
    scale = lam**n / (float(q) ** (k - rank(matrix)))
    identity = scale * exact_partition(fg)

    bethe_bound = mf_bound = None
    if lam <= 1.0:
        _tau, zb = maximize_bethe(fg, restarts=restarts, seed=seed)
        _nu, zmf = mean_field(fg, restarts=min(16, restarts), seed=seed)
        bethe_bound = scale * zb
        mf_bound = scale * zmf
    return WeightEnumeratorResult(
        lam=lam,
        exact=exact,
        identity_value=identity,
        bethe_bound=bethe_bound,
        mean_field_bound=mf_bound,
        codewords=len(distinct),
    )


def parse_generator_matrix(text: str) -> GFMatrix:
    """Parse the plain-text format: first line ``q k n``, then k rows of n
    integers in 0..q-1."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ModelError("empty generator matrix file")
    head = lines[0].split()
    if len(head) != 3:
        raise ModelError("header must be 'q k n'")
    try:
        q, k, n = (int(x) for x in head)
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ModelError(f"generator matrix entries must be integers: {exc}") from exc
    if len(rows) != k:
        raise ModelError(f"expected {k} matrix rows, found {len(rows)}")
    for ln, row in zip(lines[1:], rows):
        if len(row) != n:
            raise ModelError(f"row '{ln}' does not have {n} entries")
    return GFMatrix(gf(q), rows)
