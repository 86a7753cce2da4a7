"""GF(q) linear algebra, matroid Potts / random-cluster models, and
weight enumerators of linear codes.

Fields are supported for prime q by modular arithmetic and for the prime
powers 4, 8, 9, 16, 25, 27 through fixed irreducible polynomials; elements
are integers 0..q-1 encoding coefficient vectors in base p.  Full
operation tables are built once per field, so all arithmetic is table
lookups (and therefore trivially vectorizable).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import models
from .covers import CoverSpec, lifted_id
from .errors import EnumerationCapError, ModelError
from .lattice import sorted_stack
from .models import (
    DEFAULT_ENUMERATION_CAP,
    Factor,
    FactorGraph,
    PotentialTable,
    check_subset_cap,
    fsum_blocks,
    subset_products,
)

# matroid_potts_partition weighs its codewords in blocks of this many words.
_WORD_BLOCK = 1 << 16

# Irreducible polynomials over GF(p), coefficients low-to-high degree.
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),          # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),       # x^3 + x + 1
    9: (3, (1, 0, 1)),          # x^2 + 1
    16: (2, (1, 1, 0, 0, 1)),   # x^4 + x + 1
    25: (5, (1, 1, 1)),         # x^2 + x + 1
    27: (3, (1, 2, 0, 1)),      # x^3 + 2x + 1
}


def _factor_prime_power(q: int) -> tuple:
    if q < 2:
        raise ModelError(f"field order must be >= 2, got {q}")
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ModelError(f"{q} is not a prime power")
    return p, k


def _digits(x: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds: Sequence[int], p: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


class GaloisField:
    """GF(q) with integer-encoded elements and full lookup tables."""

    def __init__(self, q: int) -> None:
        p, k = _factor_prime_power(q)
        if k > 1 and q not in _IRREDUCIBLE:
            raise ModelError(
                f"GF({q}) is not supported (prime powers available: "
                f"{sorted(_IRREDUCIBLE)})"
            )
        self.q = q
        self.p = p
        self.degree = k
        add = np.zeros((q, q), dtype=np.int16)
        mul = np.zeros((q, q), dtype=np.int16)
        if k == 1:
            for a in range(q):
                for b in range(q):
                    add[a, b] = (a + b) % p
                    mul[a, b] = (a * b) % p
        else:
            _, poly = _IRREDUCIBLE[q]
            for a in range(q):
                da = _digits(a, p, k)
                for b in range(q):
                    db = _digits(b, p, k)
                    add[a, b] = _undigits([(x + y) % p for x, y in zip(da, db)], p)
                    mul[a, b] = _undigits(self._poly_mul(da, db, poly, p), p)
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.zeros(q, dtype=np.int16)
        self.inv_table = np.zeros(q, dtype=np.int16)
        for a in range(q):
            self.neg_table[a] = int(np.where(add[a] == 0)[0][0])
            if a:
                self.inv_table[a] = int(np.where(mul[a] == 1)[0][0])

    @staticmethod
    def _poly_mul(da, db, poly, p):
        k = len(poly) - 1
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if not x:
                continue
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the irreducible polynomial (monic of degree k)
        for deg in range(len(prod) - 1, k - 1, -1):
            c = prod[deg]
            if not c:
                continue
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - c * poly[j]) % p
        return prod[:k]

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return int(self.inv_table[a])

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
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
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ModelError("matrix must be two-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ModelError(f"entries must lie in 0..{field.q - 1}")
        self.field = field
        self.entries = arr

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def columns_of(self, mask: int) -> np.ndarray:
        cols = [c for c in range(self.n_cols) if (mask >> c) & 1]
        return self.entries[:, cols]


def rank(matrix: GFMatrix, mask: int | None = None) -> int:
    """Rank over GF(q) of the columns selected by ``mask`` (all if None)."""
    f = matrix.field
    if mask is None:
        mask = (1 << matrix.n_cols) - 1
    sub = matrix.columns_of(mask).copy()
    rows, cols = sub.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if sub[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        sub[[r, pivot]] = sub[[pivot, r]]
        inv = f.inv(int(sub[r, c]))
        sub[r] = f.mul_table[np.full(cols, inv), sub[r]]
        for i in range(rows):
            if i != r and sub[i, c]:
                coef = int(sub[i, c])
                scaled = f.mul_table[np.full(cols, coef), sub[r]]
                sub[i] = f.add_table[sub[i], f.neg_table[scaled]]
        r += 1
        if r == rows:
            break
    return r


def ranks(matrix: GFMatrix, masks) -> np.ndarray:
    """Rank over GF(q) of the columns selected by each mask, as an int64
    array; equal to ``rank(matrix, mask)`` for every mask.

    One Gaussian elimination runs over a (masks, rows, columns) array whose
    unselected columns are zero, one column step at a time, for all masks
    at once.  A step subtracts a multiple of the mask's pivot row from
    every row, the pivot row itself included, in the later columns, so a
    used row is zero there and never pivots again.  The masks are taken
    2^_MASK_BLOCK_BITS at a time, so the working array does not grow with
    their number.  For a single mask the scalar ``rank`` is cheaper.
    """
    f = matrix.field
    masks = np.asarray(masks, dtype=np.int64)
    rows, cols = matrix.entries.shape
    out = np.zeros(masks.size, dtype=np.int64)
    if rows == 0:
        return out
    entries = matrix.entries.astype(f.add_table.dtype)
    step = 1 << models._MASK_BLOCK_BITS
    for start in range(0, masks.size, step):
        block = masks[start : start + step]
        which = np.arange(block.size)
        selected = ((block[:, None] >> np.arange(cols)) & 1).astype(bool)
        sub = np.where(selected[:, None, :], entries, 0).astype(entries.dtype)
        found = out[start : start + step]
        for c in np.flatnonzero(selected.any(axis=0)):  # columns no mask selects stay 0
            col = sub[:, :, c]
            pivot = (col != 0).argmax(axis=1)  # the first nonzero row, else row 0
            value = col[which, pivot]
            found += value != 0
            # every row plus -(its entry / the pivot's) times the pivot row;
            # the multiple is 0 in every row where the column is all zero
            factor = f.neg_table[f.mul_table[col, f.inv_table[value][:, None]]]
            scaled = f.mul_table[factor[:, :, None], sub[which, pivot, c + 1 :][:, None, :]]
            sub[:, :, c + 1 :] = f.add_table[sub[:, :, c + 1 :], scaled]
    return out


def _codewords(matrix: GFMatrix, cap: int) -> np.ndarray:
    """All products sigma @ S over the field, one row per sigma.

    Row r belongs to the sigma whose base-q digits, most significant
    first, spell r.  The words grow one row of S at a time: each word so
    far is extended by every multiple of the next row, so no (q^k, k)
    array of sigmas is formed.
    """
    f = matrix.field
    q, n = f.q, matrix.n_cols
    total = q**matrix.n_rows
    if total > cap:
        raise EnumerationCapError(
            f"{total} spin configurations exceed the enumeration cap {cap}"
        )
    words = np.zeros((1, n), dtype=f.add_table.dtype)
    for row in matrix.entries:
        multiples = f.mul_table[np.arange(q)[:, None], row[None, :]]
        words = f.add_table[words[:, None], multiples[None]].reshape(len(words) * q, n)
    return words


def matroid_potts_partition(
    matrix: GFMatrix, couplings, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Normalized matroid Potts partition function.

    Z = q^(-k) sum_sigma prod_alpha exp(J_alpha * [sum_i S_{i,alpha} sigma_i = 0]).
    """
    J = np.asarray(couplings, dtype=float)
    if J.shape != (matrix.n_cols,):
        raise ModelError("need one coupling per column")
    words = _codewords(matrix, cap)
    blocks = (
        np.exp((words[start : start + _WORD_BLOCK] == 0) @ J)
        for start in range(0, len(words), _WORD_BLOCK)
    )
    norm = float(matrix.field.q) ** matrix.n_rows
    return fsum_blocks(blocks) / norm


def matroid_rc_partition(
    matrix: GFMatrix, weights, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Normalized matroid random-cluster partition function.

    Z = sum_{A subseteq columns} q^(-r_S(A)) prod_{alpha in A} p_alpha.
    """
    p = np.asarray(weights, dtype=float)
    if p.shape != (matrix.n_cols,):
        raise ModelError("need one weight per column")
    if np.any(p < 0):
        raise ModelError("column weights must be >= 0")
    n = matrix.n_cols
    check_subset_cap(n, cap, "column")
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
    normalization is NOT included.
    """
    J = np.asarray(couplings, dtype=float)
    if J.shape != (matrix.n_cols,):
        raise ModelError("need one coupling per column")
    f = matrix.field
    q = f.q
    variables = [(f"r{i}", q) for i in range(matrix.n_rows)]
    factors = []
    for c in range(matrix.n_cols):
        support = [i for i in range(matrix.n_rows) if matrix.entries[i, c]]
        scope = tuple(f"r{i}" for i in support)
        size = q ** len(support)
        table = np.empty(size)
        for flat in range(size):
            rem = flat
            states = []
            for _ in support:
                states.append(rem % q)
                rem //= q
            states.reverse()  # last scope variable fastest
            acc = 0
            for i, s in zip(support, states):
                acc = f.add(acc, f.mul(int(matrix.entries[i, c]), s))
            table[flat] = math.exp(J[c]) if acc == 0 else 1.0
        factors.append(Factor(f"c{c}", scope, PotentialTable((q,) * len(support), table)))
    return FactorGraph(variables, factors)


def lift_matrix(matrix: GFMatrix, spec: CoverSpec) -> GFMatrix:
    """Lift S along a cover of its incidence hypergraph.

    The spec must be built on incidence_factor_graph(S, ...) (variables
    ``r{i}``, factors ``c{alpha}``).  Row copy (i, l) meets column copy
    (alpha, m) with entry S_{i,alpha} iff l = perm[alpha,i](m).
    """
    m_total = spec.m
    rows = matrix.n_rows
    cols = matrix.n_cols
    lifted = np.zeros((rows * m_total, cols * m_total), dtype=np.int64)
    row_index = {
        lifted_id(f"r{i}", layer): i * m_total + layer
        for i in range(rows)
        for layer in range(m_total)
    }
    for c in range(cols):
        support = [i for i in range(rows) if matrix.entries[i, c]]
        for m in range(m_total):
            col = c * m_total + m
            for i in support:
                perm = spec.perms[(f"c{c}", f"r{i}")]
                lifted[row_index[lifted_id(f"r{i}", perm[m])], col] = matrix.entries[i, c]
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
    m_total = spec.m
    if len(layers) != m_total:
        raise ModelError(f"need {m_total} layers, got {len(layers)}")
    lifted = lift_matrix(matrix, spec)
    cover_mask = 0
    for c in range(matrix.n_cols):
        for m in range(m_total):
            if (layers[m] >> c) & 1:
                cover_mask |= 1 << (c * m_total + m)
    lhs = rank(lifted, cover_mask)
    indicators = [
        np.array([(layers[m] >> c) & 1 for c in range(matrix.n_cols)], dtype=np.uint8)
        for m in range(m_total)
    ]
    rhs = sum(
        rank(matrix, int(sum(int(b) << c for c, b in enumerate(s))))
        for s in sorted_stack(indicators)
    )
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
    cap: int = DEFAULT_ENUMERATION_CAP,
    restarts: int = 32,
    seed: int = 0,
) -> WeightEnumeratorResult:
    """Evaluate sum_c lam^w(c) over the row span of a generator matrix.

    Returns the exact enumeration, the equivalent scaled matroid-Potts
    value q^k lam^n Z_Potts(S; q, log(1/lam)), and Bethe / mean-field
    lower bounds computed on the factor-graph form.  For lam > 1 the
    bounds are suppressed (the inequality only holds on (0, 1]).
    """
    from .bethe import maximize_bethe, mean_field

    if lam <= 0:
        raise ModelError("lambda must be positive")
    q = matrix.field.q
    k, n = matrix.n_rows, matrix.n_cols
    words = _codewords(matrix, cap)
    distinct = {tuple(row) for row in words}
    exact = math.fsum(lam ** sum(1 for x in row if x) for row in distinct)

    J = np.full(n, math.log(1.0 / lam))
    z_potts = matroid_potts_partition(matrix, J, cap=cap)
    r_full = rank(matrix)
    # sum over sigma counts every codeword q^(k-r) times
    identity = (float(q) ** k) * (lam**n) * z_potts / (float(q) ** (k - r_full))

    bethe_bound = mf_bound = None
    if lam <= 1.0:
        fg = incidence_factor_graph(matrix, J)
        _tau, zb = maximize_bethe(fg, restarts=restarts, seed=seed)
        _nu, zmf = mean_field(fg, restarts=min(16, restarts), seed=seed)
        scale = lam**n / (float(q) ** (k - r_full))
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
