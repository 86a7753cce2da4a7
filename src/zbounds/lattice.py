"""Boolean-lattice utilities.

Functions over {0,1}^n are stored as flat tables of length 2^n.  The table
index enumerates assignments in the same row-major order as PotentialTable:
coordinate 0 is the slowest (most significant bit), coordinate n-1 the
fastest.  Meet and join act per coordinate, so on indices they are plain
bitwise AND / OR whatever the coordinate-to-bit mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, ModelError
from .models import Factor, FactorGraph, PotentialTable

DEFAULT_PAIRWISE_CAP = 16


def index_of_bits(bits: Sequence[int]) -> int:
    """Table index of a 0/1 vector (coordinate 0 most significant)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def meet_join(x, y) -> tuple:
    """Coordinatewise (min, max) of two 0/1 vectors."""
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape != y.shape:
        raise ModelError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return np.minimum(x, y), np.maximum(x, y)


def sorted_stack(xs: Sequence) -> list:
    """Sort a family of 0/1 vectors coordinatewise from greatest to least.

    The m-th output vector has coordinate i set iff at least m+1 of the
    inputs have coordinate i set, so outputs decrease coordinatewise in m
    and every per-coordinate multiset of values is preserved.
    """
    if len(xs) == 0:
        raise ModelError("sorted_stack needs at least one vector")
    arr = np.asarray(xs, dtype=np.uint8)
    if arr.ndim != 2:
        raise ModelError("all vectors must share one dimension")
    counts = arr.sum(axis=0)
    m_total = arr.shape[0]
    return [(counts >= m).astype(np.uint8) for m in range(1, m_total + 1)]


@dataclass
class LsmReport:
    """Outcome of a log-supermodularity check.

    ``worst_ratio`` is the largest f(x)f(y) / f(x&y)f(x|y) encountered
    (inf when the right side vanishes but the left does not); ``witness``
    holds the violating index pair when the check fails.
    """

    ok: bool
    worst_ratio: float
    witness: tuple | None = None


def _pairwise_check(values: np.ndarray, flip: bool, rel_tol: float, cap: int) -> LsmReport:
    size = values.size
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ModelError(f"table length {size} is not a power of two")
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds the pairwise-check cap {cap}")
    if np.any(values < 0):
        raise ModelError("table entries must be >= 0")
    ys = np.arange(size)
    worst = 0.0
    witness = None
    hard = False
    for x in range(size):
        lhs = values[x] * values
        rhs = values[x & ys] * values[x | ys]
        if flip:
            lhs, rhs = rhs, lhs
        bad_zero = (rhs == 0) & (lhs > 0)
        if bad_zero.any():
            y = int(np.argmax(bad_zero))
            return LsmReport(ok=False, worst_ratio=float("inf"), witness=(x, y))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 0.0)
        y = int(np.argmax(ratio))
        if ratio[y] > worst:
            worst = float(ratio[y])
            if worst > 1.0 + rel_tol:
                witness = (x, y)
                hard = True
    return LsmReport(ok=not hard, worst_ratio=worst, witness=witness)


def is_log_supermodular(
    values, rel_tol: float = 1e-12, cap: int = DEFAULT_PAIRWISE_CAP
) -> LsmReport:
    """Exhaustively check f(x)f(y) <= f(x AND y)f(x OR y) over all pairs.

    Comparison is multiplicative with relative tolerance ``rel_tol``; a zero
    right-hand side against a positive left-hand side is a hard violation.
    """
    return _pairwise_check(np.asarray(values, dtype=float).ravel(), False, rel_tol, cap)


def is_log_submodular(
    values, rel_tol: float = 1e-12, cap: int = DEFAULT_PAIRWISE_CAP
) -> LsmReport:
    """Exhaustive check of the reversed inequality."""
    return _pairwise_check(np.asarray(values, dtype=float).ravel(), True, rel_tol, cap)


def model_is_log_supermodular(
    model: FactorGraph, rel_tol: float = 1e-12, cap: int = DEFAULT_PAIRWISE_CAP
) -> dict:
    """Factor-wise check: every factor table must be log-supermodular.

    Only defined for all-binary models.  Returns {factor id: LsmReport}.
    """
    for v in model.var_ids:
        if model.card(v) != 2:
            raise ModelError("factor-wise log-supermodularity needs binary variables")
    return {
        fac.id: is_log_supermodular(fac.table.values, rel_tol=rel_tol, cap=cap)
        for fac in model.factors
    }


@dataclass
class CorrelationReport:
    """Result of the three-part correlation-inequality check.

    (a) g is log-supermodular; (b) g(x^1..x^M) <= prod_m f_m(x^[m]) pointwise
    over all joint states; (c) sum g <= prod_m sum f_m.
    """

    lsm: LsmReport
    pointwise_ok: bool
    pointwise_worst: float
    pointwise_witness: int | None
    sum_lhs: float
    sum_rhs: float
    sum_ok: bool

    @property
    def ok(self) -> bool:
        return self.lsm.ok and self.pointwise_ok and self.sum_ok


def check_correlation_inequality(
    g, fs: Sequence, rel_tol: float = 1e-9, cap_bits: int = 20
) -> CorrelationReport:
    """Check the sorted-stack correlation inequality for g against f_1..f_M.

    ``g`` is a table over {0,1}^(M*n) whose coordinates are the blocks
    x^1, ..., x^M in order; each f_m is a table over {0,1}^n.
    """
    g = np.asarray(g, dtype=float).ravel()
    fs = [np.asarray(f, dtype=float).ravel() for f in fs]
    m_total = len(fs)
    if m_total == 0:
        raise ModelError("need at least one f_m")
    n = fs[0].size.bit_length() - 1
    for f in fs:
        if f.size != 1 << n:
            raise ModelError("all f_m must share one dimension")
    total_bits = m_total * n
    if g.size != 1 << total_bits:
        raise ModelError(
            f"g has {g.size} entries, expected 2^{total_bits} for M={m_total}, n={n}"
        )
    if total_bits > cap_bits:
        raise EnumerationCapError(f"M*n={total_bits} exceeds cap {cap_bits}")

    lsm = is_log_supermodular(g, cap=cap_bits)

    joint = np.arange(g.size, dtype=np.int64)
    mask = (1 << n) - 1
    blocks = [(joint >> ((m_total - 1 - m) * n)) & mask for m in range(m_total)]
    # Per-coordinate counts over the M blocks, then threshold to get stacks.
    rhs = np.ones(g.size)
    if n > 0:
        counts = np.zeros((n, g.size), dtype=np.int64)
        for block in blocks:
            for i in range(n):
                counts[i] += (block >> (n - 1 - i)) & 1
        for m in range(1, m_total + 1):
            idx = np.zeros(g.size, dtype=np.int64)
            for i in range(n):
                idx |= (counts[i] >= m).astype(np.int64) << (n - 1 - i)
            rhs = rhs * fs[m - 1][idx]
    else:
        for f in fs:
            rhs = rhs * f[0]

    bad_zero = (rhs == 0) & (g > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, g / np.where(rhs > 0, rhs, 1.0), 0.0)
    worst = float(ratio.max(initial=0.0))
    pointwise_ok = not bad_zero.any() and worst <= 1.0 + rel_tol
    witness = None
    if not pointwise_ok:
        witness = int(np.argmax(bad_zero)) if bad_zero.any() else int(np.argmax(ratio))

    import math

    sum_lhs = math.fsum(g)
    sum_rhs = 1.0
    for f in fs:
        sum_rhs *= math.fsum(f)
    sum_ok = sum_lhs <= sum_rhs * (1.0 + rel_tol) + 1e-300
    return CorrelationReport(
        lsm=lsm,
        pointwise_ok=pointwise_ok,
        pointwise_worst=worst,
        pointwise_witness=witness,
        sum_lhs=sum_lhs,
        sum_rhs=sum_rhs,
        sum_ok=sum_ok,
    )


def switch_bipartite(model: FactorGraph, part_a, part_b) -> FactorGraph:
    """Flip the B side of a pairwise binary bipartite model.

    Every edge table gets its B-side axis reversed and B-side node
    potentials are reversed, preserving the partition function.  If every
    edge table was log-submodular the switched tables are log-supermodular.
    """
    part_a = set(part_a)
    part_b = set(part_b)
    if part_a & part_b:
        raise ModelError("partition sides overlap")
    if part_a | part_b != set(model.var_ids):
        raise ModelError("partition must cover every variable")
    for v in model.var_ids:
        if model.card(v) != 2:
            raise ModelError(f"variable {v!r} is not binary")
    factors = []
    for fac in model.factors:
        if len(fac.scope) != 2:
            raise ModelError(f"factor {fac.id!r} is not pairwise")
        u, v = fac.scope
        if u in part_a and v in part_b:
            flipped = fac.table.as_ndarray()[:, ::-1]
        elif u in part_b and v in part_a:
            flipped = fac.table.as_ndarray()[::-1, :]
        else:
            side = "A" if u in part_a else "B"
            raise ModelError(f"edge {fac.id!r} lies inside side {side}")
        factors.append(Factor(fac.id, fac.scope, PotentialTable((2, 2), flipped.ravel())))
    pots = {}
    for v, pot in model.node_potentials.items():
        pots[v] = pot[::-1] if v in part_b else pot
    variables = [(v, 2) for v in model.var_ids]
    return FactorGraph(variables, factors, pots)
