"""Boolean-lattice utilities.

Functions over {0,1}^n are stored as flat tables of length 2^n.  The table
index enumerates assignments in the same row-major order as PotentialTable:
coordinate 0 is the slowest (most significant bit), coordinate n-1 the
fastest.  Subsets are these bitmasks: meet and join act per coordinate, so
on indices they are plain bitwise AND / OR whatever the coordinate-to-bit
mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, ModelError
from .models import FactorGraph, as_int, float_array

DEFAULT_PAIRWISE_CAP = 16
# is_log_supermodular: the relative tolerance of f(x)f(y) <= f(x&y)f(x|y)
REL_TOL_LSM = 1e-12
# check_correlation_inequality: the most M*n bits of g it checks, and the
# relative tolerance of its pointwise and summed inequalities
_CORRELATION_CAP_BITS = 20
_REL_TOL_CORRELATION = 1e-9


def sorted_stack(masks: Sequence) -> list:
    """Sort a family of bitmasks coordinatewise from greatest to least.

    The masks are Python ints, or integer arrays taken elementwise.  Output
    k has bit i set iff at least k+1 of the inputs have it, so the outputs
    decrease in k and every bit keeps its count.  Each mask is inserted
    into the stack so far, carrying the bits it shares one level down.
    """
    if len(masks) == 0:
        raise ModelError("sorted_stack needs at least one mask")
    stacks = []
    for x in masks:
        for k, s in enumerate(stacks):
            stacks[k], x = s | x, s & x
        stacks.append(x)
    return stacks


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


def is_log_supermodular(values, cap: int = DEFAULT_PAIRWISE_CAP) -> LsmReport:
    """Exhaustively check f(x)f(y) <= f(x AND y)f(x OR y) over all pairs.

    Comparison is multiplicative with relative tolerance REL_TOL_LSM; a
    zero right-hand side against a positive left-hand side is a hard
    violation.  Refuses tables of more than 2^cap entries, and entries
    that are negative or not finite.
    """
    values = float_array(values, "table entries", nonnegative=True).ravel()
    cap = as_int(cap, "the pairwise-check cap")
    size = values.size
    n = size.bit_length() - 1
    if size == 0 or size != 1 << n:
        raise ModelError(f"table length {size} is not a power of two")
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds the pairwise-check cap {cap}")
    ys = np.arange(size)
    worst = 0.0
    witness = None
    hard = False
    for x in range(size):
        lhs = values[x] * values
        rhs = values[x & ys] * values[x | ys]
        bad_zero = (rhs == 0) & (lhs > 0)
        if bad_zero.any():
            y = int(np.argmax(bad_zero))
            return LsmReport(ok=False, worst_ratio=float("inf"), witness=(x, y))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 0.0)
        y = int(np.argmax(ratio))
        if ratio[y] > worst:
            worst = float(ratio[y])
            if worst > 1.0 + REL_TOL_LSM:
                witness = (x, y)
                hard = True
    return LsmReport(ok=not hard, worst_ratio=worst, witness=witness)


def model_is_log_supermodular(model: FactorGraph) -> dict:
    """Factor-wise check: every factor table must be log-supermodular.

    Only defined for all-binary models.  Returns {factor id: LsmReport}.
    """
    for v in model.var_ids:
        if model.card(v) != 2:
            raise ModelError("factor-wise log-supermodularity needs binary variables")
    return {fac.id: is_log_supermodular(fac.table.values) for fac in model.factors}


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


def check_correlation_inequality(g, fs: Sequence) -> CorrelationReport:
    """Check the sorted-stack correlation inequality for g against f_1..f_M.

    ``g`` is a table over {0,1}^(M*n) whose coordinates are the blocks
    x^1, ..., x^M in order; each f_m is a table over {0,1}^n.  Refuses
    M*n above _CORRELATION_CAP_BITS, and entries of g or an f_m that are
    negative or not finite; the inequalities hold within the relative
    tolerance _REL_TOL_CORRELATION.
    """
    g = float_array(g, "table entries", nonnegative=True).ravel()
    fs = [float_array(f, "table entries", nonnegative=True).ravel() for f in fs]
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
    if total_bits > _CORRELATION_CAP_BITS:
        raise EnumerationCapError(f"M*n={total_bits} exceeds cap {_CORRELATION_CAP_BITS}")

    lsm = is_log_supermodular(g, cap=_CORRELATION_CAP_BITS)

    joint = np.arange(g.size, dtype=np.int64)
    mask = (1 << n) - 1
    blocks = [(joint >> ((m_total - 1 - m) * n)) & mask for m in range(m_total)]
    rhs = np.ones(g.size)
    for f, stack in zip(fs, sorted_stack(blocks)):
        rhs = rhs * f[stack]

    bad_zero = (rhs == 0) & (g > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, g / np.where(rhs > 0, rhs, 1.0), 0.0)
    worst = float(ratio.max(initial=0.0))
    pointwise_ok = not bad_zero.any() and worst <= 1.0 + _REL_TOL_CORRELATION
    witness = None
    if not pointwise_ok:
        witness = int(np.argmax(bad_zero)) if bad_zero.any() else int(np.argmax(ratio))

    sum_lhs = math.fsum(g)
    sum_rhs = 1.0
    for f in fs:
        sum_rhs *= math.fsum(f)
    sum_ok = sum_lhs <= sum_rhs * (1.0 + _REL_TOL_CORRELATION) + 1e-300
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
        factors.append((fac.id, fac.scope, flipped.ravel()))
    pots = {}
    for v, pot in model.node_potentials.items():
        pots[v] = pot[::-1] if v in part_b else pot
    variables = [(v, 2) for v in model.var_ids]
    return FactorGraph(variables, factors, pots)
