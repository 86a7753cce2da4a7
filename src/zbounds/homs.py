"""Weighted graph homomorphisms with rank-2 targets and their
edge-subset reformulation.

The target matrix is always Gamma = a a' + b b' for nonnegative vectors a
and b; in that case the homomorphism partition function equals the sum
over edge subsets A of

    f_edge(A) = prod_i [ sum_s w_s a_s^{s_i(A)} b_s^{deg(i) - s_i(A)} ]

with s_i(A) the number of A-edges at vertex i and the 0^0 = 1 convention.
Edge subsets are integer bitmasks (bit j = edge j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, ModelError
from .lattice import DEFAULT_PAIRWISE_CAP, REL_TOL_LSM, LsmReport, is_log_supermodular
from .models import (
    FactorGraph,
    as_simple_graph,
    check_subset_cap,
    exact_partition,
    float_array,
    fsum_blocks,
    mask_blocks,
)

# check_rank2_lsm: the sampled exchange-inequality tuples and their seed
_RANK2_SAMPLES = 200
_RANK2_SEED = 0


@dataclass
class HomModel:
    """A base graph with vertex weights w and a rank-2 target aa' + bb'."""

    n_vertices: int
    edges: tuple
    w: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __init__(self, n_vertices, edges, w, a, b) -> None:
        self.n_vertices, self.edges = as_simple_graph(n_vertices, edges)
        self.w = float_array(w, "w", nonnegative=True)
        self.a = float_array(a, "a", nonnegative=True)
        self.b = float_array(b, "b", nonnegative=True)
        if self.w.ndim != 1 or self.a.shape != self.w.shape or self.b.shape != self.w.shape:
            raise ModelError("w, a, b must be vectors of one length")

    @property
    def n_states(self) -> int:
        return self.w.size

    @property
    def gamma(self) -> np.ndarray:
        return np.outer(self.a, self.a) + np.outer(self.b, self.b)

    def degree(self, i: int) -> int:
        return sum(1 for u, v in self.edges if i in (u, v))


def hom_partition(model: HomModel) -> float:
    """Weighted homomorphism count Z_hom by enumeration over colorings."""
    if model.n_states == 0:
        # No colours: no colouring exists unless there is nothing to colour.
        return 0.0 if model.n_vertices else 1.0
    return exact_partition(hom_to_factor_graph(model))


def s_count(model: HomModel, i: int, mask: int) -> int:
    """Number of subset edges incident to vertex i."""
    if not 0 <= i < model.n_vertices:
        raise ModelError(f"unknown vertex {i}")
    return sum(
        1
        for idx, (u, v) in enumerate(model.edges)
        if ((mask >> idx) & 1) and i in (u, v)
    )


def edge_weight(model: HomModel, mask: int) -> float:
    """The per-vertex product for one edge subset (0^0 = 1)."""
    tables = _vertex_tables(model)
    return float(math.prod(table[s_count(model, i, mask)] for i, table in enumerate(tables)))


def _vertex_tables(model: HomModel) -> list:
    """Per vertex i, its factor fsum_t w_t a_t^s b_t^(deg(i) - s) of
    f_edge for s = 0..deg(i), as an array."""
    return [
        np.array([
            math.fsum(
                model.w[t] * model.a[t] ** s * model.b[t] ** (d - s)
                for t in range(model.n_states)
            )
            for s in range(d + 1)
        ])
        for d in map(model.degree, range(model.n_vertices))
    ]


def edge_partition(model: HomModel) -> float:
    """Sum of edge_weight over all 2^|E| subsets; equals hom_partition.

    The weights come from ``_edge_weight_blocks``, each equal to
    ``edge_weight`` bit for bit.
    """
    check_subset_cap(len(model.edges), "edge")
    return fsum_blocks(_edge_weight_blocks(model))


def edge_weight_table(model: HomModel) -> np.ndarray:
    """Flat table of edge_weight over all masks, for lattice checks; refuses
    more than DEFAULT_PAIRWISE_CAP edges."""
    m = len(model.edges)
    if m > DEFAULT_PAIRWISE_CAP:
        raise EnumerationCapError(f"{m} edges exceed the table cap {DEFAULT_PAIRWISE_CAP}")
    return np.concatenate(list(_edge_weight_blocks(model)))


def _edge_weight_blocks(model: HomModel):
    """edge_weight of every mask, in the blocks of ``mask_blocks``.

    Vertex i's factor depends on the mask only through s_i, so it is read
    from the table ``edge_weight`` reads; the factors are multiplied over
    i = 0..n-1 in edge_weight's order.
    """
    tables = _vertex_tables(model)
    for bits in mask_blocks(len(model.edges)):
        s = np.zeros((model.n_vertices, bits.shape[1]), dtype=np.int64)
        for (u, v), chosen in zip(model.edges, bits):
            s[u] += chosen
            s[v] += chosen
        total = np.ones(bits.shape[1])
        for table, s_i in zip(tables, s):
            total *= table[s_i]
        yield total


@dataclass
class Rank2LsmReport:
    table_check: LsmReport
    scalar_checked: int
    scalar_failures: int

    @property
    def ok(self) -> bool:
        return self.table_check.ok and self.scalar_failures == 0


def check_rank2_lsm(model: HomModel) -> Rank2LsmReport:
    """Verify log-supermodularity of the edge-subset weight.

    Runs the exhaustive pairwise table check, plus the scalar exchange
    inequality on _RANK2_SAMPLES (A1, A2, vertex, state-pair) tuples drawn
    from seed _RANK2_SEED, stated in the zero-safe form multiplied through
    by b^deg on both sides.
    """
    rep = is_log_supermodular(edge_weight_table(model))
    rng = np.random.default_rng(_RANK2_SEED)
    m = len(model.edges)
    n = model.n_states
    failures = 0
    for _ in range(_RANK2_SAMPLES):
        a1 = int(rng.integers(0, 1 << m)) if m else 0
        a2 = int(rng.integers(0, 1 << m)) if m else 0
        i = int(rng.integers(0, model.n_vertices))
        s_idx = int(rng.integers(0, n))
        g_idx = int(rng.integers(0, n))
        d = model.degree(i)
        s1 = s_count(model, i, a1)
        s2 = s_count(model, i, a2)
        sm = s_count(model, i, a1 & a2)
        sj = s_count(model, i, a1 | a2)
        asg, bsg = model.a[s_idx], model.b[s_idx]
        agm, bgm = model.a[g_idx], model.b[g_idx]

        def term(sa, sb):
            return (asg**sa * bsg ** (d - sa)) * (agm**sb * bgm ** (d - sb))

        lhs = term(s1, s2) + term(s2, s1)
        rhs = term(sj, sm) + term(sm, sj)
        if lhs > rhs * (1 + REL_TOL_LSM) + 1e-300:
            failures += 1
    return Rank2LsmReport(
        table_check=rep, scalar_checked=_RANK2_SAMPLES, scalar_failures=failures
    )


def hom_to_factor_graph(model: HomModel) -> FactorGraph:
    """Pairwise factor-graph form: node potentials w, edge tables Gamma."""
    n = model.n_states
    gamma = np.ravel(model.gamma)
    variables = [(v, n) for v in range(model.n_vertices)]
    factors = [(f"e{k}", (i, j), gamma) for k, (i, j) in enumerate(model.edges)]
    return FactorGraph(variables, factors, {v: model.w for v in range(model.n_vertices)})
