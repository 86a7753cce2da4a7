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
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, ModelError
from .lattice import LsmReport, is_log_supermodular
from .models import (
    DEFAULT_ENUMERATION_CAP,
    Factor,
    FactorGraph,
    PotentialTable,
    exact_partition,
    float_array,
)
from .potts import _check_simple


@dataclass
class HomModel:
    """A base graph with vertex weights w and a rank-2 target aa' + bb'."""

    n_vertices: int
    edges: tuple
    w: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __init__(self, n_vertices, edges, w, a, b) -> None:
        self.n_vertices = int(n_vertices)
        self.edges = _check_simple(self.n_vertices, edges)
        self.w = float_array(w, "w")
        self.a = float_array(a, "a")
        self.b = float_array(b, "b")
        n = self.w.size
        if self.a.shape != (n,) or self.b.shape != (n,):
            raise ModelError("w, a, b must share one length")
        for name, vec in (("w", self.w), ("a", self.a), ("b", self.b)):
            if np.any(vec < 0) or not np.all(np.isfinite(vec)):
                raise ModelError(f"{name} must be nonnegative and finite")

    @property
    def n_states(self) -> int:
        return self.w.size

    @property
    def gamma(self) -> np.ndarray:
        return np.outer(self.a, self.a) + np.outer(self.b, self.b)

    def degree(self, i: int) -> int:
        return sum(1 for u, v in self.edges if i in (u, v))


def hom_partition_matrix(
    n_vertices: int,
    edges: Sequence,
    w,
    gamma,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Partition function for an arbitrary nonnegative target matrix.

    This general-Gamma entry point only enumerates; the variational bound
    claims are reserved for rank-2 models built as HomModel.
    """
    edges = _check_simple(n_vertices, edges)
    w = np.asarray(w, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n = w.size
    if gamma.shape != (n, n):
        raise ModelError("gamma must be square and match w")
    if np.any(gamma < 0) or np.any(w < 0):
        raise ModelError("weights must be nonnegative")
    if n == 0:
        # No colours: no colouring exists unless there is nothing to colour.
        return 0.0 if n_vertices else 1.0
    return exact_partition(_gamma_factor_graph(n_vertices, edges, w, gamma), cap)


def hom_partition(model: HomModel, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Weighted homomorphism count Z_hom by enumeration over colorings."""
    return hom_partition_matrix(model.n_vertices, model.edges, model.w, model.gamma, cap)


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
    total = 1.0
    for i in range(model.n_vertices):
        s = s_count(model, i, mask)
        d = model.degree(i)
        total *= math.fsum(
            model.w[t] * model.a[t] ** s * model.b[t] ** (d - s)
            for t in range(model.n_states)
        )
    return total


def edge_partition(model: HomModel, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Sum of edge_weight over all 2^|E| subsets; equals hom_partition."""
    m = len(model.edges)
    if 2**m > cap:
        raise EnumerationCapError(f"2^{m} edge subsets exceed the enumeration cap {cap}")
    return math.fsum(edge_weight(model, mask) for mask in range(1 << m))


def edge_weight_table(model: HomModel, cap_edges: int = 16) -> np.ndarray:
    """Flat table of edge_weight over all masks, for lattice checks."""
    m = len(model.edges)
    if m > cap_edges:
        raise EnumerationCapError(f"{m} edges exceed the table cap {cap_edges}")
    return np.array([edge_weight(model, mask) for mask in range(1 << m)])


@dataclass
class Rank2LsmReport:
    table_check: LsmReport
    scalar_checked: int
    scalar_failures: int

    @property
    def ok(self) -> bool:
        return self.table_check.ok and self.scalar_failures == 0


def check_rank2_lsm(
    model: HomModel, samples: int = 200, seed: int = 0, cap_edges: int = 16
) -> Rank2LsmReport:
    """Verify log-supermodularity of the edge-subset weight.

    Runs the exhaustive pairwise table check, plus the scalar exchange
    inequality on sampled (A1, A2, vertex, state-pair) tuples, stated in
    the zero-safe form multiplied through by b^deg on both sides.
    """
    table = edge_weight_table(model, cap_edges=cap_edges)
    rep = is_log_supermodular(table, cap=cap_edges)
    rng = np.random.default_rng(seed)
    m = len(model.edges)
    n = model.n_states
    failures = 0
    checked = 0
    for _ in range(samples):
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
        checked += 1
        if lhs > rhs * (1 + 1e-12) + 1e-300:
            failures += 1
    return Rank2LsmReport(table_check=rep, scalar_checked=checked, scalar_failures=failures)


def _gamma_factor_graph(n_vertices: int, edges: Sequence, w, gamma) -> FactorGraph:
    """Pairwise factor-graph form of a target matrix: node potentials w,
    one table Gamma per edge."""
    n = len(w)
    variables = [(v, n) for v in range(n_vertices)]
    factors = [
        Factor(f"e{k}", (i, j), PotentialTable((n, n), np.ravel(gamma)))
        for k, (i, j) in enumerate(edges)
    ]
    return FactorGraph(variables, factors, {v: w for v in range(n_vertices)})


def hom_to_factor_graph(model: HomModel) -> FactorGraph:
    """Pairwise factor-graph form: node potentials w, edge tables Gamma."""
    return _gamma_factor_graph(model.n_vertices, model.edges, model.w, model.gamma)
