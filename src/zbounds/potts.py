"""Potts and random-cluster models on simple graphs.

The random-cluster weight of an edge subset A is q^{k(A)} prod_{e in A} p_e
with k(A) the number of connected components (isolated vertices included)
and p_e = e^{J_e} - 1; summed over all subsets it reproduces the Potts
partition function.  The external-field variant weights every component C
by sum_w exp(h_w |V(C)|) instead of q.

Edge subsets are plain integer bitmasks: bit j is edge j of the owning
graph's edge list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .covers import CoverSpec, layered_masks
from .errors import ModelError, NumericRangeError
from .models import (
    FactorGraph,
    as_simple_graph,
    check_exp_range,
    check_subset_cap,
    exact_partition,
    float_array,
    fsum_blocks,
    mask_blocks,
    subset_products,
)

# relative tolerance of the cover weight check here and of verify's cover suites
REL_TOL_COVER = 1e-9


class UnionFind:
    """Array-based union-find with union by size and path halving."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


@dataclass
class PottsModel:
    """A q-state Potts model: per-edge couplings, optional uniform field.

    ``q`` may be any real >= 1 for the random-cluster side; the spin-space
    enumeration requires an integer.  The field, when present, is one
    length-q vector shared by every vertex.  ``q``, the couplings and the
    field must be finite.
    """

    n_vertices: int
    edges: tuple
    q: float
    coupling: np.ndarray
    field: np.ndarray | None = None

    def __init__(self, n_vertices, edges, q, coupling, field=None) -> None:
        self.n_vertices, self.edges = as_simple_graph(n_vertices, edges)
        q = float_array(q, "q").tolist()
        if not isinstance(q, float) or q < 1:
            raise ModelError(f"q must be one number >= 1, got {q!r}")
        self.q = q
        self.coupling = float_array(coupling, "couplings")
        if self.coupling.shape != (len(self.edges),):
            raise ModelError("need one coupling per edge")
        if field is not None:
            field = float_array(field, "field entries")
            if not self.q.is_integer() or field.shape != (int(self.q),):
                raise ModelError("field must be a length-q vector with integer q")
        self.field = field

    @property
    def ferromagnetic(self) -> bool:
        return bool(np.all(self.coupling > 0))

    @property
    def edge_probabilities(self) -> np.ndarray:
        """p_e = e^(J_e) - 1; requires J >= 0."""
        if np.any(self.coupling < 0):
            raise ModelError("antiferromagnetic edge: p = e^J - 1 would be negative")
        check_exp_range(self.coupling, "the coupling weight")
        return np.expm1(self.coupling)


def count_components(n_vertices: int, edges: Sequence, mask: int) -> int:
    """Connected components of (V, A) for the edge subset encoded by mask."""
    uf = UnionFind(n_vertices)
    for idx, (i, j) in enumerate(edges):
        if (mask >> idx) & 1:
            uf.union(i, j)
    return uf.count


def component_counts(n_vertices: int, edges: Sequence, masks) -> np.ndarray:
    """Connected components of (V, A) for each edge subset in ``masks``, as
    an int64 array; equal to ``count_components(n_vertices, edges, mask)``
    for every mask.

    All masks are labelled at once by the min-label propagation
    ``rc_partition`` uses; a component is a vertex that is its own label.
    """
    masks = np.asarray(masks, dtype=np.int64)
    bits = ((masks >> np.arange(len(edges))[:, None]) & 1).astype(bool)
    labels = _component_labels(n_vertices, edges, bits)
    return (labels == np.arange(n_vertices)[:, None]).sum(axis=0, dtype=np.int64)


def potts_partition(model: PottsModel) -> float:
    """Sum the spin model over all q^n spin vectors (integer q only)."""
    return exact_partition(potts_to_factor_graph(model))


def rc_weight(model: PottsModel, mask: int) -> float:
    """Random-cluster weight of one edge subset.

    Without a field: q^k(A) * prod p_e.  With a field h: every component C
    contributes sum_w exp(h_w * |V(C)|) in place of one factor of q.
    """
    return _components_and_weight(model, mask, model.edge_probabilities)[1]


def _components_and_weight(model: PottsModel, mask: int, p: np.ndarray | None) -> tuple:
    """(components, ``rc_weight``) of one edge subset from one union-find
    pass; ``p`` is the model's ``edge_probabilities``, or None for the count
    alone (weight None).  The edge factors are multiplied in edge order,
    then a field's component factors in order of their smallest vertex, as
    ``rc_partition`` multiplies them."""
    uf = UnionFind(model.n_vertices)
    w = 1.0
    for idx, (i, j) in enumerate(model.edges):
        if (mask >> idx) & 1:
            uf.union(i, j)
            if p is not None:
                w *= p[idx]
    if p is None:
        return uf.count, None
    if model.field is None:
        return uf.count, w * model.q**uf.count
    # dict keys keep their first insertion, so the roots come by smallest vertex
    for root in dict.fromkeys(map(uf.find, range(model.n_vertices))):
        w *= _component_weight(model.field, uf.size[root])
    return uf.count, w


def _component_weight(field: np.ndarray, size: int) -> float:
    """sum_w exp(h_w * size), the weight of one component of ``size``
    vertices under the field; NumericRangeError when it overflows."""
    try:
        return math.fsum(math.exp(h * size) for h in field)
    except OverflowError:
        raise NumericRangeError(
            f"the field weight of a {size}-vertex component is out of float range"
        ) from None


def rc_partition(model: PottsModel) -> float:
    """Sum rc_weight over all 2^|E| edge subsets.

    The weights are built one block of masks at a time: the edge products
    by ``subset_products``, and every mask's components by min-label
    propagation.  Each weight equals ``rc_weight`` bit for bit: both
    multiply a field's component factors in order of their smallest vertex.
    """
    n, m = model.n_vertices, len(model.edges)
    check_subset_cap(m, "edge")
    # q^k for k components, by the same power rc_weight takes; with a field,
    # the weight of one component by its number of vertices
    if model.field is None:
        q_power = np.array([model.q**k for k in range(n + 1)])
    else:
        size_weight = np.array([_component_weight(model.field, size) for size in range(n + 1)])

    def blocks():
        for bits, w in zip(mask_blocks(m), subset_products(model.edge_probabilities)):
            labels = _component_labels(n, model.edges, bits)
            roots = labels == np.arange(n)[:, None]
            if model.field is None:
                w *= q_power[roots.sum(axis=0)]
            else:
                # sizes[v, r]: the vertices labelled v under mask r
                flat = labels.astype(np.intp) * w.size + np.arange(w.size)
                sizes = np.bincount(flat.ravel(), minlength=n * w.size).reshape(n, w.size)
                for v in range(n):
                    w *= np.where(roots[v], size_weight[sizes[v]], 1.0)
            yield w

    return fsum_blocks(blocks())


def _component_labels(n_vertices: int, edges: Sequence, bits: np.ndarray) -> np.ndarray:
    """Per vertex and mask, the smallest vertex of its component.

    ``bits`` is a block from ``mask_blocks``.  Each sweep lowers both ends
    of every chosen edge to their smaller label, until a sweep changes
    nothing.  Returns an (n_vertices, masks) array.
    """
    kind = np.min_scalar_type(n_vertices)
    # an unchosen edge ORs all ones into the label it offers, so the
    # minimum keeps the other end's label
    offers = np.where(bits, kind.type(0), kind.type(np.iinfo(kind).max))
    labels = np.repeat(np.arange(n_vertices, dtype=kind)[:, None], bits.shape[1], axis=1)
    offer = np.empty(bits.shape[1], dtype=kind)
    while True:
        before = labels.copy()
        for (i, j), off in zip(edges, offers):
            np.minimum(labels[i], np.bitwise_or(labels[j], off, out=offer), out=labels[i])
            np.minimum(labels[j], np.bitwise_or(labels[i], off, out=offer), out=labels[j])
        if np.array_equal(before, labels):
            return labels


def potts_to_factor_graph(model: PottsModel) -> FactorGraph:
    """Pairwise factor-graph form: tables e^(J*delta), node potentials e^h.

    Refuses a weight e^J or e^h beyond the float range with
    NumericRangeError."""
    if float(model.q) != int(model.q):
        raise ModelError("factor-graph form needs an integer q")
    q = int(model.q)
    variables = [(v, q) for v in range(model.n_vertices)]
    check_exp_range(model.coupling, "the coupling weight")
    factors = []
    for e, (i, j) in enumerate(model.edges):
        table = np.exp(model.coupling[e] * np.eye(q)).ravel()
        factors.append((f"e{e}", (i, j), table))
    pots = None
    if model.field is not None:
        check_exp_range(model.field, "the field weight")
        fw = np.exp(model.field)
        pots = {v: fw for v in range(model.n_vertices)}
    return FactorGraph(variables, factors, pots)


def cover_potts_model(base: PottsModel, spec: CoverSpec) -> PottsModel:
    """Lift a Potts model along a cover of its pairwise factor graph.

    Lifted edge e*M + m is copy m of base edge e.  The spec must be built
    on potts_to_factor_graph of the base: one variable per vertex and one
    factor per edge, in order; any other base is refused with a ModelError.
    """
    spec.require_base(base.n_vertices, base.edges, "the Potts model's edges")
    return PottsModel(
        base.n_vertices * spec.m,
        spec.lifted_scopes,
        base.q,
        np.repeat(base.coupling, spec.m),
        base.field,
    )


@dataclass
class CoverComponentReport:
    """Both sides of the cover component-count inequality (and, with a
    field, the component-weight inequality) for one layered edge subset."""

    lhs_components: int
    rhs_components: int
    component_ok: bool
    lhs_weight: float | None = None
    rhs_weight: float | None = None
    weight_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return self.component_ok and (self.weight_ok is not False)


def check_cover_component_inequality(
    base: PottsModel, spec: CoverSpec, layers: Sequence[int]
) -> CoverComponentReport:
    """Check k_H(A^1..A^M) <= sum_m k_G(A^[m]) on a cover of a Potts model.

    ``layers[m]`` is a bitmask over the base edges selecting the m-th copy
    of each edge.  With a field the random-cluster weight inequality
    f_rc+(H) <= prod_m f_rc+(G at the m-th sorted stack) is checked too.
    """
    cover_mask, stack_masks = layered_masks(layers, spec.m, len(base.edges))
    cover = cover_potts_model(base, spec)
    # one labelling per mask gives its component count and, with a field,
    # its weight; the count alone needs no edge probabilities
    weigh = base.field is not None
    lhs, lw = _components_and_weight(cover, cover_mask, cover.edge_probabilities if weigh else None)
    p = base.edge_probabilities if weigh else None
    stacks = [_components_and_weight(base, sm, p) for sm in stack_masks]
    rhs = sum(k for k, _w in stacks)
    report = CoverComponentReport(
        lhs_components=lhs, rhs_components=rhs, component_ok=lhs <= rhs
    )
    if weigh:
        rw = math.prod((w for _k, w in stacks), start=1.0)
        report.lhs_weight = lw
        report.rhs_weight = rw
        report.weight_ok = lw <= rw * (1 + REL_TOL_COVER) + 1e-300
    return report


# ---------------------------------------------------------------------------
# The external-field counterexample on the 3-cycle
# ---------------------------------------------------------------------------

# Conventions for the 3-state, 3-cycle counterexample model.  The pairwise
# product over "i != j" can mean one factor per unordered edge (coupling
# e^(2 delta)) or both ordered pairs (effective e^(4 delta)); the displayed
# field vectors (entries e^2 and e^-1, rotated so vertex k favours state k)
# can be the potential values themselves or exponents to apply exp to once
# more.  All four readings are built by the flags below.
COUNTEREXAMPLE_PAIR_MODES = ("unordered", "ordered")
COUNTEREXAMPLE_FIELD_MODES = ("direct", "exp")

# Reading frozen into the artifact; see build_counterexample's docstring.
COUNTEREXAMPLE_DEFAULT_PAIR_MODE = "unordered"
COUNTEREXAMPLE_DEFAULT_FIELD_MODE = "direct"

COUNTEREXAMPLE_TARGET_GAP = 973.046


def build_counterexample(
    pair_mode: str = COUNTEREXAMPLE_DEFAULT_PAIR_MODE,
    field_mode: str = COUNTEREXAMPLE_DEFAULT_FIELD_MODE,
) -> FactorGraph:
    """The q = 3 triangle with rotating external fields.

    Three 3-state variables on a 3-cycle; each edge carries e^(2 delta)
    ("unordered") or e^(4 delta) ("ordered"); vertex k's potential vector
    has e^2 in position k and e^-1 elsewhere ("direct"), or exp of those
    entries ("exp").
    """
    if pair_mode not in COUNTEREXAMPLE_PAIR_MODES:
        raise ModelError(f"unknown pair mode {pair_mode!r}")
    if field_mode not in COUNTEREXAMPLE_FIELD_MODES:
        raise ModelError(f"unknown field mode {field_mode!r}")
    strength = 2.0 if pair_mode == "unordered" else 4.0
    table = np.exp(strength * np.eye(3)).ravel()
    factors = [(f"e{k}", scope, table) for k, scope in enumerate([(0, 1), (1, 2), (0, 2)])]
    pots = {}
    for k in range(3):
        h = np.full(3, math.exp(-1))
        h[k] = math.exp(2)
        pots[k] = np.exp(h) if field_mode == "exp" else h
    return FactorGraph([(k, 3) for k in range(3)], factors, pots)
