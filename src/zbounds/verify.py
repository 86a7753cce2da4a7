"""Randomized and exhaustive verification suites for the bound theorems.

Every suite returns a VerifyReport with pass counts and the worst signed
slack seen (negative slack = violation beyond tolerance).  Per-trial seeds
are derived as seed + trial index, so each trial can be rerun on its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import covers, lattice, matroid, potts
from .bethe import _objective_rows, bethe_gradient, maximize_bethe, mean_field
from .errors import ModelError
from .homs import HomModel, edge_partition, edge_weight_table, hom_partition, hom_to_factor_graph
from .matroid import GFMatrix, gf
from .models import FactorGraph, exact_marginals, exact_partition
from .potts import REL_TOL_COVER, PottsModel, build_counterexample, potts_to_factor_graph

REL_TOL_IDENTITY = 1e-9
REL_TOL_ORDERING = 1e-6
REL_TOL_TREE = 1e-6
REL_TOL_GRADIENT = 1e-5
COUNTEREXAMPLE_REL_TOL = 0.01


@dataclass
class VerifyReport:
    name: str
    trials: int
    passes: int
    worst_slack: float
    details: dict = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return self.trials - self.passes

    @property
    def ok(self) -> bool:
        """Every trial passed, and there was at least one: a report that
        ran nothing has shown nothing."""
        return self.trials > 0 and self.passes == self.trials

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.name}: {self.passes}/{self.trials} trials, "
            f"worst slack {self.worst_slack:.3e}"
        )


def run_trials(name: str, results, tolerance: float) -> VerifyReport:
    """Count an iterable of (ok, slack) results, taken in order, into one
    report: ``map(one, range(trials))`` for a seeded suite, or a generator
    of results.

    ``details["worst_trial"]`` is the index of the first result with the
    worst slack (None when there is none); trial i of a seeded suite runs
    on seed + i, so the index reruns it.
    """
    trials = passes = 0
    worst, worst_trial = 0.0, None
    for ok, slack in results:
        if trials == 0 or slack < worst:
            worst, worst_trial = slack, trials
        trials += 1
        passes += 1 if ok else 0
    return VerifyReport(
        name=name,
        trials=trials,
        passes=passes,
        worst_slack=float(worst),
        details={"tolerance": tolerance, "worst_trial": worst_trial},
    )


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def random_graph(rng: np.random.Generator, max_vertices: int = 5, max_edges: int = 8) -> tuple:
    n = int(rng.integers(2, max_vertices + 1))
    all_edges = list(itertools.combinations(range(n), 2))
    rng.shuffle(all_edges)
    m = int(rng.integers(1, min(max_edges, len(all_edges)) + 1))
    return n, all_edges[:m]


def random_tree_model(rng: np.random.Generator, max_vertices: int = 7) -> FactorGraph:
    """A random tree on 2 to max_vertices variables of 2 or 3 states."""
    n = int(rng.integers(2, max_vertices + 1))
    cards = [int(rng.integers(2, 4)) for _ in range(n)]
    variables = list(enumerate(cards))
    factors = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        table = np.exp(rng.uniform(-1.0, 1.0, cards[u] * cards[v]))
        factors.append((f"t{v}", (u, v), table))
    pots = {v: np.exp(rng.uniform(-1.0, 1.0, cards[v])) for v in range(n)}
    return FactorGraph(variables, factors, pots)


def random_lsm_pairwise_model(rng: np.random.Generator) -> FactorGraph:
    """Pairwise binary model whose every edge table is log-supermodular."""
    n, edges = random_graph(rng)
    variables = [(v, 2) for v in range(n)]
    factors = []
    for k, (u, v) in enumerate(edges):
        t = np.exp(rng.uniform(-1.0, 1.0, 4))
        if t[0] * t[3] < t[1] * t[2]:
            t[3] = t[1] * t[2] / t[0] * math.exp(rng.uniform(0.0, 1.0))
        factors.append((f"e{k}", (u, v), t))
    pots = {v: np.exp(rng.uniform(-1.0, 1.0, 2)) for v in range(n)}
    return FactorGraph(variables, factors, pots)


def random_potts(rng: np.random.Generator, with_field: bool = False) -> PottsModel:
    """A ferromagnetic Potts model with q in {2, 3, 4} and J in [0.05, 1.5)."""
    n, edges = random_graph(rng)
    q = int(rng.choice((2, 3, 4)))
    J = rng.uniform(0.05, 1.5, len(edges))
    h = rng.uniform(-1.0, 1.0, q) if with_field else None
    return PottsModel(n, edges, q, J, field=h)


def random_matroid(rng: np.random.Generator) -> GFMatrix:
    """A 1-4 by 1-5 matrix over GF(2) or GF(3) with no zero column."""
    q = int(rng.choice((2, 3)))
    k = int(rng.integers(1, 5))
    n = int(rng.integers(1, 6))
    entries = rng.integers(0, q, size=(k, n))
    for c in range(n):
        if not entries[:, c].any():
            entries[int(rng.integers(0, k)), c] = int(rng.integers(1, q))
    return GFMatrix(gf(q), entries)


def random_hom(
    rng: np.random.Generator, max_vertices: int = 5, max_edges: int = 8, max_states: int = 4
) -> HomModel:
    n, edges = random_graph(rng, max_vertices, max_edges)
    s = int(rng.integers(2, max_states + 1))
    return HomModel(
        n,
        edges,
        rng.uniform(0.2, 1.5, s),
        rng.uniform(0.2, 1.5, s),
        rng.uniform(0.2, 1.5, s),
    )


# ---------------------------------------------------------------------------
# Theorem 3.5-style cover suite
# ---------------------------------------------------------------------------


def verify_cover_bound(trials: int = 100, seed: int = 0) -> VerifyReport:
    """Z(H) <= Z(G)^M for random covers of log-supermodular models."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        model = random_lsm_pairwise_model(rng)
        reports = lattice.model_is_log_supermodular(model)
        if not all(r.ok for r in reports.values()):
            return False, float("-inf")
        zg = exact_partition(model)
        worst = float("inf")
        for m in (2, 3):
            spec = covers.sample_cover(model, m, seed=seed + 7919 * i + m)
            lifted = covers.build_cover(spec)
            zh = exact_partition(lifted.cover)
            slack = (zg**m - zh) / max(zg**m, 1e-300)
            worst = min(worst, slack)
        return worst >= -REL_TOL_COVER, worst

    name = "cover-bound (2- and 3-covers of log-supermodular models)"
    return run_trials(name, map(one, range(trials)), REL_TOL_COVER)


# ---------------------------------------------------------------------------
# Component-count and weighted cover inequalities (triangle instances)
# ---------------------------------------------------------------------------


def _triangle_potts(q=2.0, j=1.0, h=None) -> PottsModel:
    return PottsModel(3, [(0, 1), (1, 2), (0, 2)], q, np.full(3, float(j)), field=h)


@functools.cache
def _triangle_graph() -> FactorGraph:
    """The triangle's pairwise factor graph, built on first use.  Covers
    read only its factor ids and scopes, which every triangle shares, so
    one graph serves the specs of all of them."""
    return potts_to_factor_graph(_triangle_potts())


def _layer_pair_masks(n: int) -> tuple:
    """For every pair of layer masks (a1, a2) over n base items, a1-major,
    the lifted 2-cover mask and the two stack masks: a (4^n,) array and a
    (4^n, 2) array, both from ``covers.layered_masks``."""
    pairs = itertools.product(range(1 << n), repeat=2)
    lifted, stacks = zip(*(covers.layered_masks(pair, 2, n) for pair in pairs))
    return np.array(lifted, dtype=np.int64), np.array(stacks, dtype=np.intp)


def verify_component_inequality(seed: int = 0) -> VerifyReport:
    """Exhaustively check k_H <= sum_m k_G(stacks) on all pinned 2-covers
    of the triangle and all 2^6 layered edge subsets.

    Per cover, one ``component_counts`` call counts every lifted subset;
    the stacks are read from a table of the triangle's 8 subsets.
    """
    base = _triangle_potts()
    lifted, stacks = _layer_pair_masks(3)
    k_g = potts.component_counts(base.n_vertices, base.edges, np.arange(8))
    rhs = k_g[stacks].sum(axis=1).tolist()

    def results():
        for spec in covers.iter_cover_specs(_triangle_graph(), 2):
            cover = potts.cover_potts_model(base, spec)
            lhs = potts.component_counts(cover.n_vertices, cover.edges, lifted)
            for left, right in zip(lhs.tolist(), rhs):
                yield left <= right, right - left

    name = "component-count cover inequality (exhaustive, triangle 2-covers)"
    return run_trials(name, results(), 0)


def verify_field_weight_inequality(trials: int = 1000, seed: int = 0) -> VerifyReport:
    """Sampled weighted version with uniform external fields."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        q = int(rng.integers(2, 4))
        base = _triangle_potts(
            q=q, j=float(rng.uniform(0.05, 2.0)), h=rng.uniform(-1.0, 1.0, q)
        )
        spec = covers.sample_cover(_triangle_graph(), 2, seed=seed + 104729 + i)
        layers = [int(rng.integers(0, 8)), int(rng.integers(0, 8))]
        rep = potts.check_cover_component_inequality(base, spec, layers)
        slack = (rep.rhs_weight - rep.lhs_weight) / max(rep.rhs_weight, 1e-300)
        return bool(rep.ok), float(slack)

    name = "random-cluster weight cover inequality with uniform fields (sampled)"
    return run_trials(name, map(one, range(trials)), REL_TOL_COVER)


def verify_rank_inequality(seed: int = 0) -> VerifyReport:
    """Exhaustive rank cover inequality on seeded 2x3 GF(2)/GF(3) matrices.

    Per cover, one ``ranks`` call ranks every lifted subset; the stacks
    are read from a table of the matrix's 8 column subsets.
    """
    rng = np.random.default_rng(seed)
    lifted, stacks = _layer_pair_masks(3)

    def results():
        for q in (2, 3):
            entries = rng.integers(0, q, size=(2, 3))
            for c in range(3):
                if not entries[:, c].any():
                    entries[int(rng.integers(0, 2)), c] = int(rng.integers(1, q))
            mat = GFMatrix(gf(q), entries)
            rhs = matroid.ranks(mat, np.arange(8))[stacks].sum(axis=1).tolist()
            fg = matroid.incidence_factor_graph(mat, np.zeros(3))
            for spec in covers.iter_cover_specs(fg, 2):
                lhs = matroid.ranks(matroid.lift_matrix(mat, spec), lifted)
                for left, right in zip(lhs.tolist(), rhs):
                    yield left >= right, left - right

    name = "matroid rank cover inequality (exhaustive, 2x3 matrices)"
    return run_trials(name, results(), 0)


# ---------------------------------------------------------------------------
# Partition-function identities
# ---------------------------------------------------------------------------


def verify_potts_rc_identity(trials: int = 50, seed: int = 0) -> VerifyReport:
    """Z_rc == Z_Potts under p = e^J - 1 on random ferromagnetic instances."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        n, edges = random_graph(rng)
        q = int(rng.integers(1, 5))
        model = PottsModel(n, edges, q, rng.uniform(0.01, 3.0, len(edges)))
        zp = potts.potts_partition(model)
        zrc = potts.rc_partition(model)
        rel = abs(zrc - zp) / max(zp, 1e-300)
        return rel <= REL_TOL_IDENTITY, -rel

    name = "Potts / random-cluster identity"
    return run_trials(name, map(one, range(trials)), REL_TOL_IDENTITY)


def verify_hom_edge_identity(trials: int = 50, seed: int = 0) -> VerifyReport:
    """Z_edge == Z_hom on random rank-2 homomorphism models."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        model = random_hom(rng)
        zh = hom_partition(model)
        ze = edge_partition(model)
        rel = abs(ze - zh) / max(zh, 1e-300)
        return rel <= REL_TOL_IDENTITY, -rel

    name = "homomorphism / edge-subset identity"
    return run_trials(name, map(one, range(trials)), REL_TOL_IDENTITY)


# ---------------------------------------------------------------------------
# Variational orderings: Z_MF <= Z_B <= Z
# ---------------------------------------------------------------------------


def _check_ordering(fg: FactorGraph, seed: int) -> tuple:
    """(ok, slack) of Z_MF <= Z_B <= Z within REL_TOL_ORDERING, Z by
    enumeration of ``fg``."""
    z = exact_partition(fg)
    _nu, zmf = mean_field(fg, restarts=8, seed=seed)
    _tau, zb = maximize_bethe(fg, restarts=24, seed=seed, bp_iters=1200)
    upper = (z - zb) / max(z, 1e-300)
    lower = (zb - zmf) / max(z, 1e-300)
    ok = upper >= -REL_TOL_ORDERING and lower >= -REL_TOL_ORDERING
    return ok, min(upper, lower)


def verify_potts_ordering(
    trials: int = 30, seed: int = 0, with_field: bool = False
) -> VerifyReport:
    """Z_MF <= Z_B <= Z for ferromagnetic Potts (optionally uniform field)."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        model = random_potts(rng, with_field=with_field)
        return _check_ordering(potts_to_factor_graph(model), seed + i)

    label = "uniform-field" if with_field else "no-field"
    name = f"ferromagnetic Potts ordering ({label})"
    return run_trials(name, map(one, range(trials)), REL_TOL_ORDERING)


def verify_matroid_ordering(trials: int = 30, seed: int = 0) -> VerifyReport:
    """Z_MF <= Z_B <= Z_Potts for matroid Potts models with J >= 0."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        mat = random_matroid(rng)
        J = rng.uniform(0.0, 1.5, mat.n_cols)
        return _check_ordering(matroid.incidence_factor_graph(mat, J), seed + i)

    return run_trials("matroid Potts ordering", map(one, range(trials)), REL_TOL_ORDERING)


def verify_hom_ordering(trials: int = 30, seed: int = 0) -> VerifyReport:
    """Z_MF <= Z_B <= Z_hom for rank-2 homomorphism models."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        model = random_hom(rng, max_vertices=5, max_edges=7)
        return _check_ordering(hom_to_factor_graph(model), seed + i)

    return run_trials("rank-2 homomorphism ordering", map(one, range(trials)), REL_TOL_ORDERING)


# ---------------------------------------------------------------------------
# Tree exactness and gradient checks
# ---------------------------------------------------------------------------


def verify_tree_exactness(trials: int = 30, seed: int = 0) -> VerifyReport:
    """Bethe optimum equals the true partition function on trees."""

    def one(i: int) -> tuple:
        rng = np.random.default_rng(seed + i)
        model = random_tree_model(rng)
        z = exact_partition(model)
        _tau, zb = maximize_bethe(model, restarts=8, seed=seed + i)
        rel = abs(zb - z) / max(z, 1e-300)
        return rel <= REL_TOL_TREE, -rel

    name = "tree exactness of the Bethe optimum"
    return run_trials(name, map(one, range(trials)), REL_TOL_TREE)


def verify_gradient(points: int = 20, seed: int = 0) -> VerifyReport:
    """Analytic objective gradient vs central finite differences."""
    rng = np.random.default_rng(seed)
    h = 1e-6

    def cases():
        for _ in range(points):
            model = random_tree_model(rng, max_vertices=4)
            ref = FactorGraph(
                [(v, model.card(v)) for v in model.var_ids],
                [
                    (fac.id, fac.scope, np.exp(rng.uniform(-1, 1, fac.table.values.size)))
                    for fac in model.factors
                ],
            )
            yield model, exact_marginals(ref)

    def one(case) -> tuple:
        model, tau = case
        grad = bethe_gradient(model, tau)
        # every belief entry, variables then factors, each in C order; row
        # 2k of the stack moves entry k by +h and row 2k + 1 by -h
        beliefs = [tau.node[v] for v in model.var_ids]
        beliefs += [tau.factor[fac.id] for fac in model.factors]
        flat = np.concatenate([np.ravel(b) for b in beliefs])
        k = np.arange(flat.size)
        rows = np.repeat(flat[None], 2 * flat.size, axis=0)
        rows[2 * k, k] += h
        rows[2 * k + 1, k] -= h
        ends = np.cumsum([np.size(b) for b in beliefs])
        stacks = [
            np.ascontiguousarray(cols).reshape((len(rows),) + np.shape(b))
            for cols, b in zip(np.split(rows, ends[:-1], axis=1), beliefs)
        ]
        sides = _objective_rows(model, stacks[: model.num_vars], stacks[model.num_vars :])
        analytic = np.concatenate(
            [grad.node[v].ravel() for v in model.var_ids]
            + [grad.factor[fac.id].ravel() for fac in model.factors]
        )
        fd = (sides[0::2] - sides[1::2]) / (2 * h)
        errors = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
        worst_here = float(errors.max())  # nan, e.g. from -inf on both sides, fails
        return worst_here <= REL_TOL_GRADIENT, REL_TOL_GRADIENT - worst_here

    name = "Bethe objective gradient vs finite differences"
    return run_trials(name, map(one, cases()), REL_TOL_GRADIENT)


# ---------------------------------------------------------------------------
# Supermodularity / submodularity / log-supermodularity suites
# ---------------------------------------------------------------------------


def verify_structure_suites(seed: int = 0) -> VerifyReport:
    """Exhaustive component supermodularity, rank submodularity, and
    edge-weight log-supermodularity on small instances."""

    def results():
        # k_G supermodular: every labeled graph on <= 4 vertices, all subset
        # pairs.  A subset of graph `picked`'s edges is a submask of `picked`
        # over all vertex pairs, in the same order, so one table per vertex
        # count serves every graph.
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            k = potts.component_counts(n, pairs, np.arange(1 << len(pairs))).tolist()
            for picked in range(1 << len(pairs)):
                subsets = [a for a in range(picked + 1) if a & picked == a]
                for a in subsets:
                    for b in subsets:
                        slack = k[a & b] + k[a | b] - k[a] - k[b]
                        yield slack >= 0, slack

        # r_S submodular: seeded matrices with <= 6 columns over GF(2)/GF(3)/GF(4).
        rng = np.random.default_rng(seed)
        for q in (2, 3, 4):
            for _ in range(2):
                rows = int(rng.integers(2, 5))
                cols = int(rng.integers(3, 7))
                mat = GFMatrix(gf(q), rng.integers(0, q, size=(rows, cols)))
                r_cache = matroid.ranks(mat, np.arange(1 << cols)).tolist()
                for a in range(1 << cols):
                    for b in range(1 << cols):
                        slack = r_cache[a] + r_cache[b] - r_cache[a & b] - r_cache[a | b]
                        yield slack >= 0, slack

        # edge-subset weight log-supermodular on seeded rank-2 models, |E| <= 6.
        for _ in range(4):
            model = random_hom(rng, max_vertices=4, max_edges=6, max_states=3)
            rep = lattice.is_log_supermodular(edge_weight_table(model))
            yield rep.ok, 1.0 - rep.worst_ratio

    name = "supermodularity / submodularity / rank-2 log-supermodularity"
    return run_trials(name, results(), lattice.REL_TOL_LSM)


# ---------------------------------------------------------------------------
# The external-field counterexample
# ---------------------------------------------------------------------------


def verify_counterexample(restarts: int = 64, seed: int = 0) -> VerifyReport:
    """Compute Z by enumeration and the Bethe optimum on the triangle
    counterexample, and compare the gap against the published value.

    All four convention combinations are evaluated and reported; the pass
    criterion applies to the default convention's gap.
    """
    target = potts.COUNTEREXAMPLE_TARGET_GAP
    gaps = {}
    for pair_mode in potts.COUNTEREXAMPLE_PAIR_MODES:
        for field_mode in potts.COUNTEREXAMPLE_FIELD_MODES:
            model = build_counterexample(pair_mode, field_mode)
            z = exact_partition(model)
            _tau, zb = maximize_bethe(model, restarts=restarts, seed=seed)
            gaps[f"{pair_mode}/{field_mode}"] = {"z": z, "z_bethe": zb, "gap": zb - z}
    default_key = (
        f"{potts.COUNTEREXAMPLE_DEFAULT_PAIR_MODE}/{potts.COUNTEREXAMPLE_DEFAULT_FIELD_MODE}"
    )
    gap = gaps[default_key]["gap"]
    rel_err = abs(gap - target) / abs(target)
    ok = rel_err <= COUNTEREXAMPLE_REL_TOL
    return VerifyReport(
        name="external-field counterexample gap",
        trials=1,
        passes=1 if ok else 0,
        worst_slack=-rel_err,
        details={
            "target_gap": target,
            "convention": default_key,
            "conventions": gaps,
            "tolerance": COUNTEREXAMPLE_REL_TOL,
        },
    )


# ---------------------------------------------------------------------------
# Weight-enumerator suite
# ---------------------------------------------------------------------------

REPETITION_3 = "2 1 3\n1 1 1\n"
HAMMING_7_4 = "2 4 7\n1 0 0 0 0 1 1\n0 1 0 0 1 0 1\n0 0 1 0 1 1 0\n0 0 0 1 1 1 1\n"


def verify_weight_enumerator(seed: int = 0) -> VerifyReport:
    """Identity and bound checks for the repetition and Hamming codes: the
    Potts identity, and the Bethe and mean-field bounds below the exact
    enumerator within REL_TOL_ORDERING."""
    trials = 0
    passes = 0
    worst = float("inf")
    details = {}
    for label, text in (("repetition[3,1]", REPETITION_3), ("hamming[7,4]", HAMMING_7_4)):
        mat = matroid.parse_generator_matrix(text)
        for lam in (0.25, 0.5, 1.0):
            res = matroid.weight_enumerator(mat, lam, restarts=16, seed=seed)
            rel = abs(res.exact - res.identity_value) / max(res.exact, 1e-300)
            bounds = (res.bethe_bound, res.mean_field_bound)
            bound_slack = min((res.exact - b) / max(res.exact, 1e-300) for b in bounds)
            trials += 1
            ok = rel <= REL_TOL_IDENTITY and bound_slack >= -REL_TOL_ORDERING
            worst = min(worst, -rel, bound_slack)
            if ok:
                passes += 1
            details[f"{label}@{lam}"] = {
                "exact": res.exact,
                "identity": res.identity_value,
                "bethe_bound": res.bethe_bound,
                "mean_field_bound": res.mean_field_bound,
            }
    return VerifyReport(
        name="weight-enumerator identity and Bethe / mean-field bounds",
        trials=trials,
        passes=passes,
        worst_slack=worst,
        details=details,
    )


# ---------------------------------------------------------------------------
# Dispatch table used by the CLI
# ---------------------------------------------------------------------------


# CLI tag -> (default trial count, runner -> list of reports): a runner
# takes (trials, seed), or only the seed when its tag runs every case
# (default None)
SUITES = {
    "3.5": (100, lambda n, seed: [verify_cover_bound(n, seed)]),
    "5.1": (None, lambda seed: [verify_component_inequality(seed)]),
    "5.2-ordering": (
        30,
        lambda n, seed: [
            verify_potts_ordering(n, seed, with_field=False),
            verify_potts_ordering(n, seed + 10_000, with_field=True),
        ],
    ),
    "5.3": (1000, lambda n, seed: [verify_field_weight_inequality(n, seed)]),
    "5.5": (None, lambda seed: [verify_rank_inequality(seed)]),
    "5.6": (30, lambda n, seed: [verify_matroid_ordering(n, seed)]),
    "6.2": (30, lambda n, seed: [verify_hom_ordering(n, seed)]),
    "appendix-a": (50, lambda n, seed: [verify_potts_rc_identity(n, seed)]),
    "appendix-b": (50, lambda n, seed: [verify_hom_edge_identity(n, seed)]),
    "counterexample": (
        64,
        lambda n, seed: [verify_counterexample(restarts=max(64, n), seed=seed)],
    ),
    "tree": (30, lambda n, seed: [verify_tree_exactness(n, seed)]),
    "gradient": (20, lambda n, seed: [verify_gradient(n, seed)]),
    "structure": (None, lambda seed: [verify_structure_suites(seed)]),
    "weight-enumerator": (None, lambda seed: [verify_weight_enumerator(seed)]),
}


def dispatch(tag: str, trials: int | None, seed: int) -> list:
    """Run the suite(s) registered under a CLI tag.

    The exhaustive tags (default trial count None) refuse a trial count.
    """
    if tag not in SUITES:
        raise ModelError(f"unknown theorem tag; expected one of {', '.join(SUITES)}")
    default, run = SUITES[tag]
    if default is None:
        if trials is not None:
            raise ModelError(f"tag {tag} runs every case; it takes no trial count")
        return run(seed)
    return run(default if trials is None else trials, seed)
