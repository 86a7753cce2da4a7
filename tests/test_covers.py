import itertools

import numpy as np
import pytest

from zbounds.covers import (
    CoverSpec,
    LiftedModel,
    bethe_estimate_via_covers,
    build_cover,
    cover_average_exhaustive,
    iter_cover_specs,
    layered_masks,
    lifted_id,
    sample_cover,
    validate_cover,
)
from zbounds.errors import ModelError
from zbounds.lattice import model_is_log_supermodular, sorted_stack
from zbounds.matroid import GFMatrix, gf, incidence_factor_graph, lift_matrix
from zbounds.models import Factor, FactorGraph, exact_partition
from zbounds.potts import PottsModel, count_components, cover_potts_model, potts_to_factor_graph


def single_edge_model():
    return FactorGraph(
        [("a", 2), ("b", 2)],
        [("e", ("a", "b"), np.exp([0.3, 0.0, 0.0, 0.7]))],
        {"a": [1.0, 2.0], "b": [0.5, 1.0]},
    )


def double_edge_model():
    """Two parallel factors between a and b; 2-covers can braid into the
    four-cycle pattern."""
    return FactorGraph(
        [("a", 2), ("b", 2)],
        [
            ("e0", ("a", "b"), np.exp([0.2, 0.0, 0.0, 0.6])),
            ("e1", ("a", "b"), np.exp([0.0, 0.1, 0.4, 0.0])),
        ],
    )


class TestBuildCover:
    def test_one_cover_is_isomorphic(self):
        base = single_edge_model()
        spec = sample_cover(base, 1, seed=0)
        lifted = build_cover(spec)
        assert exact_partition(lifted.cover) == exact_partition(base)
        ok, diag = validate_cover(
            lifted.cover, base, lifted.var_copy_map, lifted.factor_copy_map
        )
        assert ok, diag

    def test_identity_perms_give_disjoint_union(self):
        base = single_edge_model()
        spec = CoverSpec(base, 2, {("e", "a"): (0, 1), ("e", "b"): (0, 1)})
        lifted = build_cover(spec)
        assert exact_partition(lifted.cover) == pytest.approx(
            exact_partition(base) ** 2, rel=1e-12
        )

    def test_swap_on_double_edge_gives_connected_cycle(self):
        # With two parallel factors, an identity lift on one and a swap on
        # the other wires a@0-b@0-a@1-b@1-a@0: one four-cycle, not two
        # disjoint copies.
        base = double_edge_model()
        spec = CoverSpec(
            base,
            2,
            {
                ("e0", "a"): (0, 1),
                ("e0", "b"): (0, 1),
                ("e1", "a"): (0, 1),
                ("e1", "b"): (1, 0),
            },
        )
        lifted = build_cover(spec)
        edges = []
        vid = {v: k for k, v in enumerate(lifted.cover.var_ids)}
        for fac in lifted.cover.factors:
            u, v = fac.scope
            edges.append((vid[u], vid[v]))
        assert count_components(4, edges, (1 << len(edges)) - 1) == 1
        ok, diag = validate_cover(
            lifted.cover, base, lifted.var_copy_map, lifted.factor_copy_map
        )
        assert ok, diag

    def test_layer_map_partitions_variables(self):
        base = single_edge_model()
        lifted = build_cover(sample_cover(base, 3, seed=1))
        for m in range(3):
            layer = [v for v, l in lifted.layer_map.items() if l == m]
            assert sorted(lifted.var_copy_map[v] for v in layer) == ["a", "b"]

    def test_ids_with_one_name_refused(self):
        # copies are named f"{id}@{layer}", so 1 and "1" would both lift to "1@0"
        with pytest.raises(ModelError, match="variable ids 1 and '1' share the name"):
            same_vars = FactorGraph([(1, 2), ("1", 2)], [("e", (1, "1"), np.ones(4))])
            sample_cover(same_vars, 2, seed=0)
        with pytest.raises(ModelError, match="factor ids 1 and '1' share the name"):
            same_factors = FactorGraph([("a", 2)], [(1, ("a",), [1.0, 2.0]), ("1", ("a",), [2.0, 1.0])])
            sample_cover(same_factors, 2, seed=0)

    def test_malformed_permutation_rejected(self):
        base = single_edge_model()
        with pytest.raises(ModelError):
            CoverSpec(base, 2, {("e", "a"): (0, 0), ("e", "b"): (0, 1)})
        with pytest.raises(ModelError):
            CoverSpec(base, 2, {("e", "a"): (0, 1)})


class TestValidateCover:
    def test_disjoint_copies_validate(self):
        base = single_edge_model()
        spec = CoverSpec(base, 2, {("e", "a"): (0, 1), ("e", "b"): (0, 1)})
        lifted = build_cover(spec)
        ok, _ = validate_cover(
            lifted.cover, base, lifted.var_copy_map, lifted.factor_copy_map
        )
        assert ok

    def test_rewired_map_diagnosed(self):
        base = double_edge_model()
        lifted = build_cover(sample_cover(base, 2, seed=3))
        bad_map = dict(lifted.var_copy_map)
        bad_map["a@0"] = "b"
        ok, diag = validate_cover(
            lifted.cover, base, bad_map, lifted.factor_copy_map
        )
        assert not ok
        # the first violated node is the factor whose scope now covers the
        # wrong base variable
        assert "covers" in diag and "'a'" in diag

    def test_local_bijectivity_breakage_diagnosed(self):
        # Hand-build a non-cover: both copies of the factor attach to b@0.
        base = single_edge_model()
        candidate = FactorGraph(
            [("a@0", 2), ("a@1", 2), ("b@0", 2), ("b@1", 2)],
            [
                ("e@0", ("a@0", "b@0"), np.exp([0.3, 0.0, 0.0, 0.7])),
                ("e@1", ("a@1", "b@0"), np.exp([0.3, 0.0, 0.0, 0.7])),
            ],
            {
                "a@0": [1.0, 2.0], "a@1": [1.0, 2.0],
                "b@0": [0.5, 1.0], "b@1": [0.5, 1.0],
            },
        )
        var_map = {"a@0": "a", "a@1": "a", "b@0": "b", "b@1": "b"}
        factor_map = {"e@0": "e", "e@1": "e"}
        ok, diag = validate_cover(candidate, base, var_map, factor_map)
        assert not ok
        assert "b@" in diag

    # Each edit changes one thing in a valid 2-cover of single_edge_model
    # plus a lone variable c, and names the diagnosis it must draw.
    EDITS = {
        "variable without image": (
            lambda p: p["var_map"].pop("b@1"), "variable 'b@1' has no image"
        ),
        "unknown base variable": (
            lambda p: p["var_map"].update({"b@1": "z"}),
            "variable 'b@1' maps to unknown base variable",
        ),
        "changed cardinality": (
            lambda p: p["variables"].update({"c@1": 2}), "variable 'c@1' changes cardinality"
        ),
        "changed node potential": (
            lambda p: p["pots"].update({"b@1": [0.5, 2.0]}),
            "variable 'b@1' changes its node potential",
        ),
        "dropped node potential": (
            lambda p: p["pots"].pop("b@1"), "variable 'b@1' changes its node potential"
        ),
        "factor without image": (
            lambda p: p["factor_map"].pop("e@1"), "factor 'e@1' has no image"
        ),
        "unknown base factor": (
            lambda p: p["factor_map"].update({"e@1": "g"}),
            "factor 'e@1' maps to unknown base factor",
        ),
        "changed arity": (
            lambda p: p["factors"].update({"e@1": (("a@1",), [1.0, 1.0])}),
            "factor 'e@1' changes arity",
        ),
        "changed table": (
            lambda p: p["factors"].update({"e@1": (p["factors"]["e@1"][0], np.ones(4))}),
            "factor 'e@1' changes its table",
        ),
        "unequal fibers": (
            lambda p: (p["variables"].update({"c@2": 3}), p["var_map"].update({"c@2": "c"})),
            "base nodes have unequal numbers of copies",
        ),
    }

    @staticmethod
    def _valid_lift_parts():
        base = FactorGraph(
            [("a", 2), ("b", 2), ("c", 3)],
            [("e", ("a", "b"), np.exp([0.3, 0.0, 0.0, 0.7]))],
            {"a": [1.0, 2.0], "b": [0.5, 1.0]},
        )
        lifted = build_cover(CoverSpec(base, 2, {("e", "a"): (0, 1), ("e", "b"): (1, 0)}))
        cover = lifted.cover
        parts = {
            "variables": {v: cover.card(v) for v in cover.var_ids},
            "factors": {fac.id: (fac.scope, fac.table) for fac in cover.factors},
            "pots": cover.node_potentials,
            "var_map": dict(lifted.var_copy_map),
            "factor_map": dict(lifted.factor_copy_map),
        }
        return base, parts

    @staticmethod
    def _validate(base, parts):
        candidate = FactorGraph(
            parts["variables"].items(),
            [(fid, scope, table) for fid, (scope, table) in parts["factors"].items()],
            parts["pots"],
        )
        return validate_cover(candidate, base, parts["var_map"], parts["factor_map"])

    def test_unedited_lift_validates(self):
        assert self._validate(*self._valid_lift_parts()) == (True, None)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_each_diagnosis(self, edit):
        change, diagnosis = self.EDITS[edit]
        base, parts = self._valid_lift_parts()
        change(parts)
        assert self._validate(base, parts) == (False, diagnosis)


class TestSampleCover:
    def test_deterministic(self):
        base = single_edge_model()
        s1 = sample_cover(base, 3, seed=42)
        s2 = sample_cover(base, 3, seed=42)
        assert s1.perms == s2.perms

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_degree_is_a_count(self, bad):
        # 2.0 is read as 2; a fraction, a bool or a string is refused
        base = double_edge_model()
        spec = sample_cover(base, 2.0, seed=3)
        assert spec.m == 2 and spec.perms == sample_cover(base, 2, seed=3).perms
        with pytest.raises(ModelError, match="the cover degree M must be an integer"):
            sample_cover(base, bad, seed=3)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_seed_is_a_count(self, bad):
        # 2.0 is read as 2; a fraction, a bool or a string is refused, not
        # handed to numpy (a bool would run as seed 0 or 1)
        base = double_edge_model()
        assert sample_cover(base, 3, 2.0) == sample_cover(base, 3, 2)
        with pytest.raises(ModelError, match="the seed must be an integer"):
            sample_cover(base, 3, bad)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_enumerated_degree_is_a_count(self, bad):
        base = double_edge_model()
        specs = list(iter_cover_specs(base, 2.0))
        assert [s.perms for s in specs] == [s.perms for s in iter_cover_specs(base, 2)]
        assert all(s.m == 2 for s in specs)
        with pytest.raises(ModelError, match="the cover degree M must be an integer"):
            list(iter_cover_specs(base, bad))

    def test_m1_trivial(self):
        base = single_edge_model()
        spec = sample_cover(base, 1, seed=0)
        assert all(p == (0,) for p in spec.perms.values())

    def test_topology_frequencies_match_enumeration(self):
        # 2-covers of a triangle are connected iff the edge voltages
        # multiply to the swap; exhaustive pinned enumeration gives 4/8.
        tri = FactorGraph(
            [(i, 2) for i in range(3)],
            [(f"e{k}", sc, np.ones(4)) for k, sc in enumerate([(0, 1), (1, 2), (0, 2)])],
        )

        def connected(spec):
            lifted = build_cover(spec)
            vid = {v: k for k, v in enumerate(lifted.cover.var_ids)}
            edges = [(vid[f.scope[0]], vid[f.scope[1]]) for f in lifted.cover.factors]
            return count_components(6, edges, (1 << 6) - 1) == 1

        exhaustive = [connected(s) for s in iter_cover_specs(tri, 2)]
        assert len(exhaustive) == 8
        assert sum(exhaustive) == 4
        sampled = [connected(sample_cover(tri, 2, seed=s)) for s in range(400)]
        freq = sum(sampled) / len(sampled)
        assert abs(freq - 0.5) < 0.08


class TestCoverEstimate:
    def test_m1_equals_z(self):
        base = single_edge_model()
        est = bethe_estimate_via_covers(base, 1, num_samples=5, seed=0)
        assert est.estimate == pytest.approx(exact_partition(base), rel=1e-14)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_counts_are_counts(self, bad):
        # the cover degree and the sample count: 2.0 is read as 2, and a
        # fraction, a bool or a string is refused
        base = single_edge_model()
        want = bethe_estimate_via_covers(base, 2, 2, seed=0)
        for m, n in ((2.0, 2), (2, 2.0)):
            got = bethe_estimate_via_covers(base, m, n, seed=0)
            assert got == want and type(got.m) is int
        got = cover_average_exhaustive(base, 2.0)
        assert got == cover_average_exhaustive(base, 2) and type(got.m) is int
        for m, n in ((bad, 2), (2, bad)):
            with pytest.raises(ModelError, match="must be an integer"):
                bethe_estimate_via_covers(base, m, n, seed=0)
        with pytest.raises(ModelError, match="the cover degree M must be an integer"):
            cover_average_exhaustive(base, bad)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_seed_is_a_count(self, bad):
        base = double_edge_model()
        want = bethe_estimate_via_covers(base, 2, 2, 2)
        assert bethe_estimate_via_covers(base, 2, 2, 2.0) == want
        with pytest.raises(ModelError, match="the seed must be an integer"):
            bethe_estimate_via_covers(base, 2, 2, bad)

    def test_lsm_estimate_below_z(self):
        # every cover of a log-supermodular model obeys Z(H) <= Z(G)^M
        rng = np.random.default_rng(0)
        t = np.exp([0.4, 0.0, 0.0, 0.9])
        base = FactorGraph(
            [("a", 2), ("b", 2), ("c", 2)],
            [("e0", ("a", "b"), t), ("e1", ("b", "c"), t)],
            {"a": rng.uniform(0.5, 1.5, 2)},
        )
        assert all(r.ok for r in model_is_log_supermodular(base).values())
        z = exact_partition(base)
        for seed in range(50):
            est = bethe_estimate_via_covers(base, 2, num_samples=4, seed=seed)
            assert est.estimate <= z * (1 + 1e-9)

    def test_tree_exhaustive_matches_bethe(self):
        # Bethe is exact on trees, and every cover of a tree is a disjoint
        # union, so the exhaustive average must sit within 5% of Z.
        base = FactorGraph(
            [("a", 2), ("b", 3), ("c", 2)],
            [
                ("e0", ("a", "b"), np.exp(np.random.default_rng(1).uniform(-1, 1, 6))),
                ("e1", ("b", "c"), np.exp(np.random.default_rng(2).uniform(-1, 1, 6))),
            ],
        )
        from zbounds.bethe import maximize_bethe

        _tau, zb = maximize_bethe(base, restarts=8, seed=0)
        est = cover_average_exhaustive(base, 2)
        assert est.estimate == pytest.approx(zb, rel=0.05)


# The dict-based lifts the integer index map replaced, kept as references:
# each looks up spec.perms by (factor id, variable id) and numbers lifted
# nodes through lifted_id strings.


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda base: CoverSpec(base, 0, {}), "cover degree must be >= 1, got 0"),
        (lambda base: bethe_estimate_via_covers(base, 2, 0, 0), "need at least one sample"),
        (lambda base: sample_cover(base, 2, -1), "the seed must be >= 0, got -1"),
        (lambda base: bethe_estimate_via_covers(base, 2, 2, -1), "the seed must be >= 0, got -1"),
    ],
    ids=["degree", "samples", "sample-seed", "estimate-seed"],
)
def test_refusals(call, match):
    with pytest.raises(ModelError, match=match):
        call(single_edge_model())


def _ref_build_cover(spec):
    base, m_total = spec.base, spec.m
    variables, var_copy_map, layer_map, pots = [], {}, {}, {}
    for v in base.var_ids:
        for m in range(m_total):
            lv = lifted_id(v, m)
            variables.append((lv, base.card(v)))
            var_copy_map[lv] = v
            layer_map[lv] = m
            if v in base.node_potentials:
                pots[lv] = base.node_potentials[v]
    factors, factor_copy_map = [], {}
    for fac in base.factors:
        for m in range(m_total):
            lf = lifted_id(fac.id, m)
            scope = tuple(lifted_id(v, spec.perms[(fac.id, v)][m]) for v in fac.scope)
            factors.append(Factor(lf, scope, fac.table))
            factor_copy_map[lf] = fac.id
    return LiftedModel(FactorGraph(variables, factors, pots), var_copy_map, factor_copy_map, layer_map)


def _ref_cover_potts_model(base, spec):
    m_total = spec.m
    vid = {}
    for v in range(base.n_vertices):
        for layer in range(m_total):
            vid[lifted_id(v, layer)] = len(vid)
    lifted_edges, lifted_J = [], []
    for e, (i, j) in enumerate(base.edges):
        for layer in range(m_total):
            u = vid[lifted_id(i, spec.perms[(f"e{e}", i)][layer])]
            w = vid[lifted_id(j, spec.perms[(f"e{e}", j)][layer])]
            lifted_edges.append((u, w))
            lifted_J.append(base.coupling[e])
    return lifted_edges, lifted_J


def _ref_lift_matrix(matrix, spec):
    m_total = spec.m
    rows, cols = matrix.n_rows, matrix.n_cols
    lifted = np.zeros((rows * m_total, cols * m_total), dtype=np.int64)
    row_index = {
        lifted_id(f"r{i}", layer): i * m_total + layer
        for i in range(rows)
        for layer in range(m_total)
    }
    for c in range(cols):
        support = [i for i in range(rows) if matrix.entries[i, c]]
        for m in range(m_total):
            for i in support:
                perm = spec.perms[(f"c{c}", f"r{i}")]
                lifted[row_index[lifted_id(f"r{i}", perm[m])], c * m_total + m] = matrix.entries[i, c]
    return lifted


def _ref_masks(layers, m_total, n):
    cover_mask = 0
    for c in range(n):
        for m in range(m_total):
            if (layers[m] >> c) & 1:
                cover_mask |= 1 << (c * m_total + m)
    indicators = [
        np.array([(layers[m] >> c) & 1 for c in range(n)], dtype=np.uint8)
        for m in range(m_total)
    ]
    stacks = [int(sum(int(b) << c for c, b in enumerate(s))) for s in sorted_stack(indicators)]
    return cover_mask, stacks


def _random_potts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    edges = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    field = rng.uniform(-1, 1, 2) if seed % 2 else None
    return PottsModel(n, edges, 2, rng.uniform(0.1, 2.0, len(edges)), field=field)


def _random_matrix(seed):
    rng = np.random.default_rng(seed)
    q = (2, 3)[seed % 2]
    entries = rng.integers(0, q, size=(3, 4))
    entries[:, seed % 4] = 0  # an all-zero column: a factor with an empty scope
    return GFMatrix(gf(q), entries)


class TestLiftMatchesReference:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_build_cover(self, m):
        for seed in range(10):
            base = FactorGraph(
                [("a", 2), ("b", 3), (7, 2)],
                [("c", (), [2.0]), ("f", (7, "a"), np.arange(1.0, 5.0)),
                 ("g", ("b", 7, "a"), np.ones(12))],
                {"b": [1.0, 2.0, 3.0]},
            )
            spec = sample_cover(base, m, seed)
            got, want = build_cover(spec), _ref_build_cover(spec)
            assert got.cover.var_ids == want.cover.var_ids
            assert [(f.id, f.scope, f.table) for f in got.cover.factors] == [
                (f.id, f.scope, f.table) for f in want.cover.factors
            ]
            assert got.cover.node_potentials.keys() == want.cover.node_potentials.keys()
            assert (got.var_copy_map, got.factor_copy_map, got.layer_map) == (
                want.var_copy_map, want.factor_copy_map, want.layer_map
            )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cover_potts_model(self, m):
        for seed in range(20):
            base = _random_potts(seed)
            spec = sample_cover(potts_to_factor_graph(base), m, seed)
            cover = cover_potts_model(base, spec)
            edges, couplings = _ref_cover_potts_model(base, spec)
            assert cover.edges == tuple(edges)
            assert cover.coupling.tolist() == couplings
            assert cover.n_vertices == base.n_vertices * m and cover.q == base.q
            assert cover.field is base.field

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lift_matrix(self, m):
        for seed in range(20):
            matrix = _random_matrix(seed)
            spec = sample_cover(incidence_factor_graph(matrix, np.zeros(4)), m, seed)
            lifted = lift_matrix(matrix, spec)
            assert lifted.field is matrix.field
            assert lifted.entries.dtype == np.int64
            assert lifted.entries.tolist() == _ref_lift_matrix(matrix, spec).tolist()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_layered_masks(self, m):
        n = 3
        for layers in itertools.product(range(1 << n), repeat=m):
            assert layered_masks(list(layers), m, n) == _ref_masks(layers, m, n)
        # bits at and above n are read as the reference reads them
        rng = np.random.default_rng(m)
        for _ in range(50):
            layers = [int(x) for x in rng.integers(0, 64, size=m)]
            assert layered_masks(layers, m, 4) == _ref_masks(layers, m, 4)
        # a mask is an integer >= 0: 2.0 reads as 2, and a bool, a fraction,
        # a string or a negative mask is refused
        rest = [0] * (m - 1)
        assert layered_masks([2.0] + rest, m, n) == layered_masks([2] + rest, m, n)
        for bad in (True, 2.7, "3"):
            with pytest.raises(ModelError, match="a layer mask must be an integer"):
                layered_masks([bad] + rest, m, n)
        with pytest.raises(ModelError, match="a layer mask must be >= 0, got -1"):
            layered_masks([-1] + rest, m, n)

    def test_lifted_scopes_is_cached_and_outside_equality(self):
        spec = sample_cover(double_edge_model(), 3, seed=4)
        scopes = spec.lifted_scopes
        assert scopes is spec.lifted_scopes
        # row k*3 + m is copy m of factor e_k; copy l of a (variable 0) is
        # l, copy l of b (variable 1) is 3 + l
        assert scopes == tuple(
            (spec.perms[(f"e{k}", "a")][m], 3 + spec.perms[(f"e{k}", "b")][m])
            for k in range(2)
            for m in range(3)
        )
        assert spec == CoverSpec(spec.base, 3, dict(spec.perms))
