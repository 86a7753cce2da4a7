import itertools
import math

import numpy as np
import pytest

from zbounds.covers import iter_cover_specs, layered_masks, sample_cover
from zbounds.errors import EnumerationCapError, ModelError, NumericRangeError
from zbounds.lattice import is_log_supermodular
from zbounds.models import exact_partition
from zbounds.potts import (
    REL_TOL_COVER,
    CoverComponentReport,
    PottsModel,
    UnionFind,
    build_counterexample,
    check_cover_component_inequality,
    count_components,
    cover_potts_model,
    potts_partition,
    potts_to_factor_graph,
    rc_partition,
    rc_weight,
)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            PottsModel(2, [(0, 0)], 2, [1.0])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ModelError):
            PottsModel(2, [(0, 1), (1, 0)], 2, [1.0, 1.0])

    @pytest.mark.parametrize(
        "q,coupling,field",
        [
            (math.nan, [1.0], None),
            (math.inf, [1.0], None),
            (2, [math.nan], None),
            (2, [-math.inf], None),
            (2, [1.0], [0.0, math.nan]),
            (2, [1.0], [math.inf, 0.0]),
        ],
    )
    def test_non_finite_value_rejected(self, q, coupling, field):
        with pytest.raises(ModelError, match="finite"):
            PottsModel(2, [(0, 1)], q, coupling, field=field)

    @pytest.mark.parametrize(
        "q,coupling,field",
        [
            (True, [1.0], None),
            ("2", [1.0], None),
            ([[True]], [1.0], None),
            ([2], [1.0], None),
            (2, [True], None),
            (2, ["0.5"], None),
            (2, [[True]], None),
            (2, [1.0], [True, False]),
            (2, [1.0], ["0", 0.0]),
            (2, [1.0], [[True], [0.0]]),
        ],
    )
    def test_non_real_value_rejected(self, q, coupling, field):
        with pytest.raises(ModelError, match="not a real number|one number"):
            PottsModel(2, [(0, 1)], q, coupling, field=field)

    def test_ferromagnetic_flag(self):
        assert PottsModel(2, [(0, 1)], 2, [0.5]).ferromagnetic
        assert not PottsModel(2, [(0, 1)], 2, [-0.5]).ferromagnetic


class TestCountComponents:
    def test_empty_subset_counts_all_vertices(self):
        assert count_components(3, TRIANGLE, 0) == 3
        assert count_components(4, TRIANGLE, 0) == 4

    def test_full_triangle(self):
        assert count_components(3, TRIANGLE, 0b111) == 1

    def test_path_edge_on_four_vertices(self):
        assert count_components(4, [(0, 1)], 0b1) == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda mask: count_components(3, [(0, 1), (1, 2)], mask),
            lambda mask: rc_weight(PottsModel(3, [(0, 1), (1, 2)], 2, [0.5, 0.5]), mask),
        ],
        ids=["count_components", "rc_weight"],
    )
    def test_mask_is_a_count(self, call):
        # a negative mask would select every edge
        assert call(3.0) == call(3)
        with pytest.raises(ModelError, match="an edge mask must be >= 0, got -1"):
            call(-1)
        for bad in (2.5, True, "3"):
            with pytest.raises(ModelError, match="an edge mask must be an integer"):
                call(bad)


class TestPottsPartition:
    def test_single_edge_q2(self):
        m = PottsModel(2, [(0, 1)], 2, [math.log(2)])
        assert potts_partition(m) == pytest.approx(6.0, rel=1e-14)

    def test_zero_couplings(self):
        m = PottsModel(4, TRIANGLE + [(1, 3)], 3, [0.0] * 4)
        assert potts_partition(m) == pytest.approx(3**4, rel=1e-14)

    def test_counterexample_instance_brute_force(self):
        m = build_counterexample()
        z = exact_partition(m)
        # independent 27-term loop
        e = math.exp
        phis = []
        for k in range(3):
            h = [e(-1)] * 3
            h[k] = e(2)
            phis.append(h)
        total = 0.0
        for sigma in itertools.product(range(3), repeat=3):
            w = phis[0][sigma[0]] * phis[1][sigma[1]] * phis[2][sigma[2]]
            for i, j in TRIANGLE:
                if sigma[i] == sigma[j]:
                    w *= e(2)
            total += w
        assert z == pytest.approx(total, rel=1e-12)

    def test_noninteger_q_rejected_for_spins(self):
        m = PottsModel(2, [(0, 1)], 2.5, [1.0])
        with pytest.raises(ModelError):
            potts_partition(m)

    def test_cap(self):
        # 4^14 = 2^28 spin vectors, refused by their count
        m = PottsModel(14, [(0, 1)], 4, [1.0])
        with pytest.raises(EnumerationCapError):
            potts_partition(m)

    def test_no_vertices(self):
        assert potts_partition(PottsModel(0, [], 3, [])) == 1.0
        assert potts_partition(PottsModel(0, [], 2, [], field=[0.3, -0.2])) == 1.0

    def test_single_state(self):
        # q = 1: every edge is satisfied
        m = PottsModel(3, TRIANGLE, 1, [0.2, 0.5, 0.7])
        assert potts_partition(m) == pytest.approx(math.exp(1.4), rel=1e-14)

    def test_field_matches_spin_loop(self):
        rng = np.random.default_rng(3)
        edges = TRIANGLE + [(2, 3)]
        J, h = rng.uniform(0.1, 1.0, 4), rng.uniform(-1.0, 1.0, 3)
        total = math.fsum(
            math.exp(
                sum(h[s] for s in sigma)
                + sum(J[e] for e, (i, j) in enumerate(edges) if sigma[i] == sigma[j])
            )
            for sigma in itertools.product(range(3), repeat=4)
        )
        m = PottsModel(4, edges, 3, J, field=h)
        assert potts_partition(m) == pytest.approx(total, rel=1e-12)

    def test_monotone_in_edges(self):
        rng = np.random.default_rng(0)
        base_edges = [(0, 1), (1, 2)]
        j = rng.uniform(0.2, 1.5, 3)
        m1 = PottsModel(3, base_edges, 3, j[:2])
        m2 = PottsModel(3, base_edges + [(0, 2)], 3, j)
        assert potts_partition(m2) >= potts_partition(m1)


class TestRandomCluster:
    def test_empty_subset(self):
        m = PottsModel(3, TRIANGLE, 2, [math.log(2)] * 3)
        assert rc_weight(m, 0) == pytest.approx(8.0)

    def test_single_edge_weight(self):
        m = PottsModel(3, TRIANGLE, 2, [math.log(2)] * 3)  # p = 1
        assert rc_weight(m, 0b001) == pytest.approx(4.0)

    def test_field_zero_reduces_to_plain(self):
        m_f = PottsModel(3, TRIANGLE, 2, [0.7] * 3, field=[0.0, 0.0])
        m_0 = PottsModel(3, TRIANGLE, 2, [0.7] * 3)
        for mask in range(8):
            assert rc_weight(m_f, mask) == pytest.approx(rc_weight(m_0, mask), rel=1e-12)

    def test_single_edge_rc_partition(self):
        m = PottsModel(2, [(0, 1)], 2, [math.log(2)])
        assert rc_partition(m) == pytest.approx(6.0, rel=1e-14)

    def test_no_edges(self):
        m = PottsModel(3, [], 4, [])
        assert rc_partition(m) == pytest.approx(64.0)

    def test_antiferromagnetic_rejected(self):
        m = PottsModel(2, [(0, 1)], 2, [-0.5])
        with pytest.raises(ModelError):
            rc_weight(m, 0)

    def test_identity_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pairs = list(itertools.combinations(range(n), 2))
            rng.shuffle(pairs)
            m_edges = pairs[: int(rng.integers(1, min(8, len(pairs)) + 1))]
            q = int(rng.integers(1, 5))
            model = PottsModel(n, m_edges, q, rng.uniform(0.01, 3.0, len(m_edges)))
            zp = potts_partition(model)
            zrc = rc_partition(model)
            assert abs(zrc - zp) / zp <= 1e-9

    def test_overflowing_weights_refused(self):
        # e^800 (a coupling) and e^(400 * 2) (a two-vertex component under
        # the field) are beyond the float range: refused, not inf or a bare
        # OverflowError
        hot = PottsModel(3, [(0, 1), (1, 2)], 2, [800.0, 1.0])
        for fn in (rc_partition, potts_partition, lambda m: rc_weight(m, 0b01)):
            with pytest.raises(NumericRangeError, match=r"coupling weight exp\(800\.0\)"):
                fn(hot)
        field = PottsModel(3, [(0, 1), (1, 2)], 2, [1.0, 1.0], field=[0.0, 400.0])
        for fn in (rc_partition, lambda m: rc_weight(m, 0b01)):
            with pytest.raises(NumericRangeError, match="a 2-vertex component"):
                fn(field)

    def test_real_q_allowed_on_rc_side(self):
        model = PottsModel(3, TRIANGLE, 2.7, [0.5, 0.8, 1.1])
        z = rc_partition(model)
        assert z > 0

    def test_rc_weights_log_supermodular_with_field(self):
        rng = np.random.default_rng(5)
        model = PottsModel(
            4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], 3,
            rng.uniform(0.1, 1.5, 5), field=rng.uniform(-1, 1, 3),
        )
        table = [rc_weight(model, mask) for mask in range(1 << 5)]
        assert is_log_supermodular(table).ok


class TestComponentSupermodularity:
    def test_exhaustive_small_graphs(self):
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for picked in range(1 << len(pairs)):
                edges = [pairs[t] for t in range(len(pairs)) if (picked >> t) & 1]
                m = len(edges)
                ks = [count_components(n, edges, mask) for mask in range(1 << m)]
                for a in range(1 << m):
                    for b in range(1 << m):
                        assert ks[a] + ks[b] <= ks[a & b] + ks[a | b]

    def test_exhaustive_eight_edge_graph(self):
        rng = np.random.default_rng(13)
        pairs = list(itertools.combinations(range(5), 2))
        rng.shuffle(pairs)
        edges = pairs[:8]
        ks = np.array([count_components(5, edges, mask) for mask in range(1 << 8)])
        masks = np.arange(1 << 8)
        for a in range(1 << 8):
            lhs = ks[a] + ks
            rhs = ks[a & masks] + ks[a | masks]
            assert np.all(lhs <= rhs)


def _ref_cover_report(base, spec, layers):
    """The cover check as it was when it built the lifted PottsModel:
    ``cover_potts_model``, then the lift's own components and ``rc_weight``."""
    lifted, stacks = layered_masks(layers, spec.m, len(base.edges))
    cover = cover_potts_model(base, spec)
    lhs = count_components(cover.n_vertices, cover.edges, lifted)
    rhs = sum(count_components(base.n_vertices, base.edges, mask) for mask in stacks)
    rep = CoverComponentReport(lhs_components=lhs, rhs_components=rhs, component_ok=lhs <= rhs)
    if base.field is not None:
        rep.lhs_weight = rc_weight(cover, lifted)
        rep.rhs_weight = math.prod((rc_weight(base, mask) for mask in stacks), start=1.0)
        rep.weight_ok = rep.lhs_weight <= rep.rhs_weight * (1 + REL_TOL_COVER) + 1e-300
    return rep


class TestCoverComponentInequality:
    def test_empty_layers_equality(self):
        base = PottsModel(3, TRIANGLE, 2, [1.0] * 3)
        spec = sample_cover(potts_to_factor_graph(base), 2, seed=0)
        rep = check_cover_component_inequality(base, spec, [0, 0])
        assert rep.lhs_components == rep.rhs_components == 6

    def test_disjoint_cover_identical_layers_equality(self):
        base = PottsModel(3, TRIANGLE, 2, [1.0] * 3)
        fg = potts_to_factor_graph(base)
        identity = {(f.id, v): (0, 1) for f in fg.factors for v in f.scope}
        from zbounds.covers import CoverSpec

        spec = CoverSpec(fg, 2, identity)
        for mask in range(8):
            rep = check_cover_component_inequality(base, spec, [mask, mask])
            assert rep.lhs_components == rep.rhs_components

    def test_exhaustive_triangle(self):
        base = PottsModel(3, TRIANGLE, 2, [1.0] * 3)
        fg = potts_to_factor_graph(base)
        specs = list(iter_cover_specs(fg, 2))
        assert len(specs) == 8
        for spec in specs:
            for a1 in range(8):
                for a2 in range(8):
                    rep = check_cover_component_inequality(base, spec, [a1, a2])
                    assert rep.component_ok

    def test_field_weight_inequality_sampled(self):
        rng = np.random.default_rng(7)
        for i in range(100):
            q = int(rng.integers(2, 4))
            base = PottsModel(
                3, TRIANGLE, q, rng.uniform(0.05, 2.0, 3), field=rng.uniform(-1, 1, q)
            )
            spec = sample_cover(potts_to_factor_graph(base), 2, seed=1000 + i)
            layers = [int(rng.integers(0, 8)), int(rng.integers(0, 8))]
            rep = check_cover_component_inequality(base, spec, layers)
            assert rep.ok

    def test_one_labelling_matches_two(self):
        # the check used to count components with one union-find and weigh
        # with another inside rc_weight; one pass per mask must give the
        # same counts and the same weights bit for bit
        def ref_weight(model, mask):
            p = np.expm1(model.coupling)
            w = 1.0
            for idx in range(len(model.edges)):
                if (mask >> idx) & 1:
                    w *= p[idx]
            if model.field is None:
                return w * model.q ** count_components(model.n_vertices, model.edges, mask)
            uf = UnionFind(model.n_vertices)
            for idx, (i, j) in enumerate(model.edges):
                if (mask >> idx) & 1:
                    uf.union(i, j)
            # one factor per component, at its smallest vertex
            firsts = {}
            for v in range(model.n_vertices):
                firsts.setdefault(uf.find(v), v)
            for root in sorted(firsts, key=firsts.get):
                w *= math.fsum(math.exp(h * uf.size[root]) for h in model.field)
            return w

        rng = np.random.default_rng(11)
        for i in range(60):
            q = int(rng.integers(2, 4))
            field = rng.uniform(-1, 1, q) if i % 3 else None
            base = PottsModel(3, TRIANGLE, q, rng.uniform(0.05, 2.0, 3), field=field)
            spec = sample_cover(potts_to_factor_graph(base), 2, seed=2000 + i)
            cover = cover_potts_model(base, spec)
            for mask in range(1 << 6):
                assert rc_weight(cover, mask) == ref_weight(cover, mask)
            layers = [int(rng.integers(0, 8)), int(rng.integers(0, 8))]
            rep = check_cover_component_inequality(base, spec, layers)
            lifted, stacks = layered_masks(layers, 2, 3)
            assert rep.lhs_components == count_components(6, cover.edges, lifted)
            assert rep.rhs_components == sum(count_components(3, TRIANGLE, m) for m in stacks)
            if field is None:
                assert rep.lhs_weight is rep.rhs_weight is rep.weight_ok is None
            else:
                assert rep.lhs_weight == ref_weight(cover, lifted)
                rhs = 1.0
                for m in stacks:
                    rhs *= ref_weight(base, m)
                assert rep.rhs_weight == rhs

    @pytest.mark.parametrize("m", [2, 3])
    def test_equals_built_lift(self, m):
        # the check reads the lift off spec.lifted_scopes; every report must
        # equal the one from the built lifted model, in value and in type
        rng = np.random.default_rng(33 + m)
        for i in range(120):
            n = int(rng.integers(2, 6))
            pairs = list(itertools.combinations(range(n), 2))
            keep = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
            edges = [pairs[k][:: 1 - 2 * int(rng.integers(0, 2))] for k in keep]
            q = int(rng.integers(2, 4))
            field = rng.uniform(-1.0, 1.0, q) if i % 2 else None
            base = PottsModel(n, edges, q, rng.uniform(0.0, 2.0, len(edges)), field=field)
            spec = sample_cover(potts_to_factor_graph(base), m, seed=500 * m + i)
            layers = [int(x) for x in rng.integers(0, 1 << len(edges), m)]
            got = check_cover_component_inequality(base, spec, layers)
            want = _ref_cover_report(base, spec, layers)
            assert got == want and repr(got) == repr(want)
        # a spec on another base: the same refusal, word for word
        other = PottsModel(3, [(0, 1), (1, 2)], 2, [1.0, 1.0], field=[0.2, 0.0])
        spec = sample_cover(potts_to_factor_graph(PottsModel(3, TRIANGLE, 2, [1.0] * 3)), m, 1)
        with pytest.raises(ModelError) as want:
            _ref_cover_report(other, spec, [0] * m)
        with pytest.raises(ModelError) as got:
            check_cover_component_inequality(other, spec, [0] * m)
        assert str(got.value) == str(want.value)

    def test_antiferromagnetic_counts_without_weights(self):
        # the count needs no edge probabilities, so a negative coupling is
        # fine without a field; with one, the weights would be negative
        base = PottsModel(3, TRIANGLE, 2, [-0.5, 0.3, -1.0])
        spec = sample_cover(potts_to_factor_graph(base), 2, seed=4)
        for a1 in range(8):
            rep = check_cover_component_inequality(base, spec, [a1, 7 - a1])
            assert rep.component_ok and rep.lhs_weight is None
        base = PottsModel(3, TRIANGLE, 2, [-0.5, 0.3, -1.0], field=[0.1, 0.0])
        with pytest.raises(ModelError, match="antiferromagnetic"):
            check_cover_component_inequality(base, spec, [1, 2])

    @pytest.mark.parametrize(
        "edges", [[(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)], [(1, 0), (1, 2), (0, 2)]],
        ids=["subgraph", "reordered", "reversed"],
    )
    def test_spec_on_other_graph_refused(self, edges):
        # the lift reads incidences by position, so a spec built on any
        # other pairwise graph must be refused, not lifted
        spec = sample_cover(potts_to_factor_graph(PottsModel(3, TRIANGLE, 2, [1.0] * 3)), 2, 0)
        base = PottsModel(3, edges, 2, [1.0] * len(edges))
        with pytest.raises(ModelError, match="does not match the Potts model's edges"):
            cover_potts_model(base, spec)
        with pytest.raises(ModelError, match="does not match"):
            check_cover_component_inequality(base, spec, [0, 0])

    @pytest.mark.parametrize("layers", [[], [1], [1, 2, 3]])
    def test_wrong_layer_count_refused(self, layers):
        base = PottsModel(3, TRIANGLE, 2, [1.0] * 3)
        spec = sample_cover(potts_to_factor_graph(base), 2, seed=0)
        with pytest.raises(ModelError, match=f"need 2 layers, got {len(layers)}"):
            check_cover_component_inequality(base, spec, layers)

    def test_cover_model_partition_consistency(self):
        # Z of the lifted Potts model equals Z of the lifted factor graph.
        base = PottsModel(3, TRIANGLE, 3, [0.4, 0.9, 0.2], field=[0.3, -0.1, 0.0])
        fg = potts_to_factor_graph(base)
        spec = sample_cover(fg, 2, seed=9)
        from zbounds.covers import build_cover

        cover = cover_potts_model(base, spec)
        lifted = build_cover(spec)
        assert potts_partition(cover) == pytest.approx(
            exact_partition(lifted.cover), rel=1e-12
        )


class TestCounterexampleModel:
    def test_shape(self):
        m = build_counterexample()
        assert m.num_vars == 3
        assert all(m.card(v) == 3 for v in m.var_ids)
        assert len(m.factors) == 3
        assert all(len(f.scope) == 2 for f in m.factors)

    def test_modes_change_tables(self):
        unordered = build_counterexample("unordered", "direct")
        ordered = build_counterexample("ordered", "direct")
        assert ordered.factors[0].table.values[0] == pytest.approx(
            unordered.factors[0].table.values[0] ** 2
        )
        exp_mode = build_counterexample("unordered", "exp")
        assert exp_mode.node_potential(0)[0] == pytest.approx(math.exp(math.exp(2)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ModelError):
            build_counterexample("sideways", "direct")
