import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zbounds.errors import EnumerationCapError, ModelError
from zbounds.lattice import (
    check_correlation_inequality,
    index_of_bits,
    is_log_submodular,
    is_log_supermodular,
    meet_join,
    model_is_log_supermodular,
    sorted_stack,
    switch_bipartite,
)
from zbounds.models import FactorGraph, dense_joint, exact_partition

bit_vectors = st.lists(st.integers(0, 1), min_size=1, max_size=8)


class TestMeetJoin:
    def test_basic(self):
        m, j = meet_join([1, 0], [0, 1])
        assert m.tolist() == [0, 0] and j.tolist() == [1, 1]

    def test_idempotent(self):
        x = np.array([1, 0, 1], dtype=np.uint8)
        m, j = meet_join(x, x)
        assert m.tolist() == x.tolist() and j.tolist() == x.tolist()

    def test_three_coords(self):
        m, j = meet_join([1, 1, 0], [1, 0, 1])
        assert m.tolist() == [1, 0, 0] and j.tolist() == [1, 1, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            meet_join([1, 0], [1, 0, 1])

    @given(bit_vectors, bit_vectors)
    @settings(max_examples=50)
    def test_absorption_and_rank(self, x, y):
        n = min(len(x), len(y))
        x, y = np.array(x[:n], np.uint8), np.array(y[:n], np.uint8)
        m, j = meet_join(x, y)
        # absorption: x ^ (x v y) = x and x v (x ^ y) = x
        assert meet_join(x, j)[0].tolist() == x.tolist()
        assert meet_join(x, m)[1].tolist() == x.tolist()
        assert int(m.sum()) + int(j.sum()) == int(x.sum()) + int(y.sum())


class TestSortedStack:
    def test_two_vectors(self):
        out = sorted_stack([[1, 0], [0, 1]])
        assert [o.tolist() for o in out] == [[1, 1], [0, 0]]

    def test_single_identity(self):
        out = sorted_stack([[1, 0, 1]])
        assert out[0].tolist() == [1, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            sorted_stack([])

    def test_matches_per_coordinate_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.integers(0, 2, size=(3, 4)).astype(np.uint8)
            out = np.array(sorted_stack(list(xs)))
            expected = np.sort(xs, axis=0)[::-1]
            assert np.array_equal(out, expected)

    @given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_monotone_and_sum_preserving(self, rows):
        xs = [np.array(r, np.uint8) for r in rows]
        out = sorted_stack(xs)
        for a, b in zip(out, out[1:]):
            assert np.all(a >= b)
        assert np.array_equal(np.sum(out, axis=0), np.sum(xs, axis=0))


class TestLogSupermodular:
    def test_ferro_pair(self):
        table = np.exp([0.0, 0.0, 0.0, 1.0])  # exp(x1*x2)
        assert is_log_supermodular(table).ok

    def test_antiferro_pair_with_witness(self):
        table = np.exp([0.0, 0.0, 0.0, -1.0])
        rep = is_log_supermodular(table)
        assert not rep.ok
        assert sorted(rep.witness) == [index_of_bits([0, 1]), index_of_bits([1, 0])]

    def test_submodular_flip(self):
        assert is_log_submodular(np.exp([0.0, 0.0, 0.0, -1.0])).ok
        assert not is_log_submodular(np.exp([0.0, 0.0, 0.0, 1.0])).ok

    def test_zero_against_positive_is_hard_violation(self):
        # f(11)=f(00)=0 but f(01), f(10) > 0
        rep = is_log_supermodular([0.0, 1.0, 1.0, 0.0])
        assert not rep.ok and rep.worst_ratio == float("inf")

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            is_log_supermodular(np.ones(2**5), cap=4)

    def test_rc_weight_table_is_lsm(self):
        # q^{components} over edge subsets of a small graph
        from zbounds.potts import PottsModel, rc_weight

        rng = np.random.default_rng(2)
        for q in (1.0, 2.0, 3.5):
            model = PottsModel(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], q,
                               rng.uniform(0.1, 2.0, 5))
            table = [rc_weight(model, mask) for mask in range(1 << 5)]
            assert is_log_supermodular(table).ok


class TestCorrelationInequality:
    def test_product_of_equal_lsm_factors(self):
        f = np.exp([0.0, 0.1, 0.2, 0.9])
        assert is_log_supermodular(f).ok
        g = np.kron(f, f)
        rep = check_correlation_inequality(g, [f, f])
        assert rep.ok
        assert rep.sum_lhs == pytest.approx(rep.sum_rhs, rel=1e-12)

    def test_m1_equality(self):
        f = np.exp([0.3, 0.0, -0.2, 0.5])
        rep = check_correlation_inequality(f, [f])
        assert rep.ok
        assert rep.pointwise_worst == pytest.approx(1.0, rel=1e-12)
        assert rep.sum_lhs == pytest.approx(rep.sum_rhs, rel=1e-12)

    def test_cover_lift_reproduces_bound(self):
        # 2-cover of a 2-variable model: g = lifted joint table with layer
        # blocks, f_m = base table; part (c) is the cover bound's mechanism.
        from zbounds.covers import CoverSpec, build_cover

        base = FactorGraph(
            [("a", 2), ("b", 2)],
            [("e", ("a", "b"), np.exp([0.2, 0.0, 0.0, 1.1]))],
            {"a": [1.0, 1.3], "b": [0.7, 1.0]},
        )
        spec = CoverSpec(base, 2, {("e", "a"): (0, 1), ("e", "b"): (1, 0)})
        lifted = build_cover(spec)
        # variable order a@0, a@1, b@0, b@1; blocks (a@0, b@0), (a@1, b@1)
        reordered = FactorGraph(
            [("a@0", 2), ("b@0", 2), ("a@1", 2), ("b@1", 2)],
            [(f.id, f.scope, f.table.values) for f in lifted.cover.factors],
            lifted.cover.node_potentials,
        )
        g = dense_joint(reordered).ravel()
        f = dense_joint(base).ravel()
        rep = check_correlation_inequality(g, [f, f])
        assert rep.sum_ok
        assert rep.sum_lhs == pytest.approx(exact_partition(lifted.cover), rel=1e-12)
        assert rep.sum_rhs == pytest.approx(exact_partition(base) ** 2, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            check_correlation_inequality(np.ones(8), [np.ones(4), np.ones(4)])


class TestSwitchBipartite:
    def _single_edge(self):
        return FactorGraph(
            [("a", 2), ("b", 2)],
            [("e", ("a", "b"), np.exp([0.0, 0.0, 0.0, -1.0]))],
            {"a": [1.0, 2.0], "b": [0.5, 1.5]},
        )

    def test_single_edge_switch(self):
        m = self._single_edge()
        sw = switch_bipartite(m, {"a"}, {"b"})
        assert is_log_submodular(m.factors[0].table.values).ok
        assert is_log_supermodular(sw.factors[0].table.values).ok
        assert exact_partition(sw) == pytest.approx(exact_partition(m), rel=1e-12)

    def test_identity_on_all_ones(self):
        m = FactorGraph([("a", 2), ("b", 2)], [("e", ("a", "b"), np.ones(4))])
        sw = switch_bipartite(m, {"a"}, {"b"})
        assert exact_partition(sw) == 4.0
        assert sw.factors[0].table == m.factors[0].table

    def test_k22_random_log_submodular(self):
        rng = np.random.default_rng(8)
        factors = []
        for k, (u, v) in enumerate([("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]):
            t = np.exp(rng.uniform(-1, 1, 4))
            if t[0] * t[3] > t[1] * t[2]:  # force log-submodular
                t[3] = t[1] * t[2] / t[0] * math.exp(-rng.uniform(0, 1))
            factors.append((f"e{k}", (u, v), t))
        m = FactorGraph(
            [("a0", 2), ("a1", 2), ("b0", 2), ("b1", 2)],
            factors,
            {"a0": rng.uniform(0.5, 2, 2), "b1": rng.uniform(0.5, 2, 2)},
        )
        sw = switch_bipartite(m, {"a0", "a1"}, {"b0", "b1"})
        assert exact_partition(sw) == pytest.approx(exact_partition(m), rel=1e-12)
        assert all(r.ok for r in model_is_log_supermodular(sw).values())

    def test_involution(self):
        m = self._single_edge()
        twice = switch_bipartite(switch_bipartite(m, {"a"}, {"b"}), {"a"}, {"b"})
        for f1, f2 in zip(m.factors, twice.factors):
            assert f1.table == f2.table
        assert np.array_equal(m.node_potential("b"), twice.node_potential("b"))

    def test_edge_inside_one_side_rejected(self):
        m = FactorGraph(
            [("a", 2), ("b", 2)], [("e", ("a", "b"), np.ones(4))]
        )
        with pytest.raises(ModelError):
            switch_bipartite(m, {"a", "b"}, set())

    def test_nonbinary_rejected(self):
        m = FactorGraph([("a", 3), ("b", 2)], [("e", ("a", "b"), np.ones(6))])
        with pytest.raises(ModelError):
            switch_bipartite(m, {"a"}, {"b"})

    def test_nonpairwise_rejected(self):
        m = FactorGraph(
            [("a", 2), ("b", 2), ("c", 2)],
            [("e", ("a", "b", "c"), np.ones(8))],
        )
        with pytest.raises(ModelError):
            switch_bipartite(m, {"a"}, {"b", "c"})
