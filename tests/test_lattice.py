import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zbounds.errors import EnumerationCapError, ModelError
from zbounds.lattice import (
    check_correlation_inequality,
    is_log_supermodular,
    model_is_log_supermodular,
    sorted_stack,
    switch_bipartite,
)
from zbounds.models import FactorGraph, dense_joint, exact_partition

masks = st.integers(0, 255)


def popcounts(xs):
    return [bin(int(x)).count("1") for x in xs]


class TestMeetJoin:
    """Meet and join of two subsets are their two-mask sorted stack."""

    def test_basic(self):
        assert sorted_stack([0b10, 0b01]) == [0b11, 0b00]

    def test_idempotent(self):
        assert sorted_stack([0b101, 0b101]) == [0b101, 0b101]

    def test_three_coords(self):
        assert sorted_stack([0b110, 0b101]) == [0b111, 0b100]

    def test_dimension_mismatch(self):
        # integer arrays are taken elementwise, so their shapes must agree
        with pytest.raises(ValueError):
            sorted_stack([np.array([1, 0]), np.array([1, 0, 1])])

    @given(masks, masks)
    @settings(max_examples=50)
    def test_absorption_and_rank(self, x, y):
        j, m = sorted_stack([x, y])
        assert (j, m) == (x | y, x & y)
        # absorption: x ^ (x v y) = x and x v (x ^ y) = x
        assert sorted_stack([x, j])[1] == x
        assert sorted_stack([x, m])[0] == x
        assert sum(popcounts([m, j])) == sum(popcounts([x, y]))


class TestSortedStack:
    def test_two_vectors(self):
        out = sorted_stack([np.array([0b10, 0b11]), np.array([0b01, 0b11])])
        assert [o.tolist() for o in out] == [[0b11, 0b11], [0b00, 0b11]]

    def test_single_identity(self):
        assert sorted_stack([0b101]) == [0b101]

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            sorted_stack([])

    def test_matches_per_coordinate_sort(self):
        rng = np.random.default_rng(0)
        weights = 1 << np.arange(3, -1, -1)  # coordinate 0 most significant
        bits = rng.integers(0, 2, size=(20, 3, 4))
        expected = np.sort(bits, axis=1)[:, ::-1] @ weights
        for xs, want in zip(bits @ weights, expected):
            assert sorted_stack(xs.tolist()) == want.tolist()
        # the same stacks from arrays, elementwise over the 20 families
        stacks = sorted_stack(list((bits @ weights).T))
        assert np.array_equal(np.array(stacks).T, expected)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_monotone_and_sum_preserving(self, xs):
        out = sorted_stack(xs)
        for a, b in zip(out, out[1:]):
            assert a & b == b
        for bit in range(3):
            assert sum((o >> bit) & 1 for o in out) == sum((x >> bit) & 1 for x in xs)


class TestLogSupermodular:
    def test_ferro_pair(self):
        table = np.exp([0.0, 0.0, 0.0, 1.0])  # exp(x1*x2)
        assert is_log_supermodular(table).ok

    def test_antiferro_pair_with_witness(self):
        table = np.exp([0.0, 0.0, 0.0, -1.0])
        rep = is_log_supermodular(table)
        assert not rep.ok
        assert sorted(rep.witness) == [0b01, 0b10]

    def test_submodular_flip(self):
        # f is log-submodular iff the positive table 1 / f is log-supermodular
        assert is_log_supermodular(1 / np.exp([0.0, 0.0, 0.0, -1.0])).ok
        assert not is_log_supermodular(1 / np.exp([0.0, 0.0, 0.0, 1.0])).ok

    def test_zero_against_positive_is_hard_violation(self):
        # f(11)=f(00)=0 but f(01), f(10) > 0
        rep = is_log_supermodular([0.0, 1.0, 1.0, 0.0])
        assert not rep.ok and rep.worst_ratio == float("inf")

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            is_log_supermodular(np.ones(2**5), cap=4)

    @pytest.mark.parametrize(
        "table", [[math.nan, 1, 1, 1], [1, 2, 3, math.inf], [1, 1, -math.inf, 1], [1, -1, 1, 1]]
    )
    def test_negative_or_non_finite_entry_refused(self, table):
        with pytest.raises(ModelError, match="finite and >= 0"):
            is_log_supermodular(table)

    @pytest.mark.parametrize(
        "table", [[True, 1, 1, 1], ["1", 1, 1, 1], [[True, 1], [1, 1]]],
        ids=["bool", "string", "nested-bool"],
    )
    def test_non_real_entry_refused(self, table):
        with pytest.raises(ModelError, match="not a real number"):
            is_log_supermodular(table)

    @pytest.mark.parametrize("table", [[], [1.0, 1.0, 1.0]])
    def test_length_not_power_of_two_refused(self, table):
        with pytest.raises(ModelError, match="power of two"):
            is_log_supermodular(table)

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

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_f_refused(self, bad):
        # a bad entry would otherwise drop out of the pointwise half
        with pytest.raises(ModelError, match="finite and >= 0"):
            check_correlation_inequality([1, 1, 1, 1], [[bad, 1], [1, 1]])

    @pytest.mark.parametrize("bad", [True, "1", [True]], ids=["bool", "string", "nested-bool"])
    def test_non_real_g_or_f_refused(self, bad):
        with pytest.raises(ModelError, match="not a real number"):
            check_correlation_inequality([1, 1, 1, bad], [[1, 1], [1, 1]])
        with pytest.raises(ModelError, match="not a real number"):
            check_correlation_inequality([1, 1, 1, 1], [[1, bad], [1, 1]])

    @staticmethod
    def _ref_rhs(fs, n):
        """prod_m f_m at the sorted stacks of every joint state, from
        per-coordinate counts over the M blocks thresholded at m."""
        joint = np.arange(1 << (len(fs) * n))
        blocks = [(joint >> ((len(fs) - 1 - m) * n)) & ((1 << n) - 1) for m in range(len(fs))]
        counts = [sum((b >> (n - 1 - i)) & 1 for b in blocks) for i in range(n)]
        rhs = np.ones(joint.size)
        for m, f in enumerate(fs, start=1):
            idx = np.zeros(joint.size, dtype=np.int64)
            for i in range(n):
                idx |= (counts[i] >= m).astype(np.int64) << (n - 1 - i)
            rhs = rhs * f[idx]
        return rhs

    def test_matches_count_and_threshold_reference(self):
        rng = np.random.default_rng(8)
        for case in range(60):
            m_total = int(rng.integers(1, 4))
            n = int(rng.integers(0, 9 // m_total + 1))
            fs = [
                rng.uniform(0.0, 2.0, 1 << n) * (rng.random(1 << n) > 0.1) for _ in range(m_total)
            ]
            rhs = self._ref_rhs(fs, n)
            # g at or just above the bound, so some cases fail pointwise
            g = rhs * rng.choice([0.5, 1.0, 1.0 + 1e-6], size=rhs.size)
            if case % 4 == 0:
                g[int(rng.integers(0, g.size))] = 1.0  # may sit on a zero of rhs
            rep = check_correlation_inequality(g, fs)
            ratio = np.divide(g, rhs, out=np.zeros(g.size), where=rhs > 0)
            bad_zero = (rhs == 0) & (g > 0)
            assert rep.pointwise_worst == ratio.max(initial=0.0), case
            assert rep.pointwise_ok == (not bad_zero.any() and ratio.max(initial=0.0) <= 1 + 1e-9)
            if bad_zero.any():
                assert rep.pointwise_witness == int(np.argmax(bad_zero)), case
            elif not rep.pointwise_ok:
                assert rep.pointwise_witness == int(np.argmax(ratio)), case


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
        assert is_log_supermodular(1 / m.factors[0].table.values).ok
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
