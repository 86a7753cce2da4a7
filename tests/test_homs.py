import itertools
import math

import numpy as np
import pytest

from zbounds.errors import EnumerationCapError, ModelError
from zbounds.homs import (
    HomModel,
    check_rank2_lsm,
    edge_partition,
    edge_weight,
    edge_weight_table,
    hom_partition,
    hom_to_factor_graph,
    s_count,
)
from zbounds.lattice import is_log_supermodular
from zbounds.models import exact_partition

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def random_hom(rng, n_vertices=4, n_edges=5, n_states=3):
    pairs = list(itertools.combinations(range(n_vertices), 2))
    rng.shuffle(pairs)
    return HomModel(
        n_vertices,
        pairs[:n_edges],
        rng.uniform(0.2, 1.5, n_states),
        rng.uniform(0.2, 1.5, n_states),
        rng.uniform(0.2, 1.5, n_states),
    )


class TestHomPartition:
    def test_single_edge_all_ones(self):
        n = 4
        m = HomModel(2, [(0, 1)], np.ones(n), np.ones(n), np.ones(n))
        assert hom_partition(m) == pytest.approx(2 * n * n)

    def test_no_edges(self):
        m = HomModel(3, [], [1.0, 2.0], [1.0, 1.0], [1.0, 1.0])
        assert hom_partition(m) == pytest.approx(27.0)

    def test_identity_gamma_counts_constant_colorings(self):
        m = HomModel(3, TRIANGLE, [1.0, 1.0], [1.0, 0.0], [0.0, 1.0])
        assert np.allclose(m.gamma, np.eye(2))
        assert hom_partition(m) == pytest.approx(2.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ModelError):
            HomModel(2, [(0, 1)], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("which", ["w", "a", "b"])
    @pytest.mark.parametrize(
        "bad", [[1.0, True], [1.0, "1"], [[1.0], [True]]], ids=["bool", "string", "nested-bool"]
    )
    def test_non_real_weight_rejected(self, which, bad):
        vecs = {"w": [1.0, 1.0], "a": [1.0, 1.0], "b": [1.0, 1.0], which: bad}
        with pytest.raises(ModelError, match="not a real number"):
            HomModel(2, [(0, 1)], vecs["w"], vecs["a"], vecs["b"])

    def test_zero_states(self):
        # no colours: no colouring of a nonempty graph
        assert hom_partition(HomModel(3, TRIANGLE, [], [], [])) == 0.0
        assert hom_partition(HomModel(2, [(0, 1)], [], [], [])) == 0.0

    def test_no_vertices(self):
        assert hom_partition(HomModel(0, [], [1.0, 2.0], [1.0, 0.5], [0.5, 1.0])) == 1.0
        assert hom_partition(HomModel(0, [], [], [], [])) == 1.0

    def test_single_state(self):
        # one colour: Z = w^|V| * Gamma^|E|, Gamma = a^2 + b^2 = 3
        m = HomModel(3, TRIANGLE, [2.0], [1.0], [math.sqrt(2.0)])
        assert hom_partition(m) == pytest.approx(8.0 * 27.0)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            # 4^14 = 2^28 colourings, refused by their count
            hom_partition(HomModel(14, [(0, 1)], np.ones(4), np.ones(4), np.ones(4)))


class TestSCount:
    def test_empty(self):
        m = random_hom(np.random.default_rng(0))
        assert s_count(m, 0, 0) == 0

    def test_full_is_degree(self):
        m = random_hom(np.random.default_rng(1))
        full = (1 << len(m.edges)) - 1
        for i in range(m.n_vertices):
            assert s_count(m, i, full) == m.degree(i)

    def test_triangle_single_edge(self):
        m = HomModel(3, TRIANGLE, np.ones(2), np.ones(2), np.ones(2))
        assert s_count(m, 0, 0b001) == 1  # edge (0,1)
        assert s_count(m, 2, 0b001) == 0

    def test_unknown_vertex(self):
        m = random_hom(np.random.default_rng(2))
        with pytest.raises(ModelError):
            s_count(m, 99, 0)

    @pytest.mark.parametrize(
        "call", [lambda m, mask: s_count(m, 1, mask), edge_weight], ids=["s_count", "edge_weight"]
    )
    def test_mask_is_a_count(self, call):
        # a negative mask would select every edge
        m = HomModel(3, TRIANGLE, [0.5, 1.5], [0.3, 1.2], [0.7, 0.9])
        assert call(m, 3.0) == call(m, 3)
        with pytest.raises(ModelError, match="an edge mask must be >= 0, got -1"):
            call(m, -1)
        for bad in (2.5, True, "3"):
            with pytest.raises(ModelError, match="an edge mask must be an integer"):
                call(m, bad)


class TestEdgeWeight:
    def test_all_ones(self):
        n = 3
        m = HomModel(3, TRIANGLE, np.ones(n), np.ones(n), np.ones(n))
        for mask in range(8):
            assert edge_weight(m, mask) == pytest.approx(n**3)

    def test_isolated_vertex_contributes_sum_w(self):
        m = HomModel(1, [], [0.5, 0.25], [0.0, 2.0], [3.0, 0.0])
        # degree 0: both exponents are 0, so 0^0 = 1 everywhere
        assert edge_weight(m, 0) == pytest.approx(0.75)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(3)
        m = random_hom(rng)
        for mask in (0, (1 << len(m.edges)) - 1, 0b0101):
            expected = 1.0
            for i in range(m.n_vertices):
                d = m.degree(i)
                s = sum(
                    1
                    for e, (u, v) in enumerate(m.edges)
                    if (mask >> e) & 1 and i in (u, v)
                )
                expected *= sum(
                    m.w[t] * m.a[t] ** s * m.b[t] ** (d - s)
                    for t in range(m.n_states)
                )
            assert edge_weight(m, mask) == pytest.approx(expected, rel=1e-12)

    def test_swap_ab_complements_subsets(self):
        rng = np.random.default_rng(4)
        m = random_hom(rng)
        swapped = HomModel(m.n_vertices, m.edges, m.w, m.b, m.a)
        full = (1 << len(m.edges)) - 1
        for mask in range(full + 1):
            assert edge_weight(swapped, mask) == pytest.approx(
                edge_weight(m, full ^ mask), rel=1e-12
            )

    def test_state_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        m = random_hom(rng)
        perm = rng.permutation(m.n_states)
        relabeled = HomModel(m.n_vertices, m.edges, m.w[perm], m.a[perm], m.b[perm])
        for mask in range(1 << len(m.edges)):
            assert edge_weight(relabeled, mask) == pytest.approx(
                edge_weight(m, mask), rel=1e-12
            )


class TestEdgePartitionIdentity:
    def test_single_edge(self):
        n = 3
        m = HomModel(2, [(0, 1)], np.ones(n), np.ones(n), np.ones(n))
        assert edge_partition(m) == pytest.approx(2 * n * n)

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            nv = int(rng.integers(2, 6))
            pairs = list(itertools.combinations(range(nv), 2))
            rng.shuffle(pairs)
            ne = int(rng.integers(0, min(8, len(pairs)) + 1))
            ns = int(rng.integers(1, 5))
            m = HomModel(
                nv, pairs[:ne],
                rng.uniform(0.1, 2.0, ns),
                rng.uniform(0.0, 2.0, ns),
                rng.uniform(0.0, 2.0, ns),
            )
            zh = hom_partition(m)
            ze = edge_partition(m)
            assert abs(ze - zh) <= 1e-9 * max(zh, 1e-300)


class TestRank2Lsm:
    def test_random_nonnegative_passes(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = random_hom(rng)
            rep = check_rank2_lsm(m)
            assert rep.ok

    def test_table_check_exhaustive(self):
        rng = np.random.default_rng(8)
        m = random_hom(rng, n_vertices=4, n_edges=6)
        assert is_log_supermodular(edge_weight_table(m)).ok

    def test_negative_entry_rejected_at_construction(self):
        with pytest.raises(ModelError):
            HomModel(2, [(0, 1)], [1.0, 1.0], [1.0, -0.5], [1.0, 1.0])

    def test_equal_states_tight(self):
        # c_own == c_other makes the exchange inequality an equality
        for s1, s2 in [(0, 3), (2, 1), (4, 4)]:
            sm, sj = min(s1, s2), max(s1, s2)
            c = 1.7
            lhs = c**s1 * c**s2 + c**s2 * c**s1
            rhs = c**sj * c**sm + c**sm * c**sj
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBetheForm:
    def test_factor_graph_matches_hom_partition(self):
        # Both enumerations against an independent loop over colourings.
        rng = np.random.default_rng(9)
        m = random_hom(rng)
        gamma = m.gamma
        loop = math.fsum(
            math.prod(m.w[c] for c in col) * math.prod(gamma[col[i], col[j]] for i, j in m.edges)
            for col in itertools.product(range(m.n_states), repeat=m.n_vertices)
        )
        assert exact_partition(hom_to_factor_graph(m)) == pytest.approx(loop, rel=1e-12)
        assert hom_partition(m) == pytest.approx(loop, rel=1e-12)
        assert edge_partition(m) == pytest.approx(loop, rel=1e-12)
