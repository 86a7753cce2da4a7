import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zbounds.covers import iter_cover_specs, sample_cover
from zbounds.errors import ModelError
from zbounds.lattice import is_log_supermodular
from zbounds import matroid
from zbounds.matroid import (
    GFMatrix,
    check_rank_cover_inequality,
    gf,
    incidence_factor_graph,
    lift_matrix,
    matroid_potts_partition,
    matroid_rc_partition,
    parse_generator_matrix,
    rank,
    ranks,
    weight_enumerator,
)
from zbounds import models
from zbounds.models import exact_partition
from zbounds.potts import count_components


class TestGaloisField:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9, 16, 25, 27])
    def test_field_axioms_exhaustive(self, q):
        f = gf(q)
        elems = range(q)
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, f.neg_table[a]) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in elems:
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_unsupported_order_rejected(self):
        with pytest.raises(ModelError):
            gf(6)
        with pytest.raises(ModelError):
            gf(32)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf(5).inv(0)


def independent_subset_rank(matrix, mask):
    """Oracle: size of the largest subset of the selected columns with no
    nontrivial linear combination summing to zero."""
    f = matrix.field
    cols = [c for c in range(matrix.n_cols) if (mask >> c) & 1]
    best = 0
    for r in range(len(cols), -1, -1):
        for subset in itertools.combinations(cols, r):
            if _independent(matrix, subset, f):
                return r
    return best


def _independent(matrix, cols, f):
    if not cols:
        return True
    for coeffs in itertools.product(range(f.q), repeat=len(cols)):
        if all(c == 0 for c in coeffs):
            continue
        combo = [0] * matrix.n_rows
        for c, lam in zip(cols, coeffs):
            for i in range(matrix.n_rows):
                combo[i] = f.add(combo[i], f.mul(lam, int(matrix.entries[i, c])))
        if all(x == 0 for x in combo):
            return False
    return True


class TestRank:
    def test_identity(self):
        m = GFMatrix(gf(2), [[1, 0], [0, 1]])
        assert rank(m) == 2

    def test_duplicate_column(self):
        m = GFMatrix(gf(2), [[1, 1], [1, 1]])
        assert rank(m) == 1

    def test_empty_subset(self):
        m = GFMatrix(gf(3), [[1, 2], [0, 1]])
        assert rank(m, 0) == 0

    def test_matches_independence_oracle(self):
        rng = np.random.default_rng(0)
        m = GFMatrix(gf(3), rng.integers(0, 3, size=(4, 6)))
        for mask in range(1 << 6):
            assert rank(m, mask) == independent_subset_rank(m, mask)

    def test_monotone_and_submodular_exhaustive(self):
        rng = np.random.default_rng(1)
        for q in (2, 3, 4):
            m = GFMatrix(gf(q), rng.integers(0, q, size=(3, 5)))
            r = [rank(m, mask) for mask in range(1 << 5)]
            for a in range(1 << 5):
                for b in range(1 << 5):
                    if a & b == a:
                        assert r[a] <= r[b]
                    assert r[a] + r[b] >= r[a & b] + r[a | b]

    def test_submodular_eight_columns(self):
        rng = np.random.default_rng(2)
        m = GFMatrix(gf(2), rng.integers(0, 2, size=(4, 8)))
        r = np.array([rank(m, mask) for mask in range(1 << 8)])
        masks = np.arange(1 << 8)
        for a in range(1 << 8):
            assert np.all(r[a] + r >= r[a & masks] + r[a | masks])


class TestBatchedRanks:
    """``ranks`` eliminates a block of masks at once; each of its ranks must
    equal the scalar ``rank`` and the independence oracle."""

    @staticmethod
    def _cases(q, rng):
        zero_columns = rng.integers(0, q, size=(3, 4))
        zero_columns[:, [0, 2]] = 0
        row = rng.integers(1, q, size=4)
        return {
            "random": rng.integers(0, q, size=(3, 4)),
            "wide": rng.integers(0, q, size=(2, 5)),
            "no rows": np.zeros((0, 3), dtype=np.int64),
            "no columns": np.zeros((2, 0), dtype=np.int64),
            "zero columns": zero_columns,
            "full rank": np.hstack([np.eye(3, dtype=np.int64), rng.integers(0, q, size=(3, 1))]),
            "negated row": np.vstack([row, gf(q).neg_table[row]]),
        }

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 41, 257])
    def test_equals_scalar_and_oracle(self, q):
        rng = np.random.default_rng(q)
        for name, entries in self._cases(q, rng).items():
            m = GFMatrix(gf(q), entries)
            masks = np.arange(1 << m.n_cols)
            got = ranks(m, masks)
            assert got.dtype == np.int64 and got.shape == masks.shape, name
            assert got.tolist() == [rank(m, int(mask)) for mask in masks], name
            if q <= 9:  # the oracle tries all q^k combinations
                oracle = [independent_subset_rank(m, int(mask)) for mask in masks]
                assert got.tolist() == oracle, name
        cases = self._cases(q, rng)
        assert ranks(GFMatrix(gf(q), cases["full rank"]), [7, 15]).tolist() == [3, 3]
        # rows x and -x with x nowhere 0: rank 1 on every nonempty column set
        negated = GFMatrix(gf(q), cases["negated row"])
        assert ranks(negated, np.arange(16)).tolist() == [0] + [1] * 15

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 41, 257])
    def test_blocks_in_any_order_equal_scalar(self, monkeypatch, q):
        # blocks of 2^3 masks; the masks shuffled, so no block starts at 0
        monkeypatch.setattr(models, "_MASK_BLOCK_BITS", 3)
        rng = np.random.default_rng(20 + q)
        m = GFMatrix(gf(q), rng.integers(0, q, size=(4, 7)))
        masks = rng.permutation(1 << 7)
        assert ranks(m, masks).tolist() == [rank(m, int(mask)) for mask in masks]
        assert ranks(m, np.zeros(0, dtype=np.int64)).shape == (0,)


class TestMatroidPartitions:
    def test_single_one_by_one_j0(self):
        m = GFMatrix(gf(2), [[1]])
        assert matroid_potts_partition(m, [0.0]) == pytest.approx(1.0)

    def test_repetition_row(self):
        lam = 0.3
        m = GFMatrix(gf(2), [[1, 1, 1]])
        z = matroid_potts_partition(m, [math.log(1 / lam)] * 3)
        assert z == pytest.approx(0.5 * (lam**-3 + 1), rel=1e-12)

    def test_rc_empty_columns(self):
        m = GFMatrix(gf(3), np.zeros((2, 0), dtype=int))
        assert matroid_rc_partition(m, np.zeros(0)) == pytest.approx(1.0)

    def test_single_column_identity(self):
        m = GFMatrix(gf(2), [[1]])
        assert matroid_rc_partition(m, [1.0]) == pytest.approx(1.5)
        assert matroid_potts_partition(m, [math.log(2)]) == pytest.approx(1.5)

    def test_identity_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            q = int(rng.choice([2, 3]))
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            m = GFMatrix(gf(q), rng.integers(0, q, size=(k, n)))
            J = rng.uniform(0.0, 2.0, n)
            zp = matroid_potts_partition(m, J)
            zrc = matroid_rc_partition(m, np.expm1(J))
            assert abs(zp - zrc) / zp <= 1e-9

    def test_negative_weight_rejected(self):
        m = GFMatrix(gf(2), [[1]])
        with pytest.raises(ModelError):
            matroid_rc_partition(m, [-0.5])

    def test_rc_table_log_supermodular(self):
        rng = np.random.default_rng(3)
        m = GFMatrix(gf(3), rng.integers(0, 3, size=(3, 5)))
        p = rng.uniform(0.0, 3.0, 5)
        table = []
        for mask in range(1 << 5):
            w = 3.0 ** (-rank(m, mask))
            for c in range(5):
                if (mask >> c) & 1:
                    w *= p[c]
            table.append(w)
        assert is_log_supermodular(table).ok

    def test_factor_graph_form_matches(self):
        rng = np.random.default_rng(4)
        m = GFMatrix(gf(3), rng.integers(0, 3, size=(3, 4)))
        J = rng.uniform(0.0, 1.5, 4)
        fg = incidence_factor_graph(m, J)
        z_unnorm = exact_partition(fg)
        assert z_unnorm / 3.0**3 == pytest.approx(
            matroid_potts_partition(m, J), rel=1e-12
        )

    def test_graph_incidence_rank_equals_vertices_minus_components(self):
        # vertex-edge incidence matrix over GF(2): r(A) = |V| - k(A)
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        inc = np.zeros((4, len(edges)), dtype=int)
        for c, (i, j) in enumerate(edges):
            inc[i, c] = 1
            inc[j, c] = 1
        m = GFMatrix(gf(2), inc)
        for mask in range(1 << len(edges)):
            assert rank(m, mask) == 4 - count_components(4, edges, mask)


class TestBlockedPottsSum:
    """``matroid_potts_partition`` weighs its codewords one block at a time;
    the sum must equal the one formed over the whole word array."""

    @staticmethod
    def _reference(matrix, J):
        words = matroid._codewords(matrix, 1 << 22)
        return math.fsum(np.exp((words == 0) @ J)) / matrix.field.q**matrix.n_rows

    @pytest.mark.parametrize("q,k,n", [(3, 6, 8), (2, 17, 9), (3, 11, 7), (4, 9, 6)])
    def test_matches_full_product(self, q, k, n):
        # 729 words fit one block; the others span two to four
        rng = np.random.default_rng(q * 100 + k)
        matrix = GFMatrix(gf(q), rng.integers(0, q, size=(k, n)))
        J = rng.uniform(-1.0, 2.0, n)
        assert matroid_potts_partition(matrix, J, cap=1 << 22) == self._reference(matrix, J)

    def test_memory_bounded_by_block(self, monkeypatch):
        # at blocks of 2^10 words, the sum peaks no higher than building the
        # words; the float (words, n) product alone would take 4.8 MiB
        monkeypatch.setattr(matroid, "_WORD_BLOCK", 1 << 10)
        rng = np.random.default_rng(19)
        matrix = GFMatrix(gf(3), rng.integers(0, 3, size=(10, 10)))
        peaks = []
        for call in (
            lambda: matroid._codewords(matrix, 1 << 22),
            lambda: matroid_potts_partition(matrix, np.ones(10)),
        ):
            tracemalloc.start()
            try:
                call()
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 256 * 1024


class TestRankCoverInequality:
    def _matrix(self, q, seed):
        rng = np.random.default_rng(seed)
        entries = rng.integers(0, q, size=(2, 3))
        for c in range(3):
            if not entries[:, c].any():
                entries[int(rng.integers(0, 2)), c] = 1
        return GFMatrix(gf(q), entries)

    def test_empty_layers(self):
        m = self._matrix(2, 0)
        fg = incidence_factor_graph(m, np.zeros(3))
        spec = sample_cover(fg, 2, seed=1)
        rep = check_rank_cover_inequality(m, spec, [0, 0])
        assert rep.lhs_rank == rep.rhs_rank == 0

    def test_disjoint_cover_identical_layers_equality(self):
        m = self._matrix(3, 1)
        fg = incidence_factor_graph(m, np.zeros(3))
        identity = {(f.id, v): (0, 1) for f in fg.factors for v in f.scope}
        from zbounds.covers import CoverSpec

        spec = CoverSpec(fg, 2, identity)
        for mask in range(8):
            rep = check_rank_cover_inequality(m, spec, [mask, mask])
            assert rep.lhs_rank == rep.rhs_rank

    @pytest.mark.parametrize("q", [2, 3])
    def test_exhaustive_two_covers(self, q):
        m = self._matrix(q, 7)
        fg = incidence_factor_graph(m, np.zeros(3))
        for spec in iter_cover_specs(fg, 2):
            for a1 in range(8):
                for a2 in range(8):
                    rep = check_rank_cover_inequality(m, spec, [a1, a2])
                    assert rep.ok

    def test_lifted_matrix_shape(self):
        m = self._matrix(2, 9)
        fg = incidence_factor_graph(m, np.zeros(3))
        spec = sample_cover(fg, 3, seed=2)
        lifted = lift_matrix(m, spec)
        assert lifted.entries.shape == (6, 9)
        # every lifted column has the same weight as its base column
        for c in range(3):
            base_w = int((m.entries[:, c] != 0).sum())
            for layer in range(3):
                assert int((lifted.entries[:, 3 * c + layer] != 0).sum()) == base_w


class TestWeightEnumerator:
    def test_repetition_code(self):
        m = parse_generator_matrix("2 1 3\n1 1 1\n")
        for lam in (0.25, 0.7, 1.0):
            res = weight_enumerator(m, lam, restarts=8)
            assert res.exact == pytest.approx(1 + lam**3, rel=1e-12)
            assert res.identity_value == pytest.approx(res.exact, rel=1e-9)

    def test_lambda_one_counts_codewords(self):
        m = parse_generator_matrix("2 2 3\n1 0 1\n0 1 1\n")
        res = weight_enumerator(m, 1.0, restarts=4)
        assert res.exact == pytest.approx(4.0)
        assert res.codewords == 4

    def test_hamming_74(self):
        text = (
            "2 4 7\n"
            "1 0 0 0 0 1 1\n"
            "0 1 0 0 1 0 1\n"
            "0 0 1 0 1 1 0\n"
            "0 0 0 1 1 1 1\n"
        )
        m = parse_generator_matrix(text)
        lam = 0.5
        res = weight_enumerator(m, lam, restarts=16)
        # known weight distribution: 1 + 7x^3 + 7x^4 + x^7
        expected = 1 + 7 * lam**3 + 7 * lam**4 + lam**7
        assert res.exact == pytest.approx(expected, rel=1e-12)
        assert res.identity_value == pytest.approx(res.exact, rel=1e-9)
        assert res.bethe_bound <= res.exact * (1 + 1e-6)
        assert res.mean_field_bound <= res.bethe_bound * (1 + 1e-9)

    def test_lambda_above_one_suppresses_bounds(self):
        m = parse_generator_matrix("2 1 3\n1 1 1\n")
        res = weight_enumerator(m, 1.5)
        assert res.exact == pytest.approx(1 + 1.5**3, rel=1e-12)
        assert res.bethe_bound is None and res.mean_field_bound is None

    def test_rank_deficient_generator(self):
        m = parse_generator_matrix("2 2 3\n1 1 1\n1 1 1\n")
        res = weight_enumerator(m, 0.5, restarts=4)
        assert res.exact == pytest.approx(1 + 0.5**3, rel=1e-12)
        assert res.identity_value == pytest.approx(res.exact, rel=1e-9)

    def test_bad_header(self):
        with pytest.raises(ModelError):
            parse_generator_matrix("2 1\n1 1\n")
