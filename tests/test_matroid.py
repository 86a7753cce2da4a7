import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zbounds.covers import iter_cover_specs, sample_cover
from zbounds.errors import EnumerationCapError, ModelError, NumericRangeError
from zbounds.lattice import is_log_supermodular
from zbounds import matroid, verify
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


def _ref_field_tables(q):
    """Reference: the add, mul, neg and inv tables of GF(q) built one entry
    at a time, from base-p digit lists and a schoolbook polynomial product
    reduced by the irreducible polynomial; prime q is modular arithmetic."""
    p, k = matroid._factor_prime_power(q)

    def digits(x):
        return [x // p**i % p for i in range(k)]

    def undigits(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def poly_mul(da, db):
        poly = matroid._IRREDUCIBLE[q]
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if not x:
                continue
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the irreducible polynomial (monic of degree k)
        for deg in range(len(prod) - 1, k - 1, -1):
            c = prod[deg]
            if not c:
                continue
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - c * poly[j]) % p
        return prod[:k]

    add = np.zeros((q, q), dtype=np.int16)
    mul = np.zeros((q, q), dtype=np.int16)
    for a in range(q):
        for b in range(q):
            if k == 1:
                add[a, b], mul[a, b] = (a + b) % p, (a * b) % p
            else:
                da, db = digits(a), digits(b)
                add[a, b] = undigits([(x + y) % p for x, y in zip(da, db)])
                mul[a, b] = undigits(poly_mul(da, db))
    neg = np.zeros(q, dtype=np.int16)
    inv = np.zeros(q, dtype=np.int16)
    for a in range(q):
        neg[a] = int(np.where(add[a] == 0)[0][0])
        if a:
            inv[a] = int(np.where(mul[a] == 1)[0][0])
    return add, mul, neg, inv


class TestGaloisField:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 41, 257, 4, 8, 9, 16, 25, 27])
    def test_tables_equal_reference(self, q):
        f = gf(q)
        tables = (f.add_table, f.mul_table, f.neg_table, f.inv_table)
        for table, ref in zip(tables, _ref_field_tables(q)):
            assert table.dtype == ref.dtype and np.array_equal(table, ref)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9, 16, 25, 27])
    def test_field_axioms_exhaustive(self, q):
        f = gf(q)
        add, mul = f.add_table, f.mul_table
        e = np.arange(q)
        assert np.array_equal(add[e, 0], e) and np.array_equal(mul[e, 1], e)
        assert not add[e, f.neg_table].any()
        assert (mul[e[1:], f.inv_table[1:]] == 1).all()
        assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
        a, b, c = np.ix_(e, e, e)
        assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
        assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
        assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])

    def test_unsupported_order_rejected(self):
        with pytest.raises(ModelError):
            gf(6)
        with pytest.raises(ModelError):
            gf(32)

    def test_order_above_limit_refused_before_any_work(self):
        # 4099 is prime; building its tables would take 2 x 4099^2 entries
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="exceeds the largest supported"):
                gf(4099)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


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
                combo[i] = f.add_table[combo[i], f.mul_table[lam, matrix.entries[i, c]]]
        if all(x == 0 for x in combo):
            return False
    return True


def _ref_rank(matrix, mask):
    """Reference: Gaussian elimination over GF(q), one column at a time,
    on the selected columns of one mask."""
    f = matrix.field
    sub = matrix.entries[:, [c for c in range(matrix.n_cols) if (mask >> c) & 1]].copy()
    rows, cols = sub.shape
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if sub[i, c]), None)
        if pivot is None:
            continue
        sub[[r, pivot]] = sub[[pivot, r]]
        sub[r] = f.mul_table[f.inv_table[sub[r, c]], sub[r]]
        for i in range(rows):
            if i != r and sub[i, c]:
                scaled = f.mul_table[int(sub[i, c]), sub[r]]
                sub[i] = f.add_table[sub[i], f.neg_table[scaled]]
        r += 1
        if r == rows:
            break
    return r


def _ref_incidence_table(matrix, J, c):
    """Reference: column c's factor in the incidence graph, as (scope,
    cards, table), filled one joint state of its support at a time."""
    f = matrix.field
    q = f.q
    support = [i for i in range(matrix.n_rows) if matrix.entries[i, c]]
    size = q ** len(support)
    table = np.empty(size)
    for flat in range(size):
        rem = flat
        states = []
        for _ in support:
            states.append(rem % q)
            rem //= q
        states.reverse()  # last scope variable fastest
        acc = 0
        for i, s in zip(support, states):
            acc = f.add_table[acc, f.mul_table[matrix.entries[i, c], s]]
        table[flat] = math.exp(J[c]) if acc == 0 else 1.0
    return tuple(f"r{i}" for i in support), (q,) * len(support), table


class TestGFMatrixEntries:
    @pytest.mark.parametrize(
        "entries,match",
        [
            ([[1.7, 1, 2]], "integers in 0..2"),
            ([[True, 1, 2]], "not a real number"),
            ([[1, 1], [0, True]], "not a real number"),
            ([[1, "2", 0]], "not a real number"),
            ([[1, 3, 0]], "integers in 0..2"),
        ],
    )
    def test_non_integral_or_out_of_field_entry_refused(self, entries, match):
        with pytest.raises(ModelError, match=match):
            GFMatrix(gf(3), entries)

    def test_integral_float_read_as_int(self):
        m = GFMatrix(gf(3), [[2.0, 1, 0]])
        assert m.entries.dtype == np.int64 and m.entries.tolist() == [[2, 1, 0]]


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

    def test_wider_than_int64(self):
        # a mask is a Python int, so 64 or more columns still work
        m = GFMatrix(gf(2), np.ones((2, 70), dtype=np.int64))
        assert rank(m) == 1
        assert rank(m, 1 << 69) == 1
        assert rank(m, 0) == 0

    def test_reference_elimination(self):
        rng = np.random.default_rng(5)
        for q in (2, 3, 4, 5, 7):
            m = GFMatrix(gf(q), rng.integers(0, q, size=(3, 6)))
            assert [rank(m, mask) for mask in range(1 << 6)] == [
                _ref_rank(m, mask) for mask in range(1 << 6)
            ]

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
    equal the scalar reference ``_ref_rank`` and the independence oracle."""

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
            assert got.tolist() == [_ref_rank(m, int(mask)) for mask in masks], name
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
        assert ranks(m, masks).tolist() == [_ref_rank(m, int(mask)) for mask in masks]
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

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        m = GFMatrix(gf(2), [[1, 1]])
        with pytest.raises(ModelError, match="finite"):
            matroid_rc_partition(m, [1.0, weight])

    @pytest.mark.parametrize("bad", [[True], ["0.5"], [[True]]], ids=["bool", "string", "nested-bool"])
    def test_non_real_weight_or_coupling_rejected(self, bad):
        m = GFMatrix(gf(2), [[1]])
        with pytest.raises(ModelError, match="not a real number"):
            matroid_rc_partition(m, bad)
        with pytest.raises(ModelError, match="not a real number"):
            incidence_factor_graph(m, bad)

    def test_overflowing_coupling_refused(self):
        # exp(800) is beyond the float range: refused, not a bare OverflowError
        m = GFMatrix(gf(2), [[1]])
        with pytest.raises(NumericRangeError, match=r"coupling weight exp\(800\.0\)"):
            incidence_factor_graph(m, [800.0])

    @pytest.mark.parametrize("coupling", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, coupling):
        m = GFMatrix(gf(2), [[1, 1]])
        with pytest.raises(ModelError, match="finite"):
            matroid_potts_partition(m, [1.0, coupling])

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

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_factor_tables_equal_reference(self, q):
        rng = np.random.default_rng(q)
        for k, n in [(0, 2), (2, 0), (1, 1), (3, 4), (4, 3), (3, 5)]:
            for _ in range(4):
                # about a third of the entries are zero, so some rows and
                # columns are all zero
                entries = rng.integers(0, q, size=(k, n)) * (rng.random((k, n)) < 0.7)
                m = GFMatrix(gf(q), entries)
                J = rng.uniform(-2.0, 2.0, n)
                fg = incidence_factor_graph(m, J)
                assert fg.var_ids == tuple(f"r{i}" for i in range(k))
                assert [fac.id for fac in fg.factors] == [f"c{c}" for c in range(n)]
                for c, fac in enumerate(fg.factors):
                    scope, cards, table = _ref_incidence_table(m, J, c)
                    assert fac.scope == scope and fac.table.cards == cards
                    assert fac.table.values.tobytes() == table.tobytes()

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
    """``matroid_potts_partition`` sums the incidence graph's joint slab by
    slab through ``exact_partition``; the sum must match the one formed
    over the whole codeword array."""

    @staticmethod
    def _reference(matrix, J):
        words = matroid._codewords(matrix)
        return math.fsum(np.exp((words == 0) @ J)) / matrix.field.q**matrix.n_rows

    @pytest.mark.parametrize("q,k,n", [(3, 6, 8), (2, 17, 9), (3, 11, 7), (4, 9, 6)])
    def test_matches_full_product(self, q, k, n):
        # the joint takes one to eight slabs; each weight multiplies its
        # factors in exact_partition's order, so Z can differ by an ulp
        rng = np.random.default_rng(q * 100 + k)
        matrix = GFMatrix(gf(q), rng.integers(0, q, size=(k, n)))
        J = rng.uniform(-1.0, 2.0, n)
        assert matroid_potts_partition(matrix, J) == pytest.approx(
            self._reference(matrix, J), rel=1e-13
        )

    def test_memory_bounded_by_block(self):
        # columns with 1 to 3 nonzero entries keep every table at most 27
        # entries, so the slab sum holds far less than the 3^12 codewords
        rng = np.random.default_rng(19)
        entries = np.zeros((12, 10), dtype=np.int64)
        for c in range(10):
            support = rng.choice(12, size=int(rng.integers(1, 4)), replace=False)
            entries[support, c] = rng.integers(1, 3, size=support.size)
        matrix = GFMatrix(gf(3), entries)
        peaks = []
        for call in (
            lambda: matroid._codewords(matrix),
            lambda: matroid_potts_partition(matrix, np.ones(10)),
        ):
            tracemalloc.start()
            try:
                call()
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] / 4

    def test_size_too_long_to_print_refused(self):
        # one column over 15000 rows: 2^15000 words, 4516 decimal digits
        matrix = GFMatrix(gf(2), np.ones((15000, 1), dtype=np.int64))
        with pytest.raises(EnumerationCapError, match="2\\^15000 spin configurations exceed"):
            matroid_potts_partition(matrix, [1.0])


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

    def test_base_wider_than_int64(self):
        # the stack masks are Python ints of the base's width
        from zbounds.covers import CoverSpec

        m = GFMatrix(gf(2), np.ones((2, 70), dtype=np.int64))
        fg = incidence_factor_graph(m, np.zeros(70))
        spec = CoverSpec(fg, 2, {(f.id, v): (0, 1) for f in fg.factors for v in f.scope})
        rep = check_rank_cover_inequality(m, spec, [1 << 69 | 1, 1 << 69])
        assert (rep.lhs_rank, rep.rhs_rank) == (2, 2)

    def test_gf3_counterexample(self):
        # over GF(3) the inequality fails: a*c1@0 + b*c1@1 + c*c2@0 + d*c2@1 = 0
        # with a = c = 1, b = d = 2, so the lifted columns 1 and 2 of both
        # copies have rank 3 against 2 + 2 on the stacks
        from zbounds.covers import CoverSpec

        m = GFMatrix(gf(3), [[2, 1, 2], [0, 1, 1]])
        fg = incidence_factor_graph(m, np.zeros(3))
        perms = {(f.id, v): (0, 1) for f in fg.factors for v in f.scope}
        perms[("c2", "r1")] = (1, 0)
        rep = check_rank_cover_inequality(m, CoverSpec(fg, 2, perms), [6, 6])
        assert (rep.lhs_rank, rep.rhs_rank, rep.slack, rep.ok) == (3, 4, -1, False)

    @pytest.mark.parametrize(
        "j,ratio", [(1.0, 1.0352), (2.0, 1.4288), (4.0, 2.6085), (8.0, 2.9920)]
    )
    def test_gf3_cover_exceeds_base_squared(self, j, ratio):
        # the per-cover side of the rank failure above: on the same cover,
        # Z(H) > Z(G)^2, so covers cannot prove Z_B <= Z over GF(3)
        from zbounds.covers import CoverSpec, build_cover

        m = GFMatrix(gf(3), [[2, 1, 2], [0, 1, 1]])
        J = np.array([0.0, j, j])
        fg = incidence_factor_graph(m, J)
        perms = {(f.id, v): (0, 1) for f in fg.factors for v in f.scope}
        perms[("c2", "r1")] = (1, 0)
        spec = CoverSpec(fg, 2, perms)
        z_base = exact_partition(fg)
        by_cover = exact_partition(build_cover(spec).cover) / z_base**2
        by_lift = matroid_potts_partition(lift_matrix(m, spec), np.repeat(J, 2)) * 3**4 / z_base**2
        assert by_lift == pytest.approx(by_cover, rel=1e-12)
        assert round(by_cover, 4) == ratio

    def test_spec_on_other_matrix_refused(self):
        # a spec built on another matrix's incidence graph used to fail
        # with a bare KeyError; now the mismatch is named
        m = GFMatrix(gf(3), [[1, 0, 2], [0, 1, 1]])
        other = GFMatrix(gf(3), [[1, 1, 2], [0, 1, 1]])
        spec = sample_cover(incidence_factor_graph(other, np.zeros(3)), 2, seed=0)
        with pytest.raises(ModelError, match="does not match the matrix's column supports"):
            lift_matrix(m, spec)
        with pytest.raises(ModelError, match="does not match"):
            check_rank_cover_inequality(m, spec, [0, 0])
        # a base with more rows than the matrix is refused too
        taller = GFMatrix(gf(3), [[1, 0, 2], [0, 1, 1], [0, 0, 0]])
        with pytest.raises(ModelError, match="does not match"):
            lift_matrix(taller, sample_cover(incidence_factor_graph(m, np.zeros(3)), 2, 0))

    @pytest.mark.parametrize("layers", [[], [1], [1, 2, 3]])
    def test_wrong_layer_count_refused(self, layers):
        m = self._matrix(2, 0)
        spec = sample_cover(incidence_factor_graph(m, np.zeros(3)), 2, seed=1)
        with pytest.raises(ModelError, match=f"need 2 layers, got {len(layers)}"):
            check_rank_cover_inequality(m, spec, layers)

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
    def test_suite_checks_mean_field_bound(self, monkeypatch):
        # a mean-field "lower" bound 1% above the exact enumerator must fail
        # the suite, whatever the Bethe bound says
        def inflated(*args, **kwargs):
            res = weight_enumerator(*args, **kwargs)
            return dataclasses.replace(res, mean_field_bound=1.01 * res.exact)

        monkeypatch.setattr(matroid, "weight_enumerator", inflated)
        rep = verify.verify_weight_enumerator(seed=0)
        assert rep.passes == 0 and rep.trials == 6
        assert rep.worst_slack == pytest.approx(-0.01, rel=1e-9)

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

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("inf"), float("nan"), 1e-320])
    def test_lambda_outside_range_refused(self, lam):
        # 1e-320 is positive, but 1/lam overflows, so J = log(1/lam) is inf
        m = parse_generator_matrix("2 1 3\n1 1 1\n")
        with pytest.raises(ModelError, match="lambda"):
            weight_enumerator(m, lam, restarts=4)

    def test_rank_deficient_generator(self):
        m = parse_generator_matrix("2 2 3\n1 1 1\n1 1 1\n")
        res = weight_enumerator(m, 0.5, restarts=4)
        assert res.exact == pytest.approx(1 + 0.5**3, rel=1e-12)
        assert res.identity_value == pytest.approx(res.exact, rel=1e-9)

    def test_bad_header(self):
        with pytest.raises(ModelError):
            parse_generator_matrix("2 1\n1 1\n")
