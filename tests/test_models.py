import fractions
import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from zbounds import homs, matroid, models, potts
from zbounds.errors import (
    EnumerationCapError,
    ModelError,
    NumericRangeError,
    UnnormalizableError,
)
from zbounds.models import (
    FactorGraph,
    PotentialTable,
    dense_joint,
    evaluate,
    exact_marginals,
    exact_partition,
    float_array,
    fsum_blocks,
)
from zbounds.potts import PottsModel, potts_to_factor_graph


def brute_force_partition(model):
    """Independent oracle: dict-based enumeration, no tensor machinery."""
    total = 0.0
    ids = model.var_ids
    for states in itertools.product(*(range(model.card(v)) for v in ids)):
        total += evaluate(model, dict(zip(ids, states)))
    return total


def random_model(rng, n_vars=3, max_card=3, n_factors=3):
    variables = [(i, int(rng.integers(2, max_card + 1))) for i in range(n_vars)]
    cards = dict(variables)
    factors = []
    for k in range(n_factors):
        scope = tuple(
            int(x) for x in rng.choice(n_vars, size=int(rng.integers(1, 3)), replace=False)
        )
        size = int(np.prod([cards[v] for v in scope]))
        factors.append((f"f{k}", scope, rng.uniform(0.0, 2.0, size)))
    pots = {0: rng.uniform(0.1, 2.0, cards[0])}
    return FactorGraph(variables, factors, pots)


class TestConstruction:
    def test_zero_cardinality_rejected(self):
        with pytest.raises(ModelError):
            FactorGraph([("x", 0)])

    def test_negative_table_rejected(self):
        with pytest.raises(ModelError):
            FactorGraph([("x", 2)], [("f", ("x",), [-1.0, 1.0])])

    def test_duplicate_scope_var_rejected(self):
        with pytest.raises(ModelError):
            FactorGraph([("x", 2)], [("f", ("x", "x"), np.ones(4))])

    def test_unknown_scope_var_rejected(self):
        with pytest.raises(ModelError):
            FactorGraph([("x", 2)], [("f", ("y",), [1.0, 1.0])])

    def test_table_size_mismatch_rejected(self):
        with pytest.raises(ModelError):
            FactorGraph([("x", 2), ("y", 3)], [("f", ("x", "y"), np.ones(4))])

    def test_node_potential_length_checked(self):
        with pytest.raises(ModelError):
            FactorGraph([("x", 2)], [], {"x": [1.0, 1.0, 1.0]})

    @pytest.mark.parametrize(
        "factors,pots",
        [
            ([([0], ("x",), [1.0, 2.0])], None),
            ([(1.5, ("x",), [1.0, 2.0])], None),
            ([(True, ("x",), [1.0, 2.0])], None),
            ([("f", (["x"],), [1.0, 2.0])], None),
            ([("f", "x", [1.0, 2.0])], None),
            ([("f", 5, [1.0, 2.0])], None),
            ([], {1.0: [1.0, 2.0]}),
        ],
        ids=["list-factor-id", "float-factor-id", "boolean-factor-id", "list-scope-entry",
             "string-scope", "number-scope", "float-potential-key"],
    )
    def test_malformed_id_or_scope_rejected(self, factors, pots):
        with pytest.raises(ModelError):
            FactorGraph([("x", 2), (1, 2)], factors, pots)

    @pytest.mark.parametrize(
        "bad",
        [[True, 1.0], ["1", 1.0], [[True], [1.0]], np.array([True, False])],
        ids=["bool", "string", "nested-bool", "bool-array"],
    )
    def test_non_real_table_or_potential_rejected(self, bad):
        with pytest.raises(ModelError, match="not a real number|not real-valued"):
            FactorGraph([("x", 2)], [("f", ("x",), bad)])
        with pytest.raises(ModelError, match="not a real number|not real-valued"):
            FactorGraph([("x", 2)], [], {"x": bad})

    def test_rows_factors_and_tables_build_one_model(self):
        table = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        rows = FactorGraph([("x", 2), (0, 3)], [("f", ["x", 0], table)])
        fac = rows.factors[0]
        for again in (
            FactorGraph([("x", 2), (0, 3)], [fac]),
            FactorGraph([("x", 2), (0, 3)], [("f", ("x", 0), fac.table)]),
        ):
            assert again.factors == rows.factors
        assert fac.scope == ("x", 0) and fac.table == PotentialTable((2, 3), table)
        assert FactorGraph([("x", 2)], [(None, ("x",), [1.0, 2.0])]).factors[0].id == "f0"
        with pytest.raises(ModelError, match="table cards"):
            FactorGraph([("x", 3), (0, 2)], [("f", ("x", 0), fac.table)])

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: models.as_simple_graph(2, [(0, 2)]), r"edge \(0,2\) outside vertex range"),
            (lambda: PotentialTable((2, 0), []), r"cardinalities must be >= 1, got \(2, 0\)"),
            (lambda: FactorGraph([("x", 2), ("x", 3)]), "duplicate variable id 'x'"),
            (lambda: FactorGraph([(1, 2), (np.int64(1), 2)]), "duplicate variable id"),
            (
                lambda: FactorGraph([("x", 2)], [("f", ["x"], [1, 1]), ("f", ["x"], [1, 1])]),
                "duplicate factor id 'f'",
            ),
            (lambda: FactorGraph([(1, 2), ("1", 2)]), "variable ids 1 and '1' share the name '1'"),
            (
                lambda: FactorGraph([("x", 2)], [(1, ["x"], [1, 1]), ("1", ["x"], [1, 1])]),
                "factor ids 1 and '1' share the name '1'",
            ),
            (
                lambda: FactorGraph([("x", 2)], [], {"y": [1.0, 1.0]}),
                "node potential for unknown variable 'y'",
            ),
        ],
        ids=["edge-range", "table-cardinality", "duplicate-variable", "duplicate-numpy-variable",
             "duplicate-factor", "variable-name", "factor-name", "potential-key"],
    )
    def test_refusals(self, build, match):
        # ids are named by str(): a cover copy is f"{id}@{m}" and a JSON key
        # str(id), so two ids with one name are refused as a repeated one is
        with pytest.raises(ModelError, match=match):
            build()

    def test_zero_valued_tables_allowed(self):
        m = FactorGraph([("x", 2)], [("f", ("x",), [0.0, 0.0])])
        assert exact_partition(m) == 0.0


class TestFloatArray:
    @pytest.mark.parametrize(
        "values",
        [True, "2.5", None, 1 + 2j, [1.0, True], [[1.0], ["2"]], [[[1.0, True]]],
         [np.array([1.0]), [False]], np.array([True]), np.array(["1"])],
    )
    def test_non_real_refused(self, values):
        with pytest.raises(ModelError, match="not a real number|not real-valued"):
            float_array(values, "x")

    @pytest.mark.parametrize("values", [math.nan, [1.0, math.inf], [[2.0], [-math.inf]]])
    def test_non_finite_refused(self, values):
        with pytest.raises(ModelError, match="^x must be finite$"):
            float_array(values, "x")

    def test_negative_refused_when_nonnegative(self):
        assert float_array([0.0, -1.0], "x").tolist() == [0.0, -1.0]
        with pytest.raises(ModelError, match="^x must be finite and >= 0$"):
            float_array([0.0, -1.0], "x", nonnegative=True)

    @pytest.mark.parametrize("values", [[10**400], [[1.0, 2.0], [3.0]]], ids=["huge-int", "ragged"])
    def test_unreadable_refused(self, values):
        with pytest.raises(ModelError, match="x must be numbers"):
            float_array(values, "x")

    def test_reads_every_real_spelling(self):
        arr = float_array([(1, 2.5), [np.int64(3), np.float32(0.5)]], "x")
        assert arr.dtype == float and arr.tolist() == [[1.0, 2.5], [3.0, 0.5]]
        assert float_array(np.arange(3), "x").tolist() == [0.0, 1.0, 2.0]


class TestEvaluate:
    def test_empty_model(self):
        assert evaluate(FactorGraph([]), {}) == 1.0

    def test_single_variable(self):
        m = FactorGraph([("x", 2)], [], {"x": [1.0, 2.0]})
        assert evaluate(m, {"x": 1}) == 2.0

    def test_counterexample_all_zero_assignment(self):
        # triangle model: each vertex potential e^2 at its own index, e^-1
        # elsewhere; edges e^(2*delta).  At (0,0,0): e^(2-1-1) * e^6 = e^6.
        from zbounds.potts import build_counterexample

        m = build_counterexample()
        v = evaluate(m, {0: 0, 1: 0, 2: 0})
        assert v == pytest.approx(math.exp(6.0), rel=1e-12)

    def test_dimension_mismatch(self):
        m = FactorGraph([("x", 2)], [], {"x": [1.0, 2.0]})
        with pytest.raises(ModelError):
            evaluate(m, {"x": 0, "y": 0})
        with pytest.raises(ModelError):
            evaluate(m, {})
        with pytest.raises(ModelError):
            evaluate(m, {"x": 2})


class TestExactPartition:
    def test_single_variable(self):
        m = FactorGraph([("x", 2)], [], {"x": [1.0, 2.0]})
        assert exact_partition(m) == 3.0

    @pytest.mark.parametrize("bad", [2.5, True, "4"])
    def test_cap_is_a_count(self, bad):
        # 4.0 is read as 4; a fraction, a bool or a string is refused
        m = FactorGraph([("a", 2), ("b", 2)], [], {"a": [1.0, 2.0], "b": [1.0, 3.0]})
        assert exact_partition(m, cap=4.0) == 12.0
        with pytest.raises(EnumerationCapError, match="enumeration cap 3$"):
            exact_partition(m, cap=3.0)
        with pytest.raises(ModelError, match="the enumeration cap must be an integer"):
            exact_partition(m, cap=bad)

    def test_two_independent(self):
        m = FactorGraph([("a", 2), ("b", 2)], [], {"a": [1, 1], "b": [1, 1]})
        assert exact_partition(m) == 4.0

    def test_counterexample_triangle(self):
        from zbounds.potts import build_counterexample

        m = build_counterexample()
        assert exact_partition(m) == pytest.approx(brute_force_partition(m), rel=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_model(rng)
            assert exact_partition(m) == pytest.approx(
                brute_force_partition(m), rel=1e-12
            )

    def test_cap_refusal_names_size(self):
        m = FactorGraph([(i, 2) for i in range(8)])
        with pytest.raises(EnumerationCapError, match="256"):
            exact_partition(m, cap=255)

    def test_chunked_enumeration_above_dense_block(self):
        # 23 binary variables exceed the dense-tensor block; the product
        # structure gives Z to within a few roundings.
        rng = np.random.default_rng(12)
        pots = {i: rng.uniform(0.2, 1.0, 2) for i in range(23)}
        m = FactorGraph([(i, 2) for i in range(23)], [], pots)
        expected = 1.0
        for i in range(23):
            expected *= pots[i].sum()
        assert exact_partition(m) == pytest.approx(expected, rel=1e-11)

    def test_constant_factor_empty_scope(self):
        m = FactorGraph([("x", 2)], [("c", (), [2.5])], {"x": [1.0, 1.0]})
        assert exact_partition(m) == pytest.approx(5.0)
        assert evaluate(m, {"x": 0}) == pytest.approx(2.5)

    def test_disjoint_union_is_product(self):
        rng = np.random.default_rng(5)
        a = random_model(rng)
        b_raw = random_model(rng)
        renamed = FactorGraph(
            [(f"b{v}", b_raw.card(v)) for v in b_raw.var_ids],
            [
                (f"b{f.id}", tuple(f"b{v}" for v in f.scope), f.table.values)
                for f in b_raw.factors
            ],
            {f"b{v}": p for v, p in b_raw.node_potentials.items()},
        )
        both = FactorGraph(
            [(v, a.card(v)) for v in a.var_ids]
            + [(v, renamed.card(v)) for v in renamed.var_ids],
            list(a.factors) + list(renamed.factors),
            {**a.node_potentials, **renamed.node_potentials},
        )
        assert exact_partition(both) == pytest.approx(
            exact_partition(a) * exact_partition(renamed), rel=1e-12
        )

    def test_scaling_one_table_scales_z(self):
        rng = np.random.default_rng(6)
        m = random_model(rng)
        z = exact_partition(m)
        # power-of-two scaling is exact in floating point
        scaled = FactorGraph(
            [(v, m.card(v)) for v in m.var_ids],
            [
                (f.id, f.scope, f.table.values * (4.0 if f.id == "f0" else 1.0))
                for f in m.factors
            ],
            m.node_potentials,
        )
        assert exact_partition(scaled) == 4.0 * z
        scaled2 = FactorGraph(
            [(v, m.card(v)) for v in m.var_ids],
            [
                (f.id, f.scope, f.table.values * (1.7 if f.id == "f0" else 1.0))
                for f in m.factors
            ],
            m.node_potentials,
        )
        assert exact_partition(scaled2) == pytest.approx(1.7 * z, rel=1e-13)


class TestExactMarginals:
    def test_single_variable(self):
        m = FactorGraph([("x", 2)], [], {"x": [1.0, 3.0]})
        tau = exact_marginals(m)
        assert np.allclose(tau.node["x"], [0.25, 0.75])

    def test_uniform_model_uniform_marginals(self):
        m = FactorGraph([("x", 3), ("y", 2)], [("f", ("x", "y"), np.ones(6))])
        tau = exact_marginals(m)
        assert np.allclose(tau.node["x"], 1 / 3)
        assert np.allclose(tau.node["y"], 1 / 2)
        assert np.allclose(tau.factor["f"], 1 / 6)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, n_vars=3)
        z = brute_force_partition(m)
        tau = exact_marginals(m)
        ids = m.var_ids
        for v in ids:
            expected = np.zeros(m.card(v))
            for states in itertools.product(*(range(m.card(u)) for u in ids)):
                x = dict(zip(ids, states))
                expected[x[v]] += evaluate(m, x)
            assert np.allclose(tau.node[v], expected / z, atol=1e-12)

    def test_in_polytope(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = random_model(rng)
            tau = exact_marginals(m)
            assert tau.polytope_violation(m) <= 1e-12

    @pytest.mark.parametrize(
        "node, factor",
        [([True, False], [1.0, 0.0]), (["1", "0"], [1.0, 0.0]), ([1.0, 0.0], [[True], [False]])],
    )
    def test_polytope_violation_reads_reals(self, node, factor):
        # read as numbers, each of these is a point of the polytope
        m = FactorGraph([("x", 2)], [("f", ("x",), [1.0, 1.0])])
        tau = models.PseudoMarginals(node={"x": node}, factor={"f": np.array(factor).ravel()})
        with pytest.raises(ModelError, match="belief of '[xf]'"):
            tau.polytope_violation(m)

    def test_unnormalizable(self):
        m = FactorGraph([("x", 2)], [("f", ("x",), [0.0, 0.0])])
        with pytest.raises(UnnormalizableError):
            exact_marginals(m)

    def test_refused_above_dense_limit(self, monkeypatch):
        monkeypatch.setattr(models, "_DENSE_BLOCK", 5)
        m = FactorGraph([("x", 2), ("y", 3)])
        for fn in (dense_joint, exact_marginals):
            with pytest.raises(EnumerationCapError, match="dense limit 5"):
                fn(m)
        assert exact_partition(m) == 6.0


class TestSizesTooLongToPrint:
    # 2^15000 has 4516 decimal digits, beyond what str() of an int allows
    BIG = FactorGraph([(i, 2) for i in range(15000)])

    def test_repr(self):
        assert repr(self.BIG) == "FactorGraph(15000 variables, 0 factors, joint size at least 2^15000)"
        assert repr(FactorGraph([(i, 3) for i in range(10)])).endswith("joint size 59049)")

    @pytest.mark.parametrize(
        "fn, limit", [(exact_partition, "enumeration cap"), (dense_joint, "dense limit")]
    )
    def test_refusal(self, fn, limit):
        with pytest.raises(EnumerationCapError, match=f"at least 2\\^15000 states exceeds the {limit}"):
            fn(self.BIG)


def test_potential_table_roundtrip():
    t = PotentialTable((2, 3), np.arange(6, dtype=float))
    assert t.as_ndarray()[1, 2] == 5.0


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def split_stream(rng, x):
    """``x`` as a stream of 1 to 8 blocks of random sizes."""
    cuts = np.sort(rng.integers(0, x.size + 1, size=int(rng.integers(0, 8))))
    return iter(np.split(x, cuts))


class TestCorrectlyRoundedSum:
    """``fsum_blocks`` must equal ``math.fsum`` over the same entries, bit
    for bit, on the small path and through the exponent buckets."""

    @pytest.mark.parametrize("size", [1, 40, 511, 512, 3000, 40000])
    def test_random_arrays_equal_fsum(self, size):
        rng = np.random.default_rng(size)
        for trial in range(60):
            scale = np.exp2(rng.integers(-1074, 1000, size).astype(float))
            x = rng.standard_normal(size) * scale  # normals, subnormals, zeros
            if trial % 3 == 0:
                x = np.abs(x)
            x[rng.random(size) < 0.05] = 0.0
            x[rng.random(size) < 0.05] = -0.0
            assert same_float(fsum_blocks(split_stream(rng, x)), math.fsum(x.tolist()))

    @pytest.mark.parametrize(
        "entries",
        [
            [1.0, 1e100, 1.0, -1e100],
            [1.0, 2.0**-53],
            [1.0 + 2.0**-52, 2.0**-53],
            [1.0, 2.0**-53, 2.0**-106],
            [5e-324, -5e-324, 0.0, -0.0],
            [1e300, -1e300, 2.0**-1074],
        ],
    )
    def test_cancellation_and_halfway_cases(self, entries):
        rng = np.random.default_rng(len(entries))
        for copies in (1, 300):  # small path, then the buckets
            x = np.tile(entries, copies)
            assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))
            assert same_float(fsum_blocks(split_stream(rng, x)), math.fsum(x.tolist()))

    def test_stream_of_many_blocks(self):
        rng = np.random.default_rng(3)
        blocks = [np.exp(rng.normal(0.0, 40.0, int(n))) for n in rng.integers(0, 700, 400)]
        expected = math.fsum(np.concatenate(blocks).tolist())
        assert same_float(fsum_blocks(iter(blocks)), expected)
        assert fsum_blocks([]) == 0.0 and fsum_blocks([np.empty(0)]) == 0.0

    def test_reused_buffer_after_small_first_block(self):
        # a producer may overwrite one buffer per block, as _joint_slabs does
        def stream():
            buf = np.empty(5)
            for k in range(4):
                buf[:] = np.arange(5) * 10.0**k + 0.1
                yield buf

        expected = math.fsum(np.concatenate([np.arange(5) * 10.0**k + 0.1 for k in range(4)]))
        assert fsum_blocks(stream()) == expected

    @pytest.fixture
    def bucketed(self, monkeypatch):
        """The size of each array ``fsum_blocks`` hands to its buckets."""
        sizes = []
        bucket_sums = models._bucket_sums

        def recorded(x):
            sizes.append(x.size)
            return bucket_sums(x)

        monkeypatch.setattr(models, "_bucket_sums", recorded)
        return sizes

    def test_lone_small_array_skips_the_buckets(self, bucketed):
        # a whole stream under _SMALL_SUM entries goes to math.fsum as it is
        x = np.random.default_rng(10).standard_normal(models._SMALL_SUM - 1)
        x[::7] *= 2.0**-1060
        assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))
        assert bucketed == []

    def test_narrow_positive_block_equals_fsum(self):
        # positive entries within 2^20 of each other
        x = np.random.default_rng(5).uniform(1.0, 2.0**20, 4096)
        assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))

    @pytest.mark.parametrize(
        "low, sign", [(2.0**-60, 1.0), (2.0**-80, 1.0), (1.0, -1.0), (0.0, 1.0), (0.0, -1.0)]
    )
    def test_wide_or_signed_block_equals_fsum(self, low, sign):
        # one entry in 64 scaled by 2^-60, 2^-80 or 0, or every entry negative
        x = np.random.default_rng(6).uniform(1.0, 2.0, 4096)
        x[::64] *= low
        x *= sign
        assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))

    def test_one_tiny_entry_equals_fsum(self):
        # the smallest entry 2^-66 times the rest, then one ulp below
        x = np.random.default_rng(9).uniform(1.0, 1.5, 4096)
        for smallest in (2.0**-66, np.nextafter(2.0**-66, 0.0)):
            x[7] = smallest
            assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))

    @pytest.mark.parametrize("size", [4095, 40000, 65535])
    def test_entries_near_the_top(self, size):
        # every entry in [0.5, 1): one bucket takes each whole piece
        rng = np.random.default_rng(size)
        for _ in range(20):
            x = rng.uniform(0.5, 1.0, size)
            assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))

    @pytest.mark.parametrize("scale", [2.0**899, 2.0**1000, 2.0**-899, 2.0**-901, 2.0**-1060])
    def test_range_guard(self, scale):
        # blocks near 2^+-900, beyond them, and subnormal
        x = np.random.default_rng(7).uniform(1.0, 1.9, 2048) * scale
        assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))

    @pytest.mark.parametrize("size", [1 << 14, 1 << 16, 3 << 15])
    @pytest.mark.parametrize("exact_zero", [False, True])
    def test_cancellation_in_large_blocks(self, size, exact_zero):
        # each entry beside its negation, or its negation one ulp larger,
        # and a few stragglers 2^-80 below the rest; the blocks span
        # several pieces
        rng = np.random.default_rng(size)
        half = rng.standard_normal(size // 2) * np.exp2(rng.integers(-40, 40, size // 2))
        x = np.concatenate([half, -half if exact_zero else -half * (1.0 + 2.0**-52)])
        if not exact_zero:
            x[rng.integers(0, size, 10)] = rng.standard_normal(10) * 2.0**-80
        rng.shuffle(x)
        assert same_float(fsum_blocks([x]), math.fsum(x.tolist()))
        assert same_float(fsum_blocks(split_stream(rng, x)), math.fsum(x.tolist()))

    def test_memory_bounded_over_many_blocks(self):
        # the held bucket sums of 4000 blocks pass through the buckets as
        # they come, not kept
        base = np.exp(np.random.default_rng(8).normal(0.0, 1.0, models._SMALL_SUM))

        def stream(count):
            buf = np.empty(base.size)
            for k in range(count):
                np.multiply(base, k + 1.0, out=buf)
                yield buf

        peaks = []
        for count in (400, 4000):
            tracemalloc.start()
            try:
                total = fsum_blocks(stream(count))
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            expected = math.fsum(itertools.chain.from_iterable(b.tolist() for b in stream(count)))
            assert same_float(total, expected)
        assert peaks[1] < peaks[0] + 16 * 1024

    def test_pending_sums_replaced_by_their_bucket_sums(self, monkeypatch):
        # with the held floats passed through the buckets at every block
        # (alone) and piece (with it), small blocks and pieces of every
        # kind still sum to the same value
        monkeypatch.setattr(models, "_PENDING_SUMS", 1)
        rng = np.random.default_rng(4)
        n = models._SUM_CHUNK
        wide = np.exp(rng.normal(0.0, 3.0, n)) * np.exp2(rng.integers(-60, 60, n))
        blocks = [
            rng.uniform(1.0, 2.0, 300),
            np.where(rng.random(n) < 0.001, 0.0, rng.uniform(1.0, 2.0, n)),  # zeros
            -rng.uniform(1.0, 2.0, 40),
            rng.standard_normal(n + 5),  # negative entries, two pieces
            wide,
            rng.uniform(1.0, 2.0, 1000) * 2.0**1000,  # huge
            np.array([2.0**-53, -1.0, 2.0**-1074]),
            rng.uniform(1.0, 2.0, 2000) * 2.0**-1060,  # subnormal
            rng.uniform(1.0, 2.0, n),  # narrow and positive
        ]
        expected = math.fsum(np.concatenate(blocks).tolist())
        assert same_float(fsum_blocks(iter(blocks)), expected)
        assert same_float(fsum_blocks(split_stream(rng, np.concatenate(blocks))), expected)


def one_shot_dense_joint(model):
    """The joint tensor built in one array, its terms multiplied in the
    canonical order: by the lowest axis a term touches, highest first, a
    term without axes first of all, ties in model order (node potentials,
    then factors)."""
    axis = {v: k for k, v in enumerate(model.var_ids)}
    shape = tuple(model.card(v) for v in model.var_ids)
    n = len(shape)
    terms = []
    for v, pot in model.node_potentials.items():
        vec_shape = [1] * n
        vec_shape[axis[v]] = model.card(v)
        terms.append((axis[v], pot.reshape(vec_shape)))
    for fac in model.factors:
        positions = [axis[v] for v in fac.scope]
        arr = fac.table.as_ndarray().transpose(np.argsort(positions))
        new_shape = [1] * n
        for p in sorted(positions):
            new_shape[p] = shape[p]
        terms.append((min(positions, default=n), arr.reshape(new_shape)))
    w = np.ones(shape)
    for _low, t in sorted(terms, key=lambda term: -term[0]):
        np.multiply(w, t, out=w)
    return w


def dense_sum(model):
    """The dense engine's Z: the correctly rounded sum of ``_joint_slabs``."""
    return fsum_blocks(slab for _offset, slab in models._joint_slabs(model))


def slab_models():
    rng = np.random.default_rng(8)
    cards = [3, 1, 2, 4, 2, 3]
    variables = list(enumerate(cards))
    factors = [
        ("c", (), [2.5]),
        ("a", (3, 0), rng.uniform(0.1, 2.0, 12)),
        ("b", (5, 2, 1), rng.uniform(0.1, 2.0, 6)),
        ("z", (4, 3), [0.0, 1.5, 0.0, 2.0, 1.0, 0.0, 3.0, 0.5]),
        ("d", (1,), [0.7]),
    ]
    reverse_pots = {v: rng.uniform(0.1, 2.0, c) for v, c in reversed(variables)}
    return {
        "reverse potentials, constant, card 1, zeros": FactorGraph(
            variables, factors, reverse_pots
        ),
        "no variables": FactorGraph([], [("c", (), [3.0]), ("k", (), [0.25])]),
        "no factors": FactorGraph([("x", 5)], [], {"x": [1.0, 0.0, 2.0, 0.5, 3.0]}),
        "all card 1": FactorGraph([(0, 1), (1, 1)], [("f", (1, 0), [4.0])], {0: [0.5]}),
        # axis 1 carries no term (the lowest axis of its factors is 0), and
        # axis 2 has one state and carries a potential and a factor
        "termless axis, card 1": FactorGraph(
            list(enumerate([2, 3, 1, 2, 3, 2])),
            [
                ("a", (1, 0), rng.uniform(0.1, 2.0, 6)),
                ("b", (4, 2), rng.uniform(0.1, 2.0, 3)),
                ("c", (5, 3), rng.uniform(0.1, 2.0, 4)),
                ("d", (0, 4, 1), rng.uniform(0.1, 2.0, 18)),
            ],
            {5: rng.uniform(0.1, 2.0, 2), 2: [0.6], 0: rng.uniform(0.1, 2.0, 2), 3: [1.5, 0.0]},
        ),
        # terms on the leading axes whose slices vary along the last block
        # axis, or along a middle one, with block axes between
        "edge to the last axis": FactorGraph(
            list(enumerate([3, 2, 3, 2, 3])),
            [
                ("a", (4, 0), rng.uniform(0.1, 2.0, 9)),
                ("b", (1, 4, 2), rng.uniform(0.1, 2.0, 18)),
                ("c", (3, 2), rng.uniform(0.1, 2.0, 6)),
            ],
            {0: rng.uniform(0.1, 2.0, 3), 4: rng.uniform(0.1, 2.0, 3)},
        ),
        "edge to a middle axis": FactorGraph(
            list(enumerate([2, 3, 2, 3, 2, 3])),
            [
                ("a", (0, 3), rng.uniform(0.1, 2.0, 6)),
                ("b", (2, 1), rng.uniform(0.1, 2.0, 6)),
                ("c", (5, 4), rng.uniform(0.1, 2.0, 6)),
            ],
            {1: rng.uniform(0.1, 2.0, 3)},
        ),
    }


def field_potts_graph(seed, n):
    """The q = 3 uniform-field Potts model of
    ``test_correctly_rounded_above_dense_block`` on n vertices: a node
    potential on every axis and n random edges."""
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    pick = rng.choice(len(pairs), size=n, replace=False)
    edges = [pairs[int(i)] for i in sorted(pick)]
    potts = PottsModel(n, edges, 3, rng.uniform(0.05, 1.0, n), field=rng.uniform(-1.0, 1.0, 3))
    return potts_to_factor_graph(potts)


class TestJointSlabs:
    """``dense_joint`` and the dense sum read the joint in slabs; each
    entry must be the product formed by the one-shot tensor."""

    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 4, 5, 6, 7, 16])
    @pytest.mark.parametrize("name", list(slab_models()))
    def test_equals_one_shot_joint(self, monkeypatch, bits, name):
        # slabs of 2^bits entries slice several leading axes, and from 2^4
        # on the block has several axes
        monkeypatch.setattr(models, "_MASK_BLOCK_BITS", bits)
        model = slab_models()[name]
        expected = one_shot_dense_joint(model)
        w = dense_joint(model)
        assert w.shape == expected.shape and np.array_equal(w, expected)
        assert dense_sum(model) == math.fsum(expected.ravel().tolist())

    @pytest.mark.parametrize("small_sum", [1, 4, 256])
    @pytest.mark.parametrize("bits", [4, 5, 6, 7])
    @pytest.mark.parametrize("name", list(slab_models()))
    def test_filled_tails_equal_one_shot_joint(self, monkeypatch, bits, name, small_sum):
        # the slab stream through either path of fsum_blocks: at a
        # _SMALL_SUM of 1 every slab goes to the buckets, at 4 every slab
        # of 4+ entries, and at 256 none (no slab here exceeds 2^7)
        monkeypatch.setattr(models, "_SMALL_SUM", small_sum)
        self.test_equals_one_shot_joint(monkeypatch, bits, name)

    def test_memory_bounded_by_slab(self):
        # 2^22 states: the one-shot joint alone would take 32 MiB
        rng = np.random.default_rng(9)
        n = 22
        factors = [(f"e{i}", (i, i + 1), rng.uniform(0.5, 1.5, 4)) for i in range(n - 1)]
        pots = {i: rng.uniform(0.5, 1.5, 2) for i in range(n)}
        model = FactorGraph([(i, 2) for i in range(n)], factors, pots)
        tracemalloc.start()
        try:
            z = dense_sum(model)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
        expected = math.fsum(one_shot_dense_joint(model).ravel().tolist())
        assert z == expected

    def test_memory_bounded_with_wide_leading_terms(self):
        # 2^22 states, 6 leading axes: factors on axes 0-13 (constant along
        # axes 14-21 of the block) and on axes 0-13 and 21 (varying along
        # part of it), as the incidence graph of a GF(2) matrix has them.
        # Filled out over the joint, either would take 2^22 entries: 32 MiB
        rng = np.random.default_rng(10)
        n = 22
        factors = [(f"e{i}", (i, i + 1), rng.uniform(0.5, 1.5, 4)) for i in range(n - 1)]
        factors.append(("wide", tuple(range(14)), rng.uniform(0.5, 1.5, 1 << 14)))
        factors.append(("wide, tail", tuple(range(14)) + (21,), rng.uniform(0.5, 1.5, 1 << 15)))
        model = FactorGraph([(i, 2) for i in range(n)], factors)
        tracemalloc.start()
        try:
            dense_sum(model)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_memory_bounded_with_a_term_on_every_leading_axis(self):
        # 3^14 states with a node potential on every axis: every leading
        # axis carries a term
        model = field_potts_graph(6, 14)
        tracemalloc.start()
        try:
            dense_sum(model)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("enumerate_", [dense_sum, dense_joint])
    def test_buffers_released_on_return(self, enumerate_):
        # with the collector off, a reference cycle would keep the slab
        # buffers alive after the call
        model = field_potts_graph(11, 11)
        assert len(list(models._joint_slabs(model))) > 1
        enumerate_(model)
        gc.disable()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            enumerate_(model)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak - before > 256 * 1024  # the buffers were traced
        assert abs(after - before) < 64 * 1024

    @pytest.mark.parametrize("seed", [6, 11])
    def test_correctly_rounded_above_dense_block(self, seed):
        # 3^14 states, above the 2^22 of dense_joint: Z is still the one
        # correctly rounded sum of the canonical joint.  Rounding the sum
        # of each part conditioned on variable 0, then the sum of the
        # parts, was an ulp off on both models.
        rng = np.random.default_rng(seed)
        pairs = list(itertools.combinations(range(14), 2))
        pick = rng.choice(len(pairs), size=14, replace=False)
        edges = [pairs[int(i)] for i in sorted(pick)]
        potts = PottsModel(
            14, edges, 3, rng.uniform(0.05, 1.0, 14), field=rng.uniform(-1.0, 1.0, 3)
        )
        model = potts_to_factor_graph(potts)
        assert model.joint_size > models._DENSE_BLOCK
        expected = fsum_blocks([one_shot_dense_joint(model)])
        assert dense_sum(model) == expected


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the relative error
    of k roundings of nonnegative products and sums."""
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def elimination_bound(model):
    """How far the eliminated Z may lie from the dense sum, relative to the
    dense sum: gamma_K for elimination, K = T + sum(card - 1) over the
    variables, and gamma_T for the dense sum (T - 1 products per weight and
    one rounding of the sum), T the number of node potentials and factors."""
    t = len(model.factors) + len(model.node_potentials)
    k = t + sum(model.card(v) - 1 for v in model.var_ids)
    return (gamma(k) + gamma(t)) / (1 - gamma(t))


def banded_model(seed):
    """A random model of 2^16 + 1 to 2^22 states, narrow enough to
    eliminate: cards 1-4, factors of arity 0-4 on five neighbouring
    variables of one of two halves that no factor joins (two disconnected
    parts), node potentials on about half the variables, about one entry
    in ten of a table of 4+ entries a hard zero, and one variable that no
    term touches."""
    rng = np.random.default_rng(seed)
    target = 2.0 ** rng.uniform(16, 21)
    cards = []
    while math.prod(cards) <= target:
        card = int(rng.choice([1, 2, 3, 4], p=[0.15, 0.35, 0.3, 0.2]))
        cards.append(min(card, (1 << 22) // math.prod(cards)))
    n = len(cards)
    free = int(rng.choice([v for v in range(n) if cards[v] > 1]))
    half = n // 2

    def table(size):
        values = rng.uniform(0.0, 2.0, size)
        if size >= 4:
            values[rng.random(size) < 0.1] = 0.0
        return values

    factors = []
    for k in range(2 * n):
        start = int(rng.integers(n))
        end = min(start + 5, half if start < half else n)
        window = [v for v in range(start, end) if v != free]
        arity = min(int(rng.integers(5)), len(window))
        scope = tuple(int(v) for v in rng.permutation(window)[:arity])
        factors.append((f"f{k}", scope, table(math.prod(cards[v] for v in scope))))
    pots = {v: table(cards[v]) for v in range(n) if v != free and rng.random() < 0.5}
    return FactorGraph(list(enumerate(cards)), factors, pots)


class TestElimination:
    """Above one block (2^_MASK_BLOCK_BITS states) ``exact_partition``
    eliminates a joint whose min-degree order keeps every bucket within one
    block; Z is then within the stated bound of the dense sum."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("seed", range(16))
    def test_within_bound_of_dense_sum(self, seed):
        model = banded_model(seed)
        assert 1 << 16 < model.joint_size <= 1 << 22
        z = exact_partition(model)
        assert z == models._eliminated_sum(model) == exact_partition(model)
        dense = dense_sum(model)
        assert abs(z - dense) <= elimination_bound(model) * dense

    def test_factor_free_model(self):
        rng = np.random.default_rng(3)
        cards = [1, 3, 2, 4, 2, 3, 1, 4, 2, 3, 2, 4, 3, 2]
        pots = {v: rng.uniform(0.1, 2.0, c) for v, c in enumerate(cards) if v % 3}
        model = FactorGraph(list(enumerate(cards)), [], pots)
        assert model.joint_size > 1 << 16
        z = exact_partition(model)
        assert z == models._eliminated_sum(model)
        dense = dense_sum(model)
        assert abs(z - dense) <= elimination_bound(model) * dense
        product = math.prod(pots[v].sum() if v in pots else c for v, c in enumerate(cards))
        assert z == pytest.approx(product, rel=1e-14)

    def test_zero_z(self):
        n = 18
        chain = [(f"e{i}", (i, i + 1), [1.0, 0.5, 0.5, 1.0]) for i in range(n - 1)]
        variables = [(i, 2) for i in range(n)]
        # a zero table, and two tables whose supports miss each other, so
        # that only their bucket's result is zero
        zero = FactorGraph(variables, chain + [("z", (3,), [0.0, 0.0])])
        apart = FactorGraph(
            variables,
            chain + [("a", (5, 9), [1.0, 0.0, 0.0, 1.0]), ("b", (9, 5), [0.0, 2.0, 3.0, 0.0])],
        )
        for model in (zero, apart):
            assert dense_sum(model) == 0.0
            assert models._eliminated_sum(model) == 0.0 == exact_partition(model)

    def test_z_beyond_float_range(self):
        # 2^20 weights of 1e300: Z is 1.05e306; at 1e16 per variable it
        # overflows, though every scaled table stays below 1
        variables = [(i, 2) for i in range(20)]
        for scale, fits in ((10.0**15, True), (10.0**16, False)):
            model = FactorGraph(variables, [], {i: [scale, scale] for i in range(20)})
            if fits:
                z = exact_partition(model)
                assert z == pytest.approx(2.0**20 * 1e300, rel=1e-13)
                assert abs(z - dense_sum(model)) <= elimination_bound(model) * z
            else:
                with pytest.raises(NumericRangeError, match="out of float range"):
                    exact_partition(model)

    def test_bucket_of_more_tables_than_einsum_operands(self):
        # 17 binary variables, 70 tables [1, 1.5] in variable 0's bucket
        # (numpy's einsum takes at most 63 operands)
        variables = [(i, 2) for i in range(17)]
        model = FactorGraph(variables, [(f"u{k}", (0,), [1.0, 1.5]) for k in range(70)])
        z = exact_partition(model)
        assert z == models._eliminated_sum(model)
        # within gamma_K of the exact Z, K = 70 tables + 17 variables' card - 1
        exact = 2**16 * (1 + fractions.Fraction(3, 2) ** 70)
        assert abs(fractions.Fraction(z) - exact) <= fractions.Fraction(gamma(70 + 17)) * exact

    def test_more_variables_than_einsum_labels(self):
        # 60 variables, 40 of them card 1, in factors of 6 variables: only
        # the 20 binary ones take labels
        rng = np.random.default_rng(4)
        cards = [2 if v % 7 in (0, 3) or v >= 56 else 1 for v in range(60)]
        assert cards.count(2) == 20
        factors = []
        for k in range(55):
            scope = tuple(range(k, k + 6))
            size = math.prod(cards[v] for v in scope)
            factors.append((f"f{k}", scope, rng.uniform(0.1, 2.0, size)))
        model = FactorGraph(list(enumerate(cards)), factors, {v: [0.5, 2.0] for v in range(56, 60)})
        z = exact_partition(model)
        assert z == models._eliminated_sum(model)
        dense = dense_sum(model)
        assert abs(z - dense) <= elimination_bound(model) * dense

    def test_wide_joint_takes_the_walk(self):
        # a bucket of 2^17 states exceeds one block: the dense sum, exactly
        rng = np.random.default_rng(5)
        n = 17
        variables = [(i, 2) for i in range(n)]
        pairs = itertools.combinations(range(n), 2)
        complete = FactorGraph(
            variables, [(f"e{i}-{j}", (i, j), rng.uniform(0.5, 1.5, 4)) for i, j in pairs]
        )
        one_table = FactorGraph(
            variables, [("f", tuple(range(n)), rng.uniform(0.5, 1.5, 1 << n))]
        )
        for model in (complete, one_table):
            assert models._eliminated_sum(model) is None
            z = exact_partition(model)
            assert z == dense_sum(model)
            expected = fsum_blocks([one_shot_dense_joint(model)])
            assert z == expected

    @pytest.mark.parametrize("name", ["potts 3^14", "chain 2^22"])
    def test_memory_bounded_and_released(self, name):
        # with the collector off, a reference cycle would keep the tables
        # alive after the call
        if name == "potts 3^14":
            model = field_potts_graph(6, 14)
        else:
            rng = np.random.default_rng(9)
            factors = [(f"e{i}", (i, i + 1), rng.uniform(0.5, 1.5, 4)) for i in range(21)]
            pots = {i: rng.uniform(0.5, 1.5, 2) for i in range(22)}
            model = FactorGraph([(i, 2) for i in range(22)], factors, pots)
        assert models._eliminated_sum(model) is not None
        exact_partition(model)
        gc.disable()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            exact_partition(model)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak - before < 2 * 1024 * 1024
        assert peak > before  # the tables were traced
        assert abs(after - before) < 4 * 1024


class TestNonFiniteRefused:
    """A weight or a sum beyond the float range raises NumericRangeError,
    never returns inf or NaN, and warns nothing."""

    def _models(self):
        two = [(0, 2), (1, 2)]
        return [
            FactorGraph(two, [("f", (0, 1), [1e200] * 4), ("g", (0, 1), [1e200] * 4)]),
            FactorGraph(two, [("f", (0, 1), [1e308] * 4)]),
            FactorGraph(  # inf * 0 is NaN
                two,
                [
                    ("f", (0, 1), [1e200] * 4),
                    ("g", (0, 1), [1e200] * 4),
                    ("h", (0, 1), [0.0, 1.0, 1.0, 1.0]),
                ],
            ),
        ]

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_exact_partition_and_marginals(self):
        for model in self._models():
            with pytest.raises(NumericRangeError):
                exact_partition(model)
            with pytest.raises(NumericRangeError):
                exact_marginals(model)

    def test_overflow_across_slabs(self, monkeypatch):
        # slabs as small as the last axis: every weight is finite, their
        # sum is not
        monkeypatch.setattr(models, "_MASK_BLOCK_BITS", 0)
        model = FactorGraph([(0, 2), (1, 2), (2, 2)], [("f", (0, 1), [1e308] * 4)])
        assert len(list(models._joint_slabs(model))) == 4
        with pytest.raises(NumericRangeError):
            exact_partition(model)

    @pytest.mark.parametrize("copies", [1, 600])
    def test_sum_of_finite_entries(self, copies):
        for entries in ([1e308, 1e308], [1.0, math.inf], [1.0, math.nan], [math.inf, -math.inf]):
            with pytest.raises(NumericRangeError):
                fsum_blocks([np.tile(entries, copies)])


class TestOneEngine:
    """Every family spin sum builds its factor graph and enumerates it with
    one ``exact_partition`` call; a second engine would skip the counter."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"exact_partition": 0, "incidence_factor_graph": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (models, potts, homs, matroid):
            counted(module, "exact_partition")
        counted(matroid, "incidence_factor_graph")
        return counts

    def test_each_family_sum_enumerates_once(self, calls):
        potts.potts_partition(PottsModel(3, [(0, 1), (1, 2)], 3, [0.5, 1.0]))
        assert calls["exact_partition"] == 1
        model = homs.HomModel(3, [(0, 1), (1, 2)], [1.0, 2.0], [1.0, 0.5], [0.5, 1.0])
        homs.hom_partition(model)
        assert calls["exact_partition"] == 2
        matrix = matroid.GFMatrix(matroid.gf(3), [[1, 2, 0], [0, 1, 1]])
        matroid.matroid_potts_partition(matrix, [0.5, 1.0, 1.5])
        assert calls["exact_partition"] == 3

    def test_weight_enumerator_builds_and_sums_once(self, calls):
        matrix = matroid.GFMatrix(matroid.gf(2), [[1, 1, 0], [0, 1, 1]])
        matroid.weight_enumerator(matrix, 0.5, restarts=2)
        assert calls == {"exact_partition": 1, "incidence_factor_graph": 1}
