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
        # 23 binary variables exceed the dense-tensor block, forcing the
        # conditioning recursion; the product structure gives Z exactly.
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

    def test_flush_path(self, monkeypatch):
        # buckets flushed every 7 entries still sum to the same value
        monkeypatch.setattr(models, "_BUCKET_EXACT", 7)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(5000) * np.exp2(rng.integers(-60, 60, 5000).astype(float))
        x[::11] = 2.0**-53
        assert same_float(fsum_blocks(split_stream(rng, x)), math.fsum(x.tolist()))


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

    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 16])
    @pytest.mark.parametrize("name", list(slab_models()))
    def test_equals_one_shot_joint(self, monkeypatch, bits, name):
        # slabs of 2^bits entries slice several leading axes
        monkeypatch.setattr(models, "_MASK_BLOCK_BITS", bits)
        model = slab_models()[name]
        expected = one_shot_dense_joint(model)
        w = dense_joint(model)
        assert w.shape == expected.shape and np.array_equal(w, expected)
        assert exact_partition(model) == math.fsum(expected.ravel().tolist())

    def test_memory_bounded_by_slab(self):
        # 2^22 states: the one-shot joint alone would take 32 MiB
        rng = np.random.default_rng(9)
        n = 22
        factors = [(f"e{i}", (i, i + 1), rng.uniform(0.5, 1.5, 4)) for i in range(n - 1)]
        pots = {i: rng.uniform(0.5, 1.5, 2) for i in range(n)}
        model = FactorGraph([(i, 2) for i in range(n)], factors, pots)
        tracemalloc.start()
        try:
            z = exact_partition(model)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
        assert z == math.fsum(one_shot_dense_joint(model).ravel().tolist())

    def test_memory_bounded_with_a_term_on_every_leading_axis(self):
        # 3^14 states with a node potential on every axis: the block and
        # one partial product per leading axis share the slab budget
        model = field_potts_graph(6, 14)
        tracemalloc.start()
        try:
            exact_partition(model)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("enumerate_", [exact_partition, dense_joint])
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
        assert exact_partition(model) == fsum_blocks([one_shot_dense_joint(model)])


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
