"""The subset-sum tables against their single-mask references.

``rc_partition``, ``edge_partition``, ``edge_weight_table`` and
``matroid_rc_partition`` build their weights one block of masks at a time;
each weight must equal the single-mask function bit for bit, so the sums
are compared with ``==``.  Every check runs at the default block size and
at blocks of 2^2, 2^1 and 2^0 masks, where models with more edges than
block bits span several blocks; at one mask per block the union-find of
each block's first mask does all of the work.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from test_matroid import _ref_rank

from zbounds import models
from zbounds.errors import EnumerationCapError, ModelError, NumericRangeError
from zbounds.homs import (
    HomModel,
    edge_partition,
    edge_weight,
    edge_weight_table,
    hom_partition,
    hom_to_factor_graph,
)
from zbounds.matroid import GFMatrix, _codewords, gf, matroid_rc_partition, ranks
from zbounds.potts import (
    PottsModel,
    component_counts,
    count_components,
    rc_partition,
    rc_weight,
)


@pytest.fixture(
    params=[models._MASK_BLOCK_BITS, 2, 1, 0],
    ids=["default-block", "block-4", "block-2", "block-1"],
)
def block_bits(request, monkeypatch):
    monkeypatch.setattr(models, "_MASK_BLOCK_BITS", request.param)
    return request.param


def random_edges(rng, n, m):
    pairs = list(itertools.combinations(range(n), 2))
    pick = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    return [pairs[int(i)] for i in sorted(pick)]


def mixed_edges(rng, n, m):
    """``random_edges`` in shuffled order, each edge's ends swapped at random."""
    edges = [e if rng.random() < 0.5 else e[::-1] for e in random_edges(rng, n, m)]
    return [edges[int(i)] for i in rng.permutation(len(edges))]


def rc_reference(model):
    return math.fsum(rc_weight(model, mask) for mask in range(1 << len(model.edges)))


def edge_reference(model):
    return np.array([edge_weight(model, mask) for mask in range(1 << len(model.edges))])


def matroid_rc_reference(matrix, p):
    """The per-mask loop: q^(-rank) times each chosen weight, in column order."""
    q = float(matrix.field.q)
    parts = []
    for mask in range(1 << matrix.n_cols):
        w = q ** (-_ref_rank(matrix, mask))
        for c in range(matrix.n_cols):
            if (mask >> c) & 1:
                w *= p[c]
        parts.append(w)
    return math.fsum(parts)


def radix_codewords(matrix):
    """sigma @ S over the field with sigma's digits, most significant
    first, spelling the row index."""
    f, k, n = matrix.field, matrix.n_rows, matrix.n_cols
    sigma = np.array(list(itertools.product(range(f.q), repeat=k)), dtype=np.int64)
    words = np.zeros((len(sigma), n), dtype=np.int64)
    for i in range(k):
        prod = f.mul_table[sigma[:, i][:, None], matrix.entries[i][None, :]]
        words = f.add_table[words, prod]
    return words


# Edges in both orientations on 8 vertices, 3 and 7 isolated.  Edge 3
# joins the components {0, 2} and {4, 5} of edges 0 and 1, and edge 4
# joins {1, 6} of edge 2 to them.  At blocks of 2^2 masks edges 2 to 5
# are high edges, merged before the low edges 0 and 1 join them.
JOINED = [(2, 0), (5, 4), (1, 6), (4, 2), (6, 0), (5, 1)]
JOINED_COUPLINGS = [0.3, 1.2, 0.5, 0.9, 0.1, 0.7]

POTTS_CASES = {
    "joined": PottsModel(8, JOINED, 3, JOINED_COUPLINGS),
    "joined-field": PottsModel(8, JOINED, 3, JOINED_COUPLINGS, field=[0.4, -1.1, 0.8]),
    "no-edges": PottsModel(4, [], 3, []),
    "no-vertices": PottsModel(0, [], 2, []),
    "isolated-vertices": PottsModel(6, [(0, 1), (1, 2), (0, 2)], 2, [0.3, 0.7, 1.1]),
    "q-1": PottsModel(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 1, [0.2, 0.4, 0.6, 0.8]),
    "real-q": PottsModel(4, [(0, 1), (1, 2), (2, 3)], 2.5, [0.2, 0.4, 0.6]),
    "zero-coupling": PottsModel(3, [(0, 1), (1, 2)], 3, [0.0, 0.9]),
}


class TestRcPartition:
    @pytest.mark.parametrize("name", sorted(POTTS_CASES))
    def test_edge_cases_equal_reference(self, block_bits, name):
        model = POTTS_CASES[name]
        assert rc_partition(model) == rc_reference(model)

    def test_random_models_equal_reference(self, block_bits):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(2, 8))
            edges = random_edges(rng, n, int(rng.integers(1, 10)))
            q = int(rng.integers(1, 5))
            model = PottsModel(n, edges, q, rng.uniform(0.0, 1.5, len(edges)))
            assert rc_partition(model) == rc_reference(model)

    def test_field_within_reordering(self, block_bits):
        # with a field both multiply the component factors in order of
        # their smallest vertex, so the weights match bit for bit
        rng = np.random.default_rng(12)
        for _ in range(12):
            n = int(rng.integers(1, 8))
            edges = random_edges(rng, n, int(rng.integers(0, 10)))
            q = int(rng.integers(1, 4))
            model = PottsModel(
                n, edges, q, rng.uniform(0.0, 1.5, len(edges)), field=rng.uniform(-1, 1, q)
            )
            ref = rc_reference(model)
            assert rc_partition(model) == ref

    @pytest.mark.parametrize("with_field", [False, True], ids=["no-field", "field"])
    def test_mixed_orientations_equal_reference(self, block_bits, with_field):
        # shuffled edges in both orientations, often with isolated vertices
        rng = np.random.default_rng(19)
        for _ in range(12):
            n = int(rng.integers(1, 10))
            edges = mixed_edges(rng, n, int(rng.integers(0, 10)))
            q = int(rng.integers(1, 4))
            field = rng.uniform(-1, 1, q) if with_field else None
            model = PottsModel(n, edges, q, rng.uniform(0.0, 1.5, len(edges)), field=field)
            assert rc_partition(model) == rc_reference(model)


HOM_CASES = {
    "joined": HomModel(8, JOINED, [0.6, 1.3], [0.9, 0.2], [0.4, 1.1]),
    "no-edges": HomModel(3, [], [1.0, 2.0], [0.5, 1.0], [1.0, 0.3]),
    "no-vertices": HomModel(0, [], [1.0], [1.0], [1.0]),
    "isolated-vertices": HomModel(5, [(0, 1), (1, 2)], [0.4, 1.2], [0.7, 1.1], [0.2, 0.9]),
    "zero-in-a": HomModel(4, [(0, 1), (1, 2), (2, 3), (0, 2)], [1.0, 0.5], [0.0, 1.3], [0.8, 0.6]),
    "zero-in-b": HomModel(4, [(0, 1), (1, 2), (2, 3), (1, 3)], [0.7, 0.5], [0.9, 1.3], [0.8, 0.0]),
    "one-state": HomModel(3, [(0, 1), (1, 2), (0, 2)], [1.5], [0.6], [0.4]),
}


class TestComponentCounts:
    @pytest.mark.parametrize("name", sorted(POTTS_CASES))
    def test_edge_cases_equal_count_components(self, name):
        model = POTTS_CASES[name]
        n, edges = model.n_vertices, model.edges
        masks = np.arange(1 << len(edges))
        want = [count_components(n, edges, int(mask)) for mask in masks]
        got = component_counts(n, edges, masks)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_random_masks_equal_count_components(self):
        # masks in any order, repeated, and with bits above the last edge
        rng = np.random.default_rng(13)
        for _ in range(12):
            n = int(rng.integers(1, 9))
            edges = random_edges(rng, n, int(rng.integers(0, 12)))
            masks = rng.integers(0, 1 << (len(edges) + 2), size=40)
            want = [count_components(n, edges, int(mask)) for mask in masks]
            assert component_counts(n, edges, masks).tolist() == want

    def test_empty_mask_array(self):
        got = component_counts(3, [(0, 1), (1, 2)], np.array([], dtype=np.int64))
        assert got.shape == (0,) and got.dtype == np.int64

    def test_negative_mask_refused(self):
        # a negative mask would select every edge
        with pytest.raises(ModelError, match="an edge mask must be >= 0, got -1"):
            component_counts(3, [(0, 1), (1, 2)], [-1, 3, 0])

    @pytest.mark.parametrize(
        "masks", [[2.5, 1.9], np.array([True]), ["3"]], ids=["fractions", "bools", "strings"]
    )
    def test_non_integer_masks_refused(self, masks):
        # the scalar rule: no fraction, no bool, no string
        with pytest.raises(ModelError, match="an edge mask must be an integer"):
            component_counts(3, [(0, 1), (1, 2)], masks)

    def test_integer_valued_floats_read_as_the_scalar_rule(self):
        # 2.0 reads as 2, and 2.0**70 as 2**70, whose bits are all above the edges
        edges = [(0, 1), (1, 2)]
        want = [count_components(3, edges, mask) for mask in (2.0, 3, 2.0**70)]
        assert want == [2, 1, 3]
        assert component_counts(3, edges, [2.0, 3, 2.0**70]).tolist() == want
        assert component_counts(3, edges, np.array([2.0, 3.0, 2.0**70])).tolist() == want


@pytest.mark.parametrize(
    "masks", [3, np.int64(3), np.array(3), np.array(3.0)], ids=["int", "np-int", "0-d", "0-d-float"]
)
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda masks: ranks(GFMatrix(gf(3), [[1, 1, 0], [0, 1, 1]]), masks), "a column mask"),
        (lambda masks: component_counts(3, [(0, 1), (1, 2)], masks), "an edge mask"),
    ],
    ids=["ranks", "component_counts"],
)
def test_scalar_masks_refused(call, what, masks):
    # the masks come as a sequence, even a single one; a generator is one
    with pytest.raises(ModelError, match=f"{what} array must be one-dimensional, got shape"):
        call(masks)
    assert call(x for x in [3, 1]).tolist() == call([3, 1]).tolist()


class TestEdgeSums:
    @pytest.mark.parametrize("name", sorted(HOM_CASES))
    def test_edge_cases_equal_reference(self, block_bits, name):
        model = HOM_CASES[name]
        ref = edge_reference(model)
        table = edge_weight_table(model)
        assert table.shape == ref.shape and np.array_equal(table, ref)
        assert edge_partition(model) == math.fsum(ref)

    def test_random_models_equal_reference(self, block_bits):
        rng = np.random.default_rng(13)
        for _ in range(12):
            n = int(rng.integers(2, 8))
            edges = random_edges(rng, n, int(rng.integers(1, 10)))
            s = int(rng.integers(1, 4))
            a, b = rng.uniform(0.0, 1.5, s), rng.uniform(0.0, 1.5, s)
            model = HomModel(n, edges, rng.uniform(0.1, 1.5, s), a, b)
            ref = edge_reference(model)
            assert np.array_equal(edge_weight_table(model), ref)
            assert edge_partition(model) == math.fsum(ref)

    def test_mixed_orientations_equal_reference(self, block_bits):
        rng = np.random.default_rng(20)
        for _ in range(12):
            n = int(rng.integers(1, 10))
            edges = mixed_edges(rng, n, int(rng.integers(0, 10)))
            s = int(rng.integers(1, 4))
            a, b = rng.uniform(0.0, 1.5, s), rng.uniform(0.0, 1.5, s)
            model = HomModel(n, edges, rng.uniform(0.1, 1.5, s), a, b)
            ref = edge_reference(model)
            assert np.array_equal(edge_weight_table(model), ref)
            assert edge_partition(model) == math.fsum(ref)


class TestRefusals:
    def test_overflowing_q_power(self):
        # q^k overflows at k >= 2, so every weight with 2 or 3 components
        model = PottsModel(3, [(0, 1), (1, 2)], 1e200, [0.5, 0.5])
        assert math.isfinite(rc_weight(model, 0b11))
        for call in (lambda: rc_weight(model, 0), lambda: rc_partition(model)):
            with pytest.raises(NumericRangeError, match="out of float range"):
                call()

    @pytest.mark.parametrize(
        "model, mask",
        [
            # each component's field weight, about e^300, is finite; four are not
            (PottsModel(4, [(0, 1)], 2, [0.5], field=[300.0, 0.0]), 0),
            # q^1 and p_0 p_1 are finite, their product is not
            (PottsModel(3, [(0, 1), (1, 2)], 1e300, [20.0, 20.0]), 0b11),
            # p_0 p_1, about e^800, overflows
            (PottsModel(3, [(0, 1), (1, 2)], 2, [400.0, 400.0]), 0b11),
        ],
        ids=["field-product", "q-times-p", "edge-product"],
    )
    def test_overflowing_rc_weight_refused_without_warnings(self, model, mask):
        for call in (lambda: rc_weight(model, mask), lambda: rc_partition(model)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericRangeError):
                    call()

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: component_counts(3, [(0, -1)], [1]), "outside vertex range"),
            (lambda: component_counts(2, [(0, 5)], [1]), "outside vertex range"),
            (lambda: count_components(2, [(0, 5)], 1), "outside vertex range"),
            (lambda: count_components(-1, [], 0), "negative vertex count"),
            (lambda: component_counts(-1, [], [0]), "negative vertex count"),
            (lambda: count_components(2.5, [], 0), "vertex count must be an integer"),
            (lambda: component_counts(2.5, [], [0]), "vertex count must be an integer"),
            (lambda: component_counts(2, [(1, 1)], [1]), "self-loop"),
        ],
        ids=[
            "negative-end", "end-past-n", "one-mask-end-past-n", "one-mask-negative-n",
            "negative-n", "one-mask-float-n", "float-n", "self-loop",
        ],
    )
    def test_component_counts_read_a_simple_graph(self, call, match):
        # -1 would read as the last vertex, and 5 index past the labels
        with pytest.raises(ModelError, match=match):
            call()

    @pytest.mark.parametrize(
        "model",
        [
            # a_0^2 overflows in the factor of every vertex, and in Gamma
            HomModel(3, [(0, 1), (1, 2), (0, 2)], [1, 1], [1e200, 1], [1, 1]),
            # every factor is finite, the product over 40 vertices is not
            HomModel(40, [(i, i + 1) for i in range(10)], [1.0], [1e30], [1e30]),
        ],
        ids=["factor", "product"],
    )
    def test_hom_overflow_refused_without_warnings(self, model):
        calls = [
            lambda: edge_weight(model, (1 << len(model.edges)) - 1),
            lambda: edge_partition(model),
            lambda: edge_weight_table(model),
            lambda: hom_partition(model),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericRangeError):
                    call()

    def test_overflowing_gamma_refused(self):
        model = HomModel(2, [(0, 1)], [1.0, 1.0], [1e160, 0.0], [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match="Gamma"):
                hom_to_factor_graph(model)


MATRIX_CASES = {
    "no-rows": (2, np.zeros((0, 3), dtype=np.int64)),
    "no-columns": (3, np.zeros((2, 0), dtype=np.int64)),
    "gf2": (2, [[1, 0, 1, 1], [0, 1, 1, 0]]),
    "gf3": (3, [[1, 2, 0, 1, 1], [0, 1, 1, 2, 0], [2, 0, 1, 1, 1]]),
    "gf4": (4, [[1, 2, 3, 0, 1], [3, 1, 0, 2, 2]]),
    "gf9": (9, [[1, 5, 8, 0], [7, 2, 3, 4]]),
    "gf41": (41, [[1, 1], [40, 40]]),
    "gf41-one-row": (41, [[1, 40, 7]]),
    "gf257": (257, [[1, 256, 3], [256, 1, 254]]),
}


class TestMatroidSums:
    @pytest.mark.parametrize("name", sorted(MATRIX_CASES))
    def test_codewords_equal_radix_definition(self, name):
        q, entries = MATRIX_CASES[name]
        matrix = GFMatrix(gf(q), entries)
        words = _codewords(matrix)
        ref = radix_codewords(matrix)
        assert words.shape == ref.shape and np.array_equal(words, ref)

    def test_random_codewords_equal_radix_definition(self):
        rng = np.random.default_rng(14)
        for q in (2, 3, 4, 5, 9):
            k, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            matrix = GFMatrix(gf(q), rng.integers(0, q, size=(k, n)))
            assert np.array_equal(_codewords(matrix), radix_codewords(matrix))

    @pytest.mark.parametrize("name", sorted(MATRIX_CASES))
    def test_rc_partition_equals_reference(self, block_bits, name):
        q, entries = MATRIX_CASES[name]
        matrix = GFMatrix(gf(q), entries)
        p = np.linspace(0.0, 1.7, matrix.n_cols)
        assert matroid_rc_partition(matrix, p) == matroid_rc_reference(matrix, p)

    def test_random_rc_partition_equals_reference(self, block_bits):
        rng = np.random.default_rng(15)
        for q in (2, 3, 4, 5, 9):
            k, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            matrix = GFMatrix(gf(q), rng.integers(0, q, size=(k, n)))
            p = rng.uniform(0.0, 2.0, n)
            assert matroid_rc_partition(matrix, p) == matroid_rc_reference(matrix, p)


class TestBlocks:
    def test_blocks_cover_every_mask_in_order(self, block_bits):
        m = 5
        masks = [
            int(sum(int(b) << j for j, b in enumerate(col)))
            for bits in models.mask_blocks(m)
            for col in bits.T
        ]
        assert masks == list(range(1 << m))

    @pytest.mark.parametrize("m", [0, 2, 3, 5, 7])
    def test_blocks_equal_mask_bits_of_every_mask(self, monkeypatch, m):
        # blocks of 2^3 masks; each later block is a copy of the one before
        # with its high rows rewritten, which must leave the earlier intact
        monkeypatch.setattr(models, "_MASK_BLOCK_BITS", 3)
        blocks = list(models.mask_blocks(m))
        want = models.mask_bits(np.arange(1 << m), m, "a mask")
        step = 1 << min(m, 3)
        assert len(blocks) == (1 << m) // step
        for k, bits in enumerate(blocks):
            assert bits.dtype == bool
            assert np.array_equal(bits, want[:, k * step : (k + 1) * step])

    def test_products_match_bit_loop(self, block_bits):
        weights = np.random.default_rng(16).uniform(0.1, 3.0, 6)
        got = np.concatenate(list(models.subset_products(weights)))
        for mask, value in enumerate(got):
            w = 1.0
            for j in range(len(weights)):
                if (mask >> j) & 1:
                    w *= weights[j]
            assert value == w

    def test_cap_raises_before_allocating(self):
        # 2^40 subsets: refused from the count alone, with nothing allocated
        rng = np.random.default_rng(17)
        edges = random_edges(rng, 10, 40)
        potts = PottsModel(10, edges, 2, np.full(40, 0.5))
        hom = HomModel(10, edges, [1.0], [1.0], [1.0])
        matrix = GFMatrix(gf(2), np.ones((2, 40), dtype=np.int64))
        calls = [
            lambda: rc_partition(potts),
            lambda: edge_partition(hom),
            lambda: edge_weight_table(hom),
            lambda: matroid_rc_partition(matrix, np.ones(40)),
            lambda: _codewords(GFMatrix(gf(3), np.ones((30, 2), dtype=np.int64))),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(EnumerationCapError):
                    call()
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024

    def test_memory_bounded_by_block(self, monkeypatch):
        # at blocks of 2^4 masks, 2^8 and 2^14 subsets peak alike
        monkeypatch.setattr(models, "_MASK_BLOCK_BITS", 4)
        rng = np.random.default_rng(18)

        def potts(m):
            model = PottsModel(8, random_edges(rng, 8, m), 3, rng.uniform(0.1, 1.0, m))
            return lambda: rc_partition(model)

        def matroid(m):
            matrix = GFMatrix(gf(3), rng.integers(0, 3, size=(6, m)))
            p = rng.uniform(0.1, 1.0, m)
            return lambda: matroid_rc_partition(matrix, p)

        for family in (potts, matroid):
            peaks = []
            for m in (8, 14):
                call = family(m)
                tracemalloc.start()
                try:
                    call()
                    _size, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                peaks.append(peak)
            # 2^14 weights alone would take 128 KiB as float64, and the
            # (masks, rows, columns) elimination array over them 2.6 MiB
            assert peaks[1] < peaks[0] + 16 * 1024, family.__name__
