"""The subset-sum tables against their single-mask references.

``rc_partition``, ``edge_partition``, ``edge_weight_table`` and
``matroid_rc_partition`` build their weights one block of masks at a time;
each weight must equal the single-mask function bit for bit, so the sums
are compared with ``==``.  Every check runs at the default block size and
at blocks of 2^2 masks, where models with more than two edges span
several blocks.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from test_matroid import _ref_rank

from zbounds import models
from zbounds.errors import EnumerationCapError
from zbounds.homs import HomModel, edge_partition, edge_weight, edge_weight_table
from zbounds.matroid import GFMatrix, _codewords, gf, matroid_rc_partition
from zbounds.potts import (
    PottsModel,
    component_counts,
    count_components,
    rc_partition,
    rc_weight,
)


@pytest.fixture(params=[models._MASK_BLOCK_BITS, 2], ids=["default-block", "block-4"])
def block_bits(request, monkeypatch):
    monkeypatch.setattr(models, "_MASK_BLOCK_BITS", request.param)
    return request.param


def random_edges(rng, n, m):
    pairs = list(itertools.combinations(range(n), 2))
    pick = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    return [pairs[int(i)] for i in sorted(pick)]


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


POTTS_CASES = {
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


HOM_CASES = {
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
