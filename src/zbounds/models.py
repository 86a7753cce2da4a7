"""Factor-graph data model and exact inference by enumeration and by
bucket elimination.

A model is a collection of finite-cardinality variables, nonnegative
potential tables attached to ordered variable scopes, and optional
per-variable node potentials.  The joint weight of an assignment is the
product of all node potentials and factor tables; the partition function
is the sum of that weight over every joint assignment.

Table layout convention, used everywhere in this package: tables are flat,
row-major, with the LAST scope variable fastest.  States are 0-based.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    EnumerationCapError,
    ModelError,
    NumericRangeError,
    UnnormalizableError,
)

VarId = Union[int, str]

DEFAULT_ENUMERATION_CAP = 1 << 26

# Joint tensors above this size are never materialized (dense_joint and
# exact_marginals); exact_partition sums larger spaces by elimination or
# slab by slab.
_DENSE_BLOCK = 1 << 22

# Subset sums walk their 2^m masks in blocks of this many consecutive masks,
# and dense joints are built in slabs of at most this many states, so the
# arrays of one block do not grow with the space.  exact_partition
# eliminates a joint above one block when every bucket fits in one.
_MASK_BLOCK_BITS = 16

# fsum_blocks: a block under _SMALL_SUM entries is cheaper to sum as
# Python floats.  Larger blocks are summed by the exponent buckets in
# pieces of at most _SUM_CHUNK entries.  Once _PENDING_SUMS floats are
# held for the final sum, they pass through the buckets with the next
# piece.  So no bucket call sees more than one piece and 2^13 + _SMALL_SUM
# held floats (two sums per sign and exponent, and one small block), far
# below the 2^26 entries that keep each bucket sum exact.
_SMALL_SUM = 512
_SUM_CHUNK = 1 << 14
_PENDING_SUMS = 128
_EXPONENT_SHIFT = np.uint64(52)
_HI_MASK = np.uint64((1 << 64) - (1 << 26))


def float_array(values, what: str, nonnegative: bool = False) -> np.ndarray:
    """``values`` as a float array, the one reader of real-valued input:
    ModelError unless every entry is a finite real number (not a bool or a
    string, at any depth of a list), and >= 0 when ``nonnegative`` is set.
    A numpy array is judged by its dtype, with no Python scan of entries."""
    _require_reals(values, what)
    try:
        arr = np.asarray(values, dtype=float)
    except (OverflowError, ValueError) as exc:  # an int beyond float, a ragged list
        raise ModelError(f"{what} must be numbers: {exc}") from exc
    if not np.isfinite(arr).all() or nonnegative and arr.min(initial=0.0) < 0:
        raise ModelError(f"{what} must be finite" + (" and >= 0" if nonnegative else ""))
    return arr


def _require_reals(values, what: str) -> None:
    """ModelError at the first entry of nested lists that is not a real number."""
    if isinstance(values, (list, tuple)):
        for x in values:
            _require_reals(x, what)
    elif isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ModelError(f"{what}: a {values.dtype} array is not real-valued")
    elif not isinstance(values, numbers.Real) or isinstance(values, bool):
        raise ModelError(f"{what}: {values!r} is not a real number")


def as_int(value, what: str) -> int:
    """``value`` as an int; ModelError unless it is an integer or a float
    with an integer value (a bool or a string is neither)."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ModelError(f"{what} must be an integer, got {value!r}")


def as_seed(value) -> int:
    """``value`` as a random seed: an integer (read by ``as_int``) >= 0, as
    numpy seeds its generators from nonnegative integers only."""
    seed = as_int(value, "the seed")
    if seed < 0:
        raise ModelError(f"the seed must be >= 0, got {seed}")
    return seed


def as_mask(value, what: str) -> int:
    """``value`` as a subset bitmask: an integer (read by ``as_int``) >= 0,
    as a negative int has every bit above some point set (-1 selects all)."""
    mask = as_int(value, what)
    if mask < 0:
        raise ModelError(f"{what} must be >= 0, got {mask}")
    return mask


def as_simple_graph(n_vertices, edges: Sequence) -> tuple:
    """(vertex count, edges) as ints; ModelError unless they form a simple graph."""
    n_vertices = as_int(n_vertices, "the vertex count")
    if n_vertices < 0:
        raise ModelError("negative vertex count")
    seen = {}  # each edge under its sorted ends, in input order
    for i, j in edges:
        i, j = as_int(i, "an edge end"), as_int(j, "an edge end")
        if i == j:
            raise ModelError(f"self-loop at vertex {i}")
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise ModelError(f"edge ({i},{j}) outside vertex range")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ModelError(f"duplicate edge {key}")
        seen[key] = (i, j)
    return n_vertices, tuple(seen.values())


def _size_text(n: int) -> str:
    """``n`` in decimal below 2^64, else as 2^k (str refuses 4300+ digits)."""
    return str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"


def check_exp_range(exponents: np.ndarray, what: str) -> None:
    """NumericRangeError, before any numpy warning, when e^x of the largest
    of the finite ``exponents`` overflows the float range (as e^x - 1 then
    does too)."""
    top = max(exponents.tolist(), default=0.0)
    # e^709 < 2^1023, so only a larger exponent can overflow
    if top > 709.0:
        with np.errstate(over="ignore"):
            if np.isinf(np.exp(top)):
                raise NumericRangeError(f"{what} exp({top!r}) is out of float range")


def _as_table_array(values) -> np.ndarray:
    arr = float_array(values, "potential entries", nonnegative=True).flatten()
    arr.setflags(write=False)
    return arr


class PotentialTable:
    """A flat nonnegative table over an ordered list of cardinalities.

    ``values[idx]`` holds the entry for the assignment obtained by writing
    ``idx`` in mixed radix over ``cards`` with the last variable fastest.
    """

    __slots__ = ("cards", "values")

    def __init__(self, cards: Sequence[int], values) -> None:
        cards = tuple(int(c) for c in cards)
        if any(c < 1 for c in cards):
            raise ModelError(f"cardinalities must be >= 1, got {cards}")
        vals = _as_table_array(values)
        expected = math.prod(cards)
        if vals.size != expected:
            raise ModelError(
                f"table has {vals.size} entries, expected {expected} for cards {cards}"
            )
        self.cards = cards
        self.values = vals

    def as_ndarray(self) -> np.ndarray:
        """The table reshaped to one axis per scope variable."""
        return self.values.reshape(self.cards)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PotentialTable)
            and self.cards == other.cards
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"PotentialTable(cards={self.cards}, values={self.values.tolist()})"


@dataclass(frozen=True)
class Factor:
    id: VarId
    scope: tuple
    table: PotentialTable


# An assignment maps every variable id to a 0-based state index.
Assignment = Mapping


def _check_id(vid, what: str):
    """``vid`` if it is an int or a str (not a bool); ModelError otherwise."""
    if isinstance(vid, (str, int, np.integer)) and not isinstance(vid, bool):
        return vid
    raise ModelError(f"{what} must be an integer or a string, got {vid!r}")


def _claim_name(names: dict, vid, what: str) -> None:
    """Enter ``vid`` in ``names`` under ``str(vid)``, the name its JSON key
    and its cover copies (``f"{vid}@{m}"``) are made from; ModelError when
    an earlier id has that name, whether it equals ``vid`` or not (1, "1")."""
    name = str(vid)
    if name in names:
        first = names[name]
        raise ModelError(
            f"duplicate {what} id {vid!r}" if first == vid
            else f"{what} ids {first!r} and {vid!r} share the name {name!r}"
        )
    names[name] = vid


class FactorGraph:
    """Variables with finite cardinalities plus factors over ordered scopes.

    ``variables`` are (id, cardinality) pairs; ``factors`` are (id, scope,
    table) rows, the scope a list or tuple of variable ids and the table a
    flat array or a PotentialTable over the scope's cardinalities (a Factor
    is read as its row, and the k-th row's id None as ``f"f{k}"``).  Every
    id, scope entry and node-potential key must be an int or a str, and no
    two variable ids, nor two factor ids, may share a ``str()``.  Node
    potentials are optional per-variable nonnegative vectors.  The instance
    is immutable after construction and safe to share.
    """

    def __init__(
        self,
        variables: Iterable[tuple],
        factors: Iterable = (),
        node_potentials: Mapping | None = None,
    ) -> None:
        var_list = []
        cards = {}
        names = {}
        for vid, card in variables:
            _check_id(vid, "a variable id")
            card = as_int(card, "a cardinality")
            if card < 1:
                raise ModelError(f"variable {vid!r} has cardinality {card} < 1")
            _claim_name(names, vid, "variable")
            cards[vid] = card
            var_list.append(vid)
        self._var_ids = tuple(var_list)
        self._cards = cards

        fac_list = []
        names = {}
        for k, row in enumerate(factors):
            fid, scope, table = (row.id, row.scope, row.table) if isinstance(row, Factor) else row
            fid = _check_id(f"f{k}" if fid is None else fid, "a factor id")
            _claim_name(names, fid, "factor")
            if not isinstance(scope, (list, tuple)):
                raise ModelError(f"factor {fid!r} scope must be a list, got {scope!r}")
            for v in scope:
                if _check_id(v, f"factor {fid!r} scope entry") not in cards:
                    raise ModelError(f"factor {fid!r} references unknown variable {v!r}")
                if scope.count(v) > 1:
                    raise ModelError(f"factor {fid!r} repeats variable {v!r} in its scope")
            expected = tuple(cards[v] for v in scope)
            if not isinstance(table, PotentialTable):
                table = PotentialTable(expected, table)
            elif table.cards != expected:
                raise ModelError(
                    f"factor {fid!r} table cards {table.cards} != scope cards {expected}"
                )
            fac_list.append(Factor(fid, tuple(scope), table))
        self._factors = tuple(fac_list)

        pots = {}
        if node_potentials:
            for vid, vec in node_potentials.items():
                if _check_id(vid, "a node-potential key") not in cards:
                    raise ModelError(f"node potential for unknown variable {vid!r}")
                arr = _as_table_array(vec)
                if arr.size != cards[vid]:
                    raise ModelError(
                        f"node potential for {vid!r} has length {arr.size}, "
                        f"expected {cards[vid]}"
                    )
                pots[vid] = arr
        self._node_potentials = pots

    @property
    def var_ids(self) -> tuple:
        return self._var_ids

    @property
    def factors(self) -> tuple:
        return self._factors

    @property
    def node_potentials(self) -> Mapping:
        return dict(self._node_potentials)

    def card(self, vid: VarId) -> int:
        return self._cards[vid]

    def node_potential(self, vid: VarId):
        return self._node_potentials.get(vid)

    @property
    def num_vars(self) -> int:
        return len(self._var_ids)

    @property
    def joint_size(self) -> int:
        """Number of joint assignments, as an exact Python int."""
        n = 1
        for v in self._var_ids:
            n *= self._cards[v]
        return n

    def __repr__(self) -> str:
        return (
            f"FactorGraph({self.num_vars} variables, {len(self._factors)} factors, "
            f"joint size {_size_text(self.joint_size)})"
        )


def evaluate(model: FactorGraph, x: Assignment) -> float:
    """Joint weight of one assignment: the product of all potentials.

    Returns 1.0 for a model with no factors and no node potentials.
    """
    if set(x.keys()) != set(model.var_ids):
        raise ModelError("assignment must cover every model variable exactly once")
    for v in model.var_ids:
        s = x[v]
        if not 0 <= s < model.card(v):
            raise ModelError(f"state {s} out of range for variable {v!r}")
    total = 1.0
    for v, pot in model.node_potentials.items():
        total *= pot[x[v]]
    for fac in model.factors:
        idx = 0
        for v in fac.scope:
            idx = idx * model.card(v) + x[v]
        total *= fac.table.values[idx]
    return total


def _joint_slabs(model: FactorGraph) -> Iterator[tuple]:
    """The joint weight tensor as (offset, slab) pairs, one per assignment
    of the leading axes in C order; a flat slab holds the C-order entries
    from ``offset`` on and is overwritten by the next one.

    Each entry multiplies the node potentials and factors in one canonical
    order: by the lowest axis a term touches, highest first, a term without
    axes first of all, ties in model order (node potentials in dict order,
    then factors).  The leading axes are the fewest that leave a trailing
    block of at most 2^_MASK_BLOCK_BITS entries (at most all but the last
    axis).  The block, the product of the terms on its own axes, is built
    once from the last axis back; each slab is a copy of it multiplied by
    each leading term's slice at the slab's assignment, in the canonical
    order.  So no entry depends on the block size, and the walk holds two
    block-sized arrays.
    """
    axis = {v: k for k, v in enumerate(model.var_ids)}
    shape = tuple(model.card(v) for v in model.var_ids)
    n = len(shape)
    terms = []  # (lowest axis a touched, array over axes a..n-1)
    for v, pot in model.node_potentials.items():
        terms.append((axis[v], pot.reshape((-1,) + (1,) * (n - axis[v] - 1))))
    for fac in model.factors:
        positions = [axis[v] for v in fac.scope]
        order = sorted(range(len(positions)), key=positions.__getitem__)
        low = positions[order[0]] if order else n
        new_shape = [1] * (n - low)
        for p in positions:
            new_shape[p - low] = shape[p]
        terms.append((low, fac.table.as_ndarray().transpose(order).reshape(new_shape)))
    terms.sort(key=operator.itemgetter(0), reverse=True)  # stable: ties keep model order
    lead, size = 0, math.prod(shape)
    while lead < n - 1 and size > 1 << _MASK_BLOCK_BITS:
        size //= shape[lead]
        lead += 1
    flat = np.empty(size)
    block = flat.reshape(shape[lead:])
    part, top = np.ones(()), n  # the product of the terms from axis `top` on
    rest = [term for term in terms if term[0] < lead]
    # overflow and inf * 0 surface in the checked sum, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for low, t in terms[: len(terms) - len(rest)]:
            if low < top:  # widen over low..top-1 with the first term on low (overlap is buffered)
                out = flat[size - math.prod(shape[low:]) :].reshape(shape[low:])
                part, top = np.multiply(part, t, out=out), low
            else:
                np.multiply(part, t, out=part)
        if top > lead or top == n:  # not yet widened to the block
            np.copyto(block, part)
    if not lead:  # the joint is the block
        yield 0, flat
        return
    # each leading term over all of axes low..lead-1, so a slab's states index it
    views = [(low, np.broadcast_to(t, shape[low:lead] + t.shape[lead - low :])) for low, t in rest]
    slab = np.empty(size)
    out = slab.reshape(shape[lead:])
    for k, states in enumerate(np.ndindex(shape[:lead])):
        np.copyto(slab, flat)
        with np.errstate(over="ignore", invalid="ignore"):
            for low, view in views:
                np.multiply(out, view[states[low:]], out=out)
        yield k * size, slab


def dense_joint(model: FactorGraph) -> np.ndarray:
    """The full joint weight tensor, one axis per variable in model order.

    Each entry multiplies the terms in ``_joint_slabs``' canonical order
    (by the lowest axis a term touches, highest first), so the tensor is
    the same bit for bit whatever the slab size or order: each slab is
    written at its own offset.  Refuses joints above _DENSE_BLOCK states.
    """
    if model.joint_size > _DENSE_BLOCK:
        raise EnumerationCapError(
            f"joint space of {_size_text(model.joint_size)} states exceeds the dense limit "
            f"{_DENSE_BLOCK}"
        )
    w = np.empty(model.joint_size)
    for start, slab in _joint_slabs(model):
        w[start : start + slab.size] = slab
    return w.reshape([model.card(v) for v in model.var_ids])


def check_subset_cap(m: int, what: str) -> None:
    """Refuse a sum over the 2^m subsets of m ``what`` above
    DEFAULT_ENUMERATION_CAP."""
    if 2**m > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"2^{m} {what} subsets exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )


def _checked_fsum(values) -> float:
    """``math.fsum(values)``; NumericRangeError unless it is finite."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError) as exc:  # intermediate overflow, inf - inf
        raise NumericRangeError(f"exact sum is out of float range ({exc})") from None
    if not math.isfinite(total):
        raise NumericRangeError(f"exact sum is {total}: a weight overflowed or is NaN")
    return total


def fsum_blocks(blocks: Iterable[np.ndarray]) -> float:
    """The correctly rounded sum of every entry of a stream of arrays, equal
    to ``math.fsum`` over them, holding one array at a time.

    Each block of at least _SMALL_SUM entries is replaced, in pieces of at
    most _SUM_CHUNK entries, by its exact per-(sign, exponent) bucket sums
    (``_bucket_sums``).  ``pending`` holds floats whose exact sum is the
    sum so far: the bucket sums and the entries of each block under
    _SMALL_SUM entries.  Once it holds _PENDING_SUMS floats it is replaced
    by its own bucket sums, taken with the next piece, so memory stays at
    one piece.  ``math.fsum`` rounds it once at the end, so a lone block
    under _SMALL_SUM entries reaches ``math.fsum`` as it is.

    Raises NumericRangeError when an entry or the sum is not finite, and
    also when the entries of one sign and exponent overflow in one call of
    ``_bucket_sums``, or ``math.fsum`` meets an intermediate overflow, even
    if entries of the other sign would cancel them.
    """
    pending = []  # floats whose exact sum is the sum so far
    for block in blocks:
        if block.size < _SMALL_SUM:
            if len(pending) >= _PENDING_SUMS:
                pending = _bucket_sums(np.array(pending, dtype=float))
            pending += block.ravel().tolist()
            continue
        x = np.ascontiguousarray(block, dtype=float).ravel()
        for start in range(0, x.size, _SUM_CHUNK):
            piece = x[start : start + _SUM_CHUNK]
            if len(pending) < _PENDING_SUMS:
                pending += _bucket_sums(piece)
            else:  # the held floats pass through the buckets with the piece
                pending = _bucket_sums(np.concatenate((np.array(pending, dtype=float), piece)))
    return _checked_fsum(pending)


def _bucket_sums(x: np.ndarray) -> list:
    """The nonzero exact sums of the contiguous array ``x`` per (sign,
    exponent) bucket.  Each entry splits into its top 27 significand bits
    and the exact rest: in the bucket of exponent e the tops are multiples
    of 2^(e-26) below 2^(e+1), and the rests multiples of 2^(e-52) below
    2^(e-26), so up to 2^26 entries sum below 2^53 units in both parts."""
    bits = x.view(np.uint64)
    key = (bits >> _EXPONENT_SHIFT).view(np.int64)
    part = (bits & _HI_MASK).view(float)
    hi = np.bincount(key, part)
    with np.errstate(invalid="ignore"):  # inf - inf; caught by the final sum
        np.subtract(x, part, out=part)
    lo = np.bincount(key, part)
    return hi[hi != 0].tolist() + lo[lo != 0].tolist()


def mask_bits(masks, width: int, what: str) -> np.ndarray:
    """The one reader of mask arrays: [j, r] of the (width, masks) bool
    array is bit j of mask r.  Each mask follows ``as_mask``'s rule (an
    integer >= 0 of any width, no bool, no fraction); an integer numpy
    array is judged by its dtype and minimum, with no Python scan.  A
    scalar is refused: the masks come as a sequence, even a single one."""
    if (isinstance(masks, np.ndarray) and masks.ndim != 1) or not isinstance(masks, Iterable):
        raise ModelError(f"{what} array must be one-dimensional, got shape {np.shape(masks)}")
    if isinstance(masks, np.ndarray) and masks.dtype.kind in "iu":
        if masks.min(initial=0) < 0:
            raise ModelError(f"{what} must be >= 0, got {masks.min()}")
        data = masks.astype("<u8")[:, None].view(np.uint8)
    else:  # the little-endian bytes of each mask's bits below the width
        size, below = -(-width // 8), (1 << width) - 1
        masks = [as_mask(x, what) & below for x in masks]
        data = np.frombuffer(b"".join(x.to_bytes(size, "little") for x in masks), np.uint8)
        data = data.reshape(len(masks), size)
    bits = np.unpackbits(data.T, axis=0, count=width, bitorder="little")
    return np.ascontiguousarray(bits).view(bool)


def mask_block_starts(m: int) -> tuple:
    """(low, starts): the 2^m subsets of m indices in blocks of 2^low
    consecutive masks, 2^_MASK_BLOCK_BITS or fewer, each from one of
    ``starts`` in increasing order.  A start sets only bits >= low."""
    low = min(m, _MASK_BLOCK_BITS)
    return low, range(0, 1 << m, 1 << low)


def mask_blocks(m: int) -> Iterator[np.ndarray]:
    """The 2^m subsets of m indices, in the blocks of ``mask_block_starts``.

    Yields one (m, size) bool array (``mask_bits``) per block.  The first
    block is read once; each later one is a copy of the one before with
    its high rows, the bits of its first mask, rewritten.
    """
    low, starts = mask_block_starts(m)
    bits = mask_bits(np.arange(1 << low), m, "a mask")
    for start in starts:
        if start:
            bits = bits.copy()
            bits[low:] = mask_bits([start], m, "a mask")[low:]
        yield bits


def subset_products(weights: np.ndarray, first=1.0) -> Iterator[np.ndarray]:
    """Products of ``weights`` over every mask, in the blocks of
    ``mask_block_starts``.

    Each entry is ``first`` times weights[j] for every set bit j, multiplied
    one at a time in increasing j, so it equals that loop's value bit for
    bit.  The products are built by doubling: the masks with top bit j are
    those below 2^j times weights[j].  ``first`` may be an array; the
    blocks then carry its shape in front of the mask axis.  A product
    that overflows is inf, with no numpy warning: every caller sums the
    blocks by ``fsum_blocks``, which refuses it.
    """
    m = len(weights)
    low, starts = mask_block_starts(m)
    low_products = np.empty(np.shape(first) + (1 << low,))
    low_products[..., 0] = first
    with np.errstate(over="ignore"):
        for j in range(low):
            np.multiply(
                low_products[..., : 1 << j], weights[j], out=low_products[..., 1 << j : 2 << j]
            )
    for start in starts:
        out = low_products.copy()
        with np.errstate(over="ignore"):
            for j in range(low, m):
                if start >> j & 1:
                    out *= weights[j]
        yield out


def exact_partition(model: FactorGraph, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Partition function, exact up to rounding, by one of two engines.

    Refuses models whose joint space exceeds ``cap`` first, whatever the
    engine.  A joint of more than one block (2^_MASK_BLOCK_BITS states)
    whose min-degree elimination order keeps every bucket within one block
    is summed by bucket elimination (``_eliminated_sum``): Z is within
    gamma_K = K u / (1 - K u), u = 2^-53, of the exact sum of the exact
    weights, relative, where a bucket of t tables on a variable of c states
    adds t + c - 2 to K (t - 1 products and c - 1 sums per entry), each
    scalar one more, so K <= T + the sum over variables of (card - 1), T
    the number of node potentials and factors (no entry scaled or summed
    below 2^-1022, where underflow loses digits).

    Every other joint (one block or less, or too wide for elimination) is
    walked in slabs of about 2^16 entries (``_joint_slabs``) and summed
    correctly rounded: Z equals ``math.fsum`` over the canonical joint, in
    which each weight multiplies its terms in one canonical order, so Z
    depends on neither slab size nor order.

    Either engine returns 0.0 for a zero Z, gives the same Z on every call
    and raises NumericRangeError when Z (or, in the walk, a weight) is
    beyond the float range or NaN.
    """
    size = model.joint_size
    cap = as_int(cap, "the enumeration cap")
    if size > cap:
        raise EnumerationCapError(
            f"joint space of {_size_text(size)} states exceeds the enumeration cap {cap}"
        )
    if size > 1 << _MASK_BLOCK_BITS:
        z = _eliminated_sum(model)
        if z is not None:
            return z
    return fsum_blocks(slab for _offset, slab in _joint_slabs(model))


def _eliminated_sum(model: FactorGraph) -> float | None:
    """Z by bucket elimination (Dechter 1999), or None, before any
    arithmetic, when a bucket's variables span more than one block.

    Card-1 axes are dropped.  The order is min-degree on the graph of
    variables that share a term, ties to the lowest model position.  Each
    table joins the bucket of its first variable in that order; a bucket
    multiplies its tables in joining order, broadcast over its variables
    in increasing order, then sums its variable out, and the result joins
    the next bucket of its scope.  Every input table and bucket result is
    scaled by the power of two that puts its maximum in [0.5, 1) (exact,
    as its exponent is kept apart as an int), so no table overflows;
    scalars (tables without variables, and a variable that no term
    touches, which contributes its cardinality) multiply one running
    float.  A zero table makes Z 0.0.
    """
    cards = [model.card(v) for v in model.var_ids]
    axes = {v: k for k, v in enumerate(model.var_ids) if cards[k] > 1}
    terms = [((v,), pot) for v, pot in model.node_potentials.items()]
    terms += [(f.scope, f.table.values) for f in model.factors]
    terms = [(tuple(axes[v] for v in scope if v in axes), t) for scope, t in terms]
    nbrs = {a: set() for a in axes.values()}
    for scope, _t in terms:
        for a in scope:
            nbrs[a].update(b for b in scope if b != a)
    order = []
    while nbrs:
        a = min(nbrs, key=lambda b: (len(nbrs[b]), b))
        group = nbrs.pop(a)
        if cards[a] * math.prod(cards[b] for b in group) > 1 << _MASK_BLOCK_BITS:
            return None
        for b in group:
            nbrs[b] = (nbrs[b] | group) - {a, b}
        order.append(a)
    rank = {a: k for k, a in enumerate(order)}
    buckets = [[] for _ in order]
    z, exponent = 1.0, 0  # Z = z 2^exponent times the summed product of the queued tables
    for k in range(len(order) + 1):
        for scope, t in terms:  # queue the inputs, then bucket k - 1's result
            top = float(t.max())
            if top == 0.0:
                return 0.0
            shift = math.frexp(top)[1]
            exponent += shift
            if scope:
                t = np.ldexp(t, -shift).reshape([cards[b] for b in scope])
                buckets[min(rank[b] for b in scope)].append((scope, t))
            else:
                z, e = math.frexp(z * math.ldexp(top, -shift))
                exponent += e
        if k == len(order):
            break
        a = order[k]
        tables = buckets[k] or [((a,), np.ones(cards[a]))]  # no term touches a: its count
        labels = sorted({b for scope, _t in tables for b in scope})
        aligned = (  # each table over all labels, its axes in label order
            t.transpose(sorted(range(t.ndim), key=scope.__getitem__)).reshape(
                [cards[b] if b in scope else 1 for b in labels]
            )
            for scope, t in tables
        )
        product = functools.reduce(np.multiply, aligned)
        terms = [(tuple(b for b in labels if b != a), product.sum(axis=labels.index(a)))]
    try:
        return math.ldexp(z, exponent)
    except OverflowError:
        raise NumericRangeError(f"Z = {z!r} * 2^{exponent} is out of float range") from None


@dataclass
class PseudoMarginals:
    """Node beliefs (one distribution per variable) and factor beliefs.

    Factor beliefs are stored as ndarrays shaped by their scope
    cardinalities, axes in scope order.
    """

    node: dict = field(default_factory=dict)
    factor: dict = field(default_factory=dict)

    def polytope_violation(self, model: FactorGraph) -> float:
        """Worst absolute violation of the local consistency constraints.

        Checks nonnegativity, node normalization, and, for every factor and
        every scope variable, agreement between the factor belief marginal
        and the node belief.  Raises ModelError unless every belief is
        finite and real (``float_array``).
        """
        node = {v: float_array(self.node[v], f"node belief of {v!r}") for v in model.var_ids}
        worst = 0.0
        for tau in node.values():
            worst = max(worst, float(-tau.min(initial=0.0)))
            worst = max(worst, abs(float(tau.sum()) - 1.0))
        for fac in model.factors:
            tab = float_array(self.factor[fac.id], f"factor belief of {fac.id!r}")
            worst = max(worst, float(-tab.min(initial=0.0)))
            for pos, v in enumerate(fac.scope):
                axes = tuple(a for a in range(tab.ndim) if a != pos)
                marg = tab.sum(axis=axes)
                worst = max(worst, float(np.max(np.abs(marg - node[v]))))
        return worst


def exact_marginals(model: FactorGraph) -> PseudoMarginals:
    """True node and factor marginals by enumeration of ``dense_joint``.

    The output satisfies the local-consistency constraints by construction.
    Raises EnumerationCapError above ``dense_joint``'s limit,
    UnnormalizableError when the partition function is zero and
    NumericRangeError when it overflows or is NaN.
    """
    w = dense_joint(model)
    z = fsum_blocks((w,))
    if z <= 0.0:
        raise UnnormalizableError("partition function is zero; marginals undefined")
    axis = {v: k for k, v in enumerate(model.var_ids)}
    n = len(model.var_ids)
    node = {}
    for v in model.var_ids:
        axes = tuple(a for a in range(n) if a != axis[v])
        node[v] = w.sum(axis=axes) / z
    factor = {}
    for fac in model.factors:
        positions = [axis[v] for v in fac.scope]
        other = tuple(a for a in range(n) if a not in positions)
        marg = w.sum(axis=other)
        # marg axes are in model order; permute into scope order.
        perm = np.argsort(np.argsort(positions))
        factor[fac.id] = marg.transpose(perm) / z
    return PseudoMarginals(node=node, factor=factor)
