"""Factor-graph data model and exact inference by enumeration.

A model is a collection of finite-cardinality variables, nonnegative
potential tables attached to ordered variable scopes, and optional
per-variable node potentials.  The joint weight of an assignment is the
product of all node potentials and factor tables; the partition function
is the sum of that weight over every joint assignment.

Table layout convention, used everywhere in this package: tables are flat,
row-major, with the LAST scope variable fastest.  States are 0-based.
"""

from __future__ import annotations

import itertools
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
# exact_marginals); exact_partition sums larger spaces slab by slab.
_DENSE_BLOCK = 1 << 22

# Subset sums walk their 2^m masks in blocks of this many consecutive masks,
# and dense joints are built in slabs of at most this many states, so the
# arrays of one block do not grow with the space.
_MASK_BLOCK_BITS = 16

# fsum_blocks: a lone array under _SMALL_SUM entries is cheaper to sum as
# Python floats; larger streams go through the exponent buckets in chunks
# of _SUM_CHUNK entries.  A bucket sum of at most _BUCKET_EXACT entries,
# each below 2^27 units of its bucket's ulp, stays below 2^53 units: exact.
_SMALL_SUM = 512
_SUM_CHUNK = 1 << 14
_BUCKET_EXACT = 1 << 26
_BUCKETS = 1 << 12
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


def ids_by_name(ids: Iterable, clash) -> dict:
    """Each id under its name ``str(id)``.  Two ids with one name, as 1 and
    "1" have, raise ModelError(clash(first, other))."""
    named = {}
    for i in ids:
        if named.setdefault(str(i), i) != i:
            raise ModelError(clash(named[str(i)], i))
    return named


class FactorGraph:
    """Variables with finite cardinalities plus factors over ordered scopes.

    ``variables`` are (id, cardinality) pairs; ``factors`` are (id, scope,
    table) rows, the scope a list or tuple of variable ids and the table a
    flat array or a PotentialTable over the scope's cardinalities (a Factor
    is read as its row, and the k-th row's id None as ``f"f{k}"``).  Every
    id, scope entry and node-potential key must be an int or a str.  Node
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
        for vid, card in variables:
            _check_id(vid, "a variable id")
            card = as_int(card, "a cardinality")
            if card < 1:
                raise ModelError(f"variable {vid!r} has cardinality {card} < 1")
            if vid in cards:
                raise ModelError(f"duplicate variable id {vid!r}")
            cards[vid] = card
            var_list.append(vid)
        self._var_ids = tuple(var_list)
        self._cards = cards

        fac_list = []
        fac_ids = set()
        for k, row in enumerate(factors):
            fid, scope, table = (row.id, row.scope, row.table) if isinstance(row, Factor) else row
            fid = _check_id(f"f{k}" if fid is None else fid, "a factor id")
            if fid in fac_ids:
                raise ModelError(f"duplicate factor id {fid!r}")
            fac_ids.add(fid)
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
    of the leading axes; a flat slab holds the C-order entries from
    ``offset`` on and is overwritten by the next one.

    Each entry multiplies the node potentials and factors in one canonical
    order: by the lowest axis a term touches, highest first, a term without
    axes first of all, ties in model order (node potentials in dict order,
    then factors).  The product of the terms from axis a on depends only on
    axes a.., so the trailing block is built from the last axis back and
    the leading axes are walked last one slowest, with one partial product
    per leading axis that carries terms: each term is multiplied once per
    assignment of the leading axes from its lowest on.  The block and the
    partial products fit in two 2^_MASK_BLOCK_BITS arrays, which sets how
    many axes lead (at most all but the last); no entry depends on it.
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
    while lead < n - 1:  # the block and one partial product per leading axis with terms
        if size * max(2, 1 + len({a for a, _ in terms if a < lead})) <= 2 << _MASK_BLOCK_BITS:
            break
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
    levels = []  # (axis, partial product, its source, its terms), highest axis first
    for a, group in itertools.groupby(rest, operator.itemgetter(0)):
        views = [np.broadcast_to(t, shape[a:lead] + t.shape[lead - a :]) for _, t in group]
        levels.append((a, np.empty(shape[lead:]), levels[-1][1] if levels else block, views))
    slab = levels[-1][1].reshape(-1) if levels else flat
    stride = [math.prod(shape[a + 1 :]) for a in range(lead)]
    states, top = [0] * lead, lead - 1  # top: the highest leading axis whose state changed
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            for a, out, source, views in levels:
                if a <= top:
                    key = tuple(states[a:])
                    for view in views:
                        np.multiply(source, view[key], out=out)
                        source = out
        yield sum(map(operator.mul, states, stride)), slab
        for top in range(lead):  # the next assignment, axis 0 fastest
            states[top] = (states[top] + 1) % shape[top]
            if states[top]:
                break
        else:
            return


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

    Each entry splits into its top 27 significand bits and the exact rest.
    Entries that share a sign and an exponent are multiples of one ulp, so
    per (sign, exponent) bucket both parts sum exactly by ``np.bincount``
    for up to _BUCKET_EXACT entries; ``math.fsum`` rounds the bucket sums
    once.  A lone array under _SMALL_SUM entries goes to ``math.fsum``
    directly.

    Raises NumericRangeError when an entry or the sum is not finite, and
    also when the entries of one sign and exponent alone overflow, even if
    entries of the other sign would cancel them.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        return 0.0
    if first.size < _SMALL_SUM:
        # the next block may overwrite this one's buffer
        first = first.copy()
        second = next(blocks, None)
        if second is None:
            return _checked_fsum(first.ravel().tolist())
        blocks = itertools.chain((first, second), blocks)
    else:
        blocks = itertools.chain((first,), blocks)
    step = min(_SUM_CHUNK, _BUCKET_EXACT)
    hi_sums = np.zeros(_BUCKETS)
    lo_sums = np.zeros(_BUCKETS)
    parts = []
    count = 0
    for block in blocks:
        x = np.ascontiguousarray(block, dtype=float).ravel()
        for start in range(0, x.size, step):
            chunk = x[start : start + step]
            if count + chunk.size > _BUCKET_EXACT:
                _flush_buckets(parts, hi_sums, lo_sums)
                count = 0
            bits = chunk.view(np.uint64)
            key = (bits >> _EXPONENT_SHIFT).view(np.int64)
            part = (bits & _HI_MASK).view(float)
            hi_sums += np.bincount(key, part, _BUCKETS)
            with np.errstate(invalid="ignore"):  # inf - inf; caught below
                np.subtract(chunk, part, out=part)
            lo_sums += np.bincount(key, part, _BUCKETS)
            count += chunk.size
    _flush_buckets(parts, hi_sums, lo_sums)
    return _checked_fsum(parts)


def _flush_buckets(parts: list, hi_sums: np.ndarray, lo_sums: np.ndarray) -> None:
    """Move the nonzero bucket sums into ``parts`` and zero the buckets."""
    for sums in (hi_sums, lo_sums):
        parts.extend(sums[sums != 0].tolist())
        sums.fill(0.0)


def mask_blocks(m: int) -> Iterator[np.ndarray]:
    """The 2^m subsets of m indices, in blocks of consecutive masks.

    Yields one (m, size) bool array per block, in increasing mask order:
    entry [j, r] is set when the block's r-th mask holds index j.
    """
    low = min(m, _MASK_BLOCK_BITS)
    low_bits = ((np.arange(1 << low) >> np.arange(low)[:, None]) & 1).astype(bool)
    for start in range(0, 1 << m, 1 << low):
        bits = np.empty((m, 1 << low), dtype=bool)
        bits[:low] = low_bits
        bits[low:] = ((start >> np.arange(low, m)) & 1).astype(bool)[:, None]
        yield bits


def subset_products(weights: np.ndarray, first=1.0) -> Iterator[np.ndarray]:
    """Products of ``weights`` over every mask, blocked as in ``mask_blocks``.

    Each entry is ``first`` times weights[j] for every set bit j, multiplied
    one at a time in increasing j, so it equals that loop's value bit for
    bit.  The products are built by doubling: the masks with top bit j are
    those below 2^j times weights[j].  ``first`` may be an array; the
    blocks then carry its shape in front of the mask axis.
    """
    m = len(weights)
    low = min(m, _MASK_BLOCK_BITS)
    first = np.asarray(first, dtype=float)
    low_products = np.empty(first.shape + (1 << low,))
    low_products[..., 0] = first
    for j in range(low):
        np.multiply(
            low_products[..., : 1 << j], weights[j], out=low_products[..., 1 << j : 2 << j]
        )
    for start in range(0, 1 << m, 1 << low):
        out = low_products.copy()
        for j in range(low, m):
            if start >> j & 1:
                out *= weights[j]
        yield out


def exact_partition(model: FactorGraph, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Partition function by exhaustive enumeration.

    The joint is walked in slabs of about 2^16 entries (``_joint_slabs``)
    and summed correctly rounded, equal to ``math.fsum`` over the whole
    tensor, at every size up to ``cap``.  Each weight multiplies its terms
    in one canonical order, each term once per assignment of the leading
    axes from its lowest on, so Z depends on neither slab size nor order.
    Refuses models whose joint space exceeds ``cap``, and raises
    NumericRangeError when a weight or the sum overflows or is NaN.
    """
    size = model.joint_size
    if size > cap:
        raise EnumerationCapError(
            f"joint space of {_size_text(size)} states exceeds the enumeration cap {cap}"
        )
    return fsum_blocks(slab for _offset, slab in _joint_slabs(model))


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
        and the node belief.
        """
        worst = 0.0
        for v in model.var_ids:
            tau = np.asarray(self.node[v], dtype=float)
            worst = max(worst, float(-tau.min(initial=0.0)))
            worst = max(worst, abs(float(tau.sum()) - 1.0))
        for fac in model.factors:
            tab = np.asarray(self.factor[fac.id], dtype=float)
            worst = max(worst, float(-tab.min(initial=0.0)))
            for pos, v in enumerate(fac.scope):
                axes = tuple(a for a in range(tab.ndim) if a != pos)
                marg = tab.sum(axis=axes)
                worst = max(worst, float(np.max(np.abs(marg - self.node[v]))))
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
