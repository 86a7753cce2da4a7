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

# Joint tensors above this size are never materialized; enumeration falls
# back to conditioning on leading variables.
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


def float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; ModelError when an entry is not a number."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{what} must be numbers: {exc}") from exc


def _as_table_array(values) -> np.ndarray:
    arr = float_array(values, "potential entries")
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ModelError("potential entries must be finite and >= 0")
    arr = arr.copy()
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

    def restrict(self, position: int, state: int) -> "PotentialTable":
        """Fix the scope variable at ``position`` to ``state``."""
        arr = self.as_ndarray()
        sliced = np.take(arr, state, axis=position)
        rest = self.cards[:position] + self.cards[position + 1 :]
        return PotentialTable(rest, np.ascontiguousarray(sliced).ravel())

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


class FactorGraph:
    """Variables with finite cardinalities plus factors over ordered scopes.

    Node potentials are optional per-variable nonnegative vectors.  The
    instance is immutable after construction and safe to share.
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
            card = int(card)
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
        for k, fac in enumerate(factors):
            if not isinstance(fac, Factor):
                fid, scope, table = fac
                if fid is None:
                    fid = f"f{k}"
                if not isinstance(table, PotentialTable):
                    unknown = [v for v in scope if v not in cards]
                    if unknown:
                        raise ModelError(
                            f"factor {fid!r} references unknown variable {unknown[0]!r}"
                        )
                    table = PotentialTable([cards[v] for v in scope], table)
                fac = Factor(fid, tuple(scope), table)
            if fac.id in fac_ids:
                raise ModelError(f"duplicate factor id {fac.id!r}")
            fac_ids.add(fac.id)
            seen = set()
            for v in fac.scope:
                if v not in cards:
                    raise ModelError(f"factor {fac.id!r} references unknown variable {v!r}")
                if v in seen:
                    raise ModelError(f"factor {fac.id!r} repeats variable {v!r} in its scope")
                seen.add(v)
            expected = tuple(cards[v] for v in fac.scope)
            if fac.table.cards != expected:
                raise ModelError(
                    f"factor {fac.id!r} table cards {fac.table.cards} != scope cards {expected}"
                )
            fac_list.append(fac)
        self._factors = tuple(fac_list)

        pots = {}
        if node_potentials:
            for vid, vec in node_potentials.items():
                if vid not in cards:
                    raise ModelError(f"node potential for unknown variable {vid!r}")
                arr = _as_table_array(vec)
                if arr.size != cards[vid]:
                    raise ModelError(
                        f"node potential for {vid!r} has length {arr.size}, "
                        f"expected {cards[vid]}"
                    )
                pots[vid] = arr
        self._node_potentials = pots

        self._incidence = {v: [] for v in self._var_ids}
        for fac in self._factors:
            for pos, v in enumerate(fac.scope):
                self._incidence[v].append((fac.id, pos))

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

    def incidences(self, vid: VarId):
        """(factor id, scope position) pairs of every factor touching ``vid``."""
        return tuple(self._incidence[vid])

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
            f"joint size {self.joint_size})"
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


def _joint_slabs(model: FactorGraph) -> Iterator[np.ndarray]:
    """The joint weight tensor in C-order slabs, one per assignment of the
    leading variables.

    A slab spans the trailing axes, at most 2^_MASK_BLOCK_BITS entries
    unless the last axis alone is longer.  Each entry is the product of the
    node potentials and factors in one canonical order: by the lowest axis
    a term touches, highest first, a term without axes first of all, ties
    in their model order (node potentials in dict order, then factors).
    The terms that touch only the slab's axes then form a prefix, which is
    multiplied once into a base that every slab starts from; each slab
    multiplies only the remaining terms.  Every entry is the same product
    whatever the slab size, so the tensor and its sum do not depend on it.
    Every slab is written into the same buffer, which the next slab
    overwrites; a joint that fits in one slab is the base itself.
    """
    axis = {v: k for k, v in enumerate(model.var_ids)}
    shape = tuple(model.card(v) for v in model.var_ids)
    n = len(shape)
    terms = []  # (lowest axis touched, broadcastable array)
    for v, pot in model.node_potentials.items():
        vec_shape = [1] * n
        vec_shape[axis[v]] = model.card(v)
        terms.append((axis[v], pot.reshape(vec_shape)))
    for fac in model.factors:
        positions = [axis[v] for v in fac.scope]
        arr = fac.table.as_ndarray().transpose(np.argsort(positions))
        new_shape = [1] * n
        for p in positions:
            new_shape[p] = shape[p]
        terms.append((min(positions, default=n), arr.reshape(new_shape)))
    terms.sort(key=operator.itemgetter(0), reverse=True)  # stable: ties keep model order
    lead = max(n - 1, 0)
    while lead > 0 and math.prod(shape[lead - 1 :]) <= 1 << _MASK_BLOCK_BITS:
        lead -= 1
    # overflow and inf * 0 surface in the checked sum, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.ones(shape[lead:])
        for low, t in terms:
            if low >= lead:
                np.multiply(base, t[(0,) * lead], out=base)
    if lead == 0:
        yield base
        return
    rest = [t for low, t in terms if low < lead]
    slab = np.empty_like(base)
    for states in itertools.product(*map(range, shape[:lead])):
        out = base
        with np.errstate(over="ignore", invalid="ignore"):
            for t in rest:
                index = tuple(s if t.shape[a] > 1 else 0 for a, s in enumerate(states))
                np.multiply(out, t[index], out=slab)
                out = slab
        yield out


def dense_joint(model: FactorGraph, limit: int = _DENSE_BLOCK) -> np.ndarray:
    """The full joint weight tensor, one axis per variable in model order.

    Each entry multiplies the terms in ``_joint_slabs``' canonical order
    (by the lowest axis a term touches, highest first), so the tensor is
    the same bit for bit whatever the slab size.
    """
    if model.joint_size > limit:
        raise EnumerationCapError(
            f"joint space of {model.joint_size} states exceeds the dense limit {limit}"
        )
    w = np.empty(model.joint_size)
    start = 0
    for slab in _joint_slabs(model):
        w[start : start + slab.size] = slab.ravel()
        start += slab.size
    return w.reshape([model.card(v) for v in model.var_ids])


def check_subset_cap(m: int, cap: int, what: str) -> None:
    """Refuse a sum over the 2^m subsets of m ``what`` above ``cap``."""
    if 2**m > cap:
        raise EnumerationCapError(f"2^{m} {what} subsets exceed the enumeration cap {cap}")


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


def condition(model: FactorGraph, vid: VarId, state: int) -> tuple:
    """Clamp one variable, returning ``(reduced model, scale)``.

    The scale collects the clamped node potential and any factor that lost
    its whole scope, so that Z(model) = sum_s scale_s * Z(reduced_s).
    """
    if vid not in model.var_ids:
        raise ModelError(f"unknown variable {vid!r}")
    if not 0 <= state < model.card(vid):
        raise ModelError(f"state {state} out of range for variable {vid!r}")
    scale = 1.0
    pots = {}
    for v, pot in model.node_potentials.items():
        if v == vid:
            scale *= pot[state]
        else:
            pots[v] = pot
    factors = []
    for fac in model.factors:
        if vid in fac.scope:
            pos = fac.scope.index(vid)
            table = fac.table.restrict(pos, state)
            scope = fac.scope[:pos] + fac.scope[pos + 1 :]
            if not scope:
                scale *= table.values[0]
            else:
                factors.append(Factor(fac.id, scope, table))
        else:
            factors.append(fac)
    variables = [(v, model.card(v)) for v in model.var_ids if v != vid]
    return FactorGraph(variables, factors, pots), scale


def exact_partition(model: FactorGraph, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Partition function by exhaustive enumeration.

    Up to 2^22 states the joint is built in slabs of 2^16 entries and
    summed correctly rounded (equal to ``math.fsum``); larger spaces
    condition on their leading variables.  Each weight multiplies its terms
    in one canonical order (by the lowest axis a term touches, highest
    first, see ``_joint_slabs``), so Z does not depend on the slab size.
    Refuses models whose joint space exceeds ``cap``, and raises
    NumericRangeError when a weight or the sum overflows or is NaN.
    """
    size = model.joint_size
    if size > cap:
        raise EnumerationCapError(
            f"joint space of {size} states exceeds the enumeration cap {cap}"
        )
    return _partition_recursive(model)


def _partition_recursive(model: FactorGraph) -> float:
    if model.joint_size <= _DENSE_BLOCK:
        return fsum_blocks(_joint_slabs(model))
    vid = model.var_ids[0]
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the checked sum
        for s in range(model.card(vid)):
            sub, scale = condition(model, vid, s)
            parts.append(scale * _partition_recursive(sub))
    return _checked_fsum(parts)


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


def exact_marginals(
    model: FactorGraph, cap: int = _DENSE_BLOCK
) -> PseudoMarginals:
    """True node and factor marginals by enumeration.

    The output satisfies the local-consistency constraints by construction.
    Raises UnnormalizableError when the partition function is zero and
    NumericRangeError when it overflows or is NaN.
    """
    if model.joint_size > cap:
        raise EnumerationCapError(
            f"joint space of {model.joint_size} states exceeds the marginals cap {cap}"
        )
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
