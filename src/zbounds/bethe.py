"""Bethe free energy, sum-product belief propagation, and naive mean field.

The Bethe objective (log domain, temperature 1) over beliefs tau in the
local marginal polytope is

    F(tau) = sum_i <tau_i, log phi_i> + sum_a <tau_a, log psi_a>
           + sum_i H(tau_i) - sum_a <tau_a, log(tau_a / prod_i tau_i)>

with the 0*log 0 = 0 convention.  Fixed points of sum-product BP are
stationary points of F; the reported "Bethe partition function" is the
best envelope value of a multistart BP, mean-field or field-proportional
candidate, and is therefore a lower bound on the true optimum with an
unquantified gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ModelError, NumericRangeError
from .models import FactorGraph, PseudoMarginals

_NEG_INF = float("-inf")
_ZERO_TOL = 1e-12
# bethe_objective: the largest local-consistency violation it accepts
_POLYTOPE_TOL = 1e-6
# _ipf: at most this many sweeps, and a row stops once its residual is below _IPF_TOL
_IPF_SWEEPS = 300
_IPF_TOL = 1e-13
# _envelope: an IPF residual above this means margins infeasible for the support
_INFEASIBLE_TOL = 1e-8
# maximize_bethe's floor on a node potential's support; _positive_assignment_init's draws
_BELIEF_FLOOR = 1e-12
_ASSIGNMENT_TRIES = 200


def _entropy(p: np.ndarray) -> np.ndarray:
    """Entropy of each row of p (axis 0 indexes rows), with 0 log 0 = 0."""
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=tuple(range(1, p.ndim)))


def _log_support(pot: np.ndarray) -> tuple:
    """(support, log values with 0 off the support) of a nonnegative potential."""
    support = pot > 0
    return support, np.log(np.where(support, pot, 1.0))


def _energy(weights: np.ndarray, support: np.ndarray, log_pot: np.ndarray) -> tuple:
    """Per row of weights (axis 0 indexes rows): sum weights*log(pot) from
    pot's ``_log_support``, and whether weight mass sits on a zero of pot."""
    axes = tuple(range(1, weights.ndim))
    blocked = ((weights > _ZERO_TOL) & ~support).any(axis=axes)
    return np.where((weights > 0) & support, weights * log_pot, 0.0).sum(axis=axes), blocked


def bethe_objective(
    model: FactorGraph,
    tau: PseudoMarginals,
    validate: bool = True,
) -> float:
    """Evaluate the Bethe objective at the given beliefs, in log domain.

    Returns -inf when beliefs put mass on a zero of a potential.  With
    ``validate`` the beliefs are first checked against the local
    consistency constraints up to _POLYTOPE_TOL.  The one evaluator is
    ``_objective_rows``, over a stack of belief rows; this is its one-row
    case.
    """
    if validate:
        violation = tau.polytope_violation(model)
        if violation > _POLYTOPE_TOL:
            raise ModelError(
                f"beliefs violate local consistency by {violation:.3g} "
                f"(tolerance {_POLYTOPE_TOL:.3g})"
            )
    node = [np.asarray(tau.node[v], dtype=float)[None] for v in model.var_ids]
    factor = [np.asarray(tau.factor[fac.id], dtype=float)[None] for fac in model.factors]
    return float(_objective_rows(model, node, factor)[0])


def _objective_rows(model: FactorGraph, node: list, factor: list) -> np.ndarray:
    """The Bethe objective at each row of a stack of beliefs.

    ``node`` holds one (rows, card) array per variable of ``model.var_ids``
    and ``factor`` one (rows, *shape) array per factor in model order; a
    model with neither has one row.  Each row's terms are added in one
    order: per variable its energy, then its entropy; per factor its
    energy, its entropy, then one cross term per scope position.  So a
    row's value does not depend on the other rows.  A row that puts mass on
    a zero of a potential, or a factor marginal with mass where its node
    belief is 0, scores -inf.
    """
    rows = len((node + factor)[0]) if node or factor else 1
    value = np.zeros(rows)
    dead = np.zeros(rows, dtype=bool)
    for v, ti in zip(model.var_ids, node):
        pot = model.node_potential(v)
        if pot is not None:
            e, blocked = _energy(ti, *_log_support(pot))
            dead |= blocked
            value += e
        value += _entropy(ti)
    vpos = {v: k for k, v in enumerate(model.var_ids)}
    for fac, ta in zip(model.factors, factor):
        e, blocked = _energy(ta, *_log_support(fac.table.as_ndarray()))
        dead |= blocked
        value += e
        value += _entropy(ta)
        for pos, v in enumerate(fac.scope):
            marg = ta.sum(axis=tuple(1 + a for a in range(ta.ndim - 1) if a != pos))
            ti = node[vpos[v]]
            dead |= ((marg > _ZERO_TOL) & (ti <= 0)).any(axis=1)
            mask = (marg > 0) & (ti > 0)
            value += np.where(mask, marg * np.log(np.where(ti > 0, ti, 1.0)), 0.0).sum(axis=1)
    value[dead] = _NEG_INF
    return value


def _check_interior(model: FactorGraph, tau: PseudoMarginals) -> None:
    """ModelError naming the first non-positive entry among the node beliefs
    and potentials (variable by variable), then the factor beliefs and
    tables (factor by factor)."""
    named = []
    for v in model.var_ids:
        named.append((f"node belief of {v!r}", tau.node[v]))
        named.append((f"node potential of {v!r}", model.node_potential(v)))
    for fac in model.factors:
        named.append((f"factor belief of {fac.id!r}", tau.factor[fac.id]))
        named.append((f"table of factor {fac.id!r}", fac.table.as_ndarray()))
    for what, entries in named:
        if entries is None:
            continue
        entries = np.asarray(entries, dtype=float)
        bad = np.argwhere(~(entries > 0))
        if len(bad):
            at = tuple(int(k) for k in bad[0])
            raise ModelError(
                f"the Bethe gradient needs positive beliefs and potentials: "
                f"{what} is {float(entries[at])!r} at {at}"
            )


def bethe_gradient(model: FactorGraph, tau: PseudoMarginals) -> PseudoMarginals:
    """Partial derivatives of the Bethe objective w.r.t. every belief entry.

    Defined at interior points only: raises ModelError naming the first
    belief or potential entry that is not positive.  Returned in a
    PseudoMarginals-shaped container.
    """
    _check_interior(model, tau)
    node_grads = {}
    incident_marg = {v: np.zeros(model.card(v)) for v in model.var_ids}
    factor_grads = {}
    for fac in model.factors:
        ta = np.asarray(tau.factor[fac.id], dtype=float)
        g = np.log(fac.table.as_ndarray()) - np.log(ta) - 1.0
        for pos, v in enumerate(fac.scope):
            ti = np.asarray(tau.node[v], dtype=float)
            shape = [1] * ta.ndim
            shape[pos] = ti.size
            g = g + np.log(ti).reshape(shape)
            axes = tuple(a for a in range(ta.ndim) if a != pos)
            incident_marg[v] += ta.sum(axis=axes)
        factor_grads[fac.id] = g
    for v in model.var_ids:
        ti = np.asarray(tau.node[v], dtype=float)
        pot = model.node_potential(v)
        g = -np.log(ti) - 1.0 + incident_marg[v] / ti
        if pot is not None:
            g = g + np.log(pot)
        node_grads[v] = g
    return PseudoMarginals(node=node_grads, factor=factor_grads)


# ---------------------------------------------------------------------------
# Sum-product belief propagation
# ---------------------------------------------------------------------------


@dataclass
class BPState:
    """Bookkeeping of a (damped, synchronous) BP run."""

    damping: float
    iterations: int
    residual: float
    converged: bool


class _Group(NamedTuple):
    """The factors of one table shape: their indices in model order, their
    tables stacked as (factors, *shape), the stack's ``_log_support`` pair,
    per scope position the (factors,) variable indices, and per scope
    position the slice of message slots it owns (one slot per factor, in
    group order, among the slots of that position's cardinality).
    ``kernels`` holds per scope position the table stack that BP contracts
    for it: (factors, card, 1) for one axis, else the stack with that
    position's axis first and the last other axis last, as a C-contiguous
    (factors, rows, last card) matrix stack."""

    factors: list
    tables: np.ndarray
    support: np.ndarray
    log_table: np.ndarray
    scopes: np.ndarray
    slots: list
    kernels: list


class _Card(NamedTuple):
    """The variables of one cardinality: their indices, node potentials
    stacked as (variables, card), and a (variables, max degree) incidence
    array of message slots whose padding points at the slot after the
    last, which BP keeps at ones.  ``sides`` stacks the two (variables, max
    degree) gathers of the leave-one-out products: per incidence entry d,
    the ones slot then entries 0..d-1, and the ones slot then the entries
    from the last down to 1.  ``flat`` maps slot order to incidence order:
    slot s is entry ``flat[s]`` of the flattened incidence."""

    members: list
    phis: np.ndarray
    incidence: np.ndarray
    sides: np.ndarray
    flat: np.ndarray


class _MeanFieldStep(NamedTuple):
    """One variable's coordinate-ascent update, over the flat belief array
    of ``_Graph.columns``.

    Each incident factor contributes one row per joint state of its other
    scope variables; ``gather`` holds, per row, the columns of those states
    in scope order, as (max arity - 1, rows) padded with the ones column,
    so the product down axis 0 is the row's weight under product beliefs.
    ``log_table`` is the (card, rows) log table (0 off the support) with the
    variable's own axis first, and ``off_support`` the (rows, card) zeros of
    the tables, or None when every incident table is positive."""

    columns: slice
    node_score: np.ndarray
    gather: np.ndarray
    log_table: np.ndarray
    off_support: np.ndarray | None


class _Graph:
    """One model's constants for the Bethe layer, compiled once per call.

    Variables are numbered by their position in ``model.var_ids``.  Per
    variable: ``cards``; ``phis``, the node potential (ones where the model
    has none); ``node_logs``, its ``_log_support`` pair, or None where the
    model has no potential; ``start``, the potential normalized (uniform
    when it sums to 0); ``incident``, its (factor index, scope position)
    pairs; ``columns``, its slice of mean field's flat belief array, whose
    last column (after every variable's) holds ones; and ``mean_field``, its
    ``_MeanFieldStep`` (compiled on first use).
    Per factor: ``factors`` holds (id, scope positions, table); the
    table's ``_log_support`` pair is its row of its group's ``support`` and
    ``log_table``.  ``potential_order`` lists the variables with a node
    potential in the order ``models.evaluate`` multiplies them.

    The engines run on stacked arrays.  ``groups`` holds one ``_Group`` per
    table shape, in order of first appearance.  Every (factor, scope
    position) pair owns a BP message slot among the pairs of its variable's
    cardinality: ``slots`` holds each factor's slots by position, and
    ``by_card`` one ``_Card`` per cardinality.  Slots are numbered group by
    group, and within a group position by position, so each (table shape,
    scope position) owns a contiguous range of its cardinality's slots and
    BP reads and writes it as a view.
    """

    def __init__(self, model: FactorGraph) -> None:
        self.var_ids = model.var_ids
        self.cards = [model.card(v) for v in self.var_ids]
        vpos = {v: k for k, v in enumerate(self.var_ids)}
        self.phis, self.node_logs, self.start = [], [], []
        for v, card in zip(self.var_ids, self.cards):
            pot = model.node_potential(v)
            phi = np.ones(card) if pot is None else np.asarray(pot, dtype=float)
            with np.errstate(over="ignore"):
                s = phi.sum()
            if s == np.inf:  # the entries sum beyond the float range
                scaled = phi / phi.max()
                start = scaled / scaled.sum()
            else:
                start = phi / s if s > 0 else np.full(card, 1.0 / card)
            self.phis.append(phi)
            self.node_logs.append(None if pot is None else _log_support(phi))
            self.start.append(start)
        self.potential_order = [vpos[v] for v in model.node_potentials]
        self.factors = []
        self.incident = [[] for _ in self.var_ids]
        for fi, fac in enumerate(model.factors):
            table = fac.table.as_ndarray()
            if not table.any():
                raise ModelError(f"factor {fac.id!r} has an all-zero table")
            scope = tuple(vpos[v] for v in fac.scope)
            self.factors.append((fac.id, scope, table))
            for pos, vi in enumerate(scope):
                self.incident[vi].append((fi, pos))
        ends = np.cumsum(self.cards, dtype=int)
        self.columns = [slice(end - card, end) for end, card in zip(ends, self.cards)]
        shapes = {}
        for fi, (_fid, _scope, table) in enumerate(self.factors):
            shapes.setdefault(table.shape, []).append(fi)
        self.slots = [[0] * len(scope) for _fid, scope, _table in self.factors]
        count = dict.fromkeys(self.cards, 0)  # slots numbered so far, per cardinality
        self.groups = []
        for members in shapes.values():
            tables = np.array([self.factors[fi][2] for fi in members])
            scopes = np.array([self.factors[fi][1] for fi in members], dtype=int).T
            n, shape = len(members), tables.shape[1:]
            slots, kernels = [], []
            for pos, card in enumerate(shape):
                slots.append(slice(count[card], count[card] + n))
                for j, fi in enumerate(members):
                    self.slots[fi][pos] = count[card] + j
                count[card] += n
                if len(shape) == 1:
                    kernels.append(tables[:, :, None])
                else:
                    kernel = np.moveaxis(tables, 1 + pos, 1)
                    kernels.append(np.ascontiguousarray(kernel.reshape(n, -1, kernel.shape[-1])))
            self.groups.append(
                _Group(members, tables, *_log_support(tables), scopes, slots, kernels)
            )
        self.by_card = {}
        for card in dict.fromkeys(self.cards):
            members = [vi for vi, c in enumerate(self.cards) if c == card]
            degree = max(len(self.incident[vi]) for vi in members)
            incidence = np.full((len(members), degree), count[card])
            for row, vi in enumerate(members):
                for d, (fi, pos) in enumerate(self.incident[vi]):
                    incidence[row, d] = self.slots[fi][pos]
            phis = np.array([self.phis[vi] for vi in members])
            sides = np.full((2,) + incidence.shape, count[card])
            sides[0, :, 1:] = incidence[:, :-1]
            sides[1, :, 1:] = incidence[:, :0:-1]
            real = incidence < count[card]
            flat = np.empty(count[card], dtype=int)
            flat[incidence[real]] = np.flatnonzero(real)
            self.by_card[card] = _Card(members, phis, incidence, sides, flat)

    @cached_property
    def mean_field(self) -> list:
        """One ``_MeanFieldStep`` per variable, its rows in incidence order;
        each (table shape, scope position) is laid out once for all its
        factors.  Built on first use: BP and the envelope never read it."""
        ones = sum(self.cards)
        starts = np.array([cols.start for cols in self.columns], dtype=int)
        pieces = {}  # (factor, position) -> gather columns, log rows, zero rows
        for grp in self.groups:
            shape = grp.tables.shape[1:]
            for pos, card in enumerate(shape):
                rest = [l for l in range(len(shape)) if l != pos]
                dims = [shape[l] for l in rest]
                states = np.indices(dims).reshape(len(dims), math.prod(dims))
                cols = starts[grp.scopes[rest]][:, :, None] + states[:, None, :]
                logs = np.moveaxis(grp.log_table, 1 + pos, -1).reshape(len(grp.factors), -1, card)
                offs = np.moveaxis(~grp.support, 1 + pos, -1).reshape(logs.shape)
                for j, fi in enumerate(grp.factors):
                    pieces[fi, pos] = cols[:, j], logs[j], offs[j]
        plan = []
        for vi, card in enumerate(self.cards):
            parts = [pieces[fi, pos] for fi, pos in self.incident[vi]]
            depth = max([len(cols) for cols, _l, _o in parts] + [1])
            gather = np.full((depth, sum(len(logs) for _c, logs, _o in parts)), ones)
            end = 0
            for cols, logs, _offs in parts:
                gather[: len(cols), end : end + len(logs)] = cols
                end += len(logs)
            log_table = np.concatenate([np.zeros((0, card))] + [logs for _c, logs, _o in parts])
            off = np.concatenate([np.zeros((0, card), dtype=bool)] + [o for _c, _l, o in parts])
            node = self.node_logs[vi]
            plan.append(_MeanFieldStep(
                self.columns[vi],
                np.zeros(card) if node is None else np.where(node[0], node[1], _NEG_INF),
                gather,
                np.ascontiguousarray(log_table.T),
                off if off.any() else None,
            ))
        return plan


@np.errstate(over="ignore")
def _check_sums(g: _Graph) -> None:
    """NumericRangeError naming the first node potential or factor table
    whose entries sum beyond the float range: BP messages and IPF tables
    are normalized by such sums, which would silently turn them to 0."""
    named = [(f"node potential of {v!r}", phi) for v, phi in zip(g.var_ids, g.phis)]
    named += [(f"factor {fid!r}", table) for fid, _scope, table in g.factors]
    for what, table in named:
        if not np.isfinite(table.sum()):
            raise NumericRangeError(f"the entries of {what} sum beyond the float range")


def _normalize(msg: np.ndarray) -> None:
    """Normalize a (slots, card, restarts) stack in place along its state
    axis; a vector summing to 0 becomes uniform."""
    s = msg.sum(axis=1, keepdims=True)
    bad = s <= 0
    if bad.any():
        np.copyto(msg, 1.0, where=bad)
        s[bad] = msg.shape[1]
    msg /= s


def _init_messages(g: _Graph, restarts: int, seed: int | None) -> dict:
    """Variable-to-factor messages: per cardinality, a C-contiguous (slots,
    card, restarts) array, restarts innermost.

    Restart 0 is the uniform initialization; the rest are random positive,
    deterministic given the seed, drawn factor by factor in model order.
    """
    rng = np.random.default_rng(seed if seed is not None else 0)
    v2f = {c: np.empty((len(card.flat), c, restarts)) for c, card in g.by_card.items()}
    for (_fid, scope, _table), slots in zip(g.factors, g.slots):
        for vi, slot in zip(scope, slots):
            m = rng.uniform(0.05, 1.0, size=(restarts, g.cards[vi]))
            m[0, :] = 1.0
            v2f[g.cards[vi]][slot] = (m / m.sum(axis=-1, keepdims=True)).T
    return v2f


def _factor_to_var(g: _Graph, msgs: dict) -> None:
    """Fill the factor-to-variable block of each cardinality's message
    buffer (see ``_bp_engine``) from its variable-to-factor block, and
    normalize it.

    Per table shape and scope position, one ``matmul`` of the position's
    kernel with the last other position's incoming messages; each further
    position is a broadcast product summed over its state axis.
    """
    for grp in g.groups:
        shape = grp.tables.shape[1:]
        incoming = [msgs[c][slots] for c, slots in zip(shape, grp.slots)]
        for pos, (c, slots, kernel) in enumerate(zip(shape, grp.slots, grp.kernels)):
            buf = msgs[c]
            out = buf[len(buf) // 2 :][slots]
            others = incoming[:pos] + incoming[pos + 1 :]
            if not others:
                out[...] = kernel
                continue
            if len(others) == 1:
                np.matmul(kernel, others[0], out=out)
                continue
            # axes: factor, this position's state, the other states but the
            # last, restart
            m = np.matmul(kernel, others[-1])
            m = m.reshape((len(m), c) + tuple(o.shape[1] for o in others[:-1]) + m.shape[-1:])
            for k, o in enumerate(reversed(others[:-1])):
                m = m * o.reshape(o.shape[:1] + (1,) * (m.ndim - 3) + o.shape[1:])
                m = m.sum(axis=-2, out=out if k == len(others) - 2 else None)
    for buf in msgs.values():
        _normalize(buf[len(buf) // 2 : -1])


def _var_to_factor(g: _Graph, src: dict, dst: dict) -> None:
    """Fill the variable-to-factor block of each cardinality's buffer in
    dst from the factor-to-variable block of its buffer in src, and
    normalize it: each slot's node potential times the variable's other
    incoming messages, the leave-one-out products taken by exclusive prefix
    and suffix products over the incidence.  The running products go slice
    by slice down the degree axis, which gives cumprod's bits; cumprod
    itself would loop innermost over that short axis."""
    for c, card in g.by_card.items():
        f2v = src[c][len(card.flat) :]
        # C-ordered (prefix or suffix, variables, max degree, c, restarts)
        before, after = sides = f2v.take(card.sides, axis=0)
        for d in range(1, sides.shape[2]):
            sides[:, :, d] *= sides[:, :, d - 1]
        before *= card.phis[:, None, :, None]
        before *= after[:, ::-1]
        out = dst[c][: len(card.flat)]
        before.reshape(-1, c, f2v.shape[-1]).take(card.flat, axis=0, out=out)
        _normalize(out)


def _node_beliefs(g: _Graph, f2v: dict) -> list:
    """Per variable, the (restarts, card) normalized product of its node
    potential and incoming messages, multiplied in incidence order."""
    node = [None] * len(g.var_ids)
    for c, card in g.by_card.items():
        inc = f2v[c].take(card.incidence, axis=0)
        b = np.array(np.broadcast_to(card.phis[:, :, None], inc.shape[:1] + inc.shape[2:]))
        for d in range(inc.shape[1]):
            b *= inc[:, d]
        _normalize(b)
        for row, vi in enumerate(card.members):
            node[vi] = b[row].T
    return node


def _beliefs(g: _Graph, v2f: dict, f2v: dict) -> PseudoMarginals:
    """Restart 0's node and factor beliefs."""
    node = dict(zip(g.var_ids, (b[0] for b in _node_beliefs(g, f2v))))
    factor = {}
    for (fid, scope, table), slots in zip(g.factors, g.slots):
        t = table.copy()
        for pos, (vi, slot) in enumerate(zip(scope, slots)):
            shape = [1] * len(scope)
            shape[pos] = g.cards[vi]
            t = t * v2f[g.cards[vi]][slot, :, 0].reshape(shape)
        s = t.sum()
        factor[fid] = t / s if s > 0 else np.full(t.shape, 1.0 / t.size)
    return PseudoMarginals(node=node, factor=factor)


def _bp_engine(
    g: _Graph,
    v2f: dict,
    max_iters: int,
    tol: float,
    damping: float,
) -> tuple:
    """Damped synchronous sweeps until every restart's residual is < tol.

    Each cardinality's messages live in a (2 * slots + 1, card, restarts)
    buffer laid out [v2f | f2v | ones slot]; two are allocated per call and
    sweeps alternate between them.  A sweep writes the new messages into
    the other buffer, then the residual and the damping, damping * old +
    (1 - damping) * new, run once per cardinality over the whole buffer
    but the ones slot.  Returns (v2f, f2v, iterations, residuals): the last
    buffer's views, f2v with its ones slot, and each restart's residual.

    Restarts are independent to rounding, not bitwise: a restart's
    messages need not be the same bits in a batch of another width,
    because BLAS may round a ``matmul`` column differently with the number
    of columns.
    """
    # a model without variables has no messages
    restarts = next(iter(v2f.values())).shape[-1] if v2f else 1
    cur, new = {}, {}
    for c, m in v2f.items():
        cur[c], new[c] = np.empty((2, 2 * len(m) + 1, c, restarts))
        cur[c][: len(m)] = m
        cur[c][-1] = new[c][-1] = 1.0
    _factor_to_var(g, cur)
    residual = np.full(restarts, np.inf)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        _var_to_factor(g, cur, new)
        _factor_to_var(g, new)
        residual = np.zeros(restarts)
        for c in cur:
            old, fresh = cur[c][:-1], new[c][:-1]
            diff = fresh - old
            residual = np.maximum(residual, np.abs(diff, out=diff).max(axis=(0, 1), initial=0.0))
            old *= damping
            fresh *= 1.0 - damping
            fresh += old
        cur, new = new, cur
        if np.all(residual < tol):
            break
    v2f = {c: buf[: len(buf) // 2] for c, buf in cur.items()}
    f2v = {c: buf[len(buf) // 2 :] for c, buf in cur.items()}
    return v2f, f2v, iterations, residual


def _check_damping(damping: float) -> None:
    """ModelError unless 0 <= damping < 1: BP keeps that share of the old
    message, so 1 never moves and more than 1 diverges."""
    if not 0.0 <= damping < 1.0:
        raise ModelError(f"damping must lie in [0, 1), got {damping!r}")


def run_bp(
    model: FactorGraph,
    init: int | None = None,
    max_iters: int = 10_000,
    tol: float = 1e-10,
    damping: float = 0.5,
) -> tuple:
    """Run damped synchronous sum-product to (approximate) convergence.

    ``init`` is an integer seed for a random positive initialization, or
    None for uniform messages.  Returns (BPState, beliefs, Bethe objective
    at the beliefs).  Non-convergence is reported through the state's
    ``converged`` flag; the last iterate is returned either way.  Raises
    ModelError for a damping outside [0, 1) or a tolerance that is not
    positive (no residual is below 0, and none compares below NaN), and
    NumericRangeError when a potential's entries sum beyond the float range.
    """
    _check_damping(damping)
    if not tol > 0.0:
        raise ModelError(f"tolerance must be positive, got {tol!r}")
    g = _Graph(model)
    _check_sums(g)
    if init is None:
        v2f = _init_messages(g, 1, None)
    else:
        v2f = {c: m[..., 1:2] for c, m in _init_messages(g, 2, init).items()}
    v2f, f2v, iterations, residual = _bp_engine(g, v2f, max_iters, tol, damping)
    tau = _beliefs(g, v2f, f2v)
    state = BPState(
        damping=damping,
        iterations=iterations,
        residual=float(residual[0]),
        converged=bool(residual[0] < tol),
    )
    value = bethe_objective(model, tau, validate=False)
    return state, tau, value


# ---------------------------------------------------------------------------
# Node-belief envelope: optimal factor beliefs for fixed node beliefs
# ---------------------------------------------------------------------------


# an infeasible row never converges, and its ratios may overflow
@np.errstate(over="ignore")
def _ipf(kernels: np.ndarray, margins: Sequence[np.ndarray]) -> tuple:
    """Iterative proportional fitting of each of a stack of kernels onto its
    row of margins.

    ``kernels`` has shape (rows, *shape) and ``margins`` holds one (rows,
    card) array per table axis; each row is fitted on its own.  A row stops
    once a sweep leaves its residual below ``_IPF_TOL``, so it makes the same
    sweeps as when fitted alone.  Each row converges to the maximizer of
    <tau, log kernel> + H(tau) subject to its margin constraints whenever
    they are feasible for the kernel's support.  Returns (tables of the
    kernels' shape, residuals): a residual that stays large means the row's
    margins are infeasible for the support.
    """
    t = np.asarray(kernels, dtype=float)
    t = t / t.sum(axis=tuple(range(1, t.ndim)), keepdims=True)
    residual = np.zeros(len(t))
    # the rows still sweeping: their indices, tables and margins
    active, cur_t, targets = np.arange(len(t)), t, list(margins)
    for _ in range(_IPF_SWEEPS):
        worst = np.zeros(len(active))
        for axis, target in enumerate(targets):
            axes = tuple(1 + a for a in range(t.ndim - 1) if a != axis)
            cur = cur_t.sum(axis=axes)
            worst = np.maximum(worst, np.abs(cur - target).max(axis=1))
            if cur.min() > 0:  # cheaper than dividing under a mask
                ratio = target / cur
            else:  # a state without mass gets scaling 0
                ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
            shape = [len(active)] + [1] * (t.ndim - 1)
            shape[1 + axis] = target.shape[1]
            cur_t = cur_t * ratio.reshape(shape)
        residual[active] = worst
        done = worst < _IPF_TOL
        if done.any():
            t[active[done]] = cur_t[done]
            going = ~done
            active, cur_t = active[going], cur_t[going]
            targets = [target[going] for target in targets]
            if not active.size:
                break
    t[active] = cur_t
    return t, residual


def _node_terms(g: _Graph, nu: list, rows: int) -> tuple:
    """Per row of node beliefs nu (one (rows, card) array per variable):
    the sum over variables of <nu_i, log phi_i> + H(nu_i), added variable
    by variable, whether mass sits on a zero of a node potential, and each
    variable's (rows,) entropies."""
    entropy = [_entropy(ni) for ni in nu]
    value = np.zeros(rows)
    dead = np.zeros(rows, dtype=bool)
    for u, node in enumerate(g.node_logs):
        if node is not None:
            e, blocked = _energy(nu[u], *node)
            dead |= blocked
            value += e
        value += entropy[u]
    return value, dead, entropy


def _envelope(g: _Graph, nu: list) -> tuple:
    """Best Bethe value over factor beliefs consistent with node beliefs nu,
    for a batch of rows.

    ``nu`` holds one (rows, card) array per variable; a model without
    variables has one row, its empty profile.  The inner problems
    decouple per factor and are solved by IPF, one call per table shape
    over the rows of all its factors, so the returned beliefs always
    satisfy the consistency constraints (up to IPF tolerance).  Returns
    (values, factor beliefs by id per row).  A row whose margins are
    infeasible for a table's support, or whose mass sits on a zero, scores
    -inf with ``{}``.  Each row's terms are added factor by factor in model
    order, as for that row alone, so its value and beliefs do not depend on
    the other rows.
    """
    rows = len(nu[0]) if nu else 1
    value, dead, entropy = _node_terms(g, nu, rows)
    factor_beliefs = [{} for _ in range(rows)]
    fits = [None] * len(g.factors)
    for grp in g.groups:
        # one row per (factor, row), factor-major
        size = (len(grp.factors), rows)
        if len(grp.scopes):
            kernels = np.repeat(grp.tables, rows, axis=0)
            margins = [np.concatenate([nu[u] for u in col]) for col in grp.scopes]
            t, residual = _ipf(kernels, margins)
        else:  # constant factors: belief 1, so each row gains its log value
            t, residual = np.ones(size).ravel(), np.zeros(size).ravel()
        t = t.reshape(size + t.shape[1:])
        residual = residual.reshape(size)
        for j, fi in enumerate(grp.factors):
            fits[fi] = t[j], residual[j], grp.support[j], grp.log_table[j]
    for (fid, scope, _table), (t, residual, support, log_table) in zip(g.factors, fits):
        e, blocked = _energy(t, support, log_table)
        # margins infeasible for the table's support: no consistent factor
        # belief exists, so the row is invalid
        dead |= (residual > _INFEASIBLE_TOL) | blocked
        value += e + _entropy(t)
        for u in scope:
            value -= entropy[u]
        for r, tr in enumerate(t):
            factor_beliefs[r][fid] = tr
    value[dead] = _NEG_INF
    return value, [{} if d else f for d, f in zip(dead, factor_beliefs)]


def partition_from_log(log_z: float, what: str) -> float:
    """exp(log_z), 0 for -inf; NumericRangeError when it overflows."""
    if log_z == _NEG_INF:
        return 0.0
    try:
        return math.exp(log_z)
    except OverflowError:
        raise NumericRangeError(
            f"{what} is out of float range (log Z = {float(log_z)!r})"
        ) from None


# the largest models maximize_bethe and mean_field accept
DEFAULT_MAX_VARS = 20
DEFAULT_MAX_FACTORS = 40
# maximize_bethe's BP chains stop once every residual is below this
_BP_TOL = 1e-10
# mean_field's coordinate ascent: at most this many sweeps, and a restart
# stops once a sweep changes none of its beliefs by _MF_TOL or more
_MF_SWEEPS = 300
_MF_TOL = 1e-12


def _check_budget(model: FactorGraph) -> None:
    if model.num_vars > DEFAULT_MAX_VARS or len(model.factors) > DEFAULT_MAX_FACTORS:
        raise ModelError(
            f"model with {model.num_vars} variables / {len(model.factors)} factors "
            f"exceeds the optimizer budget ({DEFAULT_MAX_VARS} / {DEFAULT_MAX_FACTORS})"
        )


def maximize_bethe(
    model: FactorGraph,
    restarts: int = 64,
    seed: int = 0,
    bp_iters: int = 2_000,
    damping: float = 0.5,
    refine_steps: int | None = None,
    refine_top: int | None = None,
) -> tuple:
    """Best-found Bethe partition function and its beliefs.

    Runs ``restarts`` damped BP chains from random positive messages
    (restart 0 is uniform), adds the mean-field solution and the normalized
    node potentials (uniform where a variable has none) as candidates,
    floors each on its node potential's support, and scores them all in one
    batched envelope call, which re-derives consistent factor beliefs.  The first candidate of
    highest value wins; exp of its objective is a lower bound on the true
    Bethe optimum (the remaining gap is not quantified).  ``refine_steps``
    and ``refine_top`` are ignored, kept while the benchmark passes them.
    Raises ModelError for a damping outside [0, 1), restarts below 1, or a
    model above DEFAULT_MAX_VARS variables or DEFAULT_MAX_FACTORS factors, and
    NumericRangeError when that value, the Z_MF computed on the way
    (Z_MF <= Z_B), or the sum of a potential's entries is beyond the float
    range.
    """
    _check_budget(model)
    _check_damping(damping)
    if restarts < 1:
        raise ModelError(f"restarts must be >= 1, got {restarts!r}")
    g = _Graph(model)
    _check_sums(g)
    # blocks of candidate rows, one (rows, card) array per variable each
    blocks = []

    if g.factors:
        v2f = _init_messages(g, restarts, seed)
        v2f, f2v, _iters, _residual = _bp_engine(g, v2f, bp_iters, _BP_TOL, damping)
        blocks.append(_node_beliefs(g, f2v))

    mf_nu, _mf_value = mean_field(model, restarts=min(16, max(4, restarts)), seed=seed)
    blocks.append([mf_nu[v][None] for v in g.var_ids])
    blocks.append([s[None] for s in g.start])  # field-proportional

    # entries off a node potential's support are kept, so a zero there stays zero
    nu = []
    for vi, node in enumerate(g.node_logs):
        ni = np.concatenate([b[vi] for b in blocks])
        ni = np.where(True if node is None else node[0], np.maximum(ni, _BELIEF_FLOOR), ni)
        nu.append(ni / ni.sum(axis=-1, keepdims=True))
    values, factors = _envelope(g, nu)
    # the first of the highest; a model without variables has one row
    best = int(np.argmax(values))
    tau = PseudoMarginals(
        node={v: b[best] for v, b in zip(g.var_ids, nu)}, factor=dict(factors[best])
    )
    return tau, partition_from_log(values[best], "Bethe partition function")


def mean_field(
    model: FactorGraph,
    restarts: int = 16,
    seed: int = 0,
) -> tuple:
    """Naive mean field by coordinate ascent over product beliefs.

    Maximizes the Bethe objective restricted to fully factorized beliefs
    (where the factor-correlation term vanishes), so the result never
    exceeds the Bethe optimum and always lower-bounds the true partition
    function.  Returns (node marginals, Z_MF); raises NumericRangeError when
    Z_MF is beyond the float range.

    All restarts advance together, one row each in a ``(restarts, sum of
    cardinalities + 1)`` array that holds every variable's beliefs side by
    side (``_Graph.columns``) and ends in a column of ones; a restart whose
    sweep changes no belief by _MF_TOL or more stops moving while the others
    go on, for at most _MF_SWEEPS sweeps.  A restart's result does not
    depend on the other restarts.  Raises ModelError for restarts below 1,
    or above DEFAULT_MAX_VARS variables or DEFAULT_MAX_FACTORS factors.
    """
    _check_budget(model)
    if restarts < 1:
        raise ModelError(f"restarts must be >= 1, got {restarts!r}")
    g = _Graph(model)
    rng = np.random.default_rng(seed)

    # restart 0 starts at the normalized node potentials; the others at
    # uniform(0.05, 1) draws, restart by restart and variable by variable
    # (one draw of the whole block takes them in that order), each
    # variable's normalized; a last row at a positive assignment, if found
    nu = np.ones((restarts + 1, sum(g.cards) + 1))
    draws = rng.uniform(0.05, 1.0, size=(restarts - 1, sum(g.cards)))
    for cols, start in zip(g.columns, g.start):
        nu[0, cols] = start
        nu[1:restarts, cols] = draws[:, cols] / draws[:, cols].sum(axis=1, keepdims=True)
    support_init = _positive_assignment_init(g, rng)
    if support_init is None:
        nu = nu[:restarts]
    else:
        for cols, p in zip(g.columns, support_init):
            nu[restarts, cols] = p

    active = np.arange(len(nu))
    for _sweep in range(_MF_SWEEPS):
        rows = nu[active]
        delta = _mean_field_sweep(rows, g.mean_field)
        nu[active] = rows
        active = active[delta >= _MF_TOL]
        if active.size == 0:
            break

    values = _mean_field_values(g, [nu[:, cols] for cols in g.columns], len(nu))
    best = int(np.argmax(values))  # the first of equal maxima
    if values[best] == _NEG_INF:
        return dict(zip(g.var_ids, g.start)), 0.0
    best_nu = {v: nu[best, cols] for v, cols in zip(g.var_ids, g.columns)}
    return best_nu, partition_from_log(values[best], "mean-field partition function")


def _mean_field_values(g: _Graph, nu: list, rows: int) -> np.ndarray:
    """The Bethe objective at the product beliefs of each row of nu, in
    closed form.

    At product beliefs every factor's entropy cancels against its
    variables' correction terms, so a row scores its node terms plus, per
    factor, the expectation of log psi under the product of its scope's
    beliefs; -inf where mass sits on a zero of a potential.
    """
    value, dead, _ = _node_terms(g, nu, rows)
    for grp in g.groups:
        shape = grp.tables.shape
        w = np.ones((rows,) + (1,) * len(shape))
        for l, col in enumerate(grp.scopes):
            axes = [rows, shape[0]] + [1] * (len(shape) - 1)
            axes[2 + l] = shape[1 + l]
            w = w * np.stack([nu[u] for u in col], axis=1).reshape(axes)
        e, blocked = _energy(w, grp.support, grp.log_table)
        value += e
        dead |= blocked
    value[dead] = _NEG_INF
    return value


def _mean_field_sweep(nu: np.ndarray, plan: list) -> np.ndarray:
    """One coordinate-ascent pass over the variables, in place.

    ``nu`` is the flat (restarts, sum of cardinalities + 1) belief array
    and ``plan`` is ``_Graph.mean_field``; returns each restart's largest
    belief change.
    Each restart's score terms are summed along the last axis of a
    C-ordered array, so its step does not depend on the other restarts.
    """
    before = nu.copy()
    for cols, node_score, gather, log_table, off_support in plan:
        # C-ordered (restarts, max arity - 1, rows); fancy indexing would
        # put the restarts innermost
        beliefs = nu.take(gather, axis=1)
        w = beliefs[:, 0]
        for l in range(1, len(gather)):
            w = w * beliefs[:, l]
        score = node_score + (w[:, None, :] * log_table).sum(axis=2)
        if off_support is not None:
            score[(w > _ZERO_TOL) @ off_support] = _NEG_INF
        top = score.max(axis=-1, keepdims=True)
        if top.min() > _NEG_INF:  # every row moves: no masks needed
            e = np.exp(score - top)
            nu[:, cols] = e / e.sum(axis=-1, keepdims=True)
            continue
        movable = top > _NEG_INF  # a row scored -inf everywhere keeps its belief
        e = np.exp(score - np.where(movable, top, 0.0))
        new = e / np.where(movable, e.sum(axis=-1, keepdims=True), 1.0)
        nu[:, cols] = np.where(movable, new, nu[:, cols])
    return np.abs(nu - before).max(axis=1)


# a weight that overflows to inf still marks a positive assignment
@np.errstate(over="ignore")
def _positive_assignment_init(g: _Graph, rng):
    """One-hot beliefs at a sampled positive-weight assignment, if found.

    Gives coordinate ascent a feasible starting point on models whose
    tables contain hard zeros, where interior initializations are blocked
    in every direction.  The first heaviest of ``_ASSIGNMENT_TRIES`` uniform draws wins;
    each weight is multiplied up in ``models.evaluate``'s order.
    """
    draws = rng.integers(0, g.cards, size=(_ASSIGNMENT_TRIES, len(g.cards)))
    w = np.ones(_ASSIGNMENT_TRIES)
    for vi in g.potential_order:
        w = w * g.phis[vi][draws[:, vi]]
    for _fid, scope, table in g.factors:
        w = w * table[tuple(draws[:, vi] for vi in scope)]
    best = int(np.argmax(w))
    if not w[best] > 0:
        return None
    init = []
    for vi, card in enumerate(g.cards):
        p = np.zeros(card)
        p[draws[best, vi]] = 1.0
        init.append(p)
    return init
