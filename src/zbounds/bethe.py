"""Bethe free energy, sum-product belief propagation, and naive mean field.

The Bethe objective (log domain, temperature 1) over beliefs tau in the
local marginal polytope is

    F(tau) = sum_i <tau_i, log phi_i> + sum_a <tau_a, log psi_a>
           + sum_i H(tau_i) - sum_a <tau_a, log(tau_a / prod_i tau_i)>

with the 0*log 0 = 0 convention.  Fixed points of sum-product BP are
stationary points of F; the reported "Bethe partition function" is the
best value found by multistart BP plus a feasible ascent refinement, and
is therefore a lower bound on the true optimum with an unquantified gap.
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
    polytope_tol: float = 1e-6,
) -> float:
    """Evaluate the Bethe objective at the given beliefs, in log domain.

    Returns -inf when beliefs put mass on a zero of a potential.  With
    ``validate`` the beliefs are first checked against the local
    consistency constraints up to ``polytope_tol``.
    """
    if validate:
        violation = tau.polytope_violation(model)
        if violation > polytope_tol:
            raise ModelError(
                f"beliefs violate local consistency by {violation:.3g} "
                f"(tolerance {polytope_tol:.3g})"
            )
    total = 0.0
    for v in model.var_ids:
        ti = np.asarray(tau.node[v], dtype=float)
        pot = model.node_potential(v)
        if pot is not None:
            e, blocked = _energy(ti[None], *_log_support(pot))
            if blocked[0]:
                return _NEG_INF
            total += float(e[0])
        total += float(_entropy(ti[None])[0])
    for fac in model.factors:
        ta = np.asarray(tau.factor[fac.id], dtype=float)
        e, blocked = _energy(ta[None], *_log_support(fac.table.as_ndarray()))
        if blocked[0]:
            return _NEG_INF
        total += float(e[0])
        total += float(_entropy(ta[None])[0])
        for pos, v in enumerate(fac.scope):
            axes = tuple(a for a in range(ta.ndim) if a != pos)
            marg = ta.sum(axis=axes)
            ti = np.asarray(tau.node[v], dtype=float)
            if np.any((marg > _ZERO_TOL) & (ti <= 0)):
                return _NEG_INF
            mask = (marg > 0) & (ti > 0)
            total += float(
                np.sum(np.where(mask, marg * np.log(np.where(ti > 0, ti, 1.0)), 0.0))
            )
    return total


def bethe_gradient(model: FactorGraph, tau: PseudoMarginals) -> PseudoMarginals:
    """Partial derivatives of the Bethe objective w.r.t. every belief entry.

    Valid at interior points (all beliefs and potentials positive); returned
    in a PseudoMarginals-shaped container.
    """
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
    and per scope position the (factors,) variable indices and message
    slots."""

    factors: list
    tables: np.ndarray
    support: np.ndarray
    log_table: np.ndarray
    scopes: np.ndarray
    slots: np.ndarray


class _Card(NamedTuple):
    """The variables of one cardinality: their indices, node potentials
    stacked as (variables, card), and a (variables, max degree) incidence
    array of message slots whose padding points at the slot after the
    last, which BP keeps at ones; ``valid`` marks the real entries."""

    members: list
    phis: np.ndarray
    incidence: np.ndarray
    valid: np.ndarray


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
    Per factor: ``factors`` holds (id, scope positions, table) and
    ``factor_logs`` the table's ``_log_support`` pair.  ``potential_order``
    lists the variables with a node potential in the order
    ``models.evaluate`` multiplies them.

    The engines run on stacked arrays.  ``groups`` holds one ``_Group`` per
    table shape, in order of first appearance.  Every (factor, scope
    position) pair owns a BP message slot among the pairs of its variable's
    cardinality: ``slots`` holds each factor's slots by position, and
    ``by_card`` one ``_Card`` per cardinality.  Slots are numbered variable
    by variable, each variable's in its incidence order.
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
        self.factors, self.factor_logs = [], []
        self.incident = [[] for _ in self.var_ids]
        for fi, fac in enumerate(model.factors):
            table = fac.table.as_ndarray()
            if not table.any():
                raise ModelError(f"factor {fac.id!r} has an all-zero table")
            scope = tuple(vpos[v] for v in fac.scope)
            self.factors.append((fac.id, scope, table))
            self.factor_logs.append(_log_support(table))
            for pos, vi in enumerate(scope):
                self.incident[vi].append((fi, pos))
        ends = np.cumsum(self.cards, dtype=int)
        self.columns = [slice(end - card, end) for end, card in zip(ends, self.cards)]
        self.slots = [[0] * len(scope) for _fid, scope, _table in self.factors]
        self.by_card = {}
        for card in dict.fromkeys(self.cards):
            members = [vi for vi, c in enumerate(self.cards) if c == card]
            degree = max(len(self.incident[vi]) for vi in members)
            count = sum(len(self.incident[vi]) for vi in members)
            incidence = np.full((len(members), degree), count)
            slot = 0
            for row, vi in enumerate(members):
                for d, (fi, pos) in enumerate(self.incident[vi]):
                    incidence[row, d] = self.slots[fi][pos] = slot
                    slot += 1
            phis = np.array([self.phis[vi] for vi in members])
            self.by_card[card] = _Card(members, phis, incidence, incidence < count)
        shapes = {}
        for fi, (_fid, _scope, table) in enumerate(self.factors):
            shapes.setdefault(table.shape, []).append(fi)
        self.groups = []
        for members in shapes.values():
            tables = np.array([self.factors[fi][2] for fi in members])
            scopes = np.array([self.factors[fi][1] for fi in members], dtype=int).T
            slots = np.array([self.slots[fi] for fi in members], dtype=int).T
            self.groups.append(_Group(members, tables, *_log_support(tables), scopes, slots))

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


def _normalize_rows(msg: np.ndarray) -> np.ndarray:
    """msg normalized along its last axis; a vector summing to 0 becomes
    uniform."""
    s = msg.sum(axis=-1, keepdims=True)
    bad = s <= 0
    if bad.any():
        msg = np.where(bad, 1.0, msg)
        s = np.where(bad, msg.shape[-1], s)
    return msg / s


def _init_messages(g: _Graph, restarts: int, seed: int | None) -> dict:
    """Variable-to-factor messages: per cardinality, a (restarts, slots,
    card) array.

    Restart 0 is the uniform initialization; the rest are random positive,
    deterministic given the seed, drawn factor by factor in model order.
    """
    rng = np.random.default_rng(seed if seed is not None else 0)
    v2f = {c: np.empty((restarts, card.valid.sum(), c)) for c, card in g.by_card.items()}
    for (_fid, scope, _table), slots in zip(g.factors, g.slots):
        for vi, slot in zip(scope, slots):
            c = g.cards[vi]
            m = rng.uniform(0.05, 1.0, size=(restarts, c))
            m[0, :] = 1.0
            v2f[c][:, slot] = _normalize_rows(m)
    return v2f


def _factor_to_var(g: _Graph, v2f: dict, restarts: int) -> dict:
    """Factor-to-variable messages from v2f: per cardinality, a (restarts,
    slots + 1, card) array whose last slot is the ones that pad
    ``_Card.incidence``.  One product and sum per table shape and scope
    position."""
    f2v = {c: np.ones((restarts, v.shape[1] + 1, c)) for c, v in v2f.items()}
    for grp in g.groups:
        shape = grp.tables.shape[1:]
        incoming = [v2f[c][:, slots] for c, slots in zip(shape, grp.slots)]
        for pos, (c, slots) in enumerate(zip(shape, grp.slots)):
            if len(shape) == 1:
                m = np.broadcast_to(grp.tables, (restarts,) + grp.tables.shape)
            else:
                # axes: 0 factor, 1 restart, 2 + l table axis l
                operands = [grp.tables, [0, *range(2, 2 + len(shape))]]
                for l, msg in enumerate(incoming):
                    if l != pos:
                        operands += [msg, [1, 0, 2 + l]]
                m = np.einsum(*operands, [1, 0, 2 + pos])
            f2v[c][:, slots] = _normalize_rows(m)
    return f2v


def _var_to_factor(g: _Graph, f2v: dict) -> dict:
    """Variable-to-factor messages: each slot's node potential times the
    variable's other incoming messages, the leave-one-out products taken by
    exclusive prefix and suffix products over the incidence."""
    v2f = {}
    for c, card in g.by_card.items():
        inc = f2v[c][:, card.incidence]  # (restarts, variables, max degree, c)
        ones = np.ones(inc.shape[:2] + (1, c))
        before = np.cumprod(np.concatenate([ones, inc[:, :, :-1]], axis=2), axis=2)
        after = np.cumprod(np.concatenate([ones, inc[:, :, :0:-1]], axis=2), axis=2)
        m = card.phis[:, None] * before * after[:, :, ::-1]
        v2f[c] = _normalize_rows(m[:, card.valid])
    return v2f


def _node_beliefs(g: _Graph, f2v: dict) -> list:
    """Per variable, the (restarts, card) normalized product of its node
    potential and incoming messages, multiplied in incidence order."""
    node = [None] * len(g.var_ids)
    for c, card in g.by_card.items():
        inc = f2v[c][:, card.incidence]
        b = np.broadcast_to(card.phis, inc.shape[:2] + (c,))
        for d in range(inc.shape[2]):
            b = b * inc[:, :, d]
        b = _normalize_rows(b)
        for row, vi in enumerate(card.members):
            node[vi] = b[:, row]
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
            t = t * v2f[g.cards[vi]][0, slot].reshape(shape)
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
    """Damped synchronous sweeps until every restart's residual is < tol."""
    # a model without variables has no messages
    restarts = next(iter(v2f.values())).shape[0] if v2f else 1
    f2v = _factor_to_var(g, v2f, restarts)
    residual = np.full(restarts, np.inf)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_v2f = _var_to_factor(g, f2v)
        new_f2v = _factor_to_var(g, new_v2f, restarts)
        residual = np.zeros(restarts)
        for c in v2f:
            for old, new in ((v2f[c], new_v2f[c]), (f2v[c], new_f2v[c])):
                residual = np.maximum(residual, np.abs(new - old).max(axis=(1, 2), initial=0.0))
            v2f[c] = damping * v2f[c] + (1.0 - damping) * new_v2f[c]
            f2v[c] = damping * f2v[c] + (1.0 - damping) * new_f2v[c]
        if np.all(residual < tol):
            break
    return v2f, f2v, iterations, residual


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
    NumericRangeError when a potential's entries sum beyond the float range.
    """
    g = _Graph(model)
    _check_sums(g)
    if init is None:
        v2f = _init_messages(g, 1, None)
    else:
        v2f = {c: m[1:2] for c, m in _init_messages(g, 2, init).items()}
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


# an infeasible row never converges, and its scalings may overflow
@np.errstate(over="ignore", divide="ignore")
def _ipf(kernels: np.ndarray, margins: Sequence[np.ndarray], iters: int = 300,
         tol: float = 1e-13) -> tuple:
    """Iterative proportional fitting of each of a stack of kernels onto its
    row of margins.

    ``kernels`` has shape (rows, *shape) and ``margins`` holds one (rows,
    card) array per table axis; each row is fitted on its own.  A row stops
    once a sweep leaves its residual below ``tol``, so it makes the same
    sweeps as when fitted alone.  Each row converges to the maximizer of
    <tau, log kernel> + H(tau) subject to its margin constraints whenever
    they are feasible for the kernel's support.  Returns (tables of the
    kernels' shape, residuals, log-scalings): a residual that stays large
    means the row's margins are infeasible for the support, and the
    log-scalings hold one (rows, card) array per axis, the log of the
    product of every scaling applied along it (-inf where a state's scaling
    reached 0).  They are the Lagrange multipliers of the margin
    constraints, up to a constant per axis.
    """
    t = np.asarray(kernels, dtype=float)
    t = t / t.sum(axis=tuple(range(1, t.ndim)), keepdims=True)
    residual = np.zeros(len(t))
    scale = [np.ones(target.shape) for target in margins]
    # the rows still sweeping: their indices, tables, margins and scalings
    active, cur_t, targets, cur_scale = np.arange(len(t)), t, list(margins), list(scale)
    for _ in range(iters):
        worst = np.zeros(len(active))
        for axis, target in enumerate(targets):
            axes = tuple(1 + a for a in range(t.ndim - 1) if a != axis)
            cur = cur_t.sum(axis=axes)
            worst = np.maximum(worst, np.abs(cur - target).max(axis=1))
            ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
            shape = [len(active)] + [1] * (t.ndim - 1)
            shape[1 + axis] = target.shape[1]
            cur_t = cur_t * ratio.reshape(shape)
            cur_scale[axis] = cur_scale[axis] * ratio
        residual[active] = worst
        done = worst < tol
        if done.any():
            t[active[done]] = cur_t[done]
            for s, cs in zip(scale, cur_scale):
                s[active[done]] = cs[done]
            going = ~done
            active, cur_t = active[going], cur_t[going]
            targets = [target[going] for target in targets]
            cur_scale = [cs[going] for cs in cur_scale]
            if not active.size:
                break
    t[active] = cur_t
    for s, cs in zip(scale, cur_scale):
        s[active] = cs
    return t, residual, [np.log(s) for s in scale]


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
    (values, factor beliefs by id per row, and per variable the (rows,
    card) sum of its factors' IPF log-scalings).  A row whose margins are
    infeasible for a table's support, or whose mass sits on a zero, scores
    -inf with ``{}``; its log-scalings are meaningless.  Each row's terms
    are added factor by factor in model order, as for that row alone, so
    its value and beliefs do not depend on the other rows.
    """
    rows = len(nu[0]) if nu else 1
    value, dead, entropy = _node_terms(g, nu, rows)
    lam = [np.zeros(ni.shape) for ni in nu]
    factor_beliefs = [{} for _ in range(rows)]
    # rows the node terms have killed are not fitted
    live = np.flatnonzero(~dead)
    if not live.size:
        return np.full(rows, _NEG_INF), factor_beliefs, lam
    fits = [None] * len(g.factors)
    for grp in g.groups:
        # one row per (factor, live row), factor-major
        size = (len(grp.factors), live.size)
        if len(grp.scopes):
            kernels = np.repeat(grp.tables, live.size, axis=0)
            margins = [np.concatenate([nu[u][live] for u in col]) for col in grp.scopes]
            t, residual, log_scale = _ipf(kernels, margins)
        else:  # constant factors: belief 1, so each row gains its log value
            t, residual, log_scale = np.ones(size).ravel(), np.zeros(size).ravel(), []
        t = t.reshape(size + t.shape[1:])
        residual = residual.reshape(size)
        log_scale = [ls.reshape(size + ls.shape[1:]) for ls in log_scale]
        for j, fi in enumerate(grp.factors):
            fits[fi] = t[j], residual[j], [ls[j] for ls in log_scale]
    for fi, (fid, scope, _table) in enumerate(g.factors):
        t, residual, log_scale = fits[fi]
        e, blocked = _energy(t, *g.factor_logs[fi])
        # residual above 1e-8: margins infeasible for the table's support;
        # no consistent factor belief exists, so the row is invalid
        dead[live] |= (residual > 1e-8) | blocked
        value[live] += e + _entropy(t)
        for u, ls in zip(scope, log_scale):
            value[live] -= entropy[u][live]
            lam[u][live] += ls
        for r, tr in zip(live, t):
            factor_beliefs[r][fid] = tr
    value[dead] = _NEG_INF
    return value, [{} if d else f for d, f in zip(dead, factor_beliefs)], lam


def _clean_nu(g: _Graph, nu: list, floor: float = 1e-12) -> list:
    """Node beliefs floored on each node potential's support and
    renormalized along their last axis; entries off the support are kept,
    so a zero there stays a zero."""
    out = []
    for ni, node in zip(nu, g.node_logs):
        ni = np.asarray(ni, dtype=float)
        ni = np.where(True if node is None else node[0], np.maximum(ni, floor), ni)
        out.append(ni / ni.sum(axis=-1, keepdims=True))
    return out


def _softmax(theta: np.ndarray) -> np.ndarray:
    e = np.exp(theta - theta.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _logit_gradient(g: _Graph, nu: list, lam: list) -> list:
    """Gradient of the envelope in the logits of one row of node beliefs.

    With the factor beliefs optimal for nu, the envelope's gradient in nu_i
    is log phi_i + (d_i - 1)(log nu_i + 1) - sum_a lambda_ai, where d_i is
    the variable's degree and lambda_ai the log-scalings of its factors
    (the envelope theorem).  Through the softmax that becomes
    nu_i * (grad - <nu_i, grad>).  Entries off the node potential's support
    and non-finite entries get gradient 0.
    """
    out = []
    for vi, (ni, li) in enumerate(zip(nu, lam)):
        support, log_phi = (True, 0.0) if g.node_logs[vi] is None else g.node_logs[vi]
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = log_phi + (len(g.incident[vi]) - 1) * (np.log(ni) + 1.0) - li
        grad = np.where(np.isfinite(grad) & support, grad, 0.0)
        out.append(ni * (grad - ni @ grad))
    return out


def _polish_nu(g: _Graph, nu: list, steps: int) -> tuple:
    """Ascent on node beliefs through the envelope, in logit coordinates.

    One envelope call scores the start point; each of the ``steps`` then
    makes one batched call over the backtracking rates, rate, rate / 2,
    ... >= 1e-4, and takes the first that improves, growing the next
    step's rate by 1.5 (at most 10).  The gradient comes from the IPF
    log-scalings of the current point.  Every iterate is feasible because
    factor beliefs are re-derived by IPF; a zero belief stays zero.
    """
    nu = _clean_nu(g, [np.asarray(ni)[None] for ni in nu])
    values, factors, lam = _envelope(g, nu)
    best_nu = [ni[0] for ni in nu]
    best_val, best_factors, best_lam = values[0], factors[0], [li[0] for li in lam]
    rate = 0.5
    for _ in range(steps):
        if best_val == _NEG_INF:  # an infeasible start has no gradient
            break
        rates = []
        while rate >= 1e-4:
            rates.append(rate)
            rate *= 0.5
        stepped = []
        for ni, d in zip(best_nu, _logit_gradient(g, best_nu, best_lam)):
            with np.errstate(divide="ignore"):
                moved = np.log(ni) + np.array(rates)[:, None] * d
            # a zero belief (logit -inf) stays zero
            np.clip(moved, -40.0, 40.0, out=moved, where=np.isfinite(moved))
            stepped.append(_softmax(moved))
        values, factors, lam = _envelope(g, stepped)
        better = np.flatnonzero(values > best_val)
        if not better.size:
            break
        k = better[0]
        best_nu = [rows[k] for rows in stepped]
        best_val, best_factors, best_lam = values[k], factors[k], [li[k] for li in lam]
        rate = min(rates[k] * 1.5, 10.0)
    return best_nu, best_factors, best_val


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


DEFAULT_MAX_VARS = 20
DEFAULT_MAX_FACTORS = 40


def _check_budget(model: FactorGraph, max_vars: int, max_factors: int) -> None:
    if model.num_vars > max_vars or len(model.factors) > max_factors:
        raise ModelError(
            f"model with {model.num_vars} variables / {len(model.factors)} factors "
            f"exceeds the optimizer budget ({max_vars} / {max_factors})"
        )


def maximize_bethe(
    model: FactorGraph,
    restarts: int = 64,
    seed: int = 0,
    bp_iters: int = 2_000,
    bp_tol: float = 1e-10,
    damping: float = 0.5,
    refine_steps: int = 60,
    refine_top: int = 2,
    max_vars: int = DEFAULT_MAX_VARS,
    max_factors: int = DEFAULT_MAX_FACTORS,
) -> tuple:
    """Best-found Bethe partition function and its beliefs.

    Runs ``restarts`` damped BP chains from random positive messages
    (restart 0 is uniform), adds the mean-field solution and flat beliefs
    as candidates, re-derives consistent factor beliefs for every
    candidate through the envelope, and polishes the best few by feasible
    ascent.  The returned value is exp of the best objective seen; it is a
    lower bound on the true Bethe optimum (the remaining gap is not
    quantified).  Raises NumericRangeError when that value, the Z_MF
    computed on the way (Z_MF <= Z_B), or the sum of a potential's entries
    is beyond the float range.
    """
    _check_budget(model, max_vars, max_factors)
    g = _Graph(model)
    _check_sums(g)
    # blocks of candidate rows, one (rows, card) array per variable each
    blocks = []

    if g.factors:
        v2f = _init_messages(g, max(1, restarts), seed)
        v2f, f2v, _iters, _residual = _bp_engine(g, v2f, bp_iters, bp_tol, damping)
        blocks.append(_node_beliefs(g, f2v))

    mf_nu, _mf_value = mean_field(
        model,
        restarts=min(16, max(4, restarts)),
        seed=seed,
        max_vars=max_vars,
        max_factors=max_factors,
    )
    blocks.append([mf_nu[v][None] for v in g.var_ids])
    blocks.append([np.full((1, card), 1.0 / card) for card in g.cards])
    blocks.append([s[None] for s in g.start])  # field-proportional

    nu = _clean_nu(g, [np.concatenate([b[vi] for b in blocks]) for vi in range(len(g.cards))])
    values, factors, _lam = _envelope(g, nu)
    # a stable sort: ties keep candidate order; a model without variables
    # has one row
    scored = sorted(range(len(values)), key=values.__getitem__, reverse=True)

    best = scored[0]
    best_val, best_nu, best_factors = values[best], [b[best] for b in nu], factors[best]
    for r in scored[: max(1, refine_top)]:
        if refine_steps > 0:
            r_nu, r_factors, r_val = _polish_nu(g, [b[r] for b in nu], steps=refine_steps)
            if r_val > best_val:
                best_val, best_nu, best_factors = r_val, r_nu, r_factors

    tau = PseudoMarginals(node=dict(zip(g.var_ids, best_nu)), factor=dict(best_factors))
    return tau, partition_from_log(best_val, "Bethe partition function")


def mean_field(
    model: FactorGraph,
    restarts: int = 16,
    seed: int = 0,
    max_sweeps: int = 300,
    tol: float = 1e-12,
    max_vars: int = DEFAULT_MAX_VARS,
    max_factors: int = DEFAULT_MAX_FACTORS,
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
    sweep changes no belief by ``tol`` or more stops moving while the others
    go on.  A restart's result does not depend on the other restarts.
    """
    _check_budget(model, max_vars, max_factors)
    g = _Graph(model)
    rng = np.random.default_rng(seed)

    inits = [g.start]
    for _r in range(max(1, restarts) - 1):
        inits.append(
            [(lambda p: p / p.sum())(rng.uniform(0.05, 1.0, size=card)) for card in g.cards]
        )
    support_init = _positive_assignment_init(g, rng)
    if support_init is not None:
        inits.append(support_init)
    nu = np.array([np.concatenate([*init, [1.0]]) for init in inits])

    active = np.arange(len(inits))
    for _sweep in range(max_sweeps):
        rows = nu[active]
        delta = _mean_field_sweep(rows, g.mean_field)
        nu[active] = rows
        active = active[delta >= tol]
        if active.size == 0:
            break

    values = _mean_field_values(g, [nu[:, cols] for cols in g.columns], len(inits))
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
        beliefs = np.take(nu, gather, axis=1)
        w = beliefs[:, 0]
        for l in range(1, len(gather)):
            w = w * beliefs[:, l]
        score = node_score + (w[:, None, :] * log_table).sum(axis=2)
        if off_support is not None:
            score[(w > _ZERO_TOL) @ off_support] = _NEG_INF
        top = score.max(axis=1, keepdims=True)
        movable = top > _NEG_INF  # a row scored -inf everywhere keeps its belief
        e = np.exp(score - np.where(movable, top, 0.0))
        new = e / np.where(movable, e.sum(axis=1, keepdims=True), 1.0)
        nu[:, cols] = np.where(movable, new, nu[:, cols])
    return np.abs(nu - before).max(axis=1)


# a weight that overflows to inf still marks a positive assignment
@np.errstate(over="ignore")
def _positive_assignment_init(g: _Graph, rng, tries: int = 200):
    """One-hot beliefs at a sampled positive-weight assignment, if found.

    Gives coordinate ascent a feasible starting point on models whose
    tables contain hard zeros, where interior initializations are blocked
    in every direction.  The first heaviest of ``tries`` uniform draws wins;
    each weight is multiplied up in ``models.evaluate``'s order.
    """
    draws = rng.integers(0, g.cards, size=(tries, len(g.cards)))
    w = np.ones(tries)
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
