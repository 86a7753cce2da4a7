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
from typing import Mapping, Sequence

import numpy as np

from .errors import ModelError
from .models import FactorGraph, PseudoMarginals

_NEG_INF = float("-inf")
_ZERO_TOL = 1e-12


def _entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    return float(-np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)))


def _energy(weights: np.ndarray, pot: np.ndarray) -> float:
    """sum weights*log(pot); -inf when weight mass sits on a zero of pot."""
    weights = np.asarray(weights, dtype=float)
    pot = np.asarray(pot, dtype=float)
    if np.any((weights > _ZERO_TOL) & (pot <= 0)):
        return _NEG_INF
    mask = (weights > 0) & (pot > 0)
    return float(np.sum(np.where(mask, weights * np.log(np.where(pot > 0, pot, 1.0)), 0.0)))


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
            e = _energy(ti, pot)
            if e == _NEG_INF:
                return _NEG_INF
            total += e
        total += _entropy(ti)
    for fac in model.factors:
        ta = np.asarray(tau.factor[fac.id], dtype=float)
        e = _energy(ta, fac.table.as_ndarray())
        if e == _NEG_INF:
            return _NEG_INF
        total += e
        total += _entropy(ta)
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
    """Messages and bookkeeping of a (damped, synchronous) BP run.

    ``var_to_factor`` is keyed by (variable id, factor id) and
    ``factor_to_var`` by (factor id, variable id); each message is a
    normalized vector over the variable's states.
    """

    var_to_factor: dict
    factor_to_var: dict
    damping: float
    iterations: int
    residual: float
    converged: bool


class _Graph:
    """Preprocessed incidence structure for message passing."""

    def __init__(self, model: FactorGraph) -> None:
        self.model = model
        self.var_ids = model.var_ids
        self.cards = [model.card(v) for v in self.var_ids]
        self.vpos = {v: k for k, v in enumerate(self.var_ids)}
        self.phis = []
        for v in self.var_ids:
            pot = model.node_potential(v)
            self.phis.append(
                np.ones(model.card(v)) if pot is None else np.asarray(pot, dtype=float)
            )
        self.factors = []
        self.incident = [[] for _ in self.var_ids]
        for fi, fac in enumerate(model.factors):
            table = fac.table.as_ndarray()
            if table.sum() == 0:
                raise ModelError(f"factor {fac.id!r} has an all-zero table")
            scope = tuple(self.vpos[v] for v in fac.scope)
            self.factors.append((fac.id, scope, table))
            for pos, vi in enumerate(scope):
                self.incident[vi].append((fi, pos))


def _normalize_rows(msg: np.ndarray) -> np.ndarray:
    s = msg.sum(axis=1, keepdims=True)
    bad = s <= 0
    if bad.any():
        msg = np.where(bad, 1.0, msg)
        s = np.where(bad, msg.shape[1], s)
    return msg / s


def _init_messages(g: _Graph, restarts: int, seed: int | None) -> list:
    """Per-factor lists of (restarts, card) message arrays.

    Restart 0 is the uniform initialization; the rest are random positive,
    deterministic given the seed.
    """
    rng = np.random.default_rng(seed if seed is not None else 0)
    v2f = []
    for _fid, scope, _table in g.factors:
        msgs = []
        for vi in scope:
            c = g.cards[vi]
            m = rng.uniform(0.05, 1.0, size=(restarts, c))
            m[0, :] = 1.0
            msgs.append(_normalize_rows(m))
        v2f.append(msgs)
    return v2f


def _factor_to_var_sweep(g: _Graph, v2f: list) -> list:
    out = []
    for fi, (_fid, scope, table) in enumerate(g.factors):
        k = len(scope)
        restarts = v2f[fi][0].shape[0] if k else 1
        msgs = []
        for pos in range(k):
            t = np.broadcast_to(table[None, ...], (restarts,) + table.shape).copy()
            for l in range(k):
                if l == pos:
                    continue
                shape = [restarts] + [1] * k
                shape[1 + l] = g.cards[scope[l]]
                t = t * v2f[fi][l].reshape(shape)
            axes = tuple(1 + l for l in range(k) if l != pos)
            m = t.sum(axis=axes) if axes else t
            msgs.append(_normalize_rows(m))
        out.append(msgs)
    return out


def _var_to_factor_sweep(g: _Graph, f2v: list) -> list:
    out = [[None] * len(scope) for _fid, scope, _t in g.factors]
    for vi in range(len(g.var_ids)):
        inc = g.incident[vi]
        for fi, pos in inc:
            m = np.broadcast_to(
                g.phis[vi][None, :], f2v[fi][pos].shape
            ).copy()
            for fj, pos2 in inc:
                if fj == fi and pos2 == pos:
                    continue
                m = m * f2v[fj][pos2]
            out[fi][pos] = _normalize_rows(m)
    return out


def _beliefs(g: _Graph, v2f: list, f2v: list, restart: int) -> PseudoMarginals:
    node = {}
    for vi, v in enumerate(g.var_ids):
        b = g.phis[vi].copy()
        for fi, pos in g.incident[vi]:
            b = b * f2v[fi][pos][restart]
        s = b.sum()
        node[v] = b / s if s > 0 else np.full(b.size, 1.0 / b.size)
    factor = {}
    for fi, (fid, scope, table) in enumerate(g.factors):
        t = table.copy()
        for pos, vi in enumerate(scope):
            shape = [1] * len(scope)
            shape[pos] = g.cards[vi]
            t = t * v2f[fi][pos][restart].reshape(shape)
        s = t.sum()
        factor[fid] = t / s if s > 0 else np.full(t.shape, 1.0 / t.size)
    return PseudoMarginals(node=node, factor=factor)


def _bp_engine(
    g: _Graph,
    v2f: list,
    max_iters: int,
    tol: float,
    damping: float,
) -> tuple:
    """Damped synchronous sweeps until every restart's residual is < tol."""
    restarts = v2f[0][0].shape[0] if g.factors else 1
    f2v = _factor_to_var_sweep(g, v2f)
    residual = np.full(restarts, np.inf)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_v2f = _var_to_factor_sweep(g, f2v)
        new_f2v = _factor_to_var_sweep(g, new_v2f)
        res = np.zeros(restarts)
        for fi in range(len(g.factors)):
            for pos in range(len(g.factors[fi][1])):
                d1 = np.abs(new_v2f[fi][pos] - v2f[fi][pos]).max(axis=1)
                d2 = np.abs(new_f2v[fi][pos] - f2v[fi][pos]).max(axis=1)
                res = np.maximum(res, np.maximum(d1, d2))
        residual = res
        for fi in range(len(g.factors)):
            for pos in range(len(g.factors[fi][1])):
                v2f[fi][pos] = (
                    damping * v2f[fi][pos] + (1.0 - damping) * new_v2f[fi][pos]
                )
                f2v[fi][pos] = (
                    damping * f2v[fi][pos] + (1.0 - damping) * new_f2v[fi][pos]
                )
        if np.all(residual < tol):
            break
    return v2f, f2v, iterations, residual


def run_bp(
    model: FactorGraph,
    init: BPState | int | None = None,
    max_iters: int = 10_000,
    tol: float = 1e-10,
    damping: float = 0.5,
) -> tuple:
    """Run damped synchronous sum-product to (approximate) convergence.

    ``init`` may be a previous BPState to resume, an integer seed for a
    random positive initialization, or None for uniform messages.  Returns
    (BPState, beliefs, Bethe objective at the beliefs).  Non-convergence is
    reported through the state's ``converged`` flag; the last iterate is
    returned either way.
    """
    g = _Graph(model)
    if isinstance(init, BPState):
        v2f = []
        for _fid_scope in g.factors:
            v2f.append([])
        for fi, (fid, scope, _t) in enumerate(g.factors):
            for vi in scope:
                v = g.var_ids[vi]
                msg = np.asarray(init.var_to_factor[(v, fid)], dtype=float)
                v2f[fi].append(_normalize_rows(msg[None, :]))
    elif isinstance(init, int):
        v2f = _init_messages(g, 2, init)
        v2f = [[m[1:2] for m in msgs] for msgs in v2f]
    else:
        v2f = _init_messages(g, 1, None)
    v2f, f2v, iterations, residual = _bp_engine(g, v2f, max_iters, tol, damping)
    tau = _beliefs(g, v2f, f2v, 0)
    state = BPState(
        var_to_factor={
            (g.var_ids[vi], fid): v2f[fi][pos][0].copy()
            for fi, (fid, scope, _t) in enumerate(g.factors)
            for pos, vi in enumerate(scope)
        },
        factor_to_var={
            (fid, g.var_ids[vi]): f2v[fi][pos][0].copy()
            for fi, (fid, scope, _t) in enumerate(g.factors)
            for pos, vi in enumerate(scope)
        },
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


def _ipf(kernel: np.ndarray, margins: Sequence[np.ndarray], iters: int = 300,
         tol: float = 1e-13) -> tuple:
    """Iterative proportional fitting of ``kernel`` onto the given margins.

    Converges to the maximizer of <tau, log kernel> + H(tau) subject to the
    margin constraints whenever the margins are feasible for the kernel's
    support.  Returns (table, residual); a residual that stays large means
    the margins are infeasible for the support.
    """
    t = np.asarray(kernel, dtype=float)
    s = t.sum()
    if s <= 0:
        raise ModelError("IPF kernel has zero mass")
    t = t / s
    ndim = t.ndim
    worst = 0.0
    for _ in range(iters):
        worst = 0.0
        for axis, target in enumerate(margins):
            axes = tuple(a for a in range(ndim) if a != axis)
            cur = t.sum(axis=axes)
            worst = max(worst, float(np.max(np.abs(cur - target))))
            ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
            shape = [1] * ndim
            shape[axis] = target.size
            t = t * ratio.reshape(shape)
        if worst < tol:
            break
    return t, worst


def _envelope(model: FactorGraph, nu: Mapping, ipf_iters: int = 300) -> tuple:
    """Best Bethe value over factor beliefs consistent with node beliefs nu.

    Returns (value, factor beliefs).  The inner problems decouple per
    factor and are solved by IPF, so the returned beliefs always satisfy
    the consistency constraints (up to IPF tolerance).
    """
    value = 0.0
    node_entropy = {}
    for v in model.var_ids:
        ni = np.asarray(nu[v], dtype=float)
        node_entropy[v] = _entropy(ni)
        pot = model.node_potential(v)
        if pot is not None:
            e = _energy(ni, pot)
            if e == _NEG_INF:
                return _NEG_INF, {}
            value += e
        value += node_entropy[v]
    factor_beliefs = {}
    for fac in model.factors:
        table = fac.table.as_ndarray()
        margins = [np.asarray(nu[v], dtype=float) for v in fac.scope]
        t, residual = _ipf(table, margins, iters=ipf_iters)
        if residual > 1e-8:
            # margins infeasible for the table's support; no consistent
            # factor belief exists, so this node-belief profile is invalid
            return _NEG_INF, {}
        factor_beliefs[fac.id] = t
        e = _energy(t, table)
        if e == _NEG_INF:
            return _NEG_INF, {}
        value += e + _entropy(t)
        for v in fac.scope:
            value -= node_entropy[v]
    return value, factor_beliefs


def _clean_nu(model: FactorGraph, nu: Mapping, floor: float = 1e-12) -> dict:
    out = {}
    for v in model.var_ids:
        ni = np.maximum(np.asarray(nu[v], dtype=float), floor)
        out[v] = ni / ni.sum()
    return out


def _polish_nu(
    model: FactorGraph,
    nu: Mapping,
    steps: int,
    fd_step: float = 1e-5,
    init_rate: float = 0.5,
) -> tuple:
    """Ascent on node beliefs through the envelope, in logit coordinates.

    Uses local central differences (only the terms touching the perturbed
    variable are recomputed) and a backtracking step size; every iterate is
    feasible because factor beliefs are re-derived by IPF.
    """
    incident = {v: [] for v in model.var_ids}
    for fac in model.factors:
        for v in fac.scope:
            incident[v].append(fac)

    def local_value(v, nu_all):
        val = 0.0
        ni = nu_all[v]
        pot = model.node_potential(v)
        if pot is not None:
            e = _energy(ni, pot)
            if e == _NEG_INF:
                return _NEG_INF
            val += e
        val += _entropy(ni)
        for fac in incident[v]:
            table = fac.table.as_ndarray()
            margins = [nu_all[u] for u in fac.scope]
            t, residual = _ipf(table, margins)
            e = _energy(t, table)
            if residual > 1e-8 or e == _NEG_INF:
                return _NEG_INF
            val += e + _entropy(t)
            for u in fac.scope:
                val -= _entropy(nu_all[u])
        return val

    nu = _clean_nu(model, nu)
    theta = {v: np.log(nu[v]) for v in model.var_ids}
    best_val, best_factors = _envelope(model, nu)
    best_nu = dict(nu)
    rate = init_rate
    for _ in range(steps):
        grad = {}
        for v in model.var_ids:
            base = dict(best_nu)
            g = np.zeros(model.card(v))
            for s in range(model.card(v)):
                sides = []
                for sign in (1.0, -1.0):
                    th = theta[v].copy()
                    th[s] += sign * fd_step
                    e = np.exp(th - th.max())
                    base[v] = e / e.sum()
                    sides.append(local_value(v, base))
                if math.isfinite(sides[0]) and math.isfinite(sides[1]):
                    g[s] = (sides[0] - sides[1]) / (2.0 * fd_step)
            grad[v] = g
        improved = False
        while rate >= 1e-4:
            cand_nu = {}
            for v in model.var_ids:
                th = np.clip(theta[v] + rate * grad[v], -40.0, 40.0)
                e = np.exp(th - th.max())
                cand_nu[v] = e / e.sum()
            val, factors = _envelope(model, cand_nu)
            if val > best_val:
                theta = {v: np.log(np.maximum(cand_nu[v], 1e-300)) for v in model.var_ids}
                best_val, best_factors, best_nu = val, factors, cand_nu
                rate = min(rate * 1.5, 10.0)
                improved = True
                break
            rate *= 0.5
        if not improved:
            break
    return best_nu, best_factors, best_val


def product_beliefs(model: FactorGraph, nu: Mapping) -> PseudoMarginals:
    """Fully factorized beliefs: factor beliefs are outer products of nu."""
    node = {v: np.asarray(nu[v], dtype=float) for v in model.var_ids}
    factor = {}
    for fac in model.factors:
        t = np.ones(())
        for pos, v in enumerate(fac.scope):
            shape = [1] * len(fac.scope)
            shape[pos] = model.card(v)
            t = t * node[v].reshape(shape)
        factor[fac.id] = t
    return PseudoMarginals(node=node, factor=factor)


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
    quantified).
    """
    _check_budget(model, max_vars, max_factors)
    g = _Graph(model)
    candidates = []

    if model.factors:
        v2f = _init_messages(g, max(1, restarts), seed)
        v2f, f2v, _iters, residual = _bp_engine(g, v2f, bp_iters, bp_tol, damping)
        for r in range(max(1, restarts)):
            tau = _beliefs(g, v2f, f2v, r)
            candidates.append(tau.node)

    mf_nu, _mf_value = mean_field(
        model,
        restarts=min(16, max(4, restarts)),
        seed=seed,
        max_vars=max_vars,
        max_factors=max_factors,
    )
    candidates.append(mf_nu)
    candidates.append({v: np.full(model.card(v), 1.0 / model.card(v)) for v in model.var_ids})
    candidates.append(
        {
            v: (
                np.asarray(model.node_potential(v), dtype=float)
                / np.sum(model.node_potential(v))
                if model.node_potential(v) is not None
                and np.sum(model.node_potential(v)) > 0
                else np.full(model.card(v), 1.0 / model.card(v))
            )
            for v in model.var_ids
        }
    )

    scored = []
    for nu in candidates:
        nu = _clean_nu(model, nu)
        val, factors = _envelope(model, nu)
        scored.append((val, nu, factors))
    scored.sort(key=lambda item: item[0], reverse=True)

    best_val, best_nu, best_factors = scored[0]
    for val, nu, _factors in scored[: max(1, refine_top)]:
        if refine_steps > 0:
            r_nu, r_factors, r_val = _polish_nu(model, nu, steps=refine_steps)
            if r_val > best_val:
                best_val, best_nu, best_factors = r_val, r_nu, r_factors

    tau = PseudoMarginals(node=dict(best_nu), factor=dict(best_factors))
    return tau, math.exp(best_val) if best_val != _NEG_INF else 0.0


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
    function.  Returns (node marginals, Z_MF).

    All restarts advance together, one row each in ``(restarts, card)``
    belief arrays; a restart whose sweep changes no belief by ``tol`` or
    more stops moving while the others go on.
    """
    _check_budget(model, max_vars, max_factors)
    g = _Graph(model)
    rng = np.random.default_rng(seed)
    n = len(g.var_ids)

    first = []
    for vi in range(n):
        p = g.phis[vi]
        s = p.sum()
        first.append(p / s if s > 0 else np.full(p.size, 1.0 / p.size))
    inits = [first]
    for _r in range(max(1, restarts) - 1):
        inits.append(
            [
                (lambda p: p / p.sum())(rng.uniform(0.05, 1.0, size=g.cards[vi]))
                for vi in range(n)
            ]
        )
    support_init = _positive_assignment_init(model, g, rng)
    if support_init is not None:
        inits.append(support_init)
    nu = [np.array([init[vi] for init in inits]) for vi in range(n)]

    plan = _mean_field_plan(g)
    active = np.arange(len(inits))
    for _sweep in range(max_sweeps):
        rows = [b[active] for b in nu]
        delta = _mean_field_sweep(rows, plan, active.size)
        for b, r in zip(nu, rows):
            b[active] = r
        active = active[delta >= tol]
        if active.size == 0:
            break

    best_val = _NEG_INF
    best_nu = None
    for r in range(len(inits)):
        nu_map = {g.var_ids[vi]: nu[vi][r] for vi in range(n)}
        val = bethe_objective(model, product_beliefs(model, nu_map), validate=False)
        if val > best_val:
            best_val = val
            best_nu = nu_map
    if best_nu is None:
        best_nu = {g.var_ids[vi]: first[vi] for vi in range(n)}
    z = math.exp(best_val) if best_val != _NEG_INF else 0.0
    return best_nu, z


def _mean_field_plan(g: _Graph) -> list:
    """What each coordinate update reads, computed once per call.

    Per variable: its log node potential (-inf at zeros) and, per incident
    factor, the other scope variables with the shape their (restarts,
    card) beliefs broadcast to, the axes summed out, the table's support
    mask and its complement, and the log table (0 off the support).
    """
    factor_terms = []
    for _fid, _scope, table in g.factors:
        support = table > 0
        factor_terms.append((support, ~support, np.log(np.where(support, table, 1.0))))
    plan = []
    for vi, phi in enumerate(g.phis):
        node_score = np.where(phi > 0, np.log(np.where(phi > 0, phi, 1.0)), _NEG_INF)
        terms = []
        for fi, pos in g.incident[vi]:
            scope = g.factors[fi][1]
            others = []
            for l, vj in enumerate(scope):
                if l != pos:
                    shape = [-1] + [1] * len(scope)
                    shape[1 + l] = g.cards[vj]
                    others.append((vj, tuple(shape)))
            axes = tuple(1 + l for l in range(len(scope)) if l != pos)
            terms.append((others, axes) + factor_terms[fi])
        plan.append((node_score, terms))
    return plan


def _mean_field_sweep(nu: list, plan: list, restarts: int) -> np.ndarray:
    """One coordinate-ascent pass over the variables, in place.

    ``nu`` holds one (restarts, card) belief array per variable; returns
    each restart's largest belief change.
    """
    delta = np.zeros(restarts)
    for vi, (node_score, terms) in enumerate(plan):
        score = np.broadcast_to(node_score, nu[vi].shape)
        for others, axes, support, off_support, log_table in terms:
            w = 1.0
            for vj, shape in others:
                w = w * nu[vj].reshape(shape)
            contrib = np.where(support & (w > 0), w * log_table, 0.0)
            blocked = (off_support & (w > _ZERO_TOL)).any(axis=axes)
            score = np.where(blocked, _NEG_INF, score + contrib.sum(axis=axes))
        top = score.max(axis=1, keepdims=True)
        movable = top > _NEG_INF  # a row scored -inf everywhere keeps its belief
        e = np.exp(score - np.where(movable, top, 0.0))
        new = np.where(movable, e / np.where(movable, e.sum(axis=1, keepdims=True), 1.0), nu[vi])
        delta = np.maximum(delta, np.abs(new - nu[vi]).max(axis=1))
        nu[vi] = new
    return delta


def _positive_assignment_init(model: FactorGraph, g: _Graph, rng, tries: int = 200):
    """One-hot beliefs at a sampled positive-weight assignment, if found.

    Gives coordinate ascent a feasible starting point on models whose
    tables contain hard zeros, where interior initializations are blocked
    in every direction.
    """
    from .models import evaluate

    best_x = None
    best_w = 0.0
    for _ in range(tries):
        x = {v: int(rng.integers(0, model.card(v))) for v in model.var_ids}
        w = evaluate(model, x)
        if w > best_w:
            best_w = w
            best_x = x
    if best_x is None:
        return None
    init = []
    for vi, v in enumerate(g.var_ids):
        p = np.zeros(g.cards[vi])
        p[best_x[v]] = 1.0
        init.append(p)
    return init
