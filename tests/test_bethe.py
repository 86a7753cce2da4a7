import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from zbounds import bethe, verify
from zbounds.bethe import (
    bethe_gradient,
    bethe_objective,
    maximize_bethe,
    mean_field,
    run_bp,
)
from zbounds.errors import ModelError, NumericRangeError
from zbounds.homs import HomModel, hom_to_factor_graph
from zbounds.lattice import model_is_log_supermodular
from zbounds.matroid import GFMatrix, gf, incidence_factor_graph
from zbounds.models import (
    FactorGraph,
    PseudoMarginals,
    evaluate,
    exact_marginals,
    exact_partition,
)
from zbounds.potts import PottsModel, build_counterexample, potts_to_factor_graph
from zbounds.verify import random_lsm_pairwise_model, random_tree_model


def product_beliefs(model: FactorGraph, nu) -> PseudoMarginals:
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


def over_budget_models(extra=1):
    """A model ``extra`` variables over the optimizer budget, and one
    ``extra`` factors over it."""
    many_vars = FactorGraph([(i, 2) for i in range(bethe.DEFAULT_MAX_VARS + extra)])
    factors = [(f"f{k}", (0, 1), np.ones(4)) for k in range(bethe.DEFAULT_MAX_FACTORS + extra)]
    many_factors = FactorGraph([(0, 2), (1, 2)], factors)
    return many_vars, many_factors


class TestObjective:
    def test_single_variable_no_factors(self):
        m = FactorGraph([("x", 2)], [], {"x": [1.0, 2.0]})
        tau = exact_marginals(m)
        assert bethe_objective(m, tau) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_uniform_pairwise_all_ones(self):
        m = FactorGraph([("a", 2), ("b", 2)], [("f", ("a", "b"), np.ones(4))])
        tau = exact_marginals(m)
        assert bethe_objective(m, tau) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_tree_exact_marginals_give_log_z(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = random_tree_model(rng)
            tau = exact_marginals(m)
            assert bethe_objective(m, tau) == pytest.approx(
                math.log(exact_partition(m)), abs=1e-9
            )

    def test_mass_on_zero_potential_is_neg_inf(self):
        m = FactorGraph([("x", 2)], [("f", ("x",), [0.0, 1.0])])
        tau = PseudoMarginals(
            node={"x": np.array([0.5, 0.5])}, factor={"f": np.array([0.5, 0.5])}
        )
        assert bethe_objective(m, tau, validate=False) == float("-inf")

    def test_all_zero_table_is_neg_inf(self):
        m = FactorGraph([("x", 2)], [("f", ("x",), [0.0, 0.0])])
        tau = PseudoMarginals(
            node={"x": np.array([0.5, 0.5])}, factor={"f": np.array([0.5, 0.5])}
        )
        assert bethe_objective(m, tau, validate=False) == float("-inf")

    def test_inconsistent_beliefs_rejected(self):
        m = FactorGraph([("a", 2), ("b", 2)], [("f", ("a", "b"), np.ones(4))])
        tau = PseudoMarginals(
            node={"a": np.array([0.9, 0.1]), "b": np.array([0.5, 0.5])},
            factor={"f": np.full((2, 2), 0.25)},
        )
        with pytest.raises(ModelError):
            bethe_objective(m, tau)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(3):
            m = random_tree_model(rng, max_vertices=4)
            ref = FactorGraph(
                [(v, m.card(v)) for v in m.var_ids],
                [
                    (f.id, f.scope, np.exp(rng.uniform(-1, 1, f.table.values.size)))
                    for f in m.factors
                ],
            )
            tau = exact_marginals(ref)
            grad = bethe_gradient(m, tau)

            def perturbed(kind, key, idx, delta):
                node = {k: a.copy() for k, a in tau.node.items()}
                fac = {k: a.copy() for k, a in tau.factor.items()}
                (node if kind == "n" else fac)[key][idx] += delta
                return bethe_objective(m, PseudoMarginals(node, fac), validate=False)

            for v in m.var_ids:
                for s in range(m.card(v)):
                    fd = (perturbed("n", v, s, h) - perturbed("n", v, s, -h)) / (2 * h)
                    assert fd == pytest.approx(grad.node[v][s], rel=1e-5, abs=1e-5)
            for fac in m.factors:
                for idx in np.ndindex(tau.factor[fac.id].shape):
                    fd = (perturbed("f", fac.id, idx, h) - perturbed("f", fac.id, idx, -h)) / (2 * h)
                    assert fd == pytest.approx(grad.factor[fac.id][idx], rel=1e-5, abs=1e-5)

    @staticmethod
    def _interior():
        m = FactorGraph(
            [("a", 2), ("b", 2)], [("f", ("a", "b"), [1.0, 2.0, 3.0, 4.0])], {"a": [1.0, 2.0]}
        )
        return m, exact_marginals(m)

    def test_zero_node_belief_rejected(self):
        m, tau = self._interior()
        tau.node["a"] = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=r"node belief of 'a' is 0\.0 at \(1,\)"):
                bethe_gradient(m, tau)

    def test_zero_factor_belief_rejected(self):
        m, tau = self._interior()
        tau.factor["f"] = np.array([[0.5, 0.0], [0.25, 0.25]])
        with pytest.raises(ModelError, match=r"factor belief of 'f' is 0\.0 at \(0, 1\)"):
            bethe_gradient(m, tau)

    def test_zero_table_entry_rejected(self):
        m = FactorGraph([("a", 2), ("b", 2)], [("f", ("a", "b"), [1.0, 2.0, 0.0, 4.0])])
        tau = PseudoMarginals(
            node={"a": np.array([0.5, 0.5]), "b": np.array([0.5, 0.5])},
            factor={"f": np.full((2, 2), 0.25)},
        )
        with pytest.raises(ModelError, match=r"table of factor 'f' is 0\.0 at \(1, 0\)"):
            bethe_gradient(m, tau)

    def test_zero_node_potential_rejected(self):
        m = FactorGraph([("a", 2)], [], {"a": [0.0, 1.0]})
        tau = PseudoMarginals(node={"a": np.array([0.5, 0.5])}, factor={})
        with pytest.raises(ModelError, match=r"node potential of 'a' is 0\.0 at \(0,\)"):
            bethe_gradient(m, tau)


# The objective and the gradient check as they were before the objective was
# batched: one scalar walk over the terms, returning early at the first
# blocked one, and two such walks per coordinate.  The batched objective and
# verify_gradient must reproduce them exactly.


def _ref_objective(model, tau):
    total = 0.0
    for v in model.var_ids:
        ti = np.asarray(tau.node[v], dtype=float)
        pot = model.node_potential(v)
        if pot is not None:
            e, blocked = bethe._energy(ti[None], *bethe._log_support(pot))
            if blocked[0]:
                return float("-inf")
            total += float(e[0])
        total += float(bethe._entropy(ti[None])[0])
    for fac in model.factors:
        ta = np.asarray(tau.factor[fac.id], dtype=float)
        e, blocked = bethe._energy(ta[None], *bethe._log_support(fac.table.as_ndarray()))
        if blocked[0]:
            return float("-inf")
        total += float(e[0])
        total += float(bethe._entropy(ta[None])[0])
        for pos, v in enumerate(fac.scope):
            axes = tuple(a for a in range(ta.ndim) if a != pos)
            marg = ta.sum(axis=axes)
            ti = np.asarray(tau.node[v], dtype=float)
            if np.any((marg > 1e-12) & (ti <= 0)):
                return float("-inf")
            mask = (marg > 0) & (ti > 0)
            total += float(
                np.sum(np.where(mask, marg * np.log(np.where(ti > 0, ti, 1.0)), 0.0))
            )
    return total


def _ref_fd_error(model, tau, coord, analytic, h):
    kind, key, idx = coord

    def shifted(delta):
        node = {k: a.copy() for k, a in tau.node.items()}
        factor = {k: a.copy() for k, a in tau.factor.items()}
        if kind == "node":
            node[key][idx] += delta
        else:
            factor[key][idx] += delta
        return _ref_objective(model, PseudoMarginals(node, factor))

    fd = (shifted(h) - shifted(-h)) / (2 * h)
    return abs(fd - analytic) / max(1.0, abs(analytic))


def _ref_verify_gradient(points, seed):
    rng = np.random.default_rng(seed)
    h = 1e-6

    def cases():
        for _ in range(points):
            model = random_tree_model(rng, max_vertices=4)
            ref = FactorGraph(
                [(v, model.card(v)) for v in model.var_ids],
                [
                    (fac.id, fac.scope, np.exp(rng.uniform(-1, 1, fac.table.values.size)))
                    for fac in model.factors
                ],
            )
            yield model, exact_marginals(ref)

    def one(case):
        model, tau = case
        grad = bethe_gradient(model, tau)
        worst_here = 0.0
        for v in model.var_ids:
            for s in range(model.card(v)):
                worst_here = max(
                    worst_here, _ref_fd_error(model, tau, ("node", v, s), grad.node[v][s], h)
                )
        for fac in model.factors:
            for idx in np.ndindex(tau.factor[fac.id].shape):
                worst_here = max(
                    worst_here,
                    _ref_fd_error(model, tau, ("factor", fac.id, idx), grad.factor[fac.id][idx], h),
                )
        return worst_here <= verify.REL_TOL_GRADIENT, verify.REL_TOL_GRADIENT - worst_here

    name = "Bethe objective gradient vs finite differences"
    return verify.run_trials(name, map(one, cases()), verify.REL_TOL_GRADIENT)


def _belief_stack(model, rows):
    """(node stacks, factor stacks) of a list of PseudoMarginals rows."""
    node = [np.array([r.node[v] for r in rows], dtype=float) for v in model.var_ids]
    factor = [np.array([r.factor[f.id] for r in rows], dtype=float) for f in model.factors]
    return node, factor


class TestBatchedObjective:
    """``_objective_rows`` scores a stack of belief rows; each row must come
    out bit for bit as that row alone, as ``bethe_objective`` and as the
    scalar reference above."""

    @staticmethod
    def _model():
        # a zero in a node potential and in a pairwise table, a positive
        # 3-ary table, a unary table, a constant factor and a variable
        # without a node potential
        return FactorGraph(
            [("a", 2), ("b", 3), ("c", 2)],
            [
                ("f", ("a", "b"), [0.7, 1.3, 2.0, 0.9, 1.6, 0.0]),
                ("h", ("a", "b", "c"), np.exp(np.linspace(-1.0, 1.0, 12))),
                ("k", (), [2.0]),
                ("u", ("c",), [1.2, 0.4]),
            ],
            {"a": [0.0, 2.0], "b": [1.0, 0.5, 3.0]},
        )

    @staticmethod
    def _rows(model, rng):
        base = exact_marginals(model)
        rows = [base]
        for _ in range(5):  # jitter off the polytope, zeros kept
            rows.append(PseudoMarginals(
                {v: a * rng.uniform(0.8, 1.2, a.shape) for v, a in base.node.items()},
                {k: a * rng.uniform(0.8, 1.2, a.shape) for k, a in base.factor.items()},
            ))

        def edited(which, key, value):
            node = {v: a.copy() for v, a in base.node.items()}
            factor = {k: a.copy() for k, a in base.factor.items()}
            (node if which == "node" else factor)[key] = np.array(value, dtype=float)
            return PseudoMarginals(node, factor)

        # mass on the zero of a's node potential
        rows.append(edited("node", "a", [0.5, 0.5]))
        # mass on the zero of f's table
        f = base.factor["f"].copy()
        f[1, 2] = 0.1
        rows.append(edited("factor", "f", f))
        # f's marginal on b has mass where b's node belief is 0
        rows.append(edited("node", "b", [0.0, 0.4, 0.6]))
        return rows

    def test_rows_match_one_at_a_time(self):
        model = self._model()
        rows = self._rows(model, np.random.default_rng(2))
        values = bethe._objective_rows(model, *_belief_stack(model, rows))
        assert values.shape == (len(rows),)
        assert np.isfinite(values[:6]).all()
        assert values[6:].tolist() == [float("-inf")] * 3
        for r, tau in enumerate(rows):
            alone = bethe._objective_rows(model, *_belief_stack(model, [tau]))
            want = _ref_objective(model, tau)
            assert float(values[r]).hex() == float(alone[0]).hex() == want.hex(), r
            assert bethe_objective(model, tau, validate=False).hex() == want.hex(), r

    def test_constant_factor_only(self):
        model = FactorGraph([], [("k", (), [2.5])])
        rows = [PseudoMarginals({}, {"k": np.array(w)}) for w in (1.0, 0.5, 0.0)]
        values = bethe._objective_rows(model, *_belief_stack(model, rows))
        assert [float(x).hex() for x in values] == [_ref_objective(model, t).hex() for t in rows]
        assert values[0] == math.log(2.5)

    def test_model_without_variables(self):
        model = FactorGraph([])
        assert bethe._objective_rows(model, [], []).tolist() == [0.0]
        assert bethe_objective(model, PseudoMarginals({}, {})) == 0.0

    def test_gradient_check_matches_coordinate_loop(self):
        for seed in (31, 0, 1, 2, 3, 4):
            got = verify.verify_gradient(points=20, seed=seed)
            assert repr(got) == repr(_ref_verify_gradient(20, seed)), seed

    def test_one_call_per_gradient_point(self, monkeypatch):
        # the gradient check scores all of a point's central differences in
        # one call of 2 rows per belief entry
        rows = []
        original = bethe._objective_rows

        def counted(model, node, factor):
            rows.append(len((node + factor)[0]))
            return original(model, node, factor)

        monkeypatch.setattr(verify, "_objective_rows", counted)
        verify.verify_gradient(points=3, seed=4)
        assert len(rows) == 3
        assert all(r % 2 == 0 and r >= 2 * (2 * 2 + 4) for r in rows)  # >= 2 binary variables


class TestRunBP:
    def test_single_variable_immediate(self):
        m = FactorGraph([("x", 3)], [], {"x": [1.0, 2.0, 3.0]})
        state, tau, value = run_bp(m)
        assert state.converged
        assert np.allclose(tau.node["x"], [1 / 6, 2 / 6, 3 / 6])

    def test_tree_matches_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = random_tree_model(rng)
            state, tau, value = run_bp(m)
            assert state.converged
            exact = exact_marginals(m)
            for v in m.var_ids:
                assert np.allclose(tau.node[v], exact.node[v], atol=1e-8)
            assert value == pytest.approx(math.log(exact_partition(m)), abs=1e-9)
            assert tau.polytope_violation(m) <= 1e-9

    def test_all_zero_factor_rejected(self):
        m = FactorGraph([("x", 2)], [("f", ("x",), [0.0, 0.0])])
        with pytest.raises(ModelError):
            run_bp(m)

    def test_seeded_init_deterministic(self):
        m = random_tree_model(np.random.default_rng(3))
        _s1, t1, v1 = run_bp(m, init=5)
        _s2, t2, v2 = run_bp(m, init=5)
        assert v1 == v2

    def test_state_is_not_a_seed(self):
        # BPState no longer carries messages, so it cannot resume a run
        m = random_tree_model(np.random.default_rng(3))
        state, _tau, _value = run_bp(m)
        with pytest.raises(TypeError):
            run_bp(m, init=state)

    @pytest.mark.xfail(
        reason="no stationary point above log Z is reachable on this instance "
        "under any of the four convention flags; see the acceptance gap report",
        strict=True,
    )
    def test_counterexample_has_fixed_point_above_log_z(self):
        m = build_counterexample()
        log_z = math.log(exact_partition(m))
        best = -math.inf
        for seed in range(24):
            state, _tau, value = run_bp(m, init=seed, max_iters=5000)
            if state.converged:
                best = max(best, value)
        assert best > log_z


class TestDampingRefused:
    # BP keeps the damping's share of the old message: 1 never moves a
    # message and more than 1 diverges
    @pytest.mark.parametrize("damping", [1.0, 1.5, -0.5, float("nan")])
    def test_run_bp(self, damping):
        with pytest.raises(ModelError, match=f"damping must lie in \\[0, 1\\), got {damping!r}"):
            run_bp(_pinned_models()["potts_uniform_field"], damping=damping)

    @pytest.mark.parametrize("damping", [1.0, 1.5, -0.5, float("nan")])
    def test_maximize_bethe(self, damping):
        with pytest.raises(ModelError, match=f"damping must lie in \\[0, 1\\), got {damping!r}"):
            maximize_bethe(_pinned_models()["potts_uniform_field"], restarts=2, damping=damping)

    def test_undamped_accepted(self):
        state, _tau, _value = run_bp(_pinned_models()["potts_uniform_field"], damping=0.0)
        assert state.damping == 0.0


class TestTolRefused:
    # no residual is below 0 or compares below NaN, so BP could never converge
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_run_bp(self, tol):
        with pytest.raises(ModelError, match=f"tolerance must be positive, got {tol!r}"):
            run_bp(_pinned_models()["potts_uniform_field"], tol=tol)


class TestConstantFactors:
    """A factor with an empty scope multiplies Z by its one entry."""

    MODELS = {
        "with-variable": (
            FactorGraph([("x", 2)], [("c", (), [2.0]), ("f", ("x",), [1.0, 3.0])]),
            8.0,
        ),
        "no-variables": (FactorGraph([], [("c", (), [2.5])]), 2.5),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_run_bp(self, name):
        model, z = self.MODELS[name]
        state, tau, value = run_bp(model)
        assert state.converged
        assert math.exp(value) == pytest.approx(z, rel=1e-12)
        assert tau.polytope_violation(model) <= 1e-12

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_maximize_bethe(self, name):
        model, z = self.MODELS[name]
        assert exact_partition(model) == z
        tau, zb = maximize_bethe(model, restarts=4, seed=0)
        assert zb == pytest.approx(z, rel=1e-12)
        assert bethe_objective(model, tau) == pytest.approx(math.log(z), abs=1e-12)

    def test_zero_constant_rejected(self):
        model = FactorGraph([("x", 2)], [("c", (), [0.0])])
        with pytest.raises(ModelError):
            run_bp(model)


class TestMaximizeBethe:
    def test_tree_recovers_z(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            m = random_tree_model(rng)
            z = exact_partition(m)
            _tau, zb = maximize_bethe(m, restarts=8, seed=0)
            assert zb == pytest.approx(z, rel=1e-6)

    def test_all_ones_pairwise(self):
        m = FactorGraph([("a", 2), ("b", 2)], [("f", ("a", "b"), np.ones(4))])
        _tau, zb = maximize_bethe(m, restarts=4, seed=0)
        assert zb == pytest.approx(4.0, rel=1e-9)

    def test_fixed_points_below_maximum(self):
        m = build_counterexample()
        _tau, zb = maximize_bethe(m, restarts=16, seed=0)
        for seed in range(6):
            state, _t, value = run_bp(m, init=seed, max_iters=4000)
            if state.converged:
                assert value <= math.log(zb) + 1e-9

    def test_lsm_models_bounded_by_z(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m = random_lsm_pairwise_model(rng)
            assert all(r.ok for r in model_is_log_supermodular(m).values())
            z = exact_partition(m)
            _tau, zb = maximize_bethe(m, restarts=16, seed=1)
            assert zb <= z * (1 + 1e-9)

    def test_returned_beliefs_feasible(self):
        m = build_counterexample()
        tau, zb = maximize_bethe(m, restarts=8, seed=0)
        assert tau.polytope_violation(m) <= 1e-9
        assert bethe_objective(m, tau) == pytest.approx(math.log(zb), abs=1e-9)

    def test_tree_with_zero_node_potential_not_above_z(self):
        m = FactorGraph([(0, 2), (1, 2)], [("f", (0, 1), [1, 2, 3, 4])], {0: [0, 1]})
        _tau, zb = maximize_bethe(m)
        assert zb <= exact_partition(m) * (1 + 1e-12)

    def test_budget_enforced(self):
        for m in over_budget_models():
            with pytest.raises(ModelError, match="optimizer budget"):
                maximize_bethe(m)

    def test_zero_support_tables_stay_sound(self):
        # equality-constraint triangle (identity edge tables): every
        # feasible belief profile scores exp(0) = 1, below Z = 2, and the
        # optimizer must not leak value through infeasible profiles
        hom = HomModel(3, [(0, 1), (1, 2), (0, 2)], [1, 1], [1, 0], [0, 1])
        m = hom_to_factor_graph(hom)
        z = exact_partition(m)
        assert z == pytest.approx(2.0)
        tau, zb = maximize_bethe(m, restarts=16, seed=0)
        assert zb == pytest.approx(1.0, rel=1e-6)
        assert tau.polytope_violation(m) <= 1e-8
        _nu, zmf = mean_field(m, restarts=8, seed=0)
        assert zmf <= zb * (1 + 1e-9)


class TestMeanField:
    @pytest.mark.parametrize("restarts", [0, -7])
    def test_restarts_below_one_refused(self, restarts):
        # no longer run as one restart
        m = FactorGraph([("x", 2)], [], {"x": [1.0, 2.0]})
        with pytest.raises(ModelError, match="restarts must be >= 1"):
            mean_field(m, restarts=restarts)
        with pytest.raises(ModelError, match="restarts must be >= 1"):
            maximize_bethe(m, restarts=restarts)

    def test_budgets_enforced(self):
        for m in over_budget_models():
            with pytest.raises(ModelError, match="optimizer budget"):
                mean_field(m, restarts=2)
        for m in over_budget_models(extra=0):
            mean_field(m, restarts=2)

    def test_independent_model_exact(self):
        m = FactorGraph([("x", 2), ("y", 3)], [], {"x": [1.0, 2.0], "y": [1.0, 1.0, 2.0]})
        _nu, zmf = mean_field(m, restarts=4, seed=0)
        assert zmf == pytest.approx(exact_partition(m), rel=1e-9)

    @staticmethod
    def _random_pairwise(rng):
        n = int(rng.integers(2, 5))
        variables = [(v, int(rng.integers(2, 4))) for v in range(n)]
        cards = dict(variables)
        factors = []
        for k in range(int(rng.integers(1, 5))):
            u, v = rng.choice(n, size=2, replace=False)
            u, v = int(u), int(v)
            factors.append(
                (f"f{k}", (u, v), np.exp(rng.uniform(-1, 1, cards[u] * cards[v])))
            )
        return FactorGraph(variables, factors)

    def test_below_z_on_100_models(self):
        rng = np.random.default_rng(7)
        for i in range(100):
            m = self._random_pairwise(rng)
            z = exact_partition(m)
            _nu, zmf = mean_field(m, restarts=4, seed=i)
            assert zmf <= z * (1 + 1e-9)

    def test_below_bethe(self):
        rng = np.random.default_rng(17)
        for i in range(12):
            m = self._random_pairwise(rng)
            _nu, zmf = mean_field(m, restarts=8, seed=i)
            _tau, zb = maximize_bethe(m, restarts=16, seed=i)
            assert zmf <= zb * (1 + 1e-9)

    def test_product_beliefs_objective_matches(self):
        m = random_tree_model(np.random.default_rng(9))
        nu, zmf = mean_field(m, restarts=4, seed=0)
        val = bethe_objective(m, product_beliefs(m, nu), validate=False)
        assert val == pytest.approx(math.log(zmf), abs=1e-9)

    def test_deterministic(self):
        for m in (random_tree_model(np.random.default_rng(10)), _pinned_models()["hom_hard_zeros"]):
            nu, zmf = mean_field(m, restarts=6, seed=3)
            nu2, zmf2 = mean_field(m, restarts=6, seed=3)
            assert zmf == zmf2
            assert [nu[v].tobytes() for v in m.var_ids] == [nu2[v].tobytes() for v in m.var_ids]

    def test_support_init_matches_evaluate_loop(self):
        # the support init scores all its draws in one table lookup; it must
        # draw the same states and pick the same first heaviest assignment
        # as scoring each draw with evaluate, node potentials in their order
        rng = np.random.default_rng(11)
        models = [
            _pinned_models()["all_blocked_triangle"],  # no positive draw
            FactorGraph([("a", 3), ("b", 2)], [("f", ("a", "b"), np.ones(6))]),  # all tie
        ]
        for _ in range(30):
            m = self._random_pairwise(rng)
            tables = [
                (f.id, f.scope, f.table.values * (rng.uniform(size=f.table.values.size) > 0.4))
                for f in m.factors
            ]
            pots = {v: rng.uniform(0.0, 2.0, m.card(v)).round(1) for v in reversed(m.var_ids)}
            models.append(FactorGraph([(v, m.card(v)) for v in m.var_ids], tables, pots))
        for k, m in enumerate(models):
            ref, got = np.random.default_rng(k), np.random.default_rng(k)
            best_x, best_w = None, 0.0
            for _ in range(200):
                x = {v: int(ref.integers(0, m.card(v))) for v in m.var_ids}
                w = evaluate(m, x)
                if w > best_w:
                    best_x, best_w = x, w
            init = bethe._positive_assignment_init(bethe._Graph(m), got)
            assert ref.bit_generator.state == got.bit_generator.state
            if best_x is None:
                assert init is None
            else:
                assert [p.tolist().index(1.0) for p in init] == [best_x[v] for v in m.var_ids]


def _pinned_models():
    """Small models that cover every branch of mean field's coordinate ascent."""
    return {
        "potts_uniform_field": potts_to_factor_graph(
            PottsModel(
                4, [(0, 1), (1, 2), (2, 3), (0, 2)], 3, [0.7, 1.1, 0.4, 0.9],
                field=[0.3, -0.5, 0.1],
            )
        ),
        "matroid_incidence": incidence_factor_graph(
            GFMatrix(gf(3), [[1, 2, 0, 1], [1, 1, 1, 0], [0, 1, 2, 1]]),
            [2.5, 3.0, 0.8, 2.0],
        ),
        "hom_hard_zeros": hom_to_factor_graph(
            HomModel(
                4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                [1.0, 0.5, 2.0], [1.0, 0.0, 0.5], [0.0, 1.0, 0.5],
            )
        ),
        "zero_node_potential": FactorGraph(
            [("x", 3), ("y", 2), ("z", 3)],
            [
                ("f", ("x", "y"), [0.6, 1.9, 1.2, 0.4, 2.3, 0.8]),
                ("g", ("y", "z"), [1.4, 0.5, 2.1, 0.7, 1.1, 0.3]),
            ],
            {"x": [0.0, 1.0, 2.0], "z": [1.5, 0.0, 0.5]},
        ),
        "no_factors": FactorGraph([("a", 2), ("b", 3)], [], {"a": [1.0, 3.0], "b": [2.0, 1.0, 1.0]}),
        "cardinality_one": FactorGraph(
            [("u", 1), ("v", 2), ("w", 3)],
            [("f", ("u", "v"), [1.0, 2.0]), ("g", ("v", "w"), [0.9, 2.2, 0.5, 1.3, 0.6, 1.7])],
        ),
        "all_blocked_triangle": FactorGraph(
            [(v, 2) for v in range(3)],
            [(f"e{k}", e, [0.0, 1.0, 1.0, 0.0]) for k, e in enumerate([(0, 1), (1, 2), (0, 2)])],
        ),
    }


def _pinned_bethe_models():
    models = _pinned_models()
    models["counterexample"] = build_counterexample()
    return models


# maximize_bethe ("model/restarts/seed"), run_bp with init None or 5
# ("model/init"), maximize_bethe on the four counterexample conventions
# ("pair_mode/field_mode") at restarts=64, seed=0, and mean_field at its
# default settings
# ("model/restarts/seed"), all written by tests/data/record_pinned_bethe.py.
# A refactor of the Bethe layer must not change the arithmetic, so these
# hold exactly, not to a tolerance; a change that moves them re-records
# them and lists every pin that moved.
PINNED_BETHE = json.loads((Path(__file__).parent / "data" / "pinned_bethe.json").read_text())


class TestMeanFieldPinned:
    # PINNED_BETHE["mean_field"]: "model/restarts/seed" -> Z_MF and node beliefs
    @pytest.mark.parametrize("name,restarts,seed", sorted(
        (name, int(restarts), int(seed))
        for name, restarts, seed in (key.split("/") for key in PINNED_BETHE["mean_field"])
    ))
    def test_value_and_beliefs_unchanged(self, name, restarts, seed):
        model = _pinned_models()[name]
        nu, zmf = mean_field(model, restarts=restarts, seed=seed)
        expected = PINNED_BETHE["mean_field"][f"{name}/{restarts}/{seed}"]
        assert zmf == expected["z_mean_field"]
        assert list(nu) == list(model.var_ids)
        assert [nu[v].tolist() for v in model.var_ids] == expected["node"]


class TestMaximizeBethePinned:
    @pytest.mark.parametrize("key", sorted(PINNED_BETHE["maximize_bethe"]))
    def test_value_and_beliefs_unchanged(self, key):
        name, restarts, seed = key.split("/")
        model = _pinned_bethe_models()[name]
        tau, zb = maximize_bethe(model, restarts=int(restarts), seed=int(seed))
        expected = PINNED_BETHE["maximize_bethe"][key]
        assert zb == expected["z_bethe"]
        assert list(tau.node) == list(model.var_ids)
        assert [tau.node[v].tolist() for v in model.var_ids] == expected["node"]
        assert list(tau.factor) == [fac.id for fac in model.factors]
        assert [tau.factor[fac.id].tolist() for fac in model.factors] == expected["factor"]

    @pytest.mark.parametrize("key", sorted(PINNED_BETHE["maximize_bethe_long"]))
    def test_counterexample_unchanged(self, key):
        # acceptance 1's settings: 64 restarts on each convention
        model = build_counterexample(*key.split("/"))
        tau, zb = maximize_bethe(model, restarts=64, seed=0)
        expected = PINNED_BETHE["maximize_bethe_long"][key]
        assert zb == expected["z_bethe"]
        assert [tau.node[v].tolist() for v in model.var_ids] == expected["node"]
        assert list(tau.factor) == [fac.id for fac in model.factors]
        assert [tau.factor[fac.id].tolist() for fac in model.factors] == expected["factor"]

    @pytest.mark.parametrize("key", sorted(PINNED_BETHE["run_bp"]))
    def test_run_bp_unchanged(self, key):
        name, init = key.split("/")
        model = _pinned_bethe_models()[name]
        state, tau, value = run_bp(model, init=None if init == "None" else int(init))
        expected = PINNED_BETHE["run_bp"][key]
        assert value == expected["value"]
        assert state.iterations == expected["iterations"]
        assert state.residual == expected["residual"]
        assert state.converged == expected["converged"]
        assert [tau.node[v].tolist() for v in model.var_ids] == expected["node"]


# The envelope as it was before it was batched: one row at a time, with
# scalar IPF.  The batched envelope must reproduce it row by row exactly.


def _ref_entropy(p):
    p = np.asarray(p, dtype=float)
    return float(-np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)))


def _ref_energy(weights, support, log_pot):
    if np.any((weights > 1e-12) & ~support):
        return float("-inf")
    return float(np.sum(np.where((weights > 0) & support, weights * log_pot, 0.0)))


def _ref_ipf(kernel, margins, iters=300, tol=1e-13):
    """(table, residual, sweeps) of one row."""
    t = np.asarray(kernel, dtype=float)
    t = t / t.sum()
    worst, sweeps = 0.0, 0
    with np.errstate(over="ignore"):
        for sweeps in range(1, iters + 1):
            worst = 0.0
            for axis, target in enumerate(margins):
                axes = tuple(a for a in range(t.ndim) if a != axis)
                cur = t.sum(axis=axes)
                worst = max(worst, float(np.max(np.abs(cur - target))))
                ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
                shape = [1] * t.ndim
                shape[axis] = target.size
                t = t * ratio.reshape(shape)
            if worst < tol:
                break
        return t, worst, sweeps


def _ref_envelope(g, nu):
    """(value, factor beliefs) of one row."""
    entropy = [_ref_entropy(ni) for ni in nu]
    value = 0.0
    for u in range(len(nu)):
        if g.node_logs[u] is not None:
            e = _ref_energy(nu[u], *g.node_logs[u])
            if e == float("-inf"):
                return e, {}
            value += e
        value += entropy[u]
    factor_beliefs = {}
    for fi in range(len(g.factors)):
        fid, scope, table = g.factors[fi]
        t, residual, _sweeps = _ref_ipf(table, [nu[u] for u in scope])
        if residual > 1e-8:
            return float("-inf"), {}
        factor_beliefs[fid] = t
        e = _ref_energy(t, *bethe._log_support(table))
        if e == float("-inf"):
            return e, {}
        value += e + _ref_entropy(t)
        for u in scope:
            value -= entropy[u]
    return value, factor_beliefs


def _softmax(theta):
    e = np.exp(theta - theta.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _same_factors(got: dict, want: dict) -> bool:
    return list(got) == list(want) and all(
        got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes() for k in want
    )


class TestBatchedEnvelope:
    """``_ipf`` and ``_envelope`` run many rows at once; each row must come
    out exactly as the one-row-at-a-time reference above."""

    @staticmethod
    def _rows(g, rng, count):
        """Node-belief rows: field-proportional, flat, mildly and strongly
        random, so IPF needs different numbers of sweeps per row."""
        rows = [g.start, [np.full(c, 1.0 / c) for c in g.cards]]
        for k in range(count - 2):
            scale = 0.3 if k % 2 else 3.0
            rows.append([_softmax(scale * rng.normal(size=c)) for c in g.cards])
        return [np.array([row[vi] for row in rows]) for vi in range(len(g.cards))]

    @staticmethod
    def _models():
        models = _pinned_models()
        models["counterexample"] = build_counterexample()
        models["no_variables"] = FactorGraph([])
        # margins far from agreeing with the equality table are infeasible
        models["equality_pair"] = FactorGraph(
            [("a", 2), ("b", 2)], [("eq", ("a", "b"), [1.0, 0.0, 0.0, 1.0])]
        )
        return models

    def test_ipf_matches_row_by_row(self):
        rng = np.random.default_rng(0)
        sweeps = set()
        for name, model in self._models().items():
            g = bethe._Graph(model)
            nu = self._rows(g, rng, 9)
            for _fid, scope, table in g.factors:
                margins = [nu[u] for u in scope]
                kernels = np.broadcast_to(table, (len(margins[0]),) + table.shape)
                t, residual = bethe._ipf(kernels, margins)
                for r in range(len(t)):
                    want, want_res, n = _ref_ipf(table, [m[r] for m in margins])
                    sweeps.add(n)
                    assert t[r].tobytes() == want.tobytes(), name
                    assert residual[r] == want_res, name
        assert len(sweeps) > 10  # rows stop after many different sweep counts
        assert 300 in sweeps  # and some never converge

    def test_envelope_matches_row_by_row(self):
        rng = np.random.default_rng(1)
        for name, model in self._models().items():
            g = bethe._Graph(model)
            n = len(g.cards)
            batch = self._rows(g, rng, 6)
            values, factors = bethe._envelope(g, batch)
            assert len(values) == len(factors) == (6 if n else 1)
            for r in range(len(values)):
                want, want_factors = _ref_envelope(g, [b[r] for b in batch])
                assert values[r] == want, (name, r)
                assert _same_factors(factors[r], want_factors), (name, r)

    def test_infeasible_row_scores_neg_inf(self):
        g = bethe._Graph(self._models()["equality_pair"])
        nu = [np.array([[0.9, 0.1], [0.5, 0.5]]), np.array([[0.1, 0.9], [0.5, 0.5]])]
        values, factors = bethe._envelope(g, nu)
        assert values[0] == float("-inf") and factors[0] == {}
        # the flat row fits the diagonal table, whose entropy is all that remains
        assert values[1] == pytest.approx(math.log(2.0), abs=1e-12)
        assert list(factors[1]) == ["eq"]

    def test_model_without_variables(self):
        g = bethe._Graph(FactorGraph([]))
        values, factors = bethe._envelope(g, [])
        assert values.tolist() == [0.0] and factors == [{}]
        tau, zb = maximize_bethe(FactorGraph([]), restarts=4)
        assert zb == 1.0 and tau.node == {} and tau.factor == {}

    @pytest.mark.parametrize(
        "name", ["counterexample", "potts_uniform_field", "hom_hard_zeros",
                 "zero_node_potential", "no_variables"]
    )
    def test_maximize_bethe_returns_first_best_candidate(self, monkeypatch, name):
        # the candidates and their scores come from maximize_bethe's one
        # envelope call; the first row of highest value is returned as scored
        model = self._models()[name]
        calls = []
        original = bethe._envelope

        def recorded(g, nu):
            out = original(g, nu)
            calls.append((nu, out))
            return out

        monkeypatch.setattr(bethe, "_envelope", recorded)
        tau, zb = maximize_bethe(model, restarts=6, seed=1)
        [(nu, (values, factors))] = calls
        best = next(r for r, value in enumerate(values) if value == max(values))
        assert zb == bethe.partition_from_log(values[best], "Z_B")
        assert [tau.node[v].tobytes() for v in model.var_ids] == [b[best].tobytes() for b in nu]
        assert _same_factors(tau.factor, factors[best])

    @pytest.mark.parametrize("name", ["counterexample", "potts_uniform_field", "hom_hard_zeros"])
    def test_refine_keywords_ignored(self, name):
        # accepted only for the benchmark's call; they change nothing
        model = self._models()[name]
        tau, zb = maximize_bethe(model, restarts=6, seed=1)
        tau_k, zb_k = maximize_bethe(model, restarts=6, seed=1, refine_steps=120, refine_top=3)
        assert zb_k == zb
        assert [tau_k.node[v].tobytes() for v in model.var_ids] == [
            tau.node[v].tobytes() for v in model.var_ids
        ]
        assert _same_factors(tau_k.factor, tau.factor)


class TestLayerProbe:
    """The benchmark counts mean-field work by wrapping the public function
    wherever a module binds it; a caller that bypasses it hides that work.
    The envelope's call count is pinned here, so a return to one call per
    candidate or to finite-difference rows fails a test, not only the
    benchmark."""

    @staticmethod
    def _count_mean_field(monkeypatch) -> list:
        calls = []
        original = bethe.mean_field

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bethe, "mean_field", counted)
        monkeypatch.setattr(verify, "mean_field", counted)
        return calls

    def test_one_mean_field_call_per_maximize_bethe(self, monkeypatch):
        calls = self._count_mean_field(monkeypatch)
        bethe.maximize_bethe(_pinned_models()["potts_uniform_field"], restarts=4)
        assert len(calls) == 1

    def test_two_mean_field_calls_per_ordering_check(self, monkeypatch):
        calls = self._count_mean_field(monkeypatch)
        model = _pinned_models()["hom_hard_zeros"]
        verify._check_ordering(model, seed=0)
        assert len(calls) == 2

    def test_envelope_calls_per_maximize_bethe(self, monkeypatch):
        rows = []
        original = bethe._envelope

        def counted(g, nu):
            rows.append(len(nu[0]))
            return original(g, nu)

        monkeypatch.setattr(bethe, "_envelope", counted)
        model = _pinned_models()["potts_uniform_field"]
        bethe.maximize_bethe(model, restarts=8)
        # one call scores the 8 BP restarts, mean field and the
        # field-proportional candidate
        assert rows == [8 + 2]


# BP as it was before the factors were stacked: per-factor lists of
# (restarts, card) messages, one sweep loop per factor and position, and
# leave-one-out products by an O(d^2) loop.  The stacked engine must match
# it message for message.


def _ref_factor_to_var_sweep(g, v2f, restarts):
    out = []
    for fi, (_fid, scope, table) in enumerate(g.factors):
        k = len(scope)
        msgs = []
        for pos in range(k):
            t = np.broadcast_to(table[None, ...], (restarts,) + table.shape).copy()
            for l in range(k):
                if l != pos:
                    shape = [restarts] + [1] * k
                    shape[1 + l] = g.cards[scope[l]]
                    t = t * v2f[fi][l].reshape(shape)
            axes = tuple(1 + l for l in range(k) if l != pos)
            msgs.append(_ref_normalize_rows(t.sum(axis=axes) if axes else t))
        out.append(msgs)
    return out


def _ref_var_to_factor_sweep(g, f2v):
    out = [[None] * len(scope) for _fid, scope, _t in g.factors]
    for vi in range(len(g.var_ids)):
        inc = g.incident[vi]
        for fi, pos in inc:
            m = np.broadcast_to(g.phis[vi][None, :], f2v[fi][pos].shape).copy()
            for fj, pos2 in inc:
                if (fj, pos2) != (fi, pos):
                    m = m * f2v[fj][pos2]
            out[fi][pos] = _ref_normalize_rows(m)
    return out


def _ref_bp_engine(g, v2f, restarts, max_iters=2_000, tol=1e-10, damping=0.5):
    f2v = _ref_factor_to_var_sweep(g, v2f, restarts)
    residual = np.full(restarts, np.inf)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_v2f = _ref_var_to_factor_sweep(g, f2v)
        new_f2v = _ref_factor_to_var_sweep(g, new_v2f, restarts)
        residual = np.zeros(restarts)
        for fi, (_fid, scope, _t) in enumerate(g.factors):
            for pos in range(len(scope)):
                d1 = np.abs(new_v2f[fi][pos] - v2f[fi][pos]).max(axis=1)
                d2 = np.abs(new_f2v[fi][pos] - f2v[fi][pos]).max(axis=1)
                residual = np.maximum(residual, np.maximum(d1, d2))
                v2f[fi][pos] = damping * v2f[fi][pos] + (1.0 - damping) * new_v2f[fi][pos]
                f2v[fi][pos] = damping * f2v[fi][pos] + (1.0 - damping) * new_f2v[fi][pos]
        if np.all(residual < tol):
            break
    return v2f, f2v, iterations, residual


def _per_factor(g, msgs):
    """Stacked (slot, card, restart) messages (per cardinality) as
    per-factor lists of (restarts, card) arrays."""
    return [
        [msgs[g.cards[vi]][slot].T.copy() for vi, slot in zip(scope, slots)]
        for (_fid, scope, _t), slots in zip(g.factors, g.slots)
    ]


def _engine_models():
    """The pinned models, the counterexample, and the shapes a stacked engine
    can get wrong: mixed arities and cardinalities, a constant factor, an
    isolated variable, a variable of degree 5 and messages that sum to 0."""
    rng = np.random.default_rng(12)
    models = _pinned_bethe_models()
    cards = {"a": 2, "b": 3, "c": 2, "d": 4}
    scopes = [("a",), ("a", "b"), ("b", "d"), ("a", "c", "d"), ("b", "c", "a"), ("d",), ("c", "d")]
    models["mixed_arity"] = FactorGraph(
        list(cards.items()),
        [
            (f"f{k}", s, rng.uniform(0.2, 2.0, int(np.prod([cards[v] for v in s]))))
            for k, s in enumerate(scopes)
        ],
        {"b": [0.5, 1.0, 2.0]},
    )
    models["constant_factor"] = FactorGraph(
        [("x", 2), ("y", 2)],
        [("c", (), [2.0]), ("f", ("x", "y"), [1.0, 3.0, 0.5, 2.0]), ("k", (), [0.5])],
    )
    models["isolated_variable"] = FactorGraph(
        [("x", 3), ("lone", 2), ("y", 3)],
        [("f", ("x", "y"), rng.uniform(0.5, 2.0, 9))],
        {"lone": [1.0, 4.0]},
    )
    models["degree_five"] = FactorGraph(
        [(v, 3) for v in range(6)] + [(6, 2)],
        [(f"e{k}", (0, k), rng.uniform(0.3, 3.0, 9)) for k in range(1, 6)]
        + [("t", (1, 2, 6), rng.uniform(0.3, 3.0, 18)), ("u", (3, 4), rng.uniform(0.3, 3.0, 9))],
    )
    # g pins a to 0, where f is all zero: the message f sends to b sums to 0
    models["zero_sum_message"] = FactorGraph(
        [("a", 2), ("b", 2), ("c", 2)],
        [("g", ("a",), [1.0, 0.0]), ("f", ("a", "b"), [0.0, 0.0, 0.0, 1.0]),
         ("h", ("b", "c"), [1.0, 2.0, 3.0, 1.0])],
    )
    return models


class TestStackedBP:
    @pytest.mark.parametrize("name", sorted(_engine_models()))
    def test_matches_per_factor_sweeps(self, name):
        g = bethe._Graph(_engine_models()[name])
        degrees = [len(inc) for inc in g.incident]
        for restarts, seed in ((1, None), (24, 3)):
            init = bethe._init_messages(g, restarts, seed)
            want_v2f, want_f2v, want_iters, want_res = _ref_bp_engine(
                g, _per_factor(g, init), restarts
            )
            v2f, f2v, iters, residual = bethe._bp_engine(g, init, 2_000, 1e-10, 0.5)
            assert iters == want_iters
            assert np.abs(residual - want_res).max() <= 1e-14
            for got, want in ((v2f, want_v2f), (f2v, want_f2v)):
                for got_msgs, want_msgs in zip(_per_factor(g, got), want):
                    for a, b in zip(got_msgs, want_msgs):
                        assert np.abs(a - b).max() <= 1e-14
            # node beliefs multiply the incoming messages in incidence order
            for vi, b in enumerate(bethe._node_beliefs(g, f2v)):
                want = np.broadcast_to(g.phis[vi], (restarts, g.cards[vi]))
                for fi, pos in g.incident[vi]:
                    want = want * want_f2v[fi][pos]
                assert np.abs(b - _ref_normalize_rows(want)).max() <= 1e-14
        assert name != "degree_five" or max(degrees) == 5

    def test_only_constant_factors(self):
        model = FactorGraph([("x", 2)], [("c", (), [2.0]), ("k", (), [3.0])])
        state, tau, value = run_bp(model)
        assert (state.iterations, state.residual, state.converged) == (1, 0.0, True)
        assert value == pytest.approx(math.log(12.0), abs=1e-15)
        assert tau.node["x"].tolist() == [0.5, 0.5]

    def test_zero_sum_message_is_uniform(self):
        g = bethe._Graph(_engine_models()["zero_sum_message"])
        v2f = bethe._init_messages(g, 1, None)
        # a tells f it is 0, where f is all zero: f's message to b sums to 0
        v2f[2][g.slots[1][0], :, 0] = [1.0, 0.0]
        f2v = _ref_factor_to_var(g, v2f)
        assert f2v[2][g.slots[1][1], :, 0].tolist() == [0.5, 0.5]


class TestRepeatability:
    @pytest.mark.parametrize("name", sorted(_pinned_bethe_models()))
    def test_identical_calls_are_bitwise_equal(self, name):
        model = _pinned_bethe_models()[name]
        (tau, zb), (tau2, zb2) = (maximize_bethe(model, restarts=8, seed=1) for _ in range(2))
        assert zb2 == zb
        assert [tau2.node[v].tobytes() for v in model.var_ids] == [
            tau.node[v].tobytes() for v in model.var_ids
        ]
        assert _same_factors(tau2.factor, tau.factor)
        for init in (None, 5):
            (state, tau, value), (state2, tau2, value2) = (
                run_bp(model, init=init) for _ in range(2)
            )
            assert state2 == state and value2 == value
            assert [tau2.node[v].tobytes() for v in model.var_ids] == [
                tau.node[v].tobytes() for v in model.var_ids
            ]
            assert _same_factors(tau2.factor, tau.factor)


class TestRestartIndependence:
    """BP restarts are independent to rounding, not bitwise: BLAS may round
    a ``matmul`` column differently with the number of columns, so a
    restart's messages can change in the last bits with the batch width."""

    # past every pinned model's convergence at tol 1e-10 (the slowest takes 155)
    SWEEPS = 200

    @pytest.mark.parametrize(
        "name", sorted(k for k, m in _pinned_bethe_models().items() if m.factors)
    )
    def test_restart_agrees_across_batch_widths(self, name):
        g = bethe._Graph(_pinned_bethe_models()[name])
        init = bethe._init_messages(g, 16, 3)
        # tol 0 stops no run early, so every width makes the same sweeps
        full = bethe._bp_engine(g, init, self.SWEEPS, 0.0, 0.5)
        for cols in ([5], [0, 5, 11], list(range(0, 16, 2)), list(range(16))[::-1]):
            sub = bethe._bp_engine(
                g, {c: m[..., cols] for c, m in init.items()}, self.SWEEPS, 0.0, 0.5
            )
            assert sub[2] == full[2] == self.SWEEPS
            assert np.abs(sub[3] - full[3][cols]).max() <= 1e-12
            for got, want in zip(sub[:2], full[:2]):
                for c in want:
                    assert np.abs(got[c] - want[c][..., cols]).max(initial=0.0) <= 1e-12
            for got, want in zip(bethe._node_beliefs(g, sub[1]), bethe._node_beliefs(g, full[1])):
                assert np.abs(got - want[cols]).max() <= 1e-12


# The stacked BP sweep as it was before its gathers were compiled:
# normalization by a reduction, the leave-one-out products over a
# concatenated ones slot and a boolean mask, and damping into new arrays.
# The engine must match it bit for bit.


def _ref_normalize_rows(msg, axis=-1):
    s = msg.sum(axis=axis, keepdims=True)
    bad = s <= 0
    if bad.any():
        msg = np.where(bad, 1.0, msg)
        s = np.where(bad, msg.shape[axis], s)
    return msg / s


def _ref_factor_to_var(g, v2f):
    """The engine's factor-to-variable step on v2f (per cardinality, (slots,
    card, restarts)), through a fresh [v2f | f2v | ones slot] buffer; returns
    the (slots + 1, card, restarts) f2v block."""
    bufs = {c: np.concatenate([m, np.ones((len(m) + 1,) + m.shape[1:])]) for c, m in v2f.items()}
    bethe._factor_to_var(g, bufs)
    return {c: b[len(b) // 2 :] for c, b in bufs.items()}


def _ref_var_to_factor(g, f2v):
    v2f = {}
    for c, card in g.by_card.items():
        inc = f2v[c][card.incidence]
        ones = np.ones(inc.shape[:1] + (1,) + inc.shape[2:])
        before = np.cumprod(np.concatenate([ones, inc[:, :-1]], axis=1), axis=1)
        after = np.cumprod(np.concatenate([ones, inc[:, :0:-1]], axis=1), axis=1)
        m = card.phis[:, None, :, None] * before * after[:, ::-1]
        # the real incidence entries in slot order
        slot_order = np.argsort(card.incidence[card.incidence < len(card.flat)])
        v2f[c] = _ref_normalize_rows(m[card.incidence < len(card.flat)][slot_order], axis=1)
    return v2f


def _ref_stacked_bp_engine(g, v2f, max_iters, tol, damping):
    restarts = next(iter(v2f.values())).shape[-1] if v2f else 1
    f2v = _ref_factor_to_var(g, v2f)
    residual = np.full(restarts, np.inf)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_v2f = _ref_var_to_factor(g, f2v)
        new_f2v = _ref_factor_to_var(g, new_v2f)
        residual = np.zeros(restarts)
        for c in v2f:
            for old, new in ((v2f[c], new_v2f[c]), (f2v[c], new_f2v[c])):
                residual = np.maximum(residual, np.abs(new - old).max(axis=(0, 1), initial=0.0))
            v2f[c] = damping * v2f[c] + (1.0 - damping) * new_v2f[c]
            f2v[c] = damping * f2v[c] + (1.0 - damping) * new_f2v[c]
        if np.all(residual < tol):
            break
    return v2f, f2v, iterations, residual


class TestCompiledSweep:
    @pytest.mark.parametrize("name", sorted(_engine_models()))
    def test_var_to_factor_matches_concatenated_form(self, name):
        g = bethe._Graph(_engine_models()[name])
        rng = np.random.default_rng(18)
        for restarts in (1, 24):
            src, dst = {}, {}
            for c, card in g.by_card.items():
                m = rng.uniform(0.0, 2.0, size=(2 * len(card.flat) + 1, c, restarts))
                m[len(card.flat) :: 4] = 0.0  # zero messages, and vectors that sum to 0
                m[-1] = 1.0  # the ones slot
                src[c], dst[c] = m, np.full(m.shape, np.nan)
            want = _ref_var_to_factor(g, {c: m[len(m) // 2 :] for c, m in src.items()})
            bethe._var_to_factor(g, src, dst)
            got = {c: m[: len(m) // 2] for c, m in dst.items()}
            assert list(got) == list(want)
            for c in want:
                assert got[c].shape == want[c].shape and got[c].tobytes() == want[c].tobytes()

    @pytest.mark.parametrize("name", sorted(_engine_models()))
    def test_engine_matches_unfused_damping(self, name):
        g = bethe._Graph(_engine_models()[name])
        for restarts, seed, damping in ((1, None, 0.5), (24, 3, 0.5), (7, 4, 0.0), (5, 6, 0.9)):
            init = bethe._init_messages(g, restarts, seed)
            want = _ref_stacked_bp_engine(g, {c: m.copy() for c, m in init.items()}, 300, 1e-10,
                                          damping)
            got = bethe._bp_engine(g, init, 300, 1e-10, damping)
            assert got[2] == want[2] and got[3].tobytes() == want[3].tobytes()
            for got_msgs, want_msgs in zip(got[:2], want[:2]):
                assert [m.tobytes() for m in got_msgs.values()] == [
                    m.tobytes() for m in want_msgs.values()
                ]


class TestClosedFormMeanField:
    @staticmethod
    def _rows(g, rng):
        """Random interior rows, rows with zeros, one-hot rows and the
        field-proportional start."""
        rows = [g.start]
        for k in range(12):
            row = []
            for c in g.cards:
                p = rng.dirichlet(np.full(c, 0.5 if k % 2 else 3.0))
                if k % 3 == 0:
                    p[rng.integers(c)] = 0.0
                elif k % 4 == 1:
                    p = np.eye(c)[rng.integers(c)]
                row.append(p / p.sum() if p.sum() > 0 else np.full(c, 1.0 / c))
            rows.append(row)
        return [np.array([row[vi] for row in rows]) for vi in range(len(g.cards))], len(rows)

    def test_matches_objective_at_product_beliefs(self):
        rng = np.random.default_rng(13)
        models = _engine_models()
        models["no_variables"] = FactorGraph([], [("c", (), [2.5])])
        finite = blocked = 0
        for name, model in models.items():
            g = bethe._Graph(model)
            nu, rows = self._rows(g, rng)
            got = bethe._mean_field_values(g, nu, rows)
            for r in range(rows):
                node = {v: nu[vi][r] for vi, v in enumerate(g.var_ids)}
                want = bethe_objective(model, product_beliefs(model, node), validate=False)
                if want == float("-inf"):
                    blocked += 1
                    assert got[r] == want, (name, r)
                else:
                    finite += 1
                    assert got[r] == pytest.approx(want, rel=1e-12, abs=1e-12), (name, r)
        assert finite > 100 and blocked > 20


# Mean field's coordinate ascent as it was before the flat belief array: one
# (restarts, card) array per variable and, per variable, a loop over its
# incident factors.  The planned sweep must match it to rounding, with the
# same blocked entries and the same rows left in place.


def _ref_mean_field_terms(g, vi):
    node = g.node_logs[vi]
    if node is None:
        node_score = np.zeros(g.cards[vi])
    else:
        node_score = np.where(node[0], node[1], -np.inf)
    terms = []
    for fi, pos in g.incident[vi]:
        scope = g.factors[fi][1]
        support, log_table = bethe._log_support(g.factors[fi][2])
        others = []
        for l, vj in enumerate(scope):
            if l != pos:
                shape = [-1] + [1] * len(scope)
                shape[1 + l] = g.cards[vj]
                others.append((vj, tuple(shape)))
        axes = tuple(1 + l for l in range(len(scope)) if l != pos)
        terms.append((others, axes, support, ~support, log_table))
    return node_score, terms


def _ref_mean_field_sweep(g, nu, rows):
    """One pass over the variables, in place on the list nu; returns each
    row's largest change and, per variable, its -inf score entries and the
    rows scored -inf everywhere."""
    delta = np.zeros(rows)
    blocked_entries, stuck_rows = [], []
    for vi in range(len(g.cards)):
        node_score, terms = _ref_mean_field_terms(g, vi)
        score = np.broadcast_to(node_score, nu[vi].shape)
        for others, axes, support, off_support, log_table in terms:
            w = 1.0
            for vj, shape in others:
                w = w * nu[vj].reshape(shape)
            contrib = np.where(support & (w > 0), w * log_table, 0.0)
            blocked = (off_support & (w > 1e-12)).any(axis=axes)
            score = np.where(blocked, -np.inf, score + contrib.sum(axis=axes))
        top = score.max(axis=1, keepdims=True)
        movable = top > -np.inf
        e = np.exp(score - np.where(movable, top, 0.0))
        new = np.where(movable, e / np.where(movable, e.sum(axis=1, keepdims=True), 1.0), nu[vi])
        delta = np.maximum(delta, np.abs(new - nu[vi]).max(axis=1))
        blocked_entries.append(score == -np.inf)
        stuck_rows.append(~movable[:, 0])
        nu[vi] = new
    return delta, blocked_entries, stuck_rows


def _flat(nu, rows):
    """Per-variable (rows, card) beliefs as mean field's flat array."""
    return np.concatenate([*nu, np.ones((rows, 1))], axis=1)


def _mean_field_models():
    models = _engine_models()
    models["no_variables"] = FactorGraph([], [("c", (), [2.5])])
    return models


class TestMeanFieldPlan:
    def test_one_sweep_matches_per_term_loop(self):
        rng = np.random.default_rng(16)
        blocked_seen = stuck_seen = 0
        for name, model in _mean_field_models().items():
            g = bethe._Graph(model)
            nu, rows = TestClosedFormMeanField._rows(g, rng)
            flat = _flat(nu, rows)
            want = [b.copy() for b in nu]
            want_delta, blocked, stuck = _ref_mean_field_sweep(g, want, rows)
            delta = bethe._mean_field_sweep(flat, g.mean_field)
            assert np.abs(delta - want_delta).max(initial=0.0) <= 1e-14, name
            assert flat[:, -1].tolist() == [1.0] * rows, name
            for vi, cols in enumerate(g.columns):
                got = flat[:, cols]
                assert np.abs(got - want[vi]).max(initial=0.0) <= 1e-14, (name, vi)
                assert (got[blocked[vi] & ~stuck[vi][:, None]] == 0.0).all(), (name, vi)
                assert got[stuck[vi]].tobytes() == nu[vi][stuck[vi]].tobytes(), (name, vi)
                blocked_seen += blocked[vi].sum()
                stuck_seen += stuck[vi].sum()
        assert blocked_seen > 50 and stuck_seen > 5

    def test_restart_alone_matches_its_stacked_row(self):
        # each row's weights are summed on their own, so a restart's sweep
        # is bit-identical whether it runs alone or in a stack
        rng = np.random.default_rng(17)
        for name, model in _mean_field_models().items():
            g = bethe._Graph(model)
            nu, rows = TestClosedFormMeanField._rows(g, rng)
            stacked = _flat(nu, rows)
            alone = [stacked[r : r + 1].copy() for r in range(rows)]
            for _sweep in range(20):
                delta = bethe._mean_field_sweep(stacked, g.mean_field)
                for r, row in enumerate(alone):
                    assert bethe._mean_field_sweep(row, g.mean_field)[0] == delta[r], (name, r)
            for r, row in enumerate(alone):
                assert row.tobytes() == stacked[r : r + 1].tobytes(), (name, r)

    def test_plan_layout(self):
        g = bethe._Graph(_engine_models()["mixed_arity"])
        for vi, step in enumerate(g.mean_field):
            arity = max(len(g.factors[fi][1]) for fi, _pos in g.incident[vi])
            assert step.gather.shape[0] == arity - 1
            assert step.log_table.shape == (g.cards[vi], step.gather.shape[1])
            assert step.off_support is None  # every table of mixed_arity is positive


# The mean-field update and IPF as they were, with their masks taken on
# every call; the mask-free paths must match them bit for bit.


def _ref_masked_mean_field_sweep(nu, plan):
    """The sweep in place, and whether any variable's update left a row
    scored -inf everywhere."""
    before = nu.copy()
    stuck = False
    for cols, node_score, gather, log_table, off_support in plan:
        beliefs = np.take(nu, gather, axis=1)
        w = beliefs[:, 0]
        for l in range(1, len(gather)):
            w = w * beliefs[:, l]
        score = node_score + (w[:, None, :] * log_table).sum(axis=2)
        if off_support is not None:
            score[(w > 1e-12) @ off_support] = -np.inf
        top = score.max(axis=1, keepdims=True)
        movable = top > -np.inf
        stuck |= not movable.all()
        e = np.exp(score - np.where(movable, top, 0.0))
        new = e / np.where(movable, e.sum(axis=1, keepdims=True), 1.0)
        nu[:, cols] = np.where(movable, new, nu[:, cols])
    return np.abs(nu - before).max(axis=1), stuck


def _ref_masked_ipf(kernels, margins, iters=300, tol=1e-13):
    """(tables, residuals, whether a margin ever held a zero)."""
    with np.errstate(over="ignore"):
        t = np.asarray(kernels, dtype=float)
        t = t / t.sum(axis=tuple(range(1, t.ndim)), keepdims=True)
        residual = np.zeros(len(t))
        active, cur_t, targets = np.arange(len(t)), t, list(margins)
        zero = False
        for _ in range(iters):
            worst = np.zeros(len(active))
            for axis, target in enumerate(targets):
                axes = tuple(1 + a for a in range(t.ndim - 1) if a != axis)
                cur = cur_t.sum(axis=axes)
                worst = np.maximum(worst, np.abs(cur - target).max(axis=1))
                zero |= not (cur > 0).all()
                ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
                shape = [len(active)] + [1] * (t.ndim - 1)
                shape[1 + axis] = target.shape[1]
                cur_t = cur_t * ratio.reshape(shape)
            residual[active] = worst
            done = worst < tol
            if done.any():
                t[active[done]] = cur_t[done]
                going = ~done
                active, cur_t = active[going], cur_t[going]
                targets = [target[going] for target in targets]
                if not active.size:
                    break
        t[active] = cur_t
        return t, residual, zero


class TestMaskFreeUpdates:
    def test_mean_field_sweep_matches_masked_form(self):
        rng = np.random.default_rng(19)
        seen = set()
        for name, model in _mean_field_models().items():
            g = bethe._Graph(model)
            nu, rows = TestClosedFormMeanField._rows(g, rng)
            # the whole stack, with zero and one-hot rows, the first row alone
            # and the stack reversed
            for stack in (_flat(nu, rows), _flat([ni[:1] for ni in nu], 1),
                          _flat(nu, rows)[::-1].copy()):
                want = stack.copy()
                for _sweep in range(8):
                    want_delta, stuck = _ref_masked_mean_field_sweep(want, g.mean_field)
                    delta = bethe._mean_field_sweep(stack, g.mean_field)
                    assert delta.tobytes() == want_delta.tobytes(), name
                    assert stack.tobytes() == want.tobytes(), name
                    seen.add(stuck)
        assert seen == {True, False}  # both the masked and the mask-free path ran

    def test_ipf_matches_masked_form(self):
        rng = np.random.default_rng(21)
        seen = set()
        models = _engine_models()
        models["equality_pair"] = TestBatchedEnvelope._models()["equality_pair"]
        for name, model in models.items():
            g = bethe._Graph(model)
            nu = TestBatchedEnvelope._rows(g, rng, 7)
            for grp in g.groups:
                if not len(grp.scopes):
                    continue
                kernels = np.repeat(grp.tables, 7, axis=0)
                margins = [np.concatenate([nu[u] for u in col]) for col in grp.scopes]
                t, residual = bethe._ipf(kernels, margins)
                want, want_res, zero = _ref_masked_ipf(kernels, margins)
                seen.add(zero)
                assert t.tobytes() == want.tobytes(), name
                assert residual.tobytes() == want_res.tobytes(), name
        assert seen == {True, False}  # both the masked and the direct division ran


class TestGroupedIPF:
    def test_rows_match_their_own_factor(self):
        # the stack _envelope builds: per table shape, every factor's rows
        rng = np.random.default_rng(14)
        groups = set()
        for name, model in _engine_models().items():
            g = bethe._Graph(model)
            nu = TestBatchedEnvelope._rows(g, rng, 7)
            for grp in g.groups:
                if not len(grp.scopes):
                    continue
                groups.add(len(grp.factors))
                kernels = np.repeat(grp.tables, 7, axis=0)
                margins = [np.concatenate([nu[u] for u in col]) for col in grp.scopes]
                t, residual = bethe._ipf(kernels, margins)
                for j, fi in enumerate(grp.factors):
                    _fid, scope, table = g.factors[fi]
                    for r in range(7):
                        k = j * 7 + r
                        want, want_res, _n = _ref_ipf(table, [nu[u][r] for u in scope])
                        assert t[k].tobytes() == want.tobytes(), name
                        assert residual[k] == want_res, name
        assert max(groups) >= 5  # some groups stack many factors


def _potts_cycle(rng):
    """A ferromagnetic Potts cycle with a uniform field, and its loop matrix
    prod_k diag(e^h) exp(J_k I) (Weiss 2000)."""
    n, q = int(rng.integers(3, 7)), int(rng.integers(2, 5))
    coupling = rng.uniform(0.1, 1.5, n)
    field = rng.normal(0.0, 0.7, q)
    edges = [(k, (k + 1) % n) if k + 1 < n else (0, n - 1) for k in range(n)]
    loop = np.eye(q)
    for j in coupling:
        loop = loop @ np.diag(np.exp(field)) @ np.exp(j * np.eye(q))
    return potts_to_factor_graph(PottsModel(n, edges, q, coupling, field=field)), loop


class TestSingleCycle:
    def test_bethe_is_top_eigenvalue_of_loop_matrix(self):
        rng = np.random.default_rng(15)
        for k in range(30):
            model, loop = _potts_cycle(rng)
            assert exact_partition(model) == pytest.approx(np.trace(loop), rel=1e-12)
            _tau, zb = maximize_bethe(model, restarts=24, seed=k)
            top = np.max(np.linalg.eigvals(loop).real)
            assert zb == pytest.approx(top, rel=1e-12), k


class TestOverflowRefused:
    """A Bethe or mean-field Z beyond the float range raises
    NumericRangeError naming its log instead of an OverflowError."""

    @staticmethod
    def _chain(log_weight):
        # two equality tables: Z = Z_B = 2 e^(2 w), Z_MF = e^(2 w)
        e = math.exp(log_weight)
        return FactorGraph(
            [("a", 2), ("b", 2), ("c", 2)],
            [("f", ("a", "b"), [e, 0.0, 0.0, e]), ("g", ("b", "c"), [e, 0.0, 0.0, e])],
        )

    def test_mean_field(self):
        model = FactorGraph(
            [("a", 2), ("b", 2)], [("f0", ("a", "b"), [1e200] * 4), ("f1", ("a", "b"), [1e200] * 4)]
        )
        with pytest.raises(NumericRangeError, match=r"log Z = 922\.42"):
            mean_field(model, restarts=4)
        with pytest.raises(NumericRangeError, match=r"mean-field .*log Z = 922\.42"):
            maximize_bethe(model, restarts=4)

    def test_maximize_bethe(self):
        model = self._chain(354.8)
        _nu, zmf = mean_field(model, restarts=4)
        assert math.log(zmf) == pytest.approx(709.6, rel=1e-12)
        with pytest.raises(NumericRangeError, match=r"Bethe .*log Z = 710\.29"):
            maximize_bethe(model, restarts=4)

    def test_table_sum_beyond_range(self):
        # Z is in range, but f's entries sum to inf: BP and IPF normalize by
        # that sum, which turned messages and tables to 0 without a word
        model = FactorGraph(
            [("a", 2), ("b", 2), ("c", 2)],
            [("f", ("a", "b"), [1.7e308, 1.7e308, 1e308, 1.6e308]),
             ("g", ("b", "c"), [1e-10, 3e-10, 2e-10, 1e-10])],
        )
        assert math.log(exact_partition(model)) == pytest.approx(689.2005, abs=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: maximize_bethe(model, restarts=4), lambda: run_bp(model)):
                with pytest.raises(NumericRangeError, match="factor 'f' sum beyond"):
                    run()
            # mean field never sums a table
            _nu, zmf = mean_field(model, restarts=4)
        assert 0.0 < zmf <= exact_partition(model)

    def test_node_potential_sum_beyond_range(self):
        model = FactorGraph(
            [("a", 2), ("b", 2)],
            [("f", ("a", "b"), [1e-10, 2e-10, 3e-10, 1e-10])],
            {"a": [1.7e308, 1e308]},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: maximize_bethe(model, restarts=4), lambda: run_bp(model)):
                with pytest.raises(NumericRangeError, match="node potential of 'a' sum beyond"):
                    run()
            # restart 0 starts from the potential normalized, not from zeros
            _nu, zmf = mean_field(model, restarts=4)
        assert 0.0 < zmf <= exact_partition(model)

    def test_in_range_unchanged(self):
        _tau, zb = maximize_bethe(self._chain(1.0), restarts=4)
        assert zb == pytest.approx(2.0 * math.exp(2.0), rel=1e-12)
