import math

import numpy as np
import pytest

from zbounds.bethe import (
    bethe_gradient,
    bethe_objective,
    maximize_bethe,
    mean_field,
    product_beliefs,
    run_bp,
)
from zbounds.errors import ModelError
from zbounds.homs import HomModel, hom_to_factor_graph
from zbounds.lattice import model_is_log_supermodular
from zbounds.matroid import GFMatrix, gf, incidence_factor_graph
from zbounds.models import (
    FactorGraph,
    PseudoMarginals,
    exact_marginals,
    exact_partition,
)
from zbounds.potts import PottsModel, build_counterexample, potts_to_factor_graph
from zbounds.verify import random_lsm_pairwise_model, random_tree_model


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


class TestMaximizeBethe:
    def test_tree_recovers_z(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            m = random_tree_model(rng)
            z = exact_partition(m)
            _tau, zb = maximize_bethe(m, restarts=8, seed=0, refine_steps=10)
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
            m = random_lsm_pairwise_model(rng, max_vertices=4)
            assert all(r.ok for r in model_is_log_supermodular(m).values())
            z = exact_partition(m)
            _tau, zb = maximize_bethe(m, restarts=16, seed=1)
            assert zb <= z * (1 + 1e-9)

    def test_returned_beliefs_feasible(self):
        m = build_counterexample()
        tau, zb = maximize_bethe(m, restarts=8, seed=0)
        assert tau.polytope_violation(m) <= 1e-9
        assert bethe_objective(m, tau) == pytest.approx(math.log(zb), abs=1e-9)

    def test_budget_enforced(self):
        m = FactorGraph([(i, 2) for i in range(25)])
        with pytest.raises(ModelError):
            maximize_bethe(m, max_vars=20)

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
            _tau, zb = maximize_bethe(m, restarts=16, seed=i, refine_steps=10)
            assert zmf <= zb * (1 + 1e-9)

    def test_product_beliefs_objective_matches(self):
        m = random_tree_model(np.random.default_rng(9))
        nu, zmf = mean_field(m, restarts=4, seed=0)
        val = bethe_objective(m, product_beliefs(m, nu), validate=False)
        assert val == pytest.approx(math.log(zmf), abs=1e-9)

    def test_deterministic(self):
        m = random_tree_model(np.random.default_rng(10))
        assert mean_field(m, restarts=6, seed=3)[1] == mean_field(m, restarts=6, seed=3)[1]


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


# (model, restarts, seed) -> (Z_MF, node beliefs), recorded with every
# restart run on its own.  Running the restarts batched must not change a
# restart's arithmetic, so these hold exactly, not to a tolerance.
PINNED_MEAN_FIELD = {
    ("potts_uniform_field", 8, 1): (
        299.6098331183591,
        {
            0: [0.6177694110687101, 0.11509572200221957, 0.26713486692907024],
            1: [0.6350338135016415, 0.10746708444327956, 0.2574991020550791],
            2: [0.6611636025867735, 0.0933253705123607, 0.24551102690086588],
            3: [0.48748315180183793, 0.17453415211244838, 0.3379826960857137],
        },
    ),
    ("potts_uniform_field", 16, 4): (
        299.6098331183591,
        {
            0: [0.6177694110691027, 0.11509572200215809, 0.2671348669287392],
            1: [0.6350338135019891, 0.10746708444322539, 0.2574991020547856],
            2: [0.6611636025870601, 0.09332537051231778, 0.24551102690062218],
            3: [0.4874831518018841, 0.17453415211244191, 0.33798269608567405],
        },
    ),
    ("matroid_incidence", 8, 1): (
        4068.487306373758,
        {
            "r0": [0.9988055743377986, 0.0005972128311007938, 0.0005972128311007938],
            "r1": [0.9961723832492442, 0.0019138083753778977, 0.0019138083753778977],
            "r2": [0.9937945840056805, 0.0031027079971596917, 0.0031027079971596917],
        },
    ),
    ("matroid_incidence", 16, 4): (
        4068.487306373758,
        {
            "r0": [0.9988055743377986, 0.0005972128311007981, 0.0005972128311007981],
            "r1": [0.9961723832492442, 0.0019138083753778977, 0.0019138083753778977],
            "r2": [0.9937945840056805, 0.0031027079971596917, 0.0031027079971596917],
        },
    ),
    ("hom_hard_zeros", 8, 1): (
        7.999999999999995,
        {
            0: [0.5000000000000878, 0.0, 0.49999999999991224],
            1: [0.5000000000000546, 0.0, 0.49999999999994543],
            2: [0.500000000000034, 0.0, 0.4999999999999661],
            3: [0.5000000000000211, 0.0, 0.49999999999997885],
        },
    ),
    ("hom_hard_zeros", 16, 4): (
        7.999999999999995,
        {
            0: [0.5000000000000878, 0.0, 0.49999999999991224],
            1: [0.5000000000000546, 0.0, 0.49999999999994543],
            2: [0.500000000000034, 0.0, 0.4999999999999661],
            3: [0.5000000000000211, 0.0, 0.49999999999997885],
        },
    ),
    ("zero_node_potential", 8, 1): (
        20.381975892316067,
        {
            "x": [0.0, 0.20616214438049876, 0.7938378556195013],
            "y": [0.8947003194984802, 0.1052996805015198],
            "z": [0.6953099571823497, 0.0, 0.3046900428176503],
        },
    ),
    ("zero_node_potential", 16, 4): (
        20.381975892316074,
        {
            "x": [0.0, 0.20616214438049946, 0.7938378556195005],
            "y": [0.8947003194984834, 0.10529968050151667],
            "z": [0.6953099571823488, 0.0, 0.30469004281765116],
        },
    ),
    ("no_factors", 8, 1): (
        15.999999999999998,
        {
            "a": [0.25, 0.75],
            "b": [0.5, 0.25, 0.25],
        },
    ),
    ("no_factors", 16, 4): (
        15.999999999999998,
        {
            "a": [0.25, 0.75],
            "b": [0.5, 0.25, 0.25],
        },
    ),
    ("cardinality_one", 8, 1): (
        9.664799613506236,
        {
            "u": [1.0],
            "v": [0.2822240069618038, 0.7177759930381963],
            "w": [0.36155507025011285, 0.26711895694301624, 0.3713259728068708],
        },
    ),
    ("cardinality_one", 16, 4): (
        9.664799613506236,
        {
            "u": [1.0],
            "v": [0.2822240069618038, 0.7177759930381963],
            "w": [0.36155507025011285, 0.26711895694301624, 0.3713259728068708],
        },
    ),
    ("all_blocked_triangle", 8, 1): (
        0.0,
        {
            0: [0.5, 0.5],
            1: [0.5, 0.5],
            2: [0.5, 0.5],
        },
    ),
    ("all_blocked_triangle", 16, 4): (
        0.0,
        {
            0: [0.5, 0.5],
            1: [0.5, 0.5],
            2: [0.5, 0.5],
        },
    ),
}


class TestMeanFieldPinned:
    @pytest.mark.parametrize("name,restarts,seed", sorted(PINNED_MEAN_FIELD))
    def test_value_and_beliefs_unchanged(self, name, restarts, seed):
        model = _pinned_models()[name]
        nu, zmf = mean_field(model, restarts=restarts, seed=seed)
        expected_z, expected_nu = PINNED_MEAN_FIELD[(name, restarts, seed)]
        assert zmf == expected_z
        assert list(nu) == list(model.var_ids)
        for v in model.var_ids:
            assert nu[v].tolist() == expected_nu[v]
