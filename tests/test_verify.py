"""The table-driven cover suites against their per-case loops.

``verify_component_inequality`` (5.1) and ``verify_rank_inequality`` (5.5)
read each cover's lifted subsets from one batched count per spec, the
field-weight suite (5.3) samples covers on one shared triangle graph, and
the structure suite reads one component table per vertex count.  The
per-case loops they replaced are kept here as references: every suite
must yield the same (ok, slack) sequence, so every report is identical.
"""

import itertools

import numpy as np
import pytest

from zbounds import covers, matroid, potts, verify
from zbounds.errors import ModelError
from zbounds.matroid import GFMatrix, gf
from zbounds.potts import count_components, potts_to_factor_graph

run_trials = verify.run_trials  # suite_cases patches the module's name


def suite_cases(monkeypatch, suite, *args):
    """Run ``suite(*args)`` and return its report and the (ok, slack) of
    every case, in order, as the suite handed them to ``run_trials``."""
    seen = []

    def recording(name, results, tolerance):
        seen.extend(results)
        return run_trials(name, seen, tolerance)

    monkeypatch.setattr(verify, "run_trials", recording)
    return suite(*args), seen


def ref_component_cases(seed):
    base = verify._triangle_potts()
    for spec in covers.iter_cover_specs(potts_to_factor_graph(base), 2):
        for a1 in range(8):
            for a2 in range(8):
                rep = potts.check_cover_component_inequality(base, spec, [a1, a2])
                yield rep.component_ok, rep.rhs_components - rep.lhs_components


def ref_field_weight_cases(trials, seed):
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        q = int(rng.integers(2, 4))
        base = verify._triangle_potts(
            q=q, j=float(rng.uniform(0.05, 2.0)), h=rng.uniform(-1.0, 1.0, q)
        )
        spec = covers.sample_cover(potts_to_factor_graph(base), 2, seed=seed + 104729 + i)
        layers = [int(rng.integers(0, 8)), int(rng.integers(0, 8))]
        rep = potts.check_cover_component_inequality(base, spec, layers)
        slack = (rep.rhs_weight - rep.lhs_weight) / max(rep.rhs_weight, 1e-300)
        yield bool(rep.ok), float(slack)


def ref_rank_cases(seed):
    rng = np.random.default_rng(seed)
    for q in (2, 3):
        entries = rng.integers(0, q, size=(2, 3))
        for c in range(3):
            if not entries[:, c].any():
                entries[int(rng.integers(0, 2)), c] = int(rng.integers(1, q))
        mat = GFMatrix(gf(q), entries)
        fg = matroid.incidence_factor_graph(mat, np.zeros(3))
        for spec in covers.iter_cover_specs(fg, 2):
            for a1 in range(8):
                for a2 in range(8):
                    rep = matroid.check_rank_cover_inequality(mat, spec, [a1, a2])
                    yield rep.ok, rep.slack


def ref_component_supermodularity_cases():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for picked in range(1 << len(pairs)):
            edges = [pairs[t] for t in range(len(pairs)) if (picked >> t) & 1]
            m = len(edges)
            k_cache = [count_components(n, edges, mask) for mask in range(1 << m)]
            for a in range(1 << m):
                for b in range(1 << m):
                    slack = k_cache[a & b] + k_cache[a | b] - k_cache[a] - k_cache[b]
                    yield slack >= 0, slack


def assert_same_cases(got, want):
    assert len(got) == len(want)
    for k, ((ok, slack), (ref_ok, ref_slack)) in enumerate(zip(got, want)):
        assert (bool(ok), slack) == (bool(ref_ok), ref_slack), f"case {k}"
        assert type(slack) is type(ref_slack), f"case {k}"


def assert_same_report(rep, name, ref_cases, tolerance):
    ref = run_trials(name, ref_cases, tolerance)
    assert (rep.name, rep.trials, rep.passes) == (ref.name, ref.trials, ref.passes)
    assert repr(rep.worst_slack) == repr(ref.worst_slack)
    assert rep.details == ref.details


# the acceptance seeds (5.1 and 5.3: 23, 5.5: 24, structure: 32) and others;
# at seed 77 two 5.5 cases fail, so the failing path is compared too
@pytest.mark.parametrize("seed", [0, 23])
def test_component_suite_equals_per_case_loop(monkeypatch, seed):
    rep, got = suite_cases(monkeypatch, verify.verify_component_inequality, seed)
    want = list(ref_component_cases(seed))
    assert_same_cases(got, want)
    assert_same_report(rep, rep.name, want, 0)


@pytest.mark.parametrize("seed", [0, 24, 77])
def test_rank_suite_equals_per_case_loop(monkeypatch, seed):
    rep, got = suite_cases(monkeypatch, verify.verify_rank_inequality, seed)
    want = list(ref_rank_cases(seed))
    assert_same_cases(got, want)
    assert_same_report(rep, rep.name, want, 0)


def test_rank_suite_failure_reported_at_seed_77():
    rep = verify.verify_rank_inequality(77)
    assert (rep.trials, rep.passes, rep.worst_slack) == (384, 382, -1.0)
    assert rep.details["worst_trial"] == 246


@pytest.mark.parametrize("seed,trials", [(23, 1000), (5, 200)])
def test_field_weight_suite_equals_per_trial_graph(seed, trials):
    rep = verify.verify_field_weight_inequality(trials, seed)
    assert_same_report(
        rep, rep.name, list(ref_field_weight_cases(trials, seed)), verify.REL_TOL_COVER
    )


# the rank and rank-2 parts of the structure suite did not change; their
# reports before the component tables: (trials, worst slack, worst trial)
STRUCTURE_REPORTS = {0: (23248, -4.440892098500626e-16, 23245), 32: (22288, 0.0, 0)}


@pytest.mark.parametrize("seed", sorted(STRUCTURE_REPORTS))
def test_structure_suite_equals_per_graph_tables(monkeypatch, seed):
    rep, got = suite_cases(monkeypatch, verify.verify_structure_suites, seed)
    want = list(ref_component_supermodularity_cases())
    assert_same_cases(got[: len(want)], want)
    trials, worst, worst_trial = STRUCTURE_REPORTS[seed]
    assert (rep.trials, rep.passes, rep.details["worst_trial"]) == (trials, trials, worst_trial)
    assert repr(rep.worst_slack) == repr(worst)


@pytest.mark.parametrize("q", [2, 3])
def test_shared_triangle_draws_same_permutations(q):
    # a spec's permutations depend only on the factor ids and scopes, M
    # and the seed, so the structural triangle draws every trial's cover
    rng = np.random.default_rng(q)
    for seed in range(20):
        j, h = float(rng.uniform(0.05, 2.0)), rng.uniform(-1.0, 1.0, q)
        base = verify._triangle_potts(q=q, j=j, h=h)
        own = covers.sample_cover(potts_to_factor_graph(base), 2, seed=seed)
        shared = covers.sample_cover(verify._triangle_graph(), 2, seed=seed)
        assert shared.perms == own.perms
        assert shared.lifted_scopes == own.lifted_scopes


class TestCoverLayerProbe:
    """The field-weight suite reads each cover off its spec; building the
    lifted PottsModel again per trial would cost most of the suite's time."""

    @pytest.mark.parametrize("trials", [1, 7])
    def test_one_potts_model_per_field_weight_trial(self, monkeypatch, trials):
        verify._triangle_graph()  # the cached structural triangle, built once
        built = []
        original = potts.PottsModel.__init__

        def counted(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self.n_vertices)

        monkeypatch.setattr(potts.PottsModel, "__init__", counted)
        verify.verify_field_weight_inequality(trials=trials, seed=5)
        # the base triangles, and no lift of one
        assert built == [3] * trials


@pytest.mark.parametrize("bad", [2.5, True, "2"])
def test_potts_ordering_trials_are_a_count(bad):
    # 2.0 is read as 2; a fraction, a bool or a string is refused
    got = verify.verify_potts_ordering(trials=2.0, seed=1)
    assert got == verify.verify_potts_ordering(trials=2, seed=1) and got.trials == 2
    with pytest.raises(ModelError, match="trials must be an integer"):
        verify.verify_potts_ordering(trials=bad, seed=1)


@pytest.mark.parametrize(
    "suite, count",
    [
        (verify.verify_cover_bound, "trials"),
        (verify.verify_field_weight_inequality, "trials"),
        (verify.verify_potts_rc_identity, "trials"),
        (verify.verify_hom_edge_identity, "trials"),
        (verify.verify_matroid_ordering, "trials"),
        (verify.verify_hom_ordering, "trials"),
        (verify.verify_tree_exactness, "trials"),
        (verify.verify_gradient, "points"),
    ],
)
def test_every_suite_count_is_read_as_int(suite, count):
    with pytest.raises(ModelError, match=f"{count} must be an integer, got 2.5"):
        suite(**{count: 2.5})


@pytest.mark.parametrize("bad", [True, 2.5, "3", -1])
@pytest.mark.parametrize("tag", [tag for tag in verify.SUITES if tag != "5.1"])
def test_every_suite_seed_is_read_as_a_seed(tag, bad):
    # 5.1 is exhaustive and reads no seed; every other suite refuses a
    # seed that is not an integer >= 0 before numpy sees it
    default, run = verify.SUITES[tag]
    with pytest.raises(ModelError, match="the seed must be"):
        run(bad) if default is None else run(1, bad)


@pytest.mark.parametrize("tag", ["3.5", "appendix-a"])
def test_integer_float_seed_reads_as_int(tag):
    _default, run = verify.SUITES[tag]
    assert run(1, 2.0) == run(1, 2)
