import builtins
import json

import numpy as np
import pytest
from click.testing import CliRunner

from zbounds import verify
from zbounds.cli import main
from zbounds.io import (
    canonical_digest,
    cover_spec_from_json,
    cover_spec_to_json,
    model_from_json,
    model_to_json,
)
from zbounds.covers import sample_cover
from zbounds.errors import ModelError
from zbounds.models import DEFAULT_ENUMERATION_CAP, FactorGraph, exact_partition


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def single_var_file(tmp_path):
    doc = {
        "variables": [{"id": "x", "cardinality": 2}],
        "factors": [],
        "node_potentials": {"x": [1.0, 2.0]},
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    rng = np.random.default_rng(0)
    doc = {
        "variables": [{"id": i, "cardinality": 2} for i in range(3)],
        "factors": [
            {"id": "f0", "scope": [0, 1], "table": list(np.exp(rng.uniform(-1, 1, 4)))},
            {"id": "f1", "scope": [1, 2], "table": list(np.exp(rng.uniform(-1, 1, 4)))},
        ],
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _one_variable(vid="x", card=2):
    """A factor-graph document with one variable and no factors."""
    return {"variables": [{"id": vid, "cardinality": card}], "factors": []}


def _one_factor(fid="f", scope=("x",)):
    """A factor-graph document with one variable and one factor on it."""
    return {"variables": [{"id": "x", "cardinality": 2}],
            "factors": [{"id": fid, "scope": scope, "table": [1.0, 2.0]}]}


def _same_key_variables():
    """A factor-graph document whose variables 1 and "1" share one JSON key."""
    return {"variables": [{"id": 1, "cardinality": 2}, {"id": "1", "cardinality": 2}],
            "factors": [], "node_potentials": {"1": [1.0, 3.0]}}


def _cover_spec(m=2, perm=(1, 0)):
    """A cover-spec document on a two-variable, one-factor base."""
    base = {
        "variables": [{"id": 0, "cardinality": 2}, {"id": 1, "cardinality": 2}],
        "factors": [{"id": "e", "scope": [0, 1], "table": [1.0, 2.0, 3.0, 4.0]}],
    }
    return {"M": m, "base": base, "permutations": [
        {"factor": "e", "var": 0, "perm": list(perm)},
        {"factor": "e", "var": 1, "perm": [0, 1]},
    ]}


def last_record(output):
    for line in output.splitlines():
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no JSON record in output: {output!r}")


class TestRoundTrip:
    def test_model_json_roundtrip(self):
        rng = np.random.default_rng(1)
        m = FactorGraph(
            [(0, 2), ("y", 3)],
            [("f", (0, "y"), rng.uniform(0, 1, 6))],
            {0: [1.0, 2.0], "y": [1.0, 0.5, 2.0]},
        )
        again = model_from_json(model_to_json(m))
        assert exact_partition(again) == exact_partition(m)
        assert again.var_ids == m.var_ids
        assert canonical_digest(model_to_json(again)) == canonical_digest(model_to_json(m))

    def test_cover_spec_roundtrip(self):
        m = FactorGraph([(0, 2), (1, 2)], [("e", (0, 1), np.ones(4))])
        spec = sample_cover(m, 3, seed=5)
        again = cover_spec_from_json(cover_spec_to_json(spec))
        assert again.m == 3
        assert again.perms == spec.perms

    def test_same_json_key_refused(self):
        # 1 and "1" are one JSON object key, so a document naming both is ambiguous
        doc = {"variables": [{"id": 1, "cardinality": 2}, {"id": "1", "cardinality": 2}]}
        with pytest.raises(ModelError, match="variable ids 1 and '1' share the name '1'"):
            model_from_json(doc)
        base = {"variables": [{"id": 0, "cardinality": 2}], "factors": [
            {"id": 1, "scope": [0], "table": [1.0, 2.0]},
            {"id": "1", "scope": [0], "table": [3.0, 4.0]},
        ]}
        perms = [{"factor": f, "var": 0, "perm": [0, 1]} for f in (1, "1")]
        with pytest.raises(ModelError, match="factor ids 1 and '1' share the name '1'"):
            cover_spec_from_json({"M": 2, "base": base, "permutations": perms})

    def test_export_refuses_same_json_key(self):
        # node potentials are keyed by str(id): one of the two would be dropped
        with pytest.raises(ModelError, match="variable ids 1 and '1' share the name '1'"):
            m = FactorGraph([(1, 2), ("1", 2)], [], {1: [1.0, 2.0], "1": [3.0, 1.0]})
            model_to_json(m)


class TestCommands:
    def test_z(self, runner, single_var_file):
        res = runner.invoke(main, ["z", "--model", single_var_file])
        assert res.exit_code == 0, res.output
        rec = last_record(res.output)
        assert rec["results"]["z"] == 3.0
        assert rec["settings"]["cap"] == DEFAULT_ENUMERATION_CAP
        # default CSV row present
        assert any(line.startswith("z,") for line in res.output.splitlines())

    @pytest.mark.parametrize(
        "command",
        [["z"], ["bp"], ["z-bethe", "--restarts", "2"], ["z-meanfield"], ["check-lsm"],
         ["cover", "estimate", "--m", "2", "--samples", "2"]],
        ids=" ".join,
    )
    def test_reads_input_once(self, runner, tree_file, monkeypatch, command):
        # the digest must describe the bytes the command computed on
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        res = runner.invoke(main, command + ["--model", tree_file])
        assert res.exit_code == 0, res.output
        assert opened.count(tree_file) == 1

    def test_z_malformed_json_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(main, ["z", "--model", str(bad)])
        assert res.exit_code == 2

    def test_z_cap_exit_1(self, runner, tree_file):
        res = runner.invoke(main, ["z", "--model", tree_file, "--cap", "4"])
        assert res.exit_code == 1

    def test_z_size_too_long_to_print_exit_1(self, runner, tmp_path):
        # 2^15000 states: 4516 decimal digits, more than str() of an int allows
        doc = {"variables": [{"id": i, "cardinality": 2} for i in range(15000)], "factors": []}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["z", "--model", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.output.splitlines() == [
            f"error: joint space of at least 2^15000 states exceeds the enumeration cap "
            f"{DEFAULT_ENUMERATION_CAP}"
        ]

    def test_z_bucket_of_70_tables_exit_0(self, runner, tmp_path):
        # 17 binary variables (elimination), 70 tables on one variable
        doc = {
            "variables": [{"id": i, "cardinality": 2} for i in range(17)],
            "factors": [{"id": f"u{k}", "scope": [0], "table": [1.0, 1.5]} for k in range(70)],
        }
        path = tmp_path / "bucket.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["z", "--model", str(path)])
        assert res.exit_code == 0, res.output
        z = last_record(res.output)["results"]["z"]
        assert z == pytest.approx(2.0**16 * (1 + 1.5**70), rel=1e-13)

    @pytest.mark.parametrize(
        "tables",
        [[[1e200] * 4, [1e200] * 4], [[1e308] * 4]],  # overflow in the products, in the sum
    )
    def test_z_overflow_exit_1(self, runner, tmp_path, tables):
        doc = {
            "variables": [{"id": "a", "cardinality": 2}, {"id": "b", "cardinality": 2}],
            "factors": [
                {"id": f"f{k}", "scope": ["a", "b"], "table": t} for k, t in enumerate(tables)
            ],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["z", "--model", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "error: exact sum" in res.output and "Infinity" not in res.output

    @pytest.mark.parametrize("command", ["z-bethe", "z-meanfield", "bp"])
    def test_bethe_overflow_exit_1(self, runner, tmp_path, command):
        # log Z = log 4 + 400 log 10 = 922.42: Z_MF, Z_B and the fixed point's
        # value all overflow a float; z-bethe meets Z_MF <= Z_B first
        what = "Bethe value at the fixed point" if command == "bp" else "mean-field partition function"
        doc = {
            "variables": [{"id": "a", "cardinality": 2}, {"id": "b", "cardinality": 2}],
            "factors": [{"id": f"f{k}", "scope": ["a", "b"], "table": [1e200] * 4} for k in range(2)],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, [command, "--model", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert f"error: {what} is out of float range (log Z = 922.42" in res.output

    @pytest.mark.parametrize("command", ["z-bethe", "bp"])
    def test_table_sum_overflow_exit_1(self, runner, tmp_path, command):
        # f's entries sum beyond the float range although log Z = 689.2
        doc = {
            "variables": [{"id": v, "cardinality": 2} for v in "abc"],
            "factors": [
                {"id": "f", "scope": ["a", "b"], "table": [1.7e308, 1.7e308, 1e308, 1.6e308]},
                {"id": "g", "scope": ["b", "c"], "table": [1e-10, 3e-10, 2e-10, 1e-10]},
            ],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, [command, "--model", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.splitlines() == [
            "error: the entries of factor 'f' sum beyond the float range"
        ]

    def test_bp_matches_z_on_tree(self, runner, tree_file):
        res_z = runner.invoke(main, ["z", "--model", tree_file])
        res_bp = runner.invoke(main, ["bp", "--model", tree_file])
        assert res_bp.exit_code == 0, res_bp.output
        z = last_record(res_z.output)["results"]["z"]
        rec = last_record(res_bp.output)["results"]
        assert rec["converged"]
        assert rec["z_bethe_at_fixed_point"] == pytest.approx(z, rel=1e-9)

    def test_z_bethe_and_meanfield_order(self, runner, tree_file):
        res_b = runner.invoke(
            main, ["z-bethe", "--model", tree_file, "--restarts", "8"]
        )
        res_m = runner.invoke(
            main, ["z-meanfield", "--model", tree_file, "--restarts", "4"]
        )
        assert res_b.exit_code == 0 and res_m.exit_code == 0
        zb = last_record(res_b.output)["results"]["z_bethe"]
        zmf = last_record(res_m.output)["results"]["z_mean_field"]
        assert zmf <= zb * (1 + 1e-9)

    def test_cover_sample_deterministic(self, runner, single_var_file, tree_file):
        out1 = runner.invoke(
            main, ["cover", "sample", "--model", tree_file, "--m", "2", "--seed", "1"]
        )
        out2 = runner.invoke(
            main, ["cover", "sample", "--model", tree_file, "--m", "2", "--seed", "1"]
        )
        assert out1.exit_code == 0
        assert out1.output == out2.output

    def test_cover_build_z(self, runner, tree_file, tmp_path):
        sampled = runner.invoke(
            main, ["cover", "sample", "--model", tree_file, "--m", "2", "--seed", "3"]
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(sampled.output)
        res = runner.invoke(main, ["cover", "build", "--spec", str(spec_path), "--z"])
        assert res.exit_code == 0, res.output
        rec = last_record(res.output)["results"]
        assert rec["valid"] is True
        assert rec["lifted_variables"] == 6
        # covers of trees are disjoint unions
        assert rec["z_lifted"] == pytest.approx(rec["z_base"] ** 2, rel=1e-9)

    def test_potts_rc_agree(self, runner, tmp_path):
        doc = {"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "q": 3, "J": 0.8}
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        rp = runner.invoke(main, ["potts", "--graph", str(p)])
        rr = runner.invoke(main, ["rc", "--graph", str(p)])
        assert rp.exit_code == 0 and rr.exit_code == 0
        zp = last_record(rp.output)["results"]["z_potts"]
        zrc = last_record(rr.output)["results"]["z_rc"]
        assert zrc == pytest.approx(zp, rel=1e-9)

    def test_matroid_large_prime_field(self, runner, tmp_path):
        # over GF(41) the rows 1 1 and 40 40 = -(1 1) span one dimension, so
        # every nonempty column set has rank 1 and z_rc = 1 + (e^2 - 1) / 41
        code = tmp_path / "gf41.txt"
        code.write_text("41 2 2\n1 1\n40 40\n")
        res = runner.invoke(main, ["matroid", "--code", str(code)])
        assert res.exit_code == 0, res.output
        rec = last_record(res.output)["results"]
        assert rec["rank"] == 1
        assert rec["z_rc"] == pytest.approx(1 + np.expm1(2.0) / 41, rel=1e-12)
        assert rec["z_potts"] == pytest.approx(rec["z_rc"], rel=1e-9)

    def test_matroid_records_default_coupling(self, runner, tmp_path):
        # without --coupling the sum is taken at J = 1, and the record says so
        code = tmp_path / "code.txt"
        code.write_text("3 2 3\n1 0 2\n0 1 1\n")
        res = runner.invoke(main, ["matroid", "--code", str(code)])
        assert res.exit_code == 0, res.output
        assert last_record(res.output)["settings"]["coupling"] == 1.0

    def test_wef(self, runner, tmp_path):
        code = tmp_path / "rep3.txt"
        code.write_text("2 1 3\n1 1 1\n")
        res = runner.invoke(
            main, ["wef", "--code", str(code), "--lam", "0.5", "--restarts", "8"]
        )
        assert res.exit_code == 0, res.output
        rec = last_record(res.output)["results"]
        assert rec["exact"] == pytest.approx(1.125, rel=1e-12)
        assert rec["identity_value"] == pytest.approx(1.125, rel=1e-9)
        assert rec["bethe_bound"] <= rec["exact"] * (1 + 1e-6)
        # both bounds hold within the ordering tolerance, which the record states
        assert last_record(res.output)["settings"]["tolerance"] == verify.REL_TOL_ORDERING

    @pytest.mark.parametrize("lam", ["inf", "nan", "1e-320", "0", "-1"])
    def test_wef_lambda_outside_range_exit_2(self, runner, tmp_path, lam):
        code = tmp_path / "rep3.txt"
        code.write_text("2 1 3\n1 1 1\n")
        res = runner.invoke(main, ["wef", "--code", str(code), "--lam", lam])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "lambda" in res.output
        assert "{" not in res.output  # no record
        assert "Traceback" not in res.output and "Warning" not in res.output

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("rc", {"n_vertices": 3, "edges": [[0, 1], [1, 2]], "q": 1e200, "J": 0.5}),
            (
                "hom",
                {"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "w": [1, 1],
                 "a": [1e200, 1], "b": [1, 1]},
            ),
        ],
        ids=["rc", "hom"],
    )
    def test_overflow_exit_1(self, runner, tmp_path, command, doc):
        # q^2, and a_0^2 in Gamma and in every vertex factor, overflow
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        flag = "--graph" if command == "rc" else "--model"
        res = runner.invoke(main, [command, flag, str(p)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.output.startswith("error: ") and "out of float range" in res.output

    def test_hom(self, runner, tmp_path):
        doc = {
            "n_vertices": 2,
            "edges": [[0, 1]],
            "w": [1, 1, 1],
            "a": [1, 1, 1],
            "b": [1, 1, 1],
        }
        p = tmp_path / "hom.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, ["hom", "--model", str(p)])
        assert res.exit_code == 0, res.output
        rec = last_record(res.output)["results"]
        assert rec["z_hom"] == pytest.approx(18.0)
        assert rec["z_edge"] == pytest.approx(18.0)

    def test_check_lsm_table(self, runner, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(list(np.exp([0.0, 0.0, 0.0, 1.0]))))
        res = runner.invoke(main, ["check-lsm", "--table", str(good)])
        assert res.exit_code == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(list(np.exp([0.0, 0.0, 0.0, -1.0]))))
        res = runner.invoke(main, ["check-lsm", "--table", str(bad)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("text", ["[NaN, 1, 1, 1]", "[1, 2, 3, 1e400]"])
    def test_check_lsm_non_finite_table_exit_2(self, runner, tmp_path, text):
        table = tmp_path / "table.json"
        table.write_text(text)
        res = runner.invoke(main, ["check-lsm", "--table", str(table)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "finite" in res.output
        assert "{" not in res.output  # no record

    def test_verify_appendix_a(self, runner):
        res = runner.invoke(
            main, ["verify", "appendix-a", "--trials", "10", "--seed", "7"]
        )
        assert res.exit_code == 0, res.output
        assert "10/10" in res.output

    @pytest.mark.parametrize(
        "tag,trials,expected",
        [("tree", 2, 2), ("gradient", 2, 2), ("structure", None, 18256), ("weight-enumerator", None, 6)],
    )
    def test_verify_acceptance_tags(self, runner, tag, trials, expected):
        args = [] if trials is None else ["--trials", str(trials)]
        res = runner.invoke(main, ["verify", tag, *args, "--seed", "3"])
        assert res.exit_code == 0, res.output
        assert f"{expected}/{expected} trials" in res.output

    @pytest.mark.parametrize("tag", ["5.1", "5.5", "structure", "weight-enumerator"])
    def test_verify_exhaustive_tag_refuses_trials(self, runner, tag):
        res = runner.invoke(main, ["verify", tag, "--trials", "2"])
        assert res.exit_code == 2
        assert "error:" in res.output
        assert "trial count" in res.output

    def test_verify_reports_worst_trial(self, runner):
        res = runner.invoke(main, ["verify", "tree", "--trials", "3", "--seed", "5"])
        assert res.exit_code == 0, res.output
        results = last_record(res.output)["results"]
        worst = results["tree_exactness_of_the_Bethe_optimum.worst_trial"]
        assert worst in (0, 1, 2)
        # trial i runs on seed + i, so the worst trial reruns on its own
        rerun = runner.invoke(main, ["verify", "tree", "--trials", "1", "--seed", str(5 + worst)])
        again = last_record(rerun.output)["results"]
        assert (
            again["tree_exactness_of_the_Bethe_optimum.worst_slack"]
            == results["tree_exactness_of_the_Bethe_optimum.worst_slack"]
        )

    def test_verify_unknown_tag(self, runner):
        res = runner.invoke(main, ["verify", "nope"])
        assert res.exit_code == 2

    def test_verify_same_seed_deterministic(self, runner):
        args = ["verify", "appendix-b", "--trials", "8", "--seed", "3"]
        r1 = runner.invoke(main, args)
        r2 = runner.invoke(main, args)
        assert r1.exit_code == 0, r1.output
        assert last_record(r1.output)["results"] == last_record(r2.output)["results"]

    def test_verify_negative_trials_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "appendix-a", "--trials", "-3"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("tag", ["gradient", "5.2-ordering", "structure"])
    def test_verify_zero_trials_exit_2(self, runner, tag):
        # a suite that ran nothing must not pass
        res = runner.invoke(main, ["verify", tag, "--trials", "0"])
        assert res.exit_code == 2
        assert "PASS" not in res.output

    def test_zero_trial_report_fails(self):
        rep = verify.dispatch("5.2-ordering", 0, 0)[0]
        assert rep.trials == 0 and not rep.ok
        assert rep.summary().startswith("FAIL ")
        assert not verify.verify_gradient(points=0).ok

    @pytest.mark.parametrize("command", ["bp", "z-bethe"])
    @pytest.mark.parametrize("damping", ["1.0", "1.5", "-0.5"])
    def test_damping_outside_unit_interval_exit_2(self, runner, tree_file, command, damping):
        # 1 never moves a message and more than 1 diverges
        res = runner.invoke(main, [command, "--model", tree_file, "--damping", damping])
        assert res.exit_code == 2
        assert "--damping" in res.output

    @pytest.mark.parametrize(
        "args",
        [["z-bethe", "--restarts", "-3"], ["z-bethe", "--restarts", "0"],
         ["z-meanfield", "--restarts", "-3"],
         ["z-meanfield", "--restarts", "0"], ["z", "--cap", "0"], ["z", "--cap", "-5"]],
        ids=" ".join,
    )
    def test_negative_counts_exit_2(self, runner, tree_file, args):
        res = runner.invoke(main, args + ["--model", tree_file])
        assert res.exit_code == 2
        assert "{" not in res.output  # no record, so no echoed settings

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bp_nonpositive_tol_exit_2(self, runner, tree_file, tol):
        # no residual is below 0 or NaN: BP would run every sweep and
        # report "converged": false beside a residual of 0.0
        res = runner.invoke(main, ["bp", "--model", tree_file, "--tol", tol])
        assert res.exit_code == 2
        assert "tol" in res.output
        assert "{" not in res.output  # no record, so no echoed settings

    @pytest.mark.parametrize("restarts", ["-3", "0"])
    @pytest.mark.parametrize("command", [["counterexample"], ["wef", "--lam", "0.5"]])
    def test_nonpositive_restarts_exit_2(self, runner, tmp_path, command, restarts):
        code = tmp_path / "rep3.txt"
        code.write_text("2 1 3\n1 1 1\n")
        args = command + ["--restarts", restarts]
        if command[0] == "wef":
            args += ["--code", str(code)]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "--restarts" in res.output
        assert "{" not in res.output  # no record, so no echoed settings

    @pytest.mark.parametrize(
        "command",
        [
            ["bp", "--model", "TREE"],
            ["z-bethe", "--model", "TREE"],
            ["z-meanfield", "--model", "TREE"],
            ["cover", "sample", "--model", "TREE", "--m", "2"],
            ["cover", "estimate", "--model", "TREE", "--m", "2"],
            ["counterexample"],
            ["wef", "--code", "CODE", "--lam", "0.5"],
            ["verify", "3.5", "--trials", "2"],
        ],
    )
    def test_negative_seed_exit_2(self, runner, tmp_path, tree_file, command):
        code = tmp_path / "rep3.txt"
        code.write_text("2 1 3\n1 1 1\n")
        paths = {"TREE": tree_file, "CODE": str(code)}
        res = runner.invoke(main, [paths.get(a, a) for a in command] + ["--seed", "-1"])
        assert res.exit_code == 2, res.output
        assert "--seed" in res.output
        assert '"settings"' not in res.output  # no record

    def test_bp_max_iters_below_one_exit_2(self, runner, tree_file):
        res = runner.invoke(main, ["bp", "--model", tree_file, "--max-iters", "0"])
        assert res.exit_code == 2
        assert "--max-iters" in res.output
        assert "{" not in res.output

    def test_bp_one_sweep_is_valid_json(self, runner, tree_file):
        res = runner.invoke(main, ["bp", "--model", tree_file, "--max-iters", "1"])
        assert res.exit_code == 0, res.output
        line = next(ln for ln in res.output.splitlines() if ln.startswith("{"))

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        record = json.loads(line, parse_constant=refuse)
        assert record["results"]["iterations"] == 1

    def test_refine_steps_is_unknown_option(self, runner, tree_file):
        res = runner.invoke(main, ["z-bethe", "--model", tree_file, "--refine-steps", "5"])
        assert res.exit_code == 2
        assert "No such option" in res.output and "--refine-steps" in res.output
        assert "{" not in res.output

    def test_cover_sample_missing_model_exit_2(self, runner, tmp_path):
        missing = str(tmp_path / "missing.json")
        res = runner.invoke(main, ["cover", "sample", "--model", missing, "--m", "2"])
        assert res.exit_code == 2
        assert "error:" in res.output

    @pytest.mark.parametrize("command", [["matroid"], ["wef", "--lam", "0.5"]])
    def test_non_integer_generator_matrix_exit_2(self, runner, tmp_path, command):
        code = tmp_path / "code.txt"
        code.write_text("2 1 3\n1 x 1\n")
        res = runner.invoke(main, command + ["--code", str(code)])
        assert res.exit_code == 2
        assert "error:" in res.output

    def test_field_order_above_limit_exit_2(self, runner, tmp_path):
        code = tmp_path / "code.txt"
        code.write_text("4099 1 1\n1\n")
        res = runner.invoke(main, ["matroid", "--code", str(code)])
        assert res.exit_code == 2
        assert "error:" in res.output and "4096" in res.output

    @pytest.mark.parametrize("command", ["potts", "rc"])
    def test_non_numeric_coupling_exit_2(self, runner, tmp_path, command):
        doc = {"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "q": 3, "J": "abc"}
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, [command, "--graph", str(p)])
        assert res.exit_code == 2
        assert "error:" in res.output

    @pytest.mark.parametrize("command", ["potts", "rc"])
    @pytest.mark.parametrize(
        "extra",
        [{"J": [float("nan"), 1.0]}, {"q": float("nan")}, {"h": [0.0, float("inf")]}],
        ids=["nan-coupling", "nan-q", "inf-field"],
    )
    def test_non_finite_potts_input_exit_2(self, runner, tmp_path, command, extra):
        doc = {"n_vertices": 3, "edges": [[0, 1], [1, 2]], "q": 2, "J": [0.5, 1.0], **extra}
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, [command, "--graph", str(p)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "finite" in res.output

    @staticmethod
    def _coupling_args(tmp_path, command, coupling):
        """Arguments running ``command`` with every coupling set to ``coupling``."""
        if command == "matroid":
            code = tmp_path / "code.txt"
            code.write_text("3 2 3\n1 0 2\n0 1 1\n")
            return ["matroid", "--code", str(code), f"--coupling={coupling}"]
        doc = {"n_vertices": 3, "edges": [[0, 1], [1, 2]], "q": 2, "J": [float(coupling)] * 2}
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        return [command, "--graph", str(p)]

    @pytest.mark.parametrize("command", ["potts", "rc", "matroid"])
    @pytest.mark.parametrize("coupling", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_exit_2(self, runner, tmp_path, command, coupling):
        res = runner.invoke(main, self._coupling_args(tmp_path, command, coupling))
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert len(res.output.splitlines()) == 1
        assert res.output.startswith("error:") and "finite" in res.output

    @pytest.mark.parametrize("command", ["potts", "rc", "matroid"])
    def test_overflowing_coupling_exit_1(self, runner, tmp_path, command):
        # J = 800 is finite, but its weight e^J (or e^J - 1) is not; RuntimeWarning
        # is an error under this suite's settings, so a warning would fail too
        res = runner.invoke(main, self._coupling_args(tmp_path, command, "800"))
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        assert res.output == "error: the coupling weight exp(800.0) is out of float range\n"

    @pytest.mark.parametrize(
        "command,flag,doc",
        [
            (["check-lsm"], "--table", [[1, "a"], [1, 2]]),
            (
                ["z"],
                "--model",
                {
                    "variables": [{"id": "x", "cardinality": 2}],
                    "factors": [{"id": "f", "scope": ["x"], "table": [1.0, "x"]}],
                },
            ),
            (
                ["z-meanfield"],
                "--model",
                {
                    "variables": [{"id": "x", "cardinality": 2}],
                    "factors": [],
                    "node_potentials": {"x": ["x", 2.0]},
                },
            ),
            (
                ["hom"],
                "--model",
                {"n_vertices": 2, "edges": [[0, 1]], "w": [1, 1], "a": ["abc", 1], "b": [0, 1]},
            ),
        ],
        ids=["check-lsm-table", "factor-table", "node-potential", "hom-weights"],
    )
    def test_non_numeric_entry_exit_2(self, runner, tmp_path, command, flag, doc):
        p = tmp_path / "input.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, command + [flag, str(p)])
        assert res.exit_code == 2
        assert "error:" in res.output

    @pytest.mark.parametrize(
        "command,flag,doc",
        [
            (["z"], "--model", _one_variable(card="two")),
            (["z"], "--model", _one_variable(card=2.7)),
            (["z"], "--model", _one_variable(card=True)),
            (["z"], "--model", _one_variable(vid=[0])),
            (["z"], "--model", _one_factor(fid=[0])),
            (["z"], "--model", _one_factor(fid=1.5)),
            (["z"], "--model", _one_factor(fid=True)),
            (["z"], "--model", _one_factor(scope=[["x"]])),
            (["z"], "--model", _one_factor(scope="x")),
            (["z"], "--model", _one_factor(scope=5)),
            (["z"], "--model", {**_one_factor(), "factors": {"f": _one_factor()["factors"][0]}}),
            (["z"], "--model", {**_one_factor(), "factors": [["f", ["x"], [1, 2]]]}),
            (["z"], "--model", {**_one_factor(), "node_potentials": [[1, 2]]}),
            (["z"], "--model", _same_key_variables()),
            (["cover", "build"], "--spec",
             {"M": 2, "base": _same_key_variables(), "permutations": []}),
            (["cover", "build"], "--spec", _cover_spec(m="x")),
            (["cover", "build"], "--spec", _cover_spec(m=2.5)),
            (["cover", "build"], "--spec", _cover_spec(perm=["a", "b"])),
            (["cover", "build"], "--spec", _cover_spec(perm=[0.9, 1.2])),
            (["potts"], "--graph", {"n_vertices": 2.9, "edges": [[0, 1]], "q": 2, "J": 1.0}),
            (["potts"], "--graph", {"n_vertices": 2, "edges": [[0.5, 1]], "q": 2, "J": 1.0}),
            (["hom"], "--model",
             {"n_vertices": -2, "edges": [], "w": [1, 1], "a": [1, 0], "b": [0, 1]}),
            (["hom"], "--model",
             {"n_vertices": 2, "edges": [[0, 1]], "w": [[1, 1]], "a": [1, 0], "b": [0, 1]}),
            (["hom"], "--model",
             {"n_vertices": 3, "edges": [[0, 1, 2]], "w": [1, 1], "a": [1, 0], "b": [0, 1]}),
            (["potts"], "--graph", {"n_vertices": 2, "edges": [[0, 1]], "q": True, "J": 1.0}),
            (["potts"], "--graph", {"n_vertices": 2, "edges": [[0, 1]], "q": 2, "J": "0.5"}),
            (["z"], "--model", {**_one_factor(), "factors": [
                {"id": "f", "scope": ["x"], "table": [True, "2.5"]}]}),
            (["hom"], "--model",
             {"n_vertices": 2, "edges": [[0, 1]], "w": ["1", True], "a": [1, 0], "b": [0, 1]}),
            (["check-lsm"], "--table", [True, "1", 1, 1]),
        ],
        ids=["string-cardinality", "fractional-cardinality", "boolean-cardinality",
             "list-variable-id", "list-factor-id", "float-factor-id", "boolean-factor-id",
             "list-scope-entry", "string-scope", "number-scope", "factors-object",
             "factor-list", "node-potentials-list", "same-key-variables",
             "same-key-cover-base", "string-M", "fractional-M",
             "string-perm", "fractional-perm", "fractional-vertex-count",
             "fractional-edge-end", "negative-vertex-count", "matrix-weights",
             "three-ended-edge", "boolean-q", "string-coupling", "boolean-string-table",
             "string-boolean-hom-weights", "boolean-string-lsm-table"],
    )
    def test_malformed_count_or_id_exit_2(self, runner, tmp_path, command, flag, doc):
        # refused as input, with one error line and no traceback
        p = tmp_path / "input.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(main, command + [flag, str(p)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert len(res.output.splitlines()) == 1 and res.output.startswith("error:")
        assert "Traceback" not in res.output

    def test_integral_float_counts_accepted(self, runner, tmp_path):
        # 2.0 is a count; the documents are read as with 2
        results = []
        for card, m in ((2, 2), (2.0, 2.0)):
            model, spec = tmp_path / "model.json", tmp_path / "spec.json"
            model.write_text(json.dumps(_one_variable(card=card)))
            spec.write_text(json.dumps(_cover_spec(m=m, perm=[1.0, 0.0])))
            res_z = runner.invoke(main, ["z", "--model", str(model)])
            res_c = runner.invoke(main, ["cover", "build", "--spec", str(spec), "--z"])
            assert res_z.exit_code == res_c.exit_code == 0, res_z.output + res_c.output
            results.append((res_z.output.splitlines()[-1].split(",")[3],
                            last_record(res_c.output)["results"]))
        assert results[0] == results[1]
        assert results[0][1]["valid"] and results[0][1]["m"] == 2

    def test_counterexample_reports_gap(self, runner):
        res = runner.invoke(
            main, ["counterexample", "--restarts", "8", "--seed", "0"]
        )
        assert res.exit_code == 0, res.output
        rec = last_record(res.output)["results"]
        assert rec["z"] == pytest.approx(2553.8353, rel=1e-4)
        assert "gap" in rec and "target_gap" in rec

    def test_counterexample_emit_model(self, runner):
        res = runner.invoke(main, ["counterexample", "--emit-model"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        m = model_from_json(doc)
        assert m.num_vars == 3

    def test_csv_rows_format(self, runner, single_var_file):
        res = runner.invoke(main, ["z", "--model", single_var_file])
        rows = [l for l in res.output.splitlines() if l.startswith("z,")]
        assert rows and rows[0].split(",")[2] == "z"
