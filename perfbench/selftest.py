"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs every workload's correctness gate on a few operations each (about
half a minute in all), untraced and traced, and checks that the gate
rejects wrong outputs. The file name keeps pytest from collecting it with
the library's tests.
"""

import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

run.import_library()
import tracing  # noqa: E402  (these need the library on sys.path)
import workloads  # noqa: E402
from zbounds import bethe, verify  # noqa: E402


class QuickGates(unittest.TestCase):
    """Each workload's quick form, run once untraced and once traced."""

    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for name in run.WORKLOADS:
            wl = workloads.build_quick(name, seed=3)
            _wall, _ref, _times, plain, errors = run.run_pass(wl)
            tracer = tracing.Tracer()
            with tracer.installed():
                _wall, _ref, _times, traced, traced_errors = run.run_pass(wl, tracer)
            cls.results[name] = (wl, plain, errors, traced, traced_errors, tracer)

    def test_every_gate_passes_untraced_and_traced(self):
        for name, (wl, plain, errors, traced, traced_errors, _t) in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual(run.gate(wl, plain, errors, None), {})
                self.assertEqual(run.gate(wl, traced, traced_errors, plain), {})

    def test_traced_run_executes_the_same_operations(self):
        for name, (wl, plain, _e, traced, _te, tracer) in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual(list(plain), list(traced))
                self.assertEqual(plain, traced)
                self.assertEqual({s["op"] for s in tracer.dump()}, {op.id for op in wl.ops})

    def test_tracer_restores_the_library(self):
        self.assertFalse(hasattr(bethe.mean_field, "__wrapped__"))
        self.assertIs(verify.mean_field, bethe.mean_field)
        self.assertFalse(hasattr(verify.verify_gradient, "__wrapped__"))

    def test_mean_field_runs_twice_per_ordering_trial(self):
        *_rest, tracer = self.results["orderings"]
        layers = tracer.metrics()
        self.assertEqual(layers["bethe.mean_field.calls"], 2 * layers["verify.trials"])
        for name in ("enumeration", "small-suites"):
            layers = self.results[name][-1].metrics()
            self.assertEqual(layers["bethe.maximize_bethe.calls"], 0)
            self.assertEqual(layers["bethe.mean_field.calls"], 0)

    def test_gate_rejects_wrong_outputs(self):
        def rejects(name, op_prefix, corrupt):
            wl, plain, *_ = self.results[name]
            op = next(o for o in wl.ops if o.id.startswith(op_prefix))
            bad = dict(plain)
            bad[op.id] = corrupt(plain[op.id])
            self.assertIn(op.id, run.gate(wl, bad, {}, None), op.id)

        rejects("orderings", "potts-ordering/", lambda o: (o[0], o[1], o[2] + 1e-9) + o[3:])
        rejects("orderings", "hom-ordering/", lambda o: (o[0], 0, o[2], False, o[4]))
        rejects("envelope", "counterexample/", lambda o: (o[0], o[1] * (1 + 1e-7)))
        rejects("envelope", "counterexample/", lambda o: (o[0] * (1 + 1e-7), o[1]))
        rejects("envelope", "gradient", lambda o: (o[0], o[1] - 1) + o[2:])
        rejects("enumeration", "rc_partition", lambda v: v * (1 + 1e-7))
        rejects("enumeration", "exact_partition/incidence", lambda v: v * (1 + 1e-7))
        rejects("small-suites", "structure-suites", lambda o: (o[0] + 1,) + o[1:])

    def test_gate_flags_a_pass_that_differs_from_the_first(self):
        wl, plain, *_ = self.results["enumeration"]
        first = dict(plain)
        op_id = wl.ops[0].id
        first[op_id] = plain[op_id] + 1.0
        self.assertEqual(
            run.gate(wl, plain, {}, first), {op_id: "output differs from the first pass"}
        )


class References(unittest.TestCase):
    def test_loop_matrix_gives_the_reported_counterexample_gap(self):
        z, zb = workloads.loop_matrix_reference("unordered", "direct")
        self.assertAlmostEqual(zb - z, -313.830, places=3)

    def test_weight_enumerator_reference(self):
        self.assertEqual(workloads.weight_enumerator_reference(verify.REPETITION_3, 0.5), 1.125)
        # Hamming [7,4]: 1 + 7 x^3 + 7 x^4 + x^7
        self.assertEqual(workloads.weight_enumerator_reference(verify.HAMMING_7_4, 1.0), 16.0)

    def test_every_verify_operation_has_a_recorded_output(self):
        golden = workloads.load_golden()
        for name in ("orderings", "envelope", "small-suites"):
            wl = workloads.build(name, seed=0)
            with self.subTest(workload=name):
                verify_ids = {op.id for op in wl.ops if not op.id.startswith("counterexample/")}
                self.assertEqual(verify_ids, set(golden[name]))


class Harness(unittest.TestCase):
    def test_tail_has_ten_operations_beyond_it(self):
        self.assertEqual(run.tail([float(x) for x in range(1, 21)]), (10.0, 50.0))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))

    def test_reference_speed_rescales_operation_time(self):
        wl = workloads.build_quick("enumeration", seed=3)
        with mock.patch.object(run, "reference_s", return_value=2.0 * run.REF_NOMINAL_S):
            wall, ref_wall, times, _outputs, errors = run.run_pass(wl)
        self.assertEqual(errors, {})
        self.assertAlmostEqual(ref_wall, wall / 2.0, places=12)
        self.assertEqual(wall, sum(times))

    def test_exits_nonzero_without_library_sources(self):
        scratch = run.OUT_DIR / "selftest-empty-checkout"
        shutil.rmtree(scratch, ignore_errors=True)
        bench = scratch / "perfbench"
        bench.mkdir(parents=True)
        for f in run.HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bench / f.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "orderings", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layer_units, tracing.metric_units())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual(
            {m["name"] for m in spec["end_to_end"]},
            {"setup_s", "wall_ref_s", "peak_rss_mb"},
        )


if __name__ == "__main__":
    unittest.main()
