"""The zbounds benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload orderings --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times the workload untraced and prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics. Every pass is checked against independent
references (see workloads.py); the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, and the
exit code is 1 when any operation failed its check. The full report, with
provenance and, when traced, the spans, is written to perfbench/out/.

Everything runs serially in this one process; the library is entered only
through its public functions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread for numpy's BLAS, so that timings do not depend on how many
# cores happen to be free; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("orderings", "envelope", "enumeration", "small-suites")
SETUP_PROBES = 7
# A set-up probe takes well under a second; one that takes this long is
# killed and the run fails.
PROBE_TIMEOUT_S = 60
# A run makes max(MIN_PASSES, seconds // NOMINAL_PASS_S) passes: the same
# number on every run and every commit, so that operation percentiles sit at
# the same rank and a faster commit does the same work in less time. The
# nominal pass times were measured at the commit that added the benchmark
# on a 2-vCPU Xeon; they only size the runs.
MIN_PASSES = 3
NOMINAL_PASS_S = {"orderings": 8.0, "envelope": 6.0, "enumeration": 7.0, "small-suites": 1.5}
# An operation time is reported at the highest percentile with at least
# this many operations beyond it.
TAIL_BEYOND = 10
# The host's CPU speed swings by 1.4-2x, both within a second and in phases
# of seconds to minutes (see README.md, Steadiness). A fixed reference
# kernel is timed before the first operation of a pass and again after each
# operation that completes another REF_EVERY_S of operation time, and the
# pass time is rescaled by REF_NOMINAL_S over the mean of those kernel
# times. REF_NOMINAL_S is about the kernel's time on the 2-vCPU Xeon the
# benchmark was sized on, so rescaled times read as seconds on that machine.
REF_EVERY_S = 0.25
REF_REPEATS = 3
REF_NOMINAL_S = 1.4e-3


def import_library():
    """Import zbounds from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "zbounds" / "__init__.py").is_file():
        print(f"perfbench: no zbounds sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import zbounds

    if src.resolve() not in Path(zbounds.__file__).resolve().parents:
        print(f"perfbench: imported zbounds from {zbounds.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return zbounds


def setup_seconds(workload: str, seed: int) -> tuple:
    """Set-up time of fresh interpreters, one per probe: from start until
    zbounds is imported and the workload's inputs are built.

    Returns (times, reference kernel times). Each probe times the kernel
    itself once its inputs are built, on the CPU it ran on.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                proc.kill()
            ready = proc.stdout.readline()
            elapsed = perf_counter() - start
            try:
                rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                rest, err = proc.communicate()
        if proc.returncode != 0 or ready.strip() != "ready":
            sys.exit(f"perfbench: setup probe failed:\n{err}")
        times.append(elapsed)
        refs.extend(float(x) for x in rest.split())
    return times, refs


def _interpreted_loop():
    acc = 0
    for i in range(15000):
        acc += i * i % 7


def _small_arrays(np):
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        x = np.exp(-x) * 0.5 + x.sum() * 1e-3


def _message_sweeps(np):
    rng = np.random.default_rng(0)
    pair = rng.random((8, 3, 3))
    belief = np.full((8, 3), 1.0 / 3.0)
    for _ in range(10):
        for v in range(8):
            m = np.log(pair[v] @ belief[(v + 1) % 8] + 1e-9)
            e = np.exp(m - m.max())
            belief[v] = e / e.sum()


def _large_array(np):
    x = np.ones(1 << 19)
    x *= 1.0000001
    x.sum()


def _dict_work():
    counts = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())


def reference_s() -> float:
    """Time of a fixed reference kernel, independent of the library.

    Five parts, each the median of REF_REPEATS runs, combined as a
    geometric mean: an interpreted integer loop, small numpy calls, a
    message-passing sweep on small arrays, a pass over a 4 MiB array and
    dict work. How much a slow host phase slows each of them differs from
    phase to phase, and the library mixes all five kinds of work, so no
    single part tracks it.
    """
    import numpy as np

    parts = (_interpreted_loop, lambda: _small_arrays(np), lambda: _message_sweeps(np),
             lambda: _large_array(np), _dict_work)
    log_sum = 0.0
    for part in parts:
        runs = []
        for _ in range(REF_REPEATS):
            t = perf_counter()
            part()
            runs.append(perf_counter() - t)
        log_sum += math.log(statistics.median(runs))
    return math.exp(log_sum / len(parts))


def run_pass(wl, tracer=None) -> tuple:
    """Run every operation once.

    Returns (wall, wall at the reference speed, op times, outputs, errors);
    both walls sum the operation times only, not the reference kernel's.
    """
    outputs, times, errors = {}, [], {}
    refs, stretch = [reference_s()], 0.0
    for op in wl.ops:
        if tracer is not None:
            tracer.op = op.id
        t = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            out = None
            errors[op.id] = f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t)
        outputs[op.id] = out
        stretch += times[-1]
        if stretch >= REF_EVERY_S:
            refs.append(reference_s())
            stretch = 0.0
    wall = sum(times)
    return wall, rescale(wall, refs), times, outputs, errors


def rescale(seconds: float, refs: list) -> float:
    """``seconds`` at the reference speed, given kernel times taken meanwhile."""
    return seconds * REF_NOMINAL_S / statistics.fmean(refs)


def gate(wl, outputs: dict, errors: dict, first: dict | None) -> dict:
    """Reasons by op id for every operation whose output is not correct.

    Besides its own check, every pass must reproduce the first pass's
    outputs exactly, traced or not.
    """
    failures = {}
    for op in wl.ops:
        if op.id in errors:
            failures[op.id] = errors[op.id]
            continue
        reason = op.check(outputs[op.id], outputs)
        if reason is None and first is not None and outputs[op.id] != first[op.id]:
            reason = "output differs from the first pass"
        if reason is not None:
            failures[op.id] = reason
    return failures


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    operations beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def measure(wl, passes: int, traced: bool) -> dict:
    """Run ``passes`` passes, every one timed and checked.

    Traced, untraced and traced passes alternate, half of each (rounded
    up), and the per-layer metrics come from the traced ones.
    """
    from tracing import Tracer

    tracer = Tracer() if traced else None
    res = {"walls": [], "ref_walls": [], "op_times": [], "traced_walls": [], "layers": [],
           "attempted": 0, "failures": {}, "first": None, "by_op": {}}
    modes = (False, True) * ((passes + 1) // 2) if traced else (False,) * passes
    for with_trace in modes:
        if with_trace:
            tracer.clear()
            with tracer.installed():
                wall, _ref_wall, times, outputs, errors = run_pass(wl, tracer)
            res["traced_walls"].append(wall)
            res["layers"].append(tracer.metrics())
        else:
            wall, ref_wall, times, outputs, errors = run_pass(wl)
            res["walls"].append(wall)
            res["ref_walls"].append(ref_wall)
            res["op_times"].extend(times)
            for op, t in zip(wl.ops, times):
                res["by_op"].setdefault(op.id, []).append(t)
        res["attempted"] += len(wl.ops)
        for op_id, reason in gate(wl, outputs, errors, res["first"]).items():
            res["failures"].setdefault(op_id, []).append(reason)
        if res["first"] is None:
            res["first"] = outputs
    res["spans"] = tracer.dump() if traced else None
    return res


def end_to_end(res: dict, setup: list, setup_refs: list) -> dict:
    """The metrics BENCHMARK.json bounds."""
    return {
        # The median over probes, rescaled to the reference speed.
        "setup_s": {"value": rescale(statistics.median(setup), setup_refs), "unit": "s"},
        # The pass time rescaled to the reference speed, mean over passes.
        "wall_ref_s": {"value": statistics.fmean(res["ref_walls"]), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }


def operation_times(res: dict) -> dict:
    """Unscaled times, reported beside the bounded metrics."""
    value, pct = tail(res["op_times"])
    return {
        # The mean, not the median: pass times on a shared host are bimodal
        # (fast and slow CPU phases), the median jumps between the modes and
        # the mean moves with the share of time spent in each.
        "wall_s": statistics.fmean(res["walls"]),
        "op_p50_s": statistics.median(res["op_times"]),
        "op_tail_s": value,
        "op_tail_percentile": pct,
        "operations": len(res["op_times"]),
    }


def per_layer(res: dict) -> dict:
    from tracing import metric_units

    units = metric_units()
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = statistics.median(res["traced_walls"]) - statistics.median(res["walls"])
        else:
            value = statistics.median_low(layer[name] for layer in res["layers"])
        out[name] = {"value": value, "unit": unit}
    return out


def predictions(workload: str, layers: dict) -> dict:
    """The per-layer split the benchmark's notes predict, checked."""
    v = {k: m["value"] for k, m in layers.items()}
    self_times = {k: x for k, x in v.items() if k.endswith(".self_s") and k != "verify.self_s"}
    bethe_calls = sum(x for k, x in v.items() if k.startswith("bethe.") and k.endswith(".calls"))
    if workload == "orderings":
        return {
            "mean_field has the largest self_s": max(self_times, key=self_times.get)
            == "bethe.mean_field.self_s",
            "mean_field calls == 2 x trials": v["bethe.mean_field.calls"]
            == 2 * v["verify.trials"],
        }
    if workload == "envelope":
        return {
            "maximize_bethe has the largest self_s": max(self_times, key=self_times.get)
            == "bethe.maximize_bethe.self_s"
        }
    return {"no bethe calls": bethe_calls == 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    setup, setup_refs = ([], []) if args.trace else setup_seconds(args.workload, args.seed)
    import workloads

    wl = workloads.build(args.workload, args.seed)
    res = measure(wl, pass_count(args.workload, args.seconds), traced=bool(args.trace))
    metrics = per_layer(res) if args.trace else end_to_end(res, setup, setup_refs)
    failed = sum(len(r) for r in res["failures"].values())

    report = {
        "provenance": provenance(args),
        "ops_per_pass": len(wl.ops),
        "passes": len(res["walls"]) + len(res["traced_walls"]),
        "attempted": res["attempted"],
        "failed": failed,
        "failed_frac": failed / res["attempted"],
        "failures": res["failures"],
        "suites": wl.summary(res["first"]),
        "metrics": metrics,
    }
    if args.trace:
        report["predictions"] = predictions(args.workload, metrics)
    else:
        report["operation_times"] = operation_times(res)
        report["setup_probes_s"] = setup
        report["setup_reference_s"] = setup_refs
        report["op_times_s"] = res["by_op"]
    report["walls_s"] = res["walls"]
    report["ref_walls_s"] = res["ref_walls"]
    report["traced_walls_s"] = res["traced_walls"]

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(report, spans=res["spans"]), default=str))

    print(json.dumps({k: v for k, v in report.items() if k not in ("metrics", "op_times_s")},
                     default=str))
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        ops = report["operation_times"]
        print(f"wall_s = {ops['wall_s']:.6g} s (unscaled, mean of {len(res['walls'])} passes)")
        print(f"unscaled setup_s = {statistics.median(setup):.6g} s (median of {len(setup)} probes)")
        print(f"op_p50_s = {ops['op_p50_s']:.6g} s (of {ops['operations']} operations)")
        print(f"op_tail_s = {ops['op_tail_s']:.6g} s (percentile {ops['op_tail_percentile']:.1f})")
    print(f"failed_frac = {report['failed_frac']:.6g} ({failed} of {res['attempted']})")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
