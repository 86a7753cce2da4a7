"""Command-line interface.

Every command prints a one-line ResultRecord JSON document; ``--csv``
appends fixed-column CSV rows (command, digest, result, value, tolerance,
seed).  Exit codes: 0 success, 1 numerical refusal or failed
verification, 2 malformed input.
"""

from __future__ import annotations

import json
import math
import sys
import time

import click
import numpy as np

from . import covers as covers_mod
from . import matroid as matroid_mod
from . import potts as potts_mod
from . import verify as verify_mod
from .bethe import maximize_bethe, mean_field, partition_from_log, run_bp
from .errors import (
    EnumerationCapError,
    ModelError,
    NumericRangeError,
    UnnormalizableError,
    ZboundsError,
)
from .homs import HomModel, edge_partition, hom_partition
from .io import (
    ResultRecord,
    canonical_digest,
    cover_spec_from_json,
    cover_spec_to_json,
    graph_from_json,
    model_from_json,
    model_to_json,
)
from .lattice import is_log_supermodular, model_is_log_supermodular
from .models import DEFAULT_ENUMERATION_CAP, exact_partition

EXIT_REFUSAL = 1
EXIT_INPUT = 2
# BP keeps this share of the old message: 1 never moves, above 1 diverges
_DAMPING = click.FloatRange(0.0, 1.0, max_open=True)
# no residual is below 0, so BP could never meet a tolerance of 0 or less;
# NaN passes this range, and run_bp refuses it
_TOL = click.FloatRange(min=0.0, min_open=True)
# numpy seeds its generators from nonnegative integers only
_SEED = click.IntRange(min=0)


def _emit(record: ResultRecord, csv: bool) -> None:
    click.echo(record.to_json())
    if csv:
        for row in record.csv_rows():
            click.echo(row)


def _run(command: str, payload, seed, settings: dict, fn, csv: bool) -> dict:
    """Shared command wrapper: timing, digests, the emitted record."""
    start = time.perf_counter()
    results = fn()
    record = ResultRecord(
        command=command,
        digest=canonical_digest(payload),
        results=results,
        seed=seed,
        runtime_s=time.perf_counter() - start,
        settings=settings,
    )
    _emit(record, csv)
    return results


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


class _Main(click.Group):
    """The command group; the one place that maps errors to exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ZboundsError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            refusal = isinstance(
                exc, (EnumerationCapError, NumericRangeError, UnnormalizableError)
            )
            sys.exit(EXIT_REFUSAL if refusal else EXIT_INPUT)


@click.group(cls=_Main)
def main() -> None:
    """Exact, Bethe, and mean-field partition functions, with verification
    suites for their ordering and identity properties."""


@main.command("z")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option(
    "--cap",
    default=DEFAULT_ENUMERATION_CAP,
    show_default=True,
    type=click.IntRange(min=1),
    help="Joint-state enumeration cap.",
)
@click.option("--csv/--no-csv", default=True, show_default=True)
def cmd_z(model_path, cap, csv):
    """Exact partition function of a factor-graph JSON file."""

    doc = _load_json(model_path)

    def body():
        return {"z": exact_partition(model_from_json(doc), cap=cap)}

    _run("z", doc, None, {"cap": cap}, body, csv)


@main.command("bp")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--damping", default=0.5, show_default=True, type=_DAMPING)
@click.option("--tol", default=1e-10, show_default=True, type=_TOL)
@click.option("--max-iters", default=10_000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=None, type=_SEED, help="Random positive message init.")
@click.option("--csv", is_flag=True)
@click.option("--beliefs", is_flag=True, help="Include the belief vectors in the JSON.")
def cmd_bp(model_path, damping, tol, max_iters, seed, csv, beliefs):
    """Run damped sum-product BP and report the objective at its beliefs."""
    doc = _load_json(model_path)

    def body():
        model = model_from_json(doc)
        state, tau, value = run_bp(
            model, init=seed, max_iters=max_iters, tol=tol, damping=damping
        )
        out = {
            "log_z_bethe_at_fixed_point": value,
            "z_bethe_at_fixed_point": partition_from_log(value, "Bethe value at the fixed point"),
            "converged": state.converged,
            "iterations": state.iterations,
            "residual": state.residual,
        }
        if beliefs:
            out["node_beliefs"] = {str(v): tau.node[v].tolist() for v in model.var_ids}
        return out

    settings = {"damping": damping, "tolerance": tol, "max_iters": max_iters}
    _run("bp", doc, seed, settings, body, csv)


@main.command("z-bethe")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--restarts", default=64, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--damping", default=0.5, show_default=True, type=_DAMPING)
@click.option("--csv", is_flag=True)
def cmd_z_bethe(model_path, restarts, seed, damping, csv):
    """Best-found Bethe partition function (BP restarts, mean field, field-proportional row)."""
    doc = _load_json(model_path)

    def body():
        model = model_from_json(doc)
        _tau, zb = maximize_bethe(model, restarts=restarts, seed=seed, damping=damping)
        return {"z_bethe": zb, "log_z_bethe": math.log(zb) if zb > 0 else float("-inf")}

    _run("z-bethe", doc, seed, {"restarts": restarts, "damping": damping}, body, csv)


@main.command("z-meanfield")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--restarts", default=16, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--csv", is_flag=True)
def cmd_z_meanfield(model_path, restarts, seed, csv):
    """Naive mean-field lower bound by coordinate ascent."""
    doc = _load_json(model_path)

    def body():
        _nu, zmf = mean_field(model_from_json(doc), restarts=restarts, seed=seed)
        return {"z_mean_field": zmf}

    _run("z-meanfield", doc, seed, {"restarts": restarts}, body, csv)


@main.group("cover")
def cmd_cover() -> None:
    """Sample, build, and evaluate M-covers."""


@cmd_cover.command("sample")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--m", "--M", "m", required=True, type=int)
@click.option("--seed", default=0, show_default=True, type=_SEED)
def cmd_cover_sample(model_path, m, seed):
    """Emit a uniformly sampled CoverSpec as JSON."""
    spec = covers_mod.sample_cover(model_from_json(_load_json(model_path)), m, seed)
    click.echo(json.dumps(cover_spec_to_json(spec)))


@cmd_cover.command("build")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--z", "with_z", is_flag=True, help="Also enumerate the lifted Z.")
@click.option("--csv", is_flag=True)
def cmd_cover_build(spec_path, with_z, csv):
    """Build the lifted model of a CoverSpec; optionally compute its Z."""
    doc = _load_json(spec_path)

    def body():
        spec = cover_spec_from_json(doc)
        lifted = covers_mod.build_cover(spec)
        ok, diag = covers_mod.validate_cover(
            lifted.cover, spec.base, lifted.var_copy_map, lifted.factor_copy_map
        )
        out = {
            "m": spec.m,
            "lifted_variables": lifted.cover.num_vars,
            "lifted_factors": len(lifted.cover.factors),
            "valid": ok,
        }
        if diag:
            out["diagnosis"] = diag
        if with_z:
            out["z_lifted"] = exact_partition(lifted.cover)
            out["z_base"] = exact_partition(spec.base)
        return out

    _run("cover-build", doc, None, {}, body, csv)


@cmd_cover.command("estimate")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--m", "--M", "m", required=True, type=int)
@click.option("--samples", default=50, show_default=True)
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--csv", is_flag=True)
def cmd_cover_estimate(model_path, m, samples, seed, csv):
    """M-th root of the average lifted partition function over sampled
    covers (a finite-M heuristic for the Bethe value)."""
    doc = _load_json(model_path)

    def body():
        est = covers_mod.bethe_estimate_via_covers(model_from_json(doc), m, samples, seed)
        return {
            "estimate": est.estimate,
            "mean_z": est.mean_z,
            "variance": est.variance,
            "num_samples": est.num_samples,
            "note": est.note,
        }

    _run("cover-estimate", doc, seed, {"m": m, "samples": samples}, body, csv)


def _potts_from_json(doc) -> potts_mod.PottsModel:
    n, edges, extras = graph_from_json(doc)
    if "q" not in extras or "J" not in extras:
        raise ModelError("graph file must carry 'q' and 'J'")
    J = extras["J"]
    if np.isscalar(J):
        J = [J] * len(edges)
    return potts_mod.PottsModel(n, edges, extras["q"], J, field=extras.get("h"))


@main.command("potts")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--csv", is_flag=True)
def cmd_potts(graph_path, csv):
    """Exact Potts partition function of a graph JSON file
    ({n_vertices, edges, q, J[, h]})."""
    doc = _load_json(graph_path)

    def body():
        return {"z_potts": potts_mod.potts_partition(_potts_from_json(doc))}

    _run("potts", doc, None, {}, body, csv)


@main.command("rc")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--csv", is_flag=True)
def cmd_rc(graph_path, csv):
    """Exact random-cluster partition function (p = e^J - 1)."""
    doc = _load_json(graph_path)

    def body():
        return {"z_rc": potts_mod.rc_partition(_potts_from_json(doc))}

    _run("rc", doc, None, {}, body, csv)


@main.command("counterexample")
@click.option(
    "--pair-mode",
    type=click.Choice(potts_mod.COUNTEREXAMPLE_PAIR_MODES),
    default=potts_mod.COUNTEREXAMPLE_DEFAULT_PAIR_MODE,
    show_default=True,
)
@click.option(
    "--field-mode",
    type=click.Choice(potts_mod.COUNTEREXAMPLE_FIELD_MODES),
    default=potts_mod.COUNTEREXAMPLE_DEFAULT_FIELD_MODE,
    show_default=True,
)
@click.option("--restarts", default=64, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--emit-model", is_flag=True, help="Print the model JSON instead.")
@click.option("--csv", is_flag=True)
def cmd_counterexample(pair_mode, field_mode, restarts, seed, emit_model, csv):
    """Z, best-found Z_B, and their gap on the external-field triangle."""
    if emit_model:
        model = potts_mod.build_counterexample(pair_mode, field_mode)
        click.echo(json.dumps(model_to_json(model)))
        return

    def body():
        model = potts_mod.build_counterexample(pair_mode, field_mode)
        z = exact_partition(model)
        _tau, zb = maximize_bethe(model, restarts=restarts, seed=seed)
        return {
            "z": z,
            "z_bethe": zb,
            "gap": zb - z,
            "target_gap": potts_mod.COUNTEREXAMPLE_TARGET_GAP,
        }

    settings = {"pair_mode": pair_mode, "field_mode": field_mode, "restarts": restarts}
    _run("counterexample", settings, seed, settings, body, csv)


@main.command("wef")
@click.option("--code", "code_path", required=True, type=click.Path())
@click.option("--lam", "--lambda", "lam", required=True, type=float)
@click.option("--restarts", default=32, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--csv", is_flag=True)
def cmd_wef(code_path, lam, restarts, seed, csv):
    """Weight enumerator of a linear code (generator matrix text file)."""
    text = _read_text(code_path)

    def body():
        mat = matroid_mod.parse_generator_matrix(text)
        res = matroid_mod.weight_enumerator(mat, lam, restarts=restarts, seed=seed)
        out = {
            "exact": res.exact,
            "identity_value": res.identity_value,
            "codewords": res.codewords,
        }
        if res.bethe_bound is not None:
            out["bethe_bound"] = res.bethe_bound
            out["mean_field_bound"] = res.mean_field_bound
        return out

    # both bounds hold only within the ordering tolerance
    settings = {"lambda": lam, "restarts": restarts, "tolerance": verify_mod.REL_TOL_ORDERING}
    _run("wef", text, seed, settings, body, csv)


@main.command("matroid")
@click.option("--code", "code_path", required=True, type=click.Path())
@click.option("--coupling", "-j", "coupling", default=1.0, show_default=True, type=float,
              help="Uniform column coupling J.")
@click.option("--csv", is_flag=True)
def cmd_matroid(code_path, coupling, csv):
    """Matroid Potts and random-cluster partition functions of a matrix."""
    text = _read_text(code_path)

    def body():
        mat = matroid_mod.parse_generator_matrix(text)
        J = np.full(mat.n_cols, coupling)
        return {
            "z_potts": matroid_mod.matroid_potts_partition(mat, J),
            "z_rc": matroid_mod.matroid_rc_partition(mat, np.expm1(J)),
            "rank": matroid_mod.rank(mat),
        }

    _run("matroid", text, None, {"coupling": coupling}, body, csv)


@main.command("hom")
@click.option("--model", "model_path", required=True, type=click.Path(),
              help="JSON {n_vertices, edges, w, a, b}.")
@click.option("--csv", is_flag=True)
def cmd_hom(model_path, csv):
    """Weighted homomorphism and edge-subset partition functions."""
    doc = _load_json(model_path)

    def body():
        n, edges, extras = graph_from_json(doc)
        try:
            model = HomModel(n, edges, extras["w"], extras["a"], extras["b"])
        except KeyError as exc:
            raise ModelError(f"hom model file must carry w, a, b: {exc}") from exc
        return {"z_hom": hom_partition(model), "z_edge": edge_partition(model)}

    _run("hom", doc, None, {}, body, csv)


@main.command("check-lsm")
@click.option("--table", "table_path", type=click.Path(), default=None,
              help="JSON array of 2^n nonnegative values.")
@click.option("--model", "model_path", type=click.Path(), default=None,
              help="Binary factor-graph JSON; checks every factor table.")
@click.option("--csv", is_flag=True)
def cmd_check_lsm(table_path, model_path, csv):
    """Exhaustive log-supermodularity check of a table or of a model's
    factors; exits 1 when the check fails."""
    if (table_path is None) == (model_path is None):
        raise ModelError("pass exactly one of --table / --model")
    doc = _load_json(table_path or model_path)

    def body():
        if table_path is not None:
            rep = is_log_supermodular(doc)
            out = {"log_supermodular": rep.ok, "worst_ratio": rep.worst_ratio}
            if rep.witness:
                out["witness"] = list(rep.witness)
            return out
        reps = model_is_log_supermodular(model_from_json(doc))
        return {
            "log_supermodular": all(r.ok for r in reps.values()),
            "factors_checked": len(reps),
            "failing_factors": [str(fid) for fid, r in reps.items() if not r.ok],
        }

    results = _run("check-lsm", doc, None, {}, body, csv)
    if not results["log_supermodular"]:
        sys.exit(EXIT_REFUSAL)


@main.command("verify")
@click.argument("theorem", type=click.Choice(list(verify_mod.SUITES)))
@click.option("--trials", default=None, type=click.IntRange(min=1),
              help="Trial count where applicable.")
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--csv", is_flag=True)
def cmd_verify(theorem, trials, seed, csv):
    """Run a verification suite; exit 0 iff every trial passes."""
    reports = []

    def body():
        reports.extend(verify_mod.dispatch(theorem, trials, seed))
        results = {}
        for r in reports:
            click.echo(r.summary(), err=True)
            key = r.name.replace(" ", "_")
            results[f"{key}.passes"] = r.passes
            results[f"{key}.trials"] = r.trials
            results[f"{key}.worst_slack"] = r.worst_slack
            if "worst_trial" in r.details:
                results[f"{key}.worst_trial"] = r.details["worst_trial"]
        return results

    payload = {"theorem": theorem, "trials": trials, "seed": seed}
    _run(f"verify {theorem}", payload, seed, {"trials": trials}, body, csv)
    if not all(r.ok for r in reports):
        sys.exit(EXIT_REFUSAL)


if __name__ == "__main__":
    main()
