"""Write tests/data/pinned_bethe.json from the current Bethe layer.

Run from the repository root with ``python3 tests/data/record_pinned_bethe.py``.
It records the four sections that ``tests/test_bethe.py`` pins with ==, at
the settings documented above ``PINNED_BETHE`` there:

- ``maximize_bethe``: each pinned model at restarts 8 and seed 1, and at
  restarts 16 and seed 4;
- ``run_bp``: each pinned model with init None and init 5;
- ``maximize_bethe_long``: the four counterexample conventions at
  restarts=64 and seed=0;
- ``mean_field``: each pinned model except the counterexample at restarts 8
  and seed 1, and at restarts 16 and seed 4.

Re-record only after a change that is meant to move the pins, and list every
pin that moved in the change's notes: the script prints each pin whose entry
it changes, with its key and |Δ log Z|.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_bethe import _pinned_bethe_models, _pinned_models  # noqa: E402

from zbounds.bethe import maximize_bethe, mean_field, run_bp  # noqa: E402
from zbounds.potts import build_counterexample  # noqa: E402

CONVENTIONS = ["unordered/direct", "unordered/exp", "ordered/direct", "ordered/exp"]


def _tables(tau, model) -> dict:
    return {
        "node": [tau.node[v].tolist() for v in model.var_ids],
        "factor": [tau.factor[fac.id].tolist() for fac in model.factors],
    }


def record() -> dict:
    models = _pinned_bethe_models()
    short, bp, long = {}, {}, {}
    for name, model in models.items():
        for restarts, seed in ((8, 1), (16, 4)):
            tau, zb = maximize_bethe(model, restarts=restarts, seed=seed)
            short[f"{name}/{restarts}/{seed}"] = {"z_bethe": zb, **_tables(tau, model)}
    for name, model in models.items():
        for init in (None, 5):
            state, tau, value = run_bp(model, init=init)
            bp[f"{name}/{init}"] = {
                "value": value,
                "iterations": state.iterations,
                "residual": state.residual,
                "converged": state.converged,
                "node": [tau.node[v].tolist() for v in model.var_ids],
            }
    for key in CONVENTIONS:
        model = build_counterexample(*key.split("/"))
        tau, zb = maximize_bethe(model, restarts=64, seed=0)
        long[key] = {"z_bethe": zb, **_tables(tau, model)}
    mf = {}
    for name, model in _pinned_models().items():
        for restarts, seed in ((8, 1), (16, 4)):
            nu, zmf = mean_field(model, restarts=restarts, seed=seed)
            mf[f"{name}/{restarts}/{seed}"] = {
                "z_mean_field": zmf,
                "node": [nu[v].tolist() for v in model.var_ids],
            }
    return {"maximize_bethe": short, "run_bp": bp, "maximize_bethe_long": long, "mean_field": mf}


def dump(pins: dict) -> str:
    """One line per pin, sections in recording order."""
    sections = []
    for section, entries in pins.items():
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        sections.append(f" {json.dumps(section)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def _log_z(section: str, entry: dict) -> float:
    if section == "run_bp":
        return entry["value"]
    z = entry["z_mean_field" if section == "mean_field" else "z_bethe"]
    return math.log(z) if z > 0 else -math.inf


def moved(old: dict, new: dict) -> list:
    """(section, key, |Δ log Z|) of every pin whose entry differs between
    two recordings; a pin only one of them holds counts as moved by inf."""
    out = []
    for section in dict.fromkeys([*new, *old]):
        before, after = old.get(section, {}), new.get(section, {})
        for key in dict.fromkeys([*after, *before]):
            if before.get(key) == after.get(key):
                continue
            if key in before and key in after:
                a, b = _log_z(section, before[key]), _log_z(section, after[key])
                delta = 0.0 if a == b else abs(b - a)
            else:
                delta = math.inf
            out.append((section, key, delta))
    return out


if __name__ == "__main__":
    path = Path(__file__).parent / "pinned_bethe.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    new = json.loads(dump(record()))
    for section, key, delta in moved(old, new):
        print(f"{section} {key}: |Δ log Z| = {delta:.2g}")
    path.write_text(dump(new))
