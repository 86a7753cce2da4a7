"""JSON serialization for models, cover specs, graphs, and results.

The factor-graph document is
    {"variables": [{"id": ..., "cardinality": ...}],
     "factors":   [{"id": ..., "scope": [ids], "table": [floats]}],
     "node_potentials": {id: [floats]}}
with tables flat, row-major, last scope variable fastest.  Variable ids
may be integers or strings; JSON object keys are strings, so potentials
keyed by integer ids are written as decimal strings and mapped back on
load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .covers import CoverSpec
from .errors import ModelError
from .models import FactorGraph, ids_by_name


def model_to_json(model: FactorGraph) -> dict:
    """The factor-graph document of ``model``; ModelError when two variable
    ids share a JSON key, since node potentials are keyed by ``str(id)``."""
    _ids_by_key(model.var_ids)
    doc = {
        "variables": [
            {"id": v, "cardinality": model.card(v)} for v in model.var_ids
        ],
        "factors": [
            {
                "id": fac.id,
                "scope": list(fac.scope),
                "table": [float(x) for x in fac.table.values],
            }
            for fac in model.factors
        ],
    }
    pots = model.node_potentials
    if pots:
        doc["node_potentials"] = {
            str(v): [float(x) for x in vec] for v, vec in pots.items()
        }
    return doc


def _ids_by_key(ids) -> dict:
    """Each id under its JSON object key, ``str(id)``; ModelError when two
    ids share one, as 1 and "1" do."""
    return ids_by_name(
        ids, lambda first, other: f"ids {first!r} and {other!r} share the JSON key {str(other)!r}"
    )


def model_from_json(doc: Mapping) -> FactorGraph:
    try:
        variables = [(v["id"], v["cardinality"]) for v in doc["variables"]]
        factors = [(f.get("id"), f["scope"], f["table"]) for f in doc.get("factors", [])]
        pots = doc.get("node_potentials", {}).items()
    except (AttributeError, KeyError, TypeError) as exc:
        raise ModelError(f"malformed factor-graph document: {exc}") from exc
    keys = _ids_by_key(v for v, _ in variables)
    return FactorGraph(variables, factors, {keys.get(k, k): vec for k, vec in pots})


def cover_spec_to_json(spec: CoverSpec) -> dict:
    return {
        "M": spec.m,
        "base": model_to_json(spec.base),
        "permutations": [
            {"factor": fid, "var": vid, "perm": list(perm)}
            for (fid, vid), perm in sorted(spec.perms.items(), key=lambda kv: str(kv[0]))
        ],
    }


def cover_spec_from_json(doc: Mapping) -> CoverSpec:
    try:
        base = model_from_json(doc["base"])
        m = doc["M"]
        perms = {
            (entry["factor"], entry["var"]): tuple(entry["perm"])
            for entry in doc["permutations"]
        }
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed cover spec: {exc}") from exc
    # JSON may have stringified ids that the base knows as ints.
    fkeys = _ids_by_key(fac.id for fac in base.factors)
    vkeys = _ids_by_key(base.var_ids)
    perms = {(fkeys.get(str(f), f), vkeys.get(str(v), v)): p for (f, v), p in perms.items()}
    return CoverSpec(base=base, m=m, perms=perms)


def graph_from_json(doc: Mapping) -> tuple:
    """Parse {"n_vertices": n, "edges": [[i,j], ...]} plus optional extras.

    Returns (n_vertices, edges, extras dict with any remaining keys).
    """
    try:
        n = doc["n_vertices"]
        edges = [(i, j) for i, j in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed graph document: {exc}") from exc
    extras = {k: v for k, v in doc.items() if k not in ("n_vertices", "edges")}
    return n, edges, extras


def canonical_digest(obj) -> str:
    """Stable short digest of a JSON-serializable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ResultRecord:
    """One command's machine-readable outcome.

    ``results`` holds the named scalars; ``settings`` records the
    tolerances, iteration limits, and convention flags that produced them.
    """

    command: str
    digest: str
    results: dict
    seed: int | None = None
    runtime_s: float = 0.0
    settings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "digest": self.digest,
            "results": self.results,
            "seed": self.seed,
            "runtime_s": round(self.runtime_s, 6),
            "settings": self.settings,
        }
        return json.dumps(doc, sort_keys=True, default=_json_default)

    def csv_rows(self) -> list:
        """Fixed columns: command, digest, result, value, tolerance, seed."""
        tol = self.settings.get("tolerance", "")
        rows = []
        for name in sorted(self.results):
            value = self.results[name]
            if isinstance(value, (bool, np.bool_)):
                value = int(value)
            rows.append(
                f"{self.command},{self.digest},{name},{value},{tol},"
                f"{'' if self.seed is None else self.seed}"
            )
        return rows


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
