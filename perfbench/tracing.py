"""Spans around the library's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function at every attribute of
a loaded ``zbounds`` module that binds it (``verify`` binds ``mean_field``
by ``from .bethe import ...``, so both ``zbounds.bethe.mean_field`` and
``zbounds.verify.mean_field`` are replaced), wraps ``FactorGraph.__init__``
to count model construction, and restores everything on exit. Spans stay in
memory; per-layer metrics are computed from them after the traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

from zbounds import bethe, covers, homs, lattice, matroid, models, potts, verify


def _states(count):
    return lambda obj, *args, **kwargs: count(obj)


# (module, function name, work count from the call's arguments)
TRACED = (
    (bethe, "mean_field", None),
    (bethe, "maximize_bethe", None),
    (bethe, "bethe_objective", None),
    (bethe, "bethe_gradient", None),
    (models, "exact_partition", _states(lambda m: m.joint_size)),
    (potts, "potts_partition", _states(lambda m: int(m.q) ** m.n_vertices)),
    (potts, "rc_partition", _states(lambda m: 2 ** len(m.edges))),
    (potts, "count_components", None),
    (potts, "check_cover_component_inequality", None),
    (homs, "hom_partition", _states(lambda m: m.n_states**m.n_vertices)),
    (homs, "edge_partition", _states(lambda m: 2 ** len(m.edges))),
    (matroid, "matroid_potts_partition", _states(lambda s: s.field.q**s.n_rows)),
    (matroid, "matroid_rc_partition", _states(lambda s: 2**s.n_cols)),
    (matroid, "rank", None),
    (covers, "build_cover", None),
    (covers, "sample_cover", None),
    (lattice, "is_log_supermodular", None),
    (lattice, "model_is_log_supermodular", None),
)
VERIFY_PREFIX = "verify_"

# Function metrics reported on every workload, in BENCHMARK.json order.
FUNCTION_METRICS = {
    "bethe.mean_field": ("calls", "self_s"),
    "bethe.maximize_bethe": ("calls", "self_s"),
    "bethe.bethe_objective": ("calls", "self_s"),
    "bethe.bethe_gradient": ("calls", "self_s"),
    "models.exact_partition": ("calls", "self_s", "states", "states_per_s"),
    "models.FactorGraph": ("calls", "self_s"),
    "potts.potts_partition": ("calls", "self_s", "states"),
    "homs.hom_partition": ("calls", "self_s", "states"),
    "matroid.matroid_potts_partition": ("calls", "self_s", "states"),
    "potts.rc_partition": ("calls", "self_s", "subsets"),
    "potts.count_components": ("calls", "self_s"),
    "homs.edge_partition": ("calls", "self_s", "subsets"),
    "matroid.rank": ("calls", "self_s"),
    "matroid.matroid_rc_partition": ("calls", "self_s", "subsets"),
    "potts.check_cover_component_inequality": ("calls", "self_s"),
    "covers.build_cover": ("calls", "self_s"),
    "covers.sample_cover": ("calls", "self_s"),
    "lattice.is_log_supermodular": ("calls", "self_s"),
    "lattice.model_is_log_supermodular": ("calls", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "states": "count", "subsets": "count",
         "states_per_s": "1/s"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {
        f"{name}.{kind}": UNITS[kind]
        for name, kinds in FUNCTION_METRICS.items()
        for kind in kinds
    }
    units.update({"verify.self_s": "s", "verify.trials": "count", "verify.passes": "count",
                  "trace.overhead_s": "s"})
    return units


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id, work count, result counts]
        self.spans: list = []
        self.op: str | None = None
        self._stack: list = []

    def _wrap(self, name, fn, counter=None, is_verify=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    counter(*args, **kwargs) if counter else 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if is_verify:
                span[6] = (result.trials, result.passes)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        targets = list(TRACED)
        targets += [
            (verify, attr, None) for attr in vars(verify) if attr.startswith(VERIFY_PREFIX)
        ]
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "zbounds" or k.startswith("zbounds."))
        ]
        patched = []
        init = models.FactorGraph.__init__
        try:
            for mod, attr, counter in targets:
                original = getattr(mod, attr)
                short = mod.__name__.rsplit(".", 1)[1]
                wrapper = self._wrap(f"{short}.{attr}", original, counter,
                                     is_verify=mod is verify)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            patched.append((m, key, original))
            models.FactorGraph.__init__ = self._wrap("models.FactorGraph", init)
            yield self
        finally:
            models.FactorGraph.__init__ = init
            for m, key, original in reversed(patched):
                setattr(m, key, original)

    def clear(self) -> None:
        self.spans.clear()

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last clear."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
        verify_self = 0.0
        trials = passes = 0
        for i, s in enumerate(spans):
            a = agg[s[0]]
            total = s[2] - s[1]
            a["calls"] += 1
            a["total_s"] += total
            a["self_s"] += total - child[i]
            a["work"] += s[5]
            if s[0].startswith("verify."):
                verify_self += total - child[i]
                if s[6] is not None and s[3] < 0:
                    trials += s[6][0]
                    passes += s[6][1]
        out = {}
        for name, kinds in FUNCTION_METRICS.items():
            a = agg.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
            for kind in kinds:
                if kind in ("calls", "self_s"):
                    out[f"{name}.{kind}"] = a[kind]
                elif kind == "states_per_s":
                    out[f"{name}.{kind}"] = a["work"] / a["total_s"] if a["total_s"] else 0.0
                else:
                    out[f"{name}.{kind}"] = a["work"]
        out["verify.self_s"] = verify_self
        out["verify.trials"] = trials
        out["verify.passes"] = passes
        return out

    def dump(self) -> list:
        """Spans as JSON-ready records."""
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for s in self.spans
        ]

