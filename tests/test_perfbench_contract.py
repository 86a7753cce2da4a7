"""The benchmark harness under ``perfbench/`` calls the library by name.

These tests read its sources and edit nothing there.  They fail when a
change to ``src/`` removes a function the tracer wraps, or a keyword or
positional argument that a workload passes to a ``zbounds`` callable.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text())


def zbounds_modules(tree):
    """The module-level names bound to ``zbounds`` or one of its modules."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update({a.asname or a.name: a.name for a in node.names if a.name == "zbounds"})
        elif isinstance(node, ast.ImportFrom) and node.module == "zbounds":
            names.update({a.asname or a.name: f"zbounds.{a.name}" for a in node.names})
    return {name: importlib.import_module(path) for name, path in names.items()}


def module_constants(tree):
    """Module-level assignments whose values are literals, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def comprehension_rows(comp, constants):
    """One {name: value} binding per row of each literal table a
    comprehension iterates over with a tuple target."""
    rows = [{}]
    for gen in comp.generators:
        if isinstance(gen.iter, ast.Name) and isinstance(gen.target, ast.Tuple):
            names = [getattr(t, "id", None) for t in gen.target.elts]
            table = constants.get(gen.iter.id, ())
            rows = [{**row, **dict(zip(names, entry))} for row in rows for entry in table]
    return rows


def verify_op_calls(tree, constants):
    """(line, verify function name, keyword names) of every ``verify_op`` call:
    it passes its own extra keywords to ``zbounds.verify.<fn_name>``."""
    scopes = [(node, comprehension_rows(node, constants)) for node in ast.walk(tree)
              if isinstance(node, (ast.ListComp, ast.GeneratorExp))]
    inside = {id(call): rows for comp, rows in scopes for call in ast.walk(comp.elt)}
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "verify_op"):
            continue
        for row in inside.get(id(call), [{}]):
            fn = call.args[1]
            fn_name = fn.value if isinstance(fn, ast.Constant) else row[fn.id]
            keywords = {k.arg for k in call.keywords if k.arg not in (None, "extra_check")}
            for k in call.keywords:
                if k.arg is None:  # **kw from the table row
                    keywords |= set(row[k.value.id])
            yield call.lineno, fn_name, keywords


def test_traced_functions_resolve():
    tree = parse("tracing.py")
    modules = zbounds_modules(tree)
    traced = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    )
    entries = [(row.elts[0].id, ast.literal_eval(row.elts[1])) for row in traced.elts]
    assert len(entries) > 10
    for module, attr in entries:
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr} is gone"


def test_workload_arguments_bind():
    tree = parse("workloads.py")
    modules = zbounds_modules(tree)
    checked = []
    problems = []

    def bind(where, fn, nargs, keywords):
        try:
            inspect.signature(fn).bind_partial(*[None] * nargs, **dict.fromkeys(keywords))
        except TypeError as exc:
            problems.append(f"workloads.py:{where}: {exc}")
        checked.append((fn.__name__, frozenset(keywords)))

    for call in ast.walk(tree):
        func = getattr(call, "func", None)
        if (isinstance(call, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id in modules):
            fn = getattr(modules[func.value.id], func.attr, None)
            if fn is None:
                problems.append(f"workloads.py:{call.lineno}: {func.value.id}.{func.attr} is gone")
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = [k.arg for k in call.keywords if k.arg is not None]
            bind(call.lineno, fn, 0 if starred else len(call.args), keywords)
    verify = importlib.import_module("zbounds.verify")
    for line, fn_name, keywords in verify_op_calls(tree, module_constants(tree)):
        fn = getattr(verify, fn_name, None)
        if fn is None:
            problems.append(f"workloads.py:{line}: verify.{fn_name} is gone")
        else:
            bind(line, fn, 0, keywords)
    assert not problems, problems
    # the walk reaches the calls that pass keywords, dynamic ones included
    refine = frozenset({"restarts", "seed", "refine_steps", "refine_top"})
    assert ("maximize_bethe", refine) in checked
    assert ("verify_potts_ordering", frozenset({"trials", "seed", "with_field"})) in checked
    assert ("verify_rank_inequality", frozenset({"seed"})) in checked
