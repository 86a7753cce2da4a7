"""Every parameter in ``src/zbounds`` is read by its function.

A parameter that its function's body never reads is accepted and
ignored: a caller that sets it changes nothing.  The walk reads the
sources with ``ast``.  A parameter counts as read when an ``ast.Name``
loads it anywhere in the body, nested functions included, or when an
augmented assignment updates it.  A method's first parameter is exempt,
since zero-argument ``super()`` reads it.  A def is named by its class
and enclosing defs; a lambda by the def, or the module-level assignment
and dict key, it sits under.  A nested def that rebinds the name hides an
unread parameter, so what this walk reports is a lower bound.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zbounds").glob("*.py"))

# Parameters no body reads, each kept for the reason given.
ALLOWED = {
    "verify_component_inequality(seed)": (
        "the suite is exhaustive, but perfbench/workloads.py passes seed=23"
    ),
    "maximize_bethe(refine_steps)": "perfbench/workloads.py:229 passes them; ROADMAP item 8",
    "maximize_bethe(refine_top)": "perfbench/workloads.py:229 passes them; ROADMAP item 8",
}


def _reads(body):
    """The names a function body reads."""
    names = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _is_static(fn):
    return any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)


def unread(tree):
    """``name(parameter)`` of every parameter its function never reads."""
    out = []

    def visit(node, prefix, in_class=False):
        if isinstance(node, ast.Module):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                    visit(stmt.value, stmt.targets[0].id)
                else:
                    visit(stmt, prefix)
            return
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant):
                    visit(value, f"{prefix}[{key.value!r}]")
                else:
                    visit(value, prefix)
            return
        if isinstance(node, ast.ClassDef):
            name = f"{prefix}.{node.name}" if prefix else node.name
            for stmt in node.body:
                visit(stmt, name, in_class=True)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            own = getattr(node, "name", "<lambda>")
            name = f"{prefix}.{own}" if prefix else own
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            if in_class and not isinstance(node, ast.Lambda) and not _is_static(node):
                params = params[1:]
            params += [a.arg for a in args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = _reads(body)
            out.extend(f"{name}({p})" for p in params if p not in read)
            for child in body:
                visit(child, name)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, prefix)

    visit(tree, "")
    return out


def unread_in_sources():
    return {name for path in SOURCES for name in unread(ast.parse(path.read_text()))}


def test_every_parameter_is_read():
    extra = sorted(unread_in_sources() - set(ALLOWED))
    assert not extra, "parameters no body reads: " + ", ".join(extra)


def test_allowed_parameters_are_still_unread():
    # a parameter that gains a reader leaves the table
    stale = sorted(set(ALLOWED) - unread_in_sources())
    assert not stale, "read now, so drop from ALLOWED: " + ", ".join(stale)


def test_walk_names_and_reads():
    source = '''
class Group(Base):
    def invoke(self, ctx):
        return super().invoke(ctx)

    @staticmethod
    def build(spec):
        return 1

def outer(a, b, *rest, c=0, **kw):
    def inner(d):
        return a
    b += 1
    return inner

TABLE = {"x": (1, lambda n, seed: seed)}
'''
    assert sorted(unread(ast.parse(source))) == [
        "Group.build(spec)",
        "TABLE['x'].<lambda>(n)",
        "outer(c)",
        "outer(kw)",
        "outer(rest)",
        "outer.inner(d)",
    ]
