"""Every keyword parameter with a default has a caller that sets it.

A default that no call site in ``src/zbounds`` or ``perfbench`` ever
overrides is a module constant in disguise: its one value belongs at the
place that checks it.  The walk reads the sources with ``ast`` and matches
calls to definitions by the called name alone, so two functions that share
a name share their call sites.  An argument that only passes on a
defaulted parameter of an enclosing function (``cap=cap``) sets the
keyword only if a caller sets that parameter.  Constructors are exempt.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zbounds").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _defaulted(fn):
    """The parameters of a def or lambda that have defaults."""
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults) :]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _signatures(path, tree):
    """(name, positional parameters, defaulted parameters, file:line) of
    every def; methods drop ``self`` from the positional list."""
    methods = {
        id(fn)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    }
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name != "__init__":
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            skip = 1 if id(fn) in methods else 0
            yield fn.name, positional[skip:], _defaulted(fn), f"{path.name}:{fn.lineno}"


def _scope(fn, track):
    """Parameter -> (function, parameter) when it has a default and
    ``track`` is set, else None."""
    args = fn.args
    defaulted = set(_defaulted(fn)) if track else set()
    return {
        a.arg: (getattr(fn, "name", "<lambda>"), a.arg) if a.arg in defaulted else None
        for a in args.posonlyargs + args.args + args.kwonlyargs
    }


def _arguments(tree, track):
    """(called name, key, source) for every argument of every call.

    ``key`` is the keyword, the position, or ``("*", position)`` for a
    starred tail.  ``source`` is the (function, parameter) the argument
    passes on when it is a bare defaulted parameter of an enclosing def in
    a tracked tree, else None.
    """
    out = []

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scopes = scopes + [_scope(node, track)]
        func = getattr(node, "func", None)
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if isinstance(node, ast.Call) and name:

            def source(expr):
                if isinstance(expr, ast.Name):
                    for scope in reversed(scopes):
                        if expr.id in scope:
                            return scope[expr.id]
                return None

            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    out.append((name, ("*", i), None))
                    break
                out.append((name, i, source(arg)))
            out.extend((name, k.arg, source(k.value)) for k in node.keywords if k.arg is not None)
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, [])
    return out


def keywords_set():
    """(function name, parameter) of every parameter some call sets."""
    trees = [(path, ast.parse(path.read_text(), str(path))) for path in SOURCES + BENCHMARK]
    positional = defaultdict(list)
    for path, tree in trees:
        for name, params, _defaulted, _where in _signatures(path, tree):
            positional[name].append(params)
    links = []
    for path, tree in trees:
        for name, key, source in _arguments(tree, track=path in SOURCES):
            for params in positional[name]:
                if isinstance(key, str):
                    targets = [key]
                elif isinstance(key, int):
                    targets = params[key : key + 1]
                else:
                    targets = params[key[1] :]
                links += [((name, target), source) for target in targets]
    found = set()
    grown = True
    while grown:
        grown = False
        for target, source in links:
            if target not in found and (source is None or source in found):
                found.add(target)
                grown = True
    return found


def unset_keywords():
    """``file:line name(keyword)`` for every default no call site sets."""
    found = keywords_set()
    return [
        f"{where} {name}({keyword})"
        for path in SOURCES
        for name, _params, defaulted, where in _signatures(path, ast.parse(path.read_text()))
        for keyword in defaulted
        if (name, keyword) not in found
    ]


def test_every_default_has_a_caller_that_sets_it():
    unset = unset_keywords()
    assert not unset, "keywords no caller sets: " + ", ".join(unset)


def test_walk_sees_the_keywords_callers_set():
    found = keywords_set()
    assert ("exact_partition", "cap") in found  # by name, from the CLI
    assert ("random_graph", "max_edges") in found  # by position, passed on
    assert ("maximize_bethe", "refine_top") in found
    assert ("exact_partition", "model") in found
