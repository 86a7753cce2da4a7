"""Every public name in ``src/zbounds`` has a caller.

A public top-level function or class, or a public method of a public
class, that nothing in ``src/zbounds`` (outside ``__init__.py``, which
only re-exports) or ``perfbench`` references is API that no program path
runs.  A reference is an ``ast.Name`` or ``ast.Attribute`` spelling the
name, or a string in the benchmark tracer's ``TRACED`` table.  Click
commands and groups are exempt: the CLI reaches them through its group.

Names are matched alone, so what this walk reports is a lower bound on
the names without a caller: ``.add`` on a set also references a method
named ``add``, and a local variable ``sub`` a function named ``sub``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "zbounds").glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# Public names that only tests, the README or the package exports reach,
# each kept for the reason given.
ALLOWED = {
    # waiting on the cover-bound suites for the paper's own classes
    # (ROADMAP item 5)
    "cover_average_exhaustive": "item 5's exhaustive 2-cover average",
    "check_rank2_lsm": "item 5 checks each rank-2 instance with it",
    "switch_bipartite": "item 5 switches antiferromagnetic bipartite models",
    # one-subset references that the batched paths are tested against
    "rc_weight": "one edge subset of rc_partition's weight tables",
    "edge_weight": "one edge subset of edge_partition's weight tables",
    "evaluate": "one assignment of exact_partition's joint tables",
    "check_rank_cover_inequality": "one layered subset of the rank cover suite",
    # library API that only tests call
    "check_correlation_inequality": "the sorted-stack correlation inequality",
    "PottsModel.ferromagnetic": "whether every coupling is positive",
}


def _is_click_command(fn):
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "attr", None) in ("command", "group")
        for d in fn.decorator_list
    )


def _public(name):
    return not name.startswith("_")


def definitions(paths=SOURCES):
    """(reported name, bare name) of every public top-level function and
    class, and of every public method of a public class."""
    out = []
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                if not _is_click_command(node):
                    out.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                out.append((node.name, node.name))
                out += [
                    (f"{node.name}.{fn.name}", fn.name)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and _public(fn.name)
                ]
    return out


def references(paths=SOURCES + BENCHMARK):
    """Every name an ``ast.Name`` or ``ast.Attribute`` spells, plus the
    strings of any module-level ``TRACED`` table."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets
            ):
                names |= {
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    return names


def unreferenced(sources=SOURCES, benchmark=BENCHMARK):
    """The reported names of public definitions nothing references."""
    found = references(sources + benchmark)
    return {reported for reported, bare in definitions(sources) if bare not in found}


def test_every_public_name_has_a_caller():
    missing = unreferenced()
    assert missing <= set(ALLOWED), "public names without a caller: " + ", ".join(
        sorted(missing - set(ALLOWED))
    )
    # a name that gained a caller leaves the allow-list
    assert set(ALLOWED) <= missing, "allowed names that now have a caller: " + ", ".join(
        sorted(set(ALLOWED) - missing)
    )


def test_walk_sees_an_unreferenced_function(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text("def orphan():\n    return 1\n\n\ndef _private():\n    return 2\n")
    assert unreferenced(SOURCES + [extra]) - unreferenced() == {"orphan"}


def test_walk_sees_the_references_that_count(tmp_path):
    bench = tmp_path / "bench.py"
    bench.write_text('TRACED = ((mod, "traced_only", None),)\nmod.by_attribute()\nby_name()\n')
    assert {"traced_only", "by_attribute", "by_name"} <= references([bench])
    assert all(bare != "cmd_z" for _reported, bare in definitions())  # a click command
