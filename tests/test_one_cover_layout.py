"""Only ``covers.py`` lays out lifts.

A cover spec's permutations are read into ``CoverSpec.lifted_scopes``
once, and every lift takes its lifted scopes from that table, so which
copy meets which lives in one module.  A read of a ``.perms`` attribute
anywhere else in ``src/zbounds`` fails this test; ``io.py`` is exempt,
since it writes a spec's permutations out as they are.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in (ROOT / "src" / "zbounds").glob("*.py") if p.name not in ("covers.py", "io.py")
)


def perms_reads(paths=SOURCES):
    """(file name, line) of every ``.perms`` attribute, in file and line order."""
    reads = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "perms":
                reads.append((path.name, node.lineno))
    return sorted(reads)


def test_only_covers_reads_perms():
    assert perms_reads() == []


def test_walk_sees_a_read(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text("p = spec.perms[(f, v)]\nfor k in covers.CoverSpec(b, 2, q).perms:\n    pass\n")
    assert perms_reads([extra]) == [("extra.py", 1), ("extra.py", 2)]
