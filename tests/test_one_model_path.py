"""Only ``models.py`` builds factors and potential tables.

Every other module passes ``FactorGraph`` (id, scope, table) rows, so the
model checks each id and builds each table from the scope's cardinalities
in one place.  A call spelled ``Factor(...)``, ``PotentialTable(...)`` or
``models.Factor(...)`` anywhere else in ``src/zbounds`` fails this test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "zbounds").glob("*.py") if p.name != "models.py")
CONSTRUCTORS = {"Factor", "PotentialTable"}


def constructor_calls(paths=SOURCES):
    """(file name, line) of every call to a name in CONSTRUCTORS."""
    calls = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in CONSTRUCTORS:
                    calls.append((path.name, node.lineno))
    return calls


def test_only_models_builds_factors():
    assert constructor_calls() == []


def test_walk_sees_both_spellings(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text("a = Factor('f', (0,), t)\nb = models.PotentialTable((2,), [1, 2])\n")
    assert constructor_calls([extra]) == [("extra.py", 1), ("extra.py", 2)]
