"""Only ``models.float_array`` reads real-valued input.

``float_array`` is the one check of a real number: no bool, no string,
at any depth of a list, and finite.  A public function or ``__init__``
outside ``models.py`` that converts one of its own parameters with
``np.asarray(..., dtype=float)`` or ``np.array(..., dtype=float)`` reads
its input without that check, and fails this test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "zbounds").glob("*.py") if p.name != "models.py")
CONVERTERS = {"asarray", "array"}
FLOAT_DTYPES = {"float", "float64"}


def _public_defs(tree):
    """Every public top-level function, and every public method or
    ``__init__`` of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    yield item


def _float_dtype(call):
    dtype = next((k.value for k in call.keywords if k.arg == "dtype"), None)
    if dtype is None and len(call.args) > 1:
        dtype = call.args[1]
    return (getattr(dtype, "id", None) or getattr(dtype, "attr", None)) in FLOAT_DTYPES


def float_conversions(paths=SOURCES):
    """(file name, line) of every float conversion of a parameter of the
    public def it sits in."""
    found = []
    for path in paths:
        for fn in _public_defs(ast.parse(path.read_text())):
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in CONVERTERS
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                    and _float_dtype(node)
                ):
                    found.append((path.name, node.lineno))
    return found


def test_only_float_array_reads_reals():
    assert float_conversions() == []


def test_walk_sees_every_spelling(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text(
        "import numpy as np\n"
        "def f(x, y):\n"
        "    a = np.asarray(x, dtype=float)\n"
        "    b = np.array(y, dtype=np.float64)\n"
        "    c = np.asarray(x, dtype=np.int64)\n"
        "    return np.asarray(a, dtype=float)\n"
        "def _private(x):\n"
        "    return np.asarray(x, dtype=float)\n"
        "class C:\n"
        "    def __init__(self, v):\n"
        "        self.v = np.asarray(v, float)\n"
    )
    assert float_conversions([extra]) == [("extra.py", 3), ("extra.py", 4), ("extra.py", 11)]
