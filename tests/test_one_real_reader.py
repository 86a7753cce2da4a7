"""Only ``models.float_array`` reads real-valued input.

``float_array`` is the one check of a real number: no bool, no string,
at any depth of a list, and finite.  A public function or ``__init__``
of any module, ``float_array`` itself aside, that converts one of its
own parameters with ``np.asarray(..., dtype=float)`` or
``np.array(..., dtype=float)`` reads its input without that check, and
fails this test.  A read through an attribute or a subscript of a
parameter, as ``tau.node[v]`` or ``self.factor[k]``, counts as a read of
the parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zbounds").glob("*.py"))
CONVERTERS = {"asarray", "array"}
FLOAT_DTYPES = {"float", "float64"}
READER = ("models.py", "float_array")


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


def _root_name(node):
    """The name under a chain of attribute and subscript reads, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def float_conversions(paths=SOURCES):
    """(file name, line) of every float conversion of a parameter of the
    public def it sits in, or of an attribute or subscript of one."""
    found = []
    for path in paths:
        for fn in _public_defs(ast.parse(path.read_text())):
            if (path.name, fn.name) == READER:
                continue
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in CONVERTERS
                    and node.args
                    and _root_name(node.args[0]) in params
                    and _float_dtype(node)
                ):
                    found.append((path.name, node.lineno))
    return sorted(found)


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


def test_walk_sees_attribute_and_subscript_reads(tmp_path):
    extra = tmp_path / "models.py"
    extra.write_text(
        "import numpy as np\n"
        "def objective(model, tau):\n"
        "    a = [np.asarray(tau.node[v], dtype=float) for v in model.var_ids]\n"
        "    b = np.asarray(tau.factor, dtype=float)\n"
        "    c = np.asarray(model.table()[0], dtype=float)\n"
        "    d = np.asarray(local.node[0], dtype=float)\n"
        "    return np.asarray(a[0], dtype=float)\n"
        "class Beliefs:\n"
        "    def violation(self, model):\n"
        "        return np.asarray(self.node[0], dtype=float)\n"
        "def float_array(values):\n"
        "    return np.asarray(values, dtype=float)\n"
    )
    found = float_conversions([extra])
    assert found == [("models.py", 3), ("models.py", 4), ("models.py", 10)]


def test_models_is_walked():
    assert "models.py" in {p.name for p in SOURCES}
