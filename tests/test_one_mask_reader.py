"""Only ``models.mask_bits`` turns an array of subset masks into bits.

``mask_bits`` reads every mask by ``as_mask``'s rule: an integer >= 0 of
any width, no bool, no fraction.  A public function or ``__init__`` of a
module other than ``models.py`` that converts one of its own parameters
with an integer-dtype ``np.asarray`` or ``np.array`` reads masks (or
counts) without that rule: a cast truncates 2.5 to 2, reads True as 1
and overflows past 64 bits.  Such a conversion fails this test.
"""

import ast

from test_one_real_reader import CONVERTERS, SOURCES, _public_defs, _root_name

INT_DTYPES = {
    "int", "intp", "uintp", "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64",
}
OWNER = "models.py"


def _int_dtype(call):
    dtype = next((k.value for k in call.keywords if k.arg == "dtype"), None)
    if dtype is None and len(call.args) > 1:
        dtype = call.args[1]
    # a name (int), an attribute (np.int64) or a string ("int64")
    names = (getattr(dtype, key, None) for key in ("id", "attr", "value"))
    return next((n for n in names if n is not None), None) in INT_DTYPES


def int_conversions(paths=SOURCES):
    """(file name, line) of every integer-dtype conversion of a parameter
    of the public def it sits in, or of an attribute or subscript of one,
    outside ``models.py``."""
    found = []
    for path in paths:
        if path.name == OWNER:
            continue
        for fn in _public_defs(ast.parse(path.read_text())):
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in CONVERTERS
                    and node.args
                    and _root_name(node.args[0]) in params
                    and _int_dtype(node)
                ):
                    found.append((path.name, node.lineno))
    return sorted(found)


def test_only_mask_bits_reads_mask_arrays():
    assert int_conversions() == []


def test_walk_sees_every_spelling(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text(
        "import numpy as np\n"
        "def ranks(matrix, masks):\n"
        "    a = np.asarray(masks, dtype=np.int64)\n"
        "    b = np.array(masks, dtype=int)\n"
        "    c = np.asarray(masks, np.uint64)\n"
        "    d = np.asarray(matrix.entries, dtype='intp')\n"
        "    e = np.asarray(masks, dtype=float)\n"
        "    f = np.asarray(local, dtype=np.int64)\n"
        "    return np.asarray(a, dtype=np.int64)\n"
        "def _private(masks):\n"
        "    return np.asarray(masks, dtype=np.int64)\n"
        "class C:\n"
        "    def __init__(self, v):\n"
        "        self.v = np.array(v, np.int32)\n"
    )
    found = int_conversions([extra])
    assert found == [("extra.py", line) for line in (3, 4, 5, 6, 14)]


def test_models_is_the_owner(tmp_path):
    owner = tmp_path / "models.py"
    owner.write_text(
        "import numpy as np\n"
        "def mask_bits(masks, width, what):\n"
        "    return np.asarray(masks, dtype=np.int64)\n"
    )
    assert int_conversions([owner]) == []
    assert OWNER in {p.name for p in SOURCES}
