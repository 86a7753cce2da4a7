"""Record the verify operations' outputs into golden.json.

    python3 perfbench/record_golden.py

The benchmark's gate requires every verify operation to reproduce its
recorded passes, trials and worst slack. Re-record only when a change is
meant to move those numbers, and say why in CHANGES.md.
"""

import json
import sys

from run import import_library

import_library()
import workloads  # noqa: E402

GOLDEN_SEED = 0


def record() -> dict:
    golden = {}
    for name in ("orderings", "envelope", "small-suites"):
        wl = workloads.build(name, GOLDEN_SEED)
        golden[name] = {}
        for op in wl.ops:
            out = op.run()
            if isinstance(out, tuple) and len(out) == 5:  # a VerifyReport's fields
                trials, passes, worst, _ok, _details = out
                golden[name][op.id] = [trials, passes, worst]
        print(f"{name}: {len(golden[name])} operations recorded", file=sys.stderr)
    return golden


def dumps(golden: dict) -> str:
    """JSON with one operation per line, so re-recordings diff line by line."""
    parts = []
    for name in sorted(golden):
        ops = ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden[name].items())
        )
        parts.append(f" {json.dumps(name)}: {{\n{ops}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    if not workloads.GOLDEN_PATH.exists():
        workloads.GOLDEN_PATH.write_text("{}")
    workloads.GOLDEN_PATH.write_text(dumps(record()))
