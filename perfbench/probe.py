"""Set-up probe: import zbounds and build one workload's inputs.

run.py times this process from its start until it prints ``ready``, so
``setup_s`` includes the interpreter start and the import cost that every
command-line call pays. The probe then prints REF_SAMPLES times of the
reference kernel on the CPU it ran on, by which run.py rescales the
set-up time.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

from run import import_library, reference_s

REF_SAMPLES = 5

import_library()
import workloads  # noqa: E402  (needs the library on sys.path)

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
print(*(reference_s() for _ in range(REF_SAMPLES)), flush=True)
