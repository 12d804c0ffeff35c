"""One cold set-up, in a fresh process: import cshom, verify the pinned seed
certificates and build a workload's inputs, then print ``ready``.

``run.py`` times this script from process start to the ``ready`` line; that
interval is what every ``cshom`` command pays before its first operation.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
