"""Record the reference stdout of the README's decide examples.

    python3 bench/record_cli_reference.py

The cli workload compares every run byte for byte against this file. Run
this only when a change to the decide output is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import CLI_REFERENCE, EXAMPLES, ROOT, child_env, decide_argv  # noqa: E402


def main() -> int:
    reference = {}
    for example in EXAMPLES:
        proc = subprocess.run(decide_argv(example), capture_output=True, env=child_env(), cwd=ROOT, check=True)
        reference[" ".join(example)] = proc.stdout.decode("utf-8")
    with open(CLI_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
