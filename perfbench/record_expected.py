"""Record the reference outputs the gate compares against.

usage: python3 perfbench/record_expected.py

Runs each workload once, untraced, with the reference seed, and writes the
SHA-256 digest and row count of every output to perfbench/expected.json,
with the commit and environment they were recorded on. Run it only on a
commit whose outputs are the reference, never to make a failing gate pass.
"""

import json
import sys

from run import EXPECTED, Bench, environment
from workloads import WORKLOADS

REFERENCE_SEED = 1


def main() -> int:
    doc = {"seed": REFERENCE_SEED, "recorded_on": environment(), "outputs": {}}
    for wl in WORKLOADS.values():
        bench = Bench(wl, REFERENCE_SEED, reference=None)
        inv = bench.invoke("plain")
        if inv.problems:
            print(f"{wl.name}: " + "; ".join(inv.problems), file=sys.stderr)
            return 1
        doc["outputs"][wl.name] = {c.name: {"sha256": c.sha256, "rows": c.rows} for c in inv.outputs}
        print(f"{wl.name}: recorded {len(inv.outputs)} outputs")
    EXPECTED.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
