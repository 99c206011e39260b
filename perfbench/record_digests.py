"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Run once from the root of a checkout whose outputs are known to be right;
the benchmark then fails any op whose schedule or emitted files differ.
"""

from __future__ import annotations

import json
import os
import sys

import checks

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import patflow  # noqa: E402
import patflow.fixtures  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    digests = {
        "schedule": workloads.oracle_schedule_digests(patflow, fixtures=True),
        "emit": workloads.oracle_emit_digests(patflow),
    }
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {sum(len(v) for v in digests.values())} digests to {checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
