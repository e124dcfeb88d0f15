"""Regenerate bench/order7_parts.json: the loop count of every order-7 part.

The order7-slice workload checks each part it visits against these
counts.  Counting all 309 parts enumerates all 16 942 080 normalized
loops of order 7, a few minutes in one process.  Run from the repository
root:

    python3 bench/pin_order7.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from loopkit import enumerate_loops, second_row_candidates  # noqa: E402

ORDER = 7
TOTAL = 16_942_080  # reduced Latin squares of order 7


def main() -> int:
    parts = len(second_row_candidates(ORDER))
    counts = [
        enumerate_loops(ORDER, lambda L: None, part_index=p, part_count=parts)
        for p in range(parts)
    ]
    if sum(counts) != TOTAL:
        print(f"parts sum to {sum(counts)}, expected {TOTAL}", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "order7_parts.json"), "w", encoding="utf-8") as fh:
        json.dump({"order": ORDER, "part_count": parts, "counts": counts}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
