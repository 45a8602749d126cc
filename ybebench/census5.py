"""Rack census at n = 5, one step past the CLI's size bound.

Usage: python3 ybebench/census5.py {rack,quandle}

Prints the census summary in the shape of ``ybe enumerate --json``.  The
bound is lifted by argument: the n = 5 counts (74 racks, 22 quandles) are
published, so the result can be checked.
"""

import json
import sys

from ybe.census import enumerate_racks

SIZE = 5


def main(kind: str) -> None:
    census = enumerate_racks(SIZE, quandles_only=(kind == "quandle"), bound=SIZE)
    print(json.dumps({
        "kind": census.kind,
        "size": census.n,
        "class_count": len(census.representatives),
        "total_labeled": census.total_labeled,
        "classes": [{"index": i, "labeled_count": k} for i, k in enumerate(census.iso_class_sizes)],
    }, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
