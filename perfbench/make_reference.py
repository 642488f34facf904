"""Regenerate ``reference/facet_grids.json`` from the library.

The file stores, per window of the ``windows`` workload, the set of
distinct boundary-functional grids the library lists.  It was written once
from the library as first benchmarked and is checked in, so the ``facets``
check compares later versions against that first answer; it still holds
when ``facets`` lists each distinct hyperplane once.  Run from the
repository root: ``python3 perfbench/make_reference.py``.
"""

import json
import sys

import workloads
from worker import import_library


def main() -> int:
    lib = import_library()
    doc = {}
    for w in workloads.WINDOWS:
        facets = lib.functionals.boundary_facets(lib.poset.Window(*w))
        doc[workloads.window_key(w)] = sorted({tuple(map(tuple, f.functional.grid())) for f in facets})
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(grids)}" for key, grids in sorted(doc.items())]
    workloads.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
