"""Write reference.json: the outputs the benchmark checks for DEFAULT_SEED.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right; a run of
the benchmark then fails every operation whose output differs.
"""

from __future__ import annotations

import json
import sys

from run import WORKDIR, import_z2zu
from workloads import (DEFAULT_SEED, REFERENCE_FILE, SURVEY_RANGE, Analyze,
                       AnalyzeLarge, AnalyzeScan, SearchRandom)

# search batches with stored hits; later batches get the identity checks
SEARCH_BATCHES = 200


def main() -> int:
    z2zu = import_z2zu()
    ref = {}
    search = SearchRandom(z2zu, DEFAULT_SEED, WORKDIR)
    hits = {}
    for k in range(SEARCH_BATCHES):
        found = z2zu.search_with_pruning(search._space(k))
        if found:
            hits[str(k)] = [search.hit_key(h) for h in found]
    ref[search.name] = {"batches": SEARCH_BATCHES, "hits": hits}
    ref["survey_exhaustive"] = {"codes_examined": z2zu.verify_fsd_classification(
        *SURVEY_RANGE).codes_examined}
    for cls in (AnalyzeScan, AnalyzeLarge):
        workload = cls(z2zu, DEFAULT_SEED, WORKDIR)
        workload.setup()
        outputs = []
        for path in workload.paths:
            _, (rc, text) = workload._analyze(path)
            if rc:
                sys.exit(f"error: analyze {path} exited with {rc}")
            outputs.append(Analyze.compared_fields(json.loads(text)))
        ref[cls.name] = outputs
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
