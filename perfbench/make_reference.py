"""Write reference.json: the digest of every job's output on this checkout.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted (the references were taken
at the seed commit, whose tier-1 tests pass); the benchmark then fails any
job whose output differs.  Word-problem jobs need no entry: each verdict is
graded against a regular coset table built in set-up.
"""

from __future__ import annotations

import json
import random
import sys

import worker


def main() -> int:
    worker.import_library()
    import workloads
    reference = {}
    for name, spec in workloads.WORKLOADS.items():
        if name == "wordproblem":
            continue
        for job in spec.jobs(random.Random(0), {}):
            reference[job.name] = workloads.normalized(job.run())
            print(job.name, file=sys.stderr)
    text = json.dumps(reference, sort_keys=True, indent=1) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
