#!/usr/bin/env python3
"""Record the answer digest of every workload for seeds 0-20 in digests.json.

Run from the root of a checkout, on the commit whose answers are the
reference:

    python3 perfbench/record_digests.py

``run.py`` then reports ``correct: false`` for any of these seeds whose
answers differ by a single byte.  Each digest comes from one sweep; a sweep
whose answers fail their checks is refused.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(21)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for name, workload in run.WORKLOADS.items():
        digests[name] = {}
        for seed in SEEDS:
            api, inputs, _ = run.setup(workload, seed)
            answers, _, _ = run.sweep(workload, api, inputs)
            failures, digest = run.check_sweep(workload, api, inputs, answers)
            if failures[run.WRONG]:
                print(f"error: {name} seed {seed}: {failures[run.WRONG]} wrong answers",
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = digest
            print(f"{name} {seed} {digest}", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
