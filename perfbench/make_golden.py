"""Regenerate ``golden.json``: sha256 digests of the default seed's ops.

    python3 perfbench/make_golden.py

Run from the root of a checkout.  The digests pin the seeded output bytes
(CLI stdout, stderr and exit code; transcript JSON; suite reports) of the
first HORIZON ops of every workload.  Regenerate only when an output is
meant to change; a speedup must leave every digest as it is.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DEFAULT_SEED, WORKLOADS, run_op  # noqa: E402
from worker import GOLDEN, digest  # noqa: E402

HORIZON = 256


def main():
    table = {}
    for name, w in WORKLOADS.items():
        state = w.setup()
        table[name] = []
        for index in range(HORIZON):
            data, problem = run_op(w.op(state, DEFAULT_SEED, index))
            if problem:
                sys.exit("%s op %d: %s" % (name, index, problem))
            table[name].append(digest(data))
    with open(GOLDEN, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "horizon": HORIZON,
                   "workloads": table}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
