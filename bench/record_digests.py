"""Record the sha256 digests that the output checks compare against.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 bench/record_digests.py

It computes every document the ranks workload can request (all draws of r)
and the complex-curve values of the genfun workload, and rewrites
bench/digests.json.  The JSON output is the contract, so the digests change
only when that contract changes on purpose.
"""

import json
import os
import sys

import run
import worker
from checks import sha256


def main():
    worker.load_package(run.SRC)
    handlers = worker.request_handlers()
    digests = {}
    for g, n_max, rs in run.RANKS_SURFACES:
        for r in rs:
            for req in run.ranks_surface(g, n_max, r):
                value = handlers["cli"](*req["args"])
                if value["exit"] != 0 or value["stderr"]:
                    raise SystemExit("%s failed: %s" % (req["args"], value))
                digests[" ".join(req["args"])] = sha256(value["stdout"])
    for n, g in run.GENFUN_COMPLEX:
        value = handlers["complex_curve_e_poly"](n, g)
        digests["complex_curve_e_poly %d %d" % (n, g)] = sha256(
            json.dumps(value))
    with open(os.path.join(run.BENCH, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d digests written" % len(digests))


if __name__ == "__main__":
    sys.exit(main())
