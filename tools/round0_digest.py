"""Digest of round 0 of each benchmark workload, to compare two trees bit for bit.

    python3 tools/round0_digest.py SEED [SEED ...]

Run from the root of a checkout.  For each seed and each workload of
perfbench/workloads.py it runs prepare, setup, one round and the
workload's check, with the package imported from src/ and BLAS pinned
to one thread, and prints one line: the sha256 of the pickled outputs
of the round's operations, how many of them failed, and the check's
messages.  Two trees whose lines agree computed the same bits.  It
writes nothing: no results, and no bytecode caches.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import hashlib
import pickle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import twodevp as td
from workloads import WORKLOADS


def digest(name, seed):
    """(sha256 of round 0's outputs, failed count, check messages) of one workload at one seed."""
    wl = WORKLOADS[name](seed)
    wl.prepare(td)
    state = wl.setup(td)
    ops = wl.round(td, state)
    sha = hashlib.sha256(pickle.dumps([op.out for op in ops])).hexdigest()
    return sha, sum(op.failed for op in ops), wl.check(ops, state)


def main(argv):
    if not argv or not all(arg.isdigit() for arg in argv):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for name in WORKLOADS:
            sha, failed, messages = digest(name, seed)
            print("seed %d %-18s %s failed=%d check=%r" % (seed, name, sha, failed, messages))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
