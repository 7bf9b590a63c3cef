"""Print the in-process time of one cross-validation pass at each stack size n.

    PYTHONPATH=src python tests/pass_timing.py

numpy runs on one OpenBLAS thread.  For each n of 1, 4, 10 and 32 there are 40 stacks of n
triples, stack s of seed s with the families cycling from family s: the stacks of each n
cover every family, and a stack of several mixes them.  Each of 7 rounds times one ``cross_validate_stack`` on every stack of every n, after
one untimed pass on each; a round's figure for n is the median of its 40 times.  The script
prints, per n, the median of the 7 round medians and their range, in microseconds.  It is
a record, not a gate, and takes about 1 s.  pytest does not collect this file.

The figures move between processes.  glibc's malloc adjusts its mmap threshold as a
process frees large blocks, so whether the arrays of a 32-triple pass are mapped fresh on
every call depends on what the process allocated before: the n = 32 median of one tree
has read 1130 us in one process and 790 us in another, about 40 % apart, and with
``GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432`` set for both processes the order of
two trees flipped.  So compare two trees by at least 4 processes each, alternating between
the trees, and never by one process per tree.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import statistics
import sys
import time

from g2abc.gabc import FamilyKind, cross_validate_stack, generate_many

SIZES = (1, 4, 10, 32)
STACKS = 40
ROUNDS = 7
KINDS = list(FamilyKind)


def stacks(n):
    """The STACKS stacks of n triples, each mixing the families."""
    return [generate_many([KINDS[(s + k) % len(KINDS)] for k in range(n)], s, range(n))
            for s in range(STACKS)]


def main():
    work = {n: stacks(n) for n in SIZES}
    for group in work.values():
        for t in group:
            cross_validate_stack(t)
    medians = {n: [] for n in SIZES}
    for _ in range(ROUNDS):
        for n, group in work.items():
            times = []
            for t in group:
                start = time.perf_counter()
                cross_validate_stack(t)
                times.append(time.perf_counter() - start)
            medians[n].append(statistics.median(times) * 1e6)
    for n, rounds in medians.items():
        print(f"n = {n:2d}: {statistics.median(rounds):7.1f} us per pass "
              f"(round medians {min(rounds):.1f}-{max(rounds):.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
