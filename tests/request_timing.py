"""Time the stages of real command-line requests in one process, or compare two trees.

    PYTHONPATH=src python tests/request_timing.py
    PYTHONPATH=src python tests/request_timing.py --against OTHER_TREE

numpy runs on one OpenBLAS thread and G2ABC_TOL is unset.  The requests have the shapes
of the benchmark's three workloads, named as they are, and run through ``cli.main`` with
their output captured.  One cycle is, in this order:

- analyze_requests: ``analyze --json`` of each of 5 general-family triple files, written
  by ``gen`` with seeds 0-4 at scales 1e-2, 1e-1, 1, 1e1 and 1e2;
- campaign: ``verify --case all --trials 2 --json`` with seeds 0 and 1;
- sparse_families: ``verify --case diag --trials 4 --json`` and then the same with
  ``--case adiag``, with seed 0 and then seed 1.

Without --against, the script times named stages inside every request by wrapping the
functions that ``cli`` calls for them.  For ``analyze`` they are parse (argparse's
``parse_args``), load (``load_triple``), pass (``cross_validate_stack``), report (the rest
of ``build_report``) and writer (``_dumps``); for ``verify`` they are parse, generate
(``generate_many``), pass, fold (the rest of ``cmd_verify``) and writer.  A stage counts
its own time: a wrapped call's time is taken off the stage of the call around it, and
"rest" is what a request spends outside every stage.  After one untimed cycle, it runs
--cycles cycles and prints, per request shape, the median of each stage in microseconds
per request and its share of the sum of those medians.  The wrappers add about a
microsecond per wrapped call.

With --against OTHER_TREE, it copies that tree's package (OTHER_TREE/src/g2abc) under
another name, imports it next to this one, and runs --cycles whole cycles on each tree,
alternately, the first tree of each pair taking turns.  Both trees analyze the same
files.  For each request shape, and for the whole cycle, it prints the median ratio of
this tree's time to the other's, with its quartiles, and how many cycles each tree won.
A change can move one shape and not another, which the cycle's ratio alone would hide.
Drift of the host moves both sides of a pair alike, so it cancels in the ratio; a run
against a copy of this same tree reads about 1.00.

The figures are a record, not a gate.  pytest does not collect this file.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported
os.environ.pop("G2ABC_TOL", None)

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from g2abc import cli

SCALES = ("1e-2", "1e-1", "1", "1e1", "1e2")
#: The verify request shapes: shape -> the argv of each of its requests but the seed.
VERIFY = {"campaign": [["verify", "--case", "all", "--trials", "2"]],
          "sparse_families": [["verify", "--case", case, "--trials", "4"]
                              for case in ("diag", "adiag")]}
#: The stages of each command: stage -> (the object whose attribute is wrapped, the
#: attribute's name); main parses with the one parser that cli builds at import.
STAGES = {
    "analyze": {"parse": (cli._parser(), "parse_args"), "load": (cli, "load_triple"),
                "pass": (cli, "cross_validate_stack"), "report": (cli, "build_report"),
                "writer": (cli, "_dumps")},
    "verify": {"parse": (cli._parser(), "parse_args"), "generate": (cli, "generate_many"),
               "pass": (cli, "cross_validate_stack"), "fold": (cli, "cmd_verify"),
               "writer": (cli, "_dumps")},
}


def write_triples(directory):
    """The 5 general-family triple files of a cycle, written by this tree's gen."""
    paths = []
    for seed, scale in enumerate(SCALES):
        path = directory / f"general{seed}.json"
        argv = ["gen", "--case", "general", "--seed", str(seed), "--scale", scale,
                "--out", str(path)]
        if cli.main(argv) != 0:
            raise SystemExit(f"{' '.join(argv)} failed")
        paths.append(path)
    return paths


def cycle(paths):
    """(shape, argv) of each request of one cycle."""
    return ([("analyze_requests", ["analyze", "--input", str(path), "--json"])
             for path in paths]
            + [(shape, argv + ["--seed", str(seed), "--json"])
               for shape, argvs in VERIFY.items() for seed in (0, 1) for argv in argvs])


def run(main, argv):
    """The wall time of main(argv), its output captured; a request that fails is an error."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    if code not in (0, 2):  # 2: a verdict of the checks, which still runs every stage
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return elapsed


class Stages:
    """Wrappers that add each wrapped call's own time to its stage."""

    def __init__(self):
        self.times = defaultdict(float)
        self.nested = []  # per open wrapped call, the time of the wrapped calls inside it
        self.wrapped = []

    def wrap(self, owner, name, stage):
        original = getattr(owner, name)
        own = name in vars(owner)

        def timed(*args, **kwargs):
            setattr(owner, name, original)  # a recursive call goes to the original
            self.nested.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.times[stage] += elapsed - self.nested.pop()
                if self.nested:
                    self.nested[-1] += elapsed
                setattr(owner, name, timed)
        setattr(owner, name, timed)
        self.wrapped.append((owner, name, original, own))

    def unwrap(self):
        for owner, name, original, own in reversed(self.wrapped):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self.wrapped.clear()


def stage_table(paths, cycles):
    """Print the median time of each stage of each request shape, per request."""
    requests = cycle(paths)
    samples = defaultdict(lambda: defaultdict(list))
    for n in range(cycles + 1):  # the first cycle warms up and is not kept
        for shape, argv in requests:
            stages = Stages()
            for stage, (owner, name) in STAGES[argv[0]].items():
                stages.wrap(owner, name, stage)
            try:
                total = run(cli.main, argv)
            finally:
                stages.unwrap()
            if n:
                for stage in STAGES[argv[0]]:
                    samples[shape][stage].append(stages.times[stage])
                samples[shape]["rest"].append(total - sum(stages.times.values()))
    for shape, stages in samples.items():
        medians = {stage: statistics.median(times) * 1e6 for stage, times in stages.items()}
        total = sum(medians.values())
        requests_of_shape = sum(1 for s, _ in requests if s == shape)
        print(f"{shape}: {total:.1f} us per request, the sum of the stage medians over "
              f"{cycles} cycles of {requests_of_shape} requests")
        for stage, value in medians.items():
            print(f"  {stage:9s} {value:8.1f} us  {100 * value / total:5.1f} %")


def against(paths, other, cycles):
    """Print this tree's time over the other tree's, per request shape and per cycle, from
    whole cycles run on each tree alternately."""
    source = Path(other) / "src" / "g2abc"
    if not (source / "cli.py").is_file():
        raise SystemExit(f"{other} has no package src/g2abc")
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(source, Path(scratch) / "g2abc_against",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, scratch)
        try:
            other_cli = importlib.import_module("g2abc_against.cli")
        finally:
            sys.path.remove(scratch)
        requests = cycle(paths)
        mains = (cli.main, other_cli.main)

        def shape_times(main):
            """The time of each request shape in one cycle of main, and of the cycle."""
            times = defaultdict(float)
            for shape, argv in requests:
                times[shape] += run(main, argv)
            times["cycle"] = sum(times.values())
            return times

        for main in mains:  # warm both up
            shape_times(main)
        ratios = defaultdict(list)
        for n in range(cycles):
            order = mains if n % 2 == 0 else mains[::-1]
            times = dict(zip(order, (shape_times(main) for main in order)))
            for shape, seconds in times[cli.main].items():
                ratios[shape].append(seconds / times[other_cli.main][shape])
    print(f"this tree over {other}, {cycles} cycles of {len(requests)} requests:")
    for shape, values in ratios.items():
        quartiles = statistics.quantiles(values, n=4)
        won = sum(ratio < 1.0 for ratio in values)
        print(f"  {shape:16s} median ratio {statistics.median(values):.3f} (quartiles "
              f"{quartiles[0]:.3f}-{quartiles[2]:.3f}); this tree won {won}, "
              f"the other {cycles - won}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OTHER_TREE",
                        help="a tree whose src/g2abc to compare with this one")
    parser.add_argument("--cycles", type=int, default=None,
                        help="cycles to time: default 40 for the stage table, 200 for --against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as directory:
        paths = write_triples(Path(directory))
        if args.against:
            against(paths, args.against, args.cycles or 200)
        else:
            stage_table(paths, args.cycles or 40)
    return 0


if __name__ == "__main__":
    sys.exit(main())
