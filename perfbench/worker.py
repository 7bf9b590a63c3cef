"""One workload run in a fresh process; prints one JSON object of raw results.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1

The package is found through PYTHONPATH; ``run.py`` sets it and starts
this script.  Every request goes through ``g2abc.cli.main``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / "_work"


class Runner:
    """Executes requests, times them and checks every output.

    Each request is bracketed by runs of the host-speed kernel; ``latencies``
    holds raw seconds, ``scaled`` the same latencies at reference host speed.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.triples = 0
        self.latencies = []
        self.scaled = []
        self._kernel_s = None
        self.problems = []
        self.failures = []

    def execute(self, request):
        if self._kernel_s is None:
            self._kernel_s = hostspeed.kernel_seconds()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(request.argv))
            except Exception:  # a crash fails this request; the run goes on
                traceback.print_exc()
                code = "exception"
            elapsed = time.perf_counter() - start
        after = hostspeed.kernel_seconds()
        slowness = hostspeed.slowness(self._kernel_s, after)
        self._kernel_s = after
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"{' '.join(request.argv)}: exit {code}: {err.getvalue()[-300:]}")
            return
        self.latencies.append(elapsed)
        self.scaled.append(elapsed / slowness)
        self.triples += request.triples
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError as exc:
            self.problems.append(f"{' '.join(request.argv)}: output is not JSON: {exc}")
            return
        for problem in checks.check(request, report, workloads.TOL):
            self.problems.append(f"{' '.join(request.argv)}: {problem}")

    def run_cycles(self, requests, seconds):
        """Whole cycles of the requests until `seconds` have passed; at least one."""
        deadline = time.perf_counter() + seconds
        cycles = 0
        while True:
            for request in requests:
                self.execute(request)
            cycles += 1
            if time.perf_counter() >= deadline:
                return cycles

    def busy_per_triple(self):
        """Seconds per triple at reference host speed."""
        return sum(self.scaled) / self.triples if self.triples else float("nan")

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.triples += other.triples
        self.problems += other.problems
        self.failures += other.failures

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed, "triples": self.triples,
                "busy_s": sum(self.latencies), "scaled_busy_s": sum(self.scaled), "problems": self.problems[:5],
                "problem_count": len(self.problems), "failures": self.failures[:5]}


def tables_build_ms(package_dir, repeats=3):
    """Median time to execute the body of _tables.py, which builds the index tables."""
    source = (package_dir / "_tables.py").read_text(encoding="utf-8")
    code = compile(source, str(package_dir / "_tables.py"), "exec")
    times = []
    for _ in range(repeats):
        namespace = {"__name__": "tables_probe"}
        start = time.perf_counter()
        exec(code, namespace)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def provenance(g2abc, args, requests, cycles):
    return {
        "g2abc": g2abc.__version__, "backend": g2abc.BACKEND,
        "numpy": np.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "requests_per_cycle": len(requests),
        "triples_per_cycle": sum(r.triples for r in requests),
        "cycles": cycles,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import g2abc
    from g2abc import cli

    WORK_DIR.mkdir(exist_ok=True)
    result = {}
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        requests = workloads.cycle(args.workload, args.seed, Path(tmp))
        runner = Runner(cli)
        if not args.trace:
            cycles = runner.run_cycles(requests, args.seconds)
            result["latencies"] = runner.latencies
            result["scaled_latencies"] = runner.scaled
        else:
            cycles = runner.run_cycles(requests, args.seconds / 2)
            untraced_s = runner.busy_per_triple()
            traced = Runner(cli)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced.run_cycles(requests, 0)
            cycles += 1
            layer = tracer.metrics(traced.triples)
            layer[tracing.TABLES_BUILD] = tables_build_ms(Path(g2abc.__file__).parent)
            layer[tracing.OVERHEAD] = traced.busy_per_triple() / untraced_s
            result["per_layer"] = layer
            spans = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write_spans(spans)
            result["spans_file"] = str(spans.relative_to(HERE.parent))
            runner.merge(traced)
    result.update(runner.summary())
    result["provenance"] = provenance(g2abc, args, requests, cycles)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
