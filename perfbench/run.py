"""Benchmark of g2abc through its command-line entry point ``g2abc.cli.main``.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads: campaign, sparse_families, analyze_requests (see README.md).
Each run starts five fresh processes that only time ``import g2abc``
(probe_import.py), then one fresh single-threaded worker process for the
workload (worker.py).  With --trace 0 the last line of output holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Run from the root of a g2abc source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_PROBES = 5
SETUP_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 150
END_TO_END = {
    "triples_per_s": "triples/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("G2ABC_TOL", None)
    return env


def run_script(script, args, timeout):
    """Runs a script of this directory in a fresh process; returns its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def percentile(values, p):
    """Inclusive p-th percentile of the samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timings(triples, busy_s, latencies, setup_samples):
    return {
        "triples_per_s": triples / busy_s,
        "request_ms_p50": statistics.median(latencies) * 1e3,
        "request_ms_p90": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(setup_samples),
    }


def end_to_end(result, probes):
    """Metrics at reference host speed, and the same timings as measured."""
    values = timings(result["triples"], result["scaled_busy_s"], result["scaled_latencies"],
                     [p["setup_s"] for p in probes])
    values["peak_rss_mb"] = result["peak_rss_mb"]
    raw = timings(result["triples"], result["busy_s"], result["latencies"],
                  [p["setup_raw_s"] for p in probes])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, raw


def per_layer(result):
    return {name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit in tracing.per_layer_units().items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "g2abc" / "__init__.py").is_file():
        print(f"error: no g2abc sources under {SRC}; run from a g2abc source tree",
              file=sys.stderr)
        return 2

    try:
        probes = [run_script("probe_import.py", [], SETUP_TIMEOUT_S)
                  for _ in range(0 if args.trace else IMPORT_PROBES)]
        result = run_script("worker.py", ["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            timeout=WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = dict(result["provenance"], workload=args.workload, commit=git_commit())
    print("provenance:", json.dumps(prov, sort_keys=True))
    print(f"{args.workload}: attempted {result['attempted']} requests "
          f"({result['triples']} triples), failed {result['failed']}")
    for failure in result["failures"]:
        print("failed:", failure)
    for problem in result["problems"]:
        print("wrong output:", problem)
    if args.trace:
        print(f"spans written to {result['spans_file']}")
        metrics = per_layer(result)
    else:
        metrics, raw = end_to_end(result, probes)
        print("as measured, before scaling to reference host speed:",
              ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": result["problem_count"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
