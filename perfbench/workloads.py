"""Requests of the benchmark workloads, made from the workload seed alone.

A workload is one cycle of requests to ``g2abc.cli.main``; a run repeats
whole cycles, so every run attempts the same operations in the same
proportions whatever its length.
"""

import json
from dataclasses import dataclass

import numpy as np

TOL = 1e-9

# (requests per cycle, trials per family per request) of the verify workloads
CAMPAIGN = (8, 2)
SPARSE = (8, 4)
ANALYZE_REQUESTS = 32
#: Largest entry of an analyze triple is drawn log-uniformly from this range.
SCALE_RANGE = (1e-2, 1e2)

ALL_CASES = ("skew", "diag", "adiag", "sym", "general")
WORKLOADS = ("campaign", "sparse_families", "analyze_requests")


@dataclass(frozen=True)
class Request:
    """One call of ``g2abc.cli.main`` and what its output is checked against."""

    argv: tuple
    cases: tuple = ()     # verify: the campaign's cases
    trials: int = 0       # verify: trials per case
    triple: tuple = None  # analyze: the (A, B, C) written to the input file

    @property
    def triples(self):
        return len(self.cases) * self.trials if self.cases else 1


def _seeds(seed, stream, count):
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def verify_request(cases, trials, seed):
    case = cases[0] if len(cases) == 1 else "all"
    argv = ("verify", "--case", case, "--trials", str(trials), "--seed", str(seed),
            "--tol", repr(TOL), "--json")
    return Request(argv=argv, cases=tuple(cases), trials=trials)


def analyze_triples(seed, count):
    """General-family triples built apart from ``g2abc.generate``.

    Each is three polynomials in one random 4x4 matrix (so they commute),
    made traceless, then scaled together so that the largest entry of the
    triple is log-uniform over SCALE_RANGE.
    """
    rng = np.random.default_rng([seed, 3])
    lo, hi = np.log10(SCALE_RANGE[0]), np.log10(SCALE_RANGE[1])
    triples = []
    for _ in range(count):
        m = rng.standard_normal((4, 4))
        powers = (np.eye(4), m, m @ m, m @ m @ m)
        mats = []
        for coeffs in rng.standard_normal((3, 4)):
            x = sum(c * p for c, p in zip(coeffs, powers))
            mats.append(x - (np.trace(x) / 4.0) * np.eye(4))
        scale = 10.0 ** rng.uniform(lo, hi) / max(float(np.max(np.abs(x))) for x in mats)
        triples.append(tuple(x * scale for x in mats))
    return triples


def write_triple(path, triple):
    payload = {name: m.tolist() for name, m in zip("ABC", triple)}
    path.write_text(json.dumps(payload), encoding="utf-8")


def cycle(workload, seed, input_dir):
    """The requests of one cycle; analyze inputs are written into input_dir."""
    if workload == "campaign":
        count, trials = CAMPAIGN
        return [verify_request(ALL_CASES, trials, s) for s in _seeds(seed, 1, count)]
    if workload == "sparse_families":
        count, trials = SPARSE
        return [verify_request((case,), trials, s)
                for s in _seeds(seed, 2, count) for case in ("diag", "adiag")]
    if workload == "analyze_requests":
        requests = []
        for i, triple in enumerate(analyze_triples(seed, ANALYZE_REQUESTS)):
            path = input_dir / f"triple{i:03d}.json"
            write_triple(path, triple)
            argv = ("analyze", "--input", str(path), "--tol", repr(TOL), "--json")
            requests.append(Request(argv=argv, triple=triple))
        return requests
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
