"""Run a fixed set of 432 command-line requests in one process and print one line each.

    PYTHONPATH=src python tests/request_set.py > requests.txt

Each line holds a request's argv, its exit code, the sha256 of its stdout, the sha256 of
its stdout with every float value replaced by one marker, the sha256 of its stderr and,
for a request that runs ``gen``, the sha256 of the file it wrote.  Two trees that give the
same lines give the same exit codes, reports, error messages and triple files on every
request of the set, so a change that must keep every output can be checked with ``diff``
of the two runs.  The second digest covers everything of a report but its float values:
the exit codes, keys, strings, list lengths, dual-report columns and worst-quantity names.
So a change that may move round-off only, and must keep everything else, keeps the second
digests of the parent's run while its first ones may differ.  The set:

- ``verify --json --trials 9`` over the six cases, seeds 0-7 and ``--tol`` 1e-9 and
  1e-14 (96 requests);
- ``gen``, then ``analyze --json`` on the file it wrote, over the five families, seeds
  0-11 and ``--scale`` 1e-8, 1e-6, 1e-3, 1 and 1e3 (300 requests of two steps each; the
  line gives both argvs and exit codes, and the digest of their stdout together);
- ``verify --trials 9`` with its text output, over the six cases and seeds 0-2 (18);
- ``gen``, then ``analyze`` with its text output, over the five families and seeds 0-1
  (10 requests of two steps);
- ``analyze --json`` on each triple file of TRIPLE_FILES, which the script writes: seven
  that are rejected, and one whose ints lie beyond int64 (8).

The requests run through ``cli.main`` in a temporary directory, with G2ABC_TOL unset.
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile

from g2abc import cli

TOLS = ("1e-9", "1e-14")
SCALES = ("1e-8", "1e-6", "1e-3", "1", "1e3")
#: A float value as json writes one, unquoted: a number with a fraction or an exponent,
#: NaN or an infinity.  A digit inside a string, such as a monomial's name, is preceded
#: by a word character or a quote, and an integer such as a trial count has neither part.
FLOAT = re.compile(r'(?<![\w".])-?(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|Infinity)|\bNaN\b')


def _zeros(entry=None, at=(0, 1)):
    """The 4x4 zero matrix as lists of ints, with entry at the entry at unless it is None."""
    rows = [[0] * 4 for _ in range(4)]
    if entry is not None:
        rows[at[0]][at[1]] = entry
    return rows


#: The triple files that the script writes for analyze: name -> the matrices A, B, C.
TRIPLE_FILES = {
    "true-entry": (_zeros(True), _zeros(), _zeros()),
    "string-entry": (_zeros(), _zeros("1"), _zeros()),
    "null-entry": (_zeros(), _zeros(), [[0, 0, 0, 0]] * 3 + [[0, None, 0, 0]]),
    "ragged-rows": ([[0.0] * 4] * 3 + [[0.0] * 3], _zeros(), _zeros()),
    "int-beyond-float64": (_zeros(), _zeros(10 ** 400), _zeros()),
    "not-traceless": (_zeros(), _zeros(), _zeros(1.5, at=(2, 2))),
    "not-commuting": (_zeros(1.0, at=(0, 1)), _zeros(1.0, at=(1, 0)), _zeros()),
    "ints-beyond-int64": ([[3 ** 45, 0, 0, 0], [0, -3 ** 45, 0, 0], [0] * 4, [0] * 4],
                          _zeros(), _zeros()),
}


def requests():
    """(the argv of each step, the file the request writes or None) of every request, in
    order."""
    for case, seed, tol in itertools.product([*cli.CASES, "all"], range(8), TOLS):
        yield [["verify", "--case", case, "--trials", "9", "--seed", str(seed), "--tol", tol,
                "--json"]], None
    for case, seed, scale in itertools.product(cli.CASES, range(12), SCALES):
        path = f"{case}-{seed}-{scale}.json"
        yield [["gen", "--case", case, "--seed", str(seed), "--scale", scale, "--out", path],
               ["analyze", "--input", path, "--json"]], path
    for case, seed in itertools.product([*cli.CASES, "all"], range(3)):
        yield [["verify", "--case", case, "--trials", "9", "--seed", str(seed)]], None
    for case, seed in itertools.product(cli.CASES, range(2)):
        path = f"{case}-{seed}-text.json"
        yield [["gen", "--case", case, "--seed", str(seed), "--out", path],
               ["analyze", "--input", path]], path
    for name in TRIPLE_FILES:
        yield [["analyze", "--input", f"{name}.json", "--json"]], None


def run(steps):
    """The exit code of cli.main on each argv of steps, in turn, and the sha256 of what
    they printed to stdout, then of that text with every float value replaced by "#", then
    of what they printed to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [cli.main(argv) for argv in steps]
    text = out.getvalue()
    return codes, *(hashlib.sha256(x.encode()).hexdigest()
                    for x in (text, FLOAT.sub("#", text), err.getvalue()))


def main():
    os.environ.pop("G2ABC_TOL", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the gen files get the relative names their argv shows
        try:
            for name, matrices in TRIPLE_FILES.items():
                with open(f"{name}.json", "w", encoding="utf-8") as fh:
                    json.dump(dict(zip("ABC", matrices)), fh)
            for steps, path in requests():
                codes, digest, floats_out, errors = run(steps)
                line = (f"{' && '.join(' '.join(argv) for argv in steps)}"
                        f"\texit {' '.join(map(str, codes))}\tstdout {digest}"
                        f"\tfloat-free {floats_out}\tstderr {errors}")
                if path is not None:
                    with open(path, "rb") as fh:
                        line += f"\tfile {hashlib.sha256(fh.read()).hexdigest()}"
                print(line)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
