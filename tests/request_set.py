"""Run a fixed set of 396 command-line requests in one process and print one line each.

    PYTHONPATH=src python tests/request_set.py > requests.txt

Each line holds a request's argv, its exit code, the sha256 of its stdout and, for a
request that runs ``gen``, the sha256 of the file it wrote.  Two trees that give the same
lines give the same exit codes, reports and triple files on every request of the set, so
a change that must keep every output can be checked with ``diff`` of the two runs.  The
set:

- ``verify --json --trials 9`` over the six cases, seeds 0-7 and ``--tol`` 1e-9 and
  1e-14 (96 requests);
- ``gen``, then ``analyze --json`` on the file it wrote, over the five families, seeds
  0-11 and ``--scale`` 1e-8, 1e-6, 1e-3, 1 and 1e3 (300 requests of two steps each; the
  line gives both argvs and exit codes, and the digest of their stdout together).

The requests run through ``cli.main`` in a temporary directory, with G2ABC_TOL unset.
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

from g2abc import cli

TOLS = ("1e-9", "1e-14")
SCALES = ("1e-8", "1e-6", "1e-3", "1", "1e3")


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


def run(steps):
    """The exit code of cli.main on each argv of steps, in turn, and the sha256 of what
    they printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv in steps]
    return codes, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main():
    os.environ.pop("G2ABC_TOL", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the gen files get the relative names their argv shows
        try:
            for steps, path in requests():
                codes, digest = run(steps)
                line = (f"{' && '.join(' '.join(argv) for argv in steps)}"
                        f"\texit {' '.join(map(str, codes))}\tstdout {digest}")
                if path is not None:
                    with open(path, "rb") as fh:
                        line += f"\tfile {hashlib.sha256(fh.read()).hexdigest()}"
                print(line)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
