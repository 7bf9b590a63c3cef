"""Times ``import g2abc`` in a fresh process in which only numpy is imported first.

    python probe_import.py

Prints one JSON object: the import time as measured (``setup_raw_s``) and at
reference host speed (``setup_s``, see hostspeed.py).  ``run.py`` starts it
with PYTHONPATH set to the package sources.
"""

import sys
import time

import numpy  # noqa: F401  -- outside the program, so not counted

import hostspeed


def main():
    hostspeed.kernel()  # first-call set-up of the numpy routines it uses
    before = hostspeed.kernel_seconds()
    start = time.perf_counter()
    import g2abc  # noqa: F401
    elapsed = time.perf_counter() - start
    slowness = hostspeed.slowness(before, hostspeed.kernel_seconds())
    import json  # after the timed import, which loads it too
    print(json.dumps({"setup_s": elapsed / slowness, "setup_raw_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
