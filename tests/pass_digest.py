"""Print one sha256 over every array of 1800 cross-validation passes.

    PYTHONPATH=src python -W error::RuntimeWarning tests/pass_digest.py

For each seed 0-99 and scale 1e-3, 1 and 1e3, the passes are a stack of 4 triples of each
family and one stack of 20 that cycles through the five families.  The digest covers every
field of each pass's ``CrossValidationArrays``, and its ``flags`` and ``passed()``: each
array with its dtype and shape, each family, quantity and key by its repr.  Two trees that
print the same digest give the same pass arrays, bit for bit, signs of zero included, so a
change that must keep every pass output can be checked by comparing the two lines (about
3 s).  pytest does not collect this file.
"""

import hashlib
import sys

import numpy as np

from g2abc.gabc import FamilyKind, cross_validate_stack, generate_many

SEEDS = range(100)
SCALES = (1e-3, 1.0, 1e3)
KINDS = list(FamilyKind)


def update(digest, value):
    """Add value to digest: an array by dtype, shape and bytes; a dict, list or tuple item
    by item, with its length; anything else by its repr."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        digest.update(f"dict{len(value)}".encode())
        for key, item in value.items():
            update(digest, key)
            update(digest, item)
    elif isinstance(value, (list, tuple)):
        digest.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            update(digest, item)
    else:
        digest.update(repr(value).encode())


def stacks():
    """Every stack of the digest, in order."""
    mixed = [KINDS[k % len(KINDS)] for k in range(20)]
    for seed in SEEDS:
        for scale in SCALES:
            for kind in KINDS:
                yield generate_many(kind, seed, range(4), scale)
            yield generate_many(mixed, seed, range(20), scale)


def main():
    digest = hashlib.sha256()
    for t in stacks():
        arrays = cross_validate_stack(t)
        for name, value in arrays._asdict().items():
            update(digest, name)
            update(digest, value)
        update(digest, arrays.flags)
        update(digest, arrays.passed())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
