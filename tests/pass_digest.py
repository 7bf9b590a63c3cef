"""Print one sha256 over every array of 1800 cross-validation passes, then one over the
operators built at import.

    PYTHONPATH=src python -W error::RuntimeWarning tests/pass_digest.py

For each seed 0-99 and scale 1e-3, 1 and 1e3, the passes are a stack of 4 triples of each
family and one stack of 20 that cycles through the five families.  The first digest covers
every field of each pass's ``CrossValidationArrays``, and its ``flags`` and ``passed()``:
each array with its dtype and shape, each family, quantity and key by its repr.  The second
covers, each with its dtype and shape, g2core's TAIL, the operator ``gabc._OPERATOR`` of
both routes' linear halves and its live-column map ``gabc._LIVE_AT``, g2core's NABLA_PHI,
and the operators of ``ce_diff`` of the standard phi and psi.  Two trees that print the same lines
give the same pass arrays and operators, bit for bit, signs of zero included, so a change
that must keep them can be checked by comparing the output (about 3 s).  pytest does not
collect this file.
"""

import hashlib
import sys

import numpy as np

from g2abc import gabc
from g2abc.g2core import NABLA_PHI, STANDARD_PHI, STANDARD_PSI, TAIL
from g2abc.gabc import FamilyKind, cross_validate_stack, generate_many
from g2abc.liealg import _ce_operator

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
    operators = hashlib.sha256()
    update(operators, [TAIL, gabc._OPERATOR, gabc._LIVE_AT, NABLA_PHI, _ce_operator(STANDARD_PHI),
                       _ce_operator(STANDARD_PSI)])
    print(operators.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
