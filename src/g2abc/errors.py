"""Exception types shared across the package."""


class G2ABCError(ValueError):
    """Base class for all validation and computation errors.

    An error about trial n of a stack carries ``trial`` = n and ``reason``,
    its message without the trial."""

    @classmethod
    def of_trial(cls, n, count, reason):
        """The error of trial n of count trials; its message names the trial
        when there are several."""
        error = cls(f"trial {n}: {reason}" if count > 1 else reason)
        error.trial, error.reason = n, reason
        return error

    @classmethod
    def raise_first_failing(cls, failing, reason):
        """Raise the error of the first trial whose entry of the boolean numpy array failing
        is true, if any: of_trial of its flat index n among failing.size, and reason(n)."""
        if failing.any():
            n = int(failing.argmax())
            raise cls.of_trial(n, failing.size, reason(n))


class DegreeError(G2ABCError):
    """Form degree out of range for the requested operation."""


class ValidationError(G2ABCError):
    """Input data violates a declared invariant."""


class TorsionSolveError(G2ABCError):
    """The contraction system defining the full torsion tensor is inconsistent."""
