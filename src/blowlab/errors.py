"""Exception types shared across the package, one per CLI exit code:
DomainError -> 2, an argument, step size or fit window out of range;
SolverError -> 3, a failed solve, or a series or blow-up-time search that
did not converge; PerturbationTooLarge -> 4, data outside the smallness
regime, or a blow-up-time search that found no zero of the unstable mode.
Everything carries a single-line message naming the violated constraint.
"""


class DomainError(ValueError):
    """An argument lies outside the admissible range of an operation."""


class SolverError(RuntimeError):
    """A linear/eigenvalue solve, a series or an iterative search failed."""


class PerturbationTooLarge(RuntimeError):
    """Data outside the smallness regime."""


class OverflowAbort(PerturbationTooLarge):
    """The evolved perturbation exceeded the hard overflow threshold."""


class AmplitudeAbort(PerturbationTooLarge):
    """The evolved perturbation left the unit ball (smallness regime).

    Carries the partial trajectory so callers (e.g. the blow-up-time
    search) can classify the run by the sign of the unstable mode at the
    abort time.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
