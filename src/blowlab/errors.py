"""Exception types shared across the package.

The CLI maps these onto exit codes: DomainError -> 2, SolverError -> 3,
PerturbationTooLarge -> 4.  Everything carries a single-line message naming
the violated constraint.
"""


class DomainError(ValueError):
    """An argument lies outside the admissible range of an operation."""


class StepSizeError(DomainError):
    """Requested time step is not positive or exceeds the 0.1 spacing of
    the trajectory's samples."""


class DegenerateFitError(DomainError):
    """Rate fit attempted on data that underflows or has too few samples."""


class SolverError(RuntimeError):
    """A linear/eigenvalue solve or series evaluation failed."""


class NonConvergenceError(SolverError):
    """A series or an iterative search did not converge within its
    budget."""


class PerturbationTooLarge(RuntimeError):
    """Base class for aborts caused by data outside the smallness regime."""


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


class NoSignChangeError(PerturbationTooLarge):
    """The blow-up-time search found no zero of the unstable-mode
    coefficient: a secant iterate left (1/2, 3/2), or the coefficient
    stalled at one value."""
