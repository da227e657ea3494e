"""Exception and warning types shared across the package."""


class ValignError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(ValignError):
    """Malformed or inconsistent caller-supplied data."""


class ModelError(ValignError):
    """A reference that does not resolve within a scenario, or a scenario
    that violates its own structural invariants (missing ground atoms,
    dangling belief entries, duplicate declarations)."""


class PlanSourceError(InputError):
    """Problem located at a specific line and column of plan source text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class PlanSyntaxError(PlanSourceError):
    """Plan source that does not match the grammar."""


class PlanValidationError(PlanSourceError):
    """Grammatically well-formed plan source that breaks a validation rule
    (empty reasons list, predicate applied to the wrong agent variable)."""


class EmptyBeliefBaseWarning(UserWarning):
    """A belief-base update removed every world the agent considered
    possible; downstream principle checks will come back Indeterminate."""
