"""Exception hierarchy shared across the library."""


class ReformLabError(Exception):
    """Base class for all library errors."""


class DomainError(ReformLabError, ValueError):
    """A parameter lies outside its admissible domain."""


class AssumptionError(ReformLabError):
    """A maintained model assumption fails at the given parameters.

    ``check`` names the failed assumption, e.g. ``"signal_informative"``.
    """

    def __init__(self, check: str, message: str | None = None):
        self.check = check
        super().__init__(message or f"assumption failed: {check}")


class InformativenessError(AssumptionError):
    """The informativeness condition fails, so outcome-pivotal retention
    cannot be supported (a failed reform need not be bad news)."""

    def __init__(self, message: str | None = None):
        super().__init__("informativeness", message)


class UnderflowError(ReformLabError, ArithmeticError):
    """A quantity that is positive at valid parameters underflows to 0 in
    double precision, so the belief or threshold built on it is undefined."""


class NonFiniteError(ReformLabError, ArithmeticError):
    """A quantity that is finite at valid parameters overflows to a
    non-finite value in double precision, so a ranking built on it is
    undefined."""


class UnresolvedObservationError(ReformLabError, LookupError):
    """An observation cannot be resolved by an equilibrium's belief table: it
    lacks a coordinate the regime sees, or the regime (the benchmark) has none."""


class PreconditionLossError(ReformLabError):
    """A comparative-statics bump pushed the parameters out of the region
    where the baseline comparison is defined.

    ``check`` names the first assumption or domain restriction that broke.
    """

    def __init__(self, check: str, message: str | None = None):
        self.check = check
        super().__init__(message or f"precondition lost under bump: {check}")
