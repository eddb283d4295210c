"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument or input file violates a documented precondition."""


class BudgetError(RuntimeError):
    """Raised when a request exceeds a hard computational budget: exhaustive
    enumeration past the subset limit, or a size past its named limit."""
