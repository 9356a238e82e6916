"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class TailLimitError(DomainError):
    """A required endpoint limit did not settle on the refining tail grid."""


class IntegralPartError(DomainError):
    """An integral over the whole interval refused before or by its
    quadrature (``quadrature._integral_parts``): the message is ``subject``
    then ``detail``, and ``row`` is the refused row of the batch."""

    subject = "integral part"

    def __init__(self, detail: str, row: int):
        super().__init__(f"{self.subject} {detail}")
        self.detail = detail
        self.row = row


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the worst node (``node``) and the reported error estimate
    (``estimate``) when available.
    """

    def __init__(self, message, node=None, estimate=None):
        super().__init__(message)
        self.node = node
        self.estimate = estimate


class BlowupError(RuntimeError):
    """Trajectory left the representable range before the requested horizon."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ScenarioError(ValueError):
    """Scenario file failed validation before any computation."""
