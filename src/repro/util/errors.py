"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from :class:`ReproError`
so callers can catch library errors without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, type or structure)."""


class InfeasibleDesignError(ReproError):
    """A requested FPGA design point cannot be realised on the target device.

    Raised, for example, when the iterative unroll factor exceeds both the
    DSP bound (eq. 6) and the on-chip memory bound (eq. 7), or when a mesh
    row does not fit in the device's line-buffer capacity and tiling was not
    enabled.

    ``check`` names the feasibility check that fired (``capacity``,
    ``buffer``, ``dsp``, ``bandwidth``, ``tile``, ``batch``) for counters
    and summaries; the message stays the human-readable reason.
    """

    def __init__(self, message: str = "", check: str = ""):
        super().__init__(message)
        self.check = check


class ResourceExceededError(InfeasibleDesignError):
    """A specific device resource (DSP, BRAM, URAM, channels) was exhausted."""

    def __init__(self, resource: str, required: float, available: float):
        self.resource = resource
        self.required = required
        self.available = available
        super().__init__(
            f"resource '{resource}' exceeded: required {required:g}, "
            f"available {available:g}"
        )


class SimulationError(ReproError):
    """The dataflow simulator reached an inconsistent internal state."""
