"""Exception types shared across the toolkit."""


class EbitflowError(Exception):
    """Base class for every error raised by this package."""


class ParseError(EbitflowError):
    """Input document is malformed: bad JSON, wrong types, unknown fields."""


class ValidationError(EbitflowError):
    """Input parsed but violates a structural constraint."""


class NegativeTarget(EbitflowError):
    """A requested net-flow target is negative."""


class InfeasibleTarget(EbitflowError):
    """A requested net-flow target exceeds what the network can carry."""


class MalformedFlow(EbitflowError):
    """A flow object violates conservation or carries opposing flow."""


class YieldShortfall(EbitflowError):
    """No admissible number of uses reaches the requested yield."""


class ScheduleViolation(EbitflowError):
    """A schedule reuses a qubit after measurement or references unknown state."""


class InvariantViolation(EbitflowError):
    """An internal invariant failed: a solver or planner state is inconsistent."""


class TooLarge(EbitflowError):
    """Instance exceeds the exact-computation regime."""


class MissingModel(EbitflowError):
    """An edge lacks a required channel model annotation."""


class ThresholdViolation(EbitflowError):
    """A lower-level network's error exceeds the configured threshold."""
