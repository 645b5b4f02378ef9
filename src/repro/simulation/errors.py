"""Exception hierarchy for the simulation substrate.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers embedding the library can catch library failures with a single
``except`` clause while still distinguishing configuration mistakes from
runtime protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A simulation or protocol configuration is invalid.

    Raised eagerly at construction time (rather than mid-simulation) whenever
    parameters are inconsistent: non-positive network sizes, probabilities
    outside ``[0, 1]``, budgets that cannot cover a single slot, and so on.
    """


class ProtocolViolationError(ReproError):
    """A protocol participant performed an action its role does not allow.

    Examples: a terminated node attempting to transmit, a correct node trying
    to forge Alice's authenticated payload, or an adversary attempting to
    forge silence (which the model explicitly forbids).
    """


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent internal state."""


class AuthenticationError(ProtocolViolationError):
    """An entity attempted to produce a signature it does not hold."""
