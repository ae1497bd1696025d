"""Exception hierarchy for the MajorCAN reproduction.

All library-raised exceptions derive from :class:`ReproError`, so users
can catch everything the library raises with a single ``except`` clause
while still being able to distinguish specific failure modes.
"""


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class FrameError(ReproError):
    """A CAN frame definition is invalid (identifier, payload, DLC...)."""


class DecodingError(ReproError):
    """A received bitstream could not be parsed as a CAN frame."""


class StuffingError(DecodingError):
    """A bit-stuffing rule violation was found while destuffing offline.

    Note that the on-line receiver (:class:`repro.can.parser.FrameParser`)
    reports stuff violations as parser events rather than exceptions,
    because they are a normal, recoverable part of CAN error signalling.
    """


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class ProtocolError(ReproError):
    """A higher-level protocol (EDCAN/RELCAN/TOTCAN) violated its API."""


class AnalysisError(ReproError):
    """An analytical computation received out-of-domain parameters."""


class TraceError(SimulationError):
    """A simulation trace invariant (e.g. event time order) was violated."""


class TraceStoreError(ReproError):
    """A persisted trace is malformed, unreadable, or not replayable."""
