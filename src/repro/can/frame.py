"""CAN frame model.

A :class:`Frame` is the unit the data-link layer transfers.  Following
the paper's terminology, a *message* is the application-level unit; one
message may require several frame (re)transmissions before the protocol
delivers it.  The application tags frames with a ``message_id`` so that
delivery ledgers can reason about duplicates and omissions without
inspecting payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.can.identifiers import CanId
from repro.errors import FrameError

#: Maximum number of payload bytes of a classical CAN data frame.
MAX_DATA_LENGTH = 8


@dataclass(frozen=True)
class Frame:
    """An application-visible CAN frame.

    Parameters
    ----------
    can_id:
        Arbitration identifier.
    data:
        Payload (0-8 bytes).  Must be empty for remote frames.
    remote:
        ``True`` for a remote transmission request (RTR) frame.
    dlc:
        Data length code.  Defaults to ``len(data)``; remote frames may
        request a specific length with an empty payload.  Values 9-15
        are permitted by the standard and mean 8 data bytes.
    message_id:
        Optional application-level message tag used by the Atomic
        Broadcast property checkers.
    origin:
        Optional name of the broadcasting node (application level).
    """

    can_id: CanId
    data: bytes = b""
    remote: bool = False
    dlc: Optional[int] = None
    message_id: Optional[str] = None
    origin: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.data) > MAX_DATA_LENGTH:
            raise FrameError(
                "CAN payloads carry at most %d bytes, got %d"
                % (MAX_DATA_LENGTH, len(self.data))
            )
        if self.remote and self.data:
            raise FrameError("remote frames carry no data bytes")
        if self.dlc is None:
            object.__setattr__(self, "dlc", len(self.data))
        if not 0 <= self.dlc <= 15:
            raise FrameError("DLC must be in [0, 15], got %d" % self.dlc)
        if not self.remote and self.effective_data_length != len(self.data):
            raise FrameError(
                "DLC %d inconsistent with %d payload bytes"
                % (self.dlc, len(self.data))
            )

    @property
    def effective_data_length(self) -> int:
        """Number of data bytes implied by the DLC (DLC > 8 means 8)."""
        return min(self.dlc, MAX_DATA_LENGTH)

    @property
    def payload_bits(self) -> int:
        """Number of data-field bits on the wire."""
        if self.remote:
            return 0
        return 8 * self.effective_data_length

    def identity(self) -> Tuple[int, bool, bool, bytes, Optional[str]]:
        """A wire-equality key: two frames with equal identity are
        indistinguishable to receivers."""
        return (
            self.can_id.value,
            self.can_id.extended,
            self.remote,
            self.data,
            self.message_id,
        )

    def wire_key(self) -> Tuple[int, bool, bool, int, bytes]:
        """What receivers observe of the frame on the wire: identifier,
        format, remote flag, DLC and payload (no application tags)."""
        return (self.can_id.value, self.can_id.extended, self.remote, self.dlc, self.data)

    def tagged(self, message_id: str, origin: Optional[str] = None) -> "Frame":
        """Copy of this frame carrying application-level tags."""
        return Frame(
            can_id=self.can_id,
            data=self.data,
            remote=self.remote,
            dlc=self.dlc,
            message_id=message_id,
            origin=origin if origin is not None else self.origin,
        )

    def __str__(self) -> str:
        kind = "remote" if self.remote else "data"
        tag = " msg=%s" % self.message_id if self.message_id else ""
        return "Frame(%s %s dlc=%d data=%s%s)" % (
            self.can_id,
            kind,
            self.dlc,
            self.data.hex() or "-",
            tag,
        )


def data_frame(
    identifier: int,
    data: bytes = b"",
    extended: bool = False,
    message_id: Optional[str] = None,
    origin: Optional[str] = None,
) -> Frame:
    """Convenience constructor for a data frame."""
    return Frame(
        can_id=CanId(identifier, extended=extended),
        data=data,
        message_id=message_id,
        origin=origin,
    )


def remote_frame(
    identifier: int,
    dlc: int = 0,
    extended: bool = False,
) -> Frame:
    """Convenience constructor for a remote (RTR) frame."""
    return Frame(can_id=CanId(identifier, extended=extended), remote=True, dlc=dlc)
