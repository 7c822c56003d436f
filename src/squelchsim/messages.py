"""Message vocabulary shared by the protocol, engine, and metrics layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class MessageKind(Enum):
    TRANSACTION = "transaction"
    PROPOSAL = "proposal"
    VALIDATION = "validation"
    SQUELCH = "squelch"
    UNSQUELCH = "unsquelch"

    # members are singletons; identity hashing keeps hot dict keys cheap
    __hash__ = object.__hash__


APPLICATION_KINDS = frozenset(
    {MessageKind.TRANSACTION, MessageKind.PROPOSAL, MessageKind.VALIDATION}
)
CONTROL_KINDS = frozenset({MessageKind.SQUELCH, MessageKind.UNSQUELCH})

DEFAULT_MESSAGE_SIZES = {
    MessageKind.TRANSACTION: 600,
    MessageKind.PROPOSAL: 200,
    MessageKind.VALIDATION: 150,
    MessageKind.SQUELCH: 30,
    MessageKind.UNSQUELCH: 30,
}


@dataclass(frozen=True)
class SimMessage:
    """One disseminated application message.

    The (kind, origin, sequence) triple identifies the message network-wide;
    every node drops and counts later copies of the same triple.
    """

    kind: MessageKind
    origin: int
    sequence: int
    dedup_key: tuple[MessageKind, int, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")
        object.__setattr__(self, "dedup_key", (self.kind, self.origin, self.sequence))
