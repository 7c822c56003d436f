"""Message vocabulary shared by the protocol, engine, and metrics layers."""

from __future__ import annotations

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

