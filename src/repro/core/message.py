"""Messages, message groups, indexed messages, and message combinations.

A *message* is a pair ``<C, w>`` where ``C`` is the (implicit) content and
``w`` the number of bits needed to represent it (Section 2, Conventions).
Messages travel between a source IP and a destination IP across an
interface; in this library both endpoints are recorded so that the debug
engine can reason about *legal IP pairs* (Section 5.6).

A message may be a *sub-group* of a wider message (Section 3.3): e.g. in
OpenSPARC T2 ``cputhreadid`` (6 bits) is a sub-group of ``dmusiidata``
(20 bits).  Sub-groups are first-class :class:`Message` objects whose
``parent`` names the enclosing message; the packing step of the selection
algorithm uses them to fill leftover trace-buffer bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple


@dataclass(frozen=True, order=True)
class Message:
    """An application-level message ``<C, w>``.

    Parameters
    ----------
    name:
        Unique, human-readable message name (e.g. ``"dmusiidata"``).
    width:
        Bit width ``w`` of the message content.  Must be positive.  For
        multi-cycle messages this is the number of bits traced in a
        single cycle (footnote 2 of the paper).
    source:
        Name of the IP that sends the message, or ``None`` when the
        endpoint is not modelled (e.g. toy examples).
    destination:
        Name of the IP that receives the message, or ``None``.
    parent:
        Name of the enclosing message when this message is a sub-group
        (e.g. ``cputhreadid`` has ``parent="dmusiidata"``), else ``None``.
    beats:
        Clock cycles the message takes on its interface.  For
        multi-cycle messages, ``width`` is the number of bits traced in
        a single cycle (footnote 2 of the paper) and the full content
        is ``width * beats`` bits.
    """

    name: str
    width: int
    source: Optional[str] = field(default=None, compare=False)
    destination: Optional[str] = field(default=None, compare=False)
    parent: Optional[str] = field(default=None, compare=False)
    beats: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("message name must be non-empty")
        if self.width <= 0:
            raise ValueError(
                f"message {self.name!r} must have positive bit width, "
                f"got {self.width}"
            )
        if self.beats < 1:
            raise ValueError(
                f"message {self.name!r} must take at least one beat, "
                f"got {self.beats}"
            )

    @property
    def content_width(self) -> int:
        """Total content bits across all beats (``width * beats``)."""
        return self.width * self.beats

    @property
    def is_subgroup(self) -> bool:
        """Whether this message is a sub-group of a wider message."""
        return self.parent is not None

    @property
    def ip_pair(self) -> Optional[Tuple[str, str]]:
        """The ``(source, destination)`` IP pair, if both are known."""
        if self.source is None or self.destination is None:
            return None
        return (self.source, self.destination)

    def indexed(self, index: int) -> "IndexedMessage":
        """Return this message tagged with a flow-instance *index*."""
        return IndexedMessage(self, index)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name}, {self.width}>"


def width(message: Message) -> int:
    """``width(m)`` of the paper -- the bit width of *m*."""
    return message.width


@dataclass(frozen=True, order=True)
class IndexedMessage:
    """A message tagged with the index of its flow instance (Def. 3).

    ``IndexedMessage(ReqE, 1)`` renders as ``1:ReqE``, matching the
    notation of Figure 1b of the paper.
    """

    message: Message
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("message index must be non-negative")

    @property
    def name(self) -> str:
        """``"<index>:<message name>"``, e.g. ``"1:ReqE"``."""
        return f"{self.index}:{self.message.name}"

    @property
    def width(self) -> int:
        """Bit width of the underlying message."""
        return self.message.width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def underlying_message(message: object) -> Message:
    """The plain message behind a possibly indexed label."""
    if isinstance(message, IndexedMessage):
        return message.message
    if isinstance(message, Message):
        return message
    raise TypeError(f"not a message: {message!r}")


class MessageCombination(FrozenSet[Message]):
    """An unordered set of messages (Definition 6).

    The *total bit width* ``W(M)`` is the sum of the widths of the
    contained messages.  Indexed instances of the same message do not
    contribute separately: the combination stores plain
    :class:`Message` objects only.

    The class is a thin ``frozenset`` subclass so combinations are
    hashable, support set algebra, and can be used as dict keys when
    memoising information-gain computations.
    """

    def __new__(cls, messages: Iterable[Message] = ()) -> "MessageCombination":
        msgs = tuple(messages)
        for m in msgs:
            if isinstance(m, IndexedMessage):
                raise TypeError(
                    "MessageCombination holds plain messages; strip "
                    f"the index from {m!r} first"
                )
            if not isinstance(m, Message):
                raise TypeError(f"not a Message: {m!r}")
        return super().__new__(cls, msgs)

    @property
    def total_width(self) -> int:
        """``W(M) = sum of width(m) for m in M`` (Definition 6)."""
        return sum(m.width for m in self)

    def fits(self, buffer_width: int) -> bool:
        """Whether the combination fits in a *buffer_width*-bit buffer."""
        return self.total_width <= buffer_width

    def names(self) -> Tuple[str, ...]:
        """Sorted message names, handy for reporting and testing."""
        return tuple(sorted(m.name for m in self))

    def with_message(self, message: Message) -> "MessageCombination":
        """A new combination with *message* added."""
        return MessageCombination(tuple(self) + (message,))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "{" + ", ".join(self.names()) + "}"


def indexed_instances(
    combination: Iterable[Message], indices: Iterable[int]
) -> Iterator[IndexedMessage]:
    """Yield every indexed instance of every message in *combination*.

    The selection metric of Section 3.2 evaluates a candidate
    combination ``Y'`` through the random variable ``Y`` ranging over
    *all indexed messages corresponding to* ``Y'``; this helper builds
    that set, e.g. ``{ReqE, GntE}`` with indices ``(1, 2)`` yields
    ``1:ReqE, 2:ReqE, 1:GntE, 2:GntE``.
    """
    index_list = tuple(indices)
    for message in combination:
        for index in index_list:
            yield IndexedMessage(message, index)
