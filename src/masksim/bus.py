"""In-process publish/subscribe bus and the bus-to-ledger gateway.

The bus reproduces the publish/subscribe contract of an MQTT broker without
the network: publishers write to topics, subscribers receive every message
published after they subscribed, and per-(publisher, topic) FIFO order is
preserved.  Subscriptions use a bounded buffer with a drop-oldest overflow
policy and a drop counter.

The gateway is the back-end bridge: it subscribes to routed topics and
republishes each message onto a ledger channel exactly once.  Bridged
payloads embed (publisher, sequence), so the bridge is restartable with
at-least-once delivery and idempotent dedup - on startup it rebuilds its
seen-set from the ledger itself.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import NamedTuple

from .ledger import ChannelReader, LedgerError, MamChannel, Tangle
from .records import decode_bridge_record, encode_bridge

log = logging.getLogger(__name__)

MAX_BUS_PAYLOAD = 64 * 1024
DEFAULT_BUFFER = 1024


class TopicError(ValueError):
    """Malformed topic name."""


def validate_topic(topic: str) -> str:
    if not topic or not all(seg for seg in topic.split("/")):
        raise TopicError(f"invalid topic {topic!r}: empty segment")
    return topic


class BusMessage(NamedTuple):
    topic: str
    payload: bytes
    publisher_id: str
    sequence: int


class Subscription:
    """One subscriber's bounded message buffer.

    Dropping the handle (``close``) detaches it from the bus; a slow consumer
    loses the oldest messages first and ``dropped`` counts the losses.
    """

    def __init__(self, bus: "MessageBus", topic: str, maxlen: int):
        self._bus = bus
        self.topic = topic
        self._queue: deque[BusMessage] = deque()
        self._maxlen = maxlen
        self.dropped = 0
        self.closed = False

    def _offer(self, message: BusMessage) -> None:
        if len(self._queue) >= self._maxlen:
            self._queue.popleft()
            self.dropped += 1
        self._queue.append(message)

    def pop(self) -> BusMessage | None:
        """Next buffered message, or ``None`` if the buffer is empty."""
        try:
            return self._queue.popleft()
        except IndexError:
            return None

    def drain(self) -> list[BusMessage]:
        out = []
        while (m := self.pop()) is not None:
            out.append(m)
        return out

    def __len__(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._bus._detach(self)


class MessageBus:
    """Multi-producer, multi-consumer topic bus with per-publisher FIFO."""

    def __init__(self):
        self._lock = threading.Lock()
        self._subs: dict[str, list[Subscription]] = {}
        self._sequences: dict[tuple[str, str], int] = {}

    def subscribe(self, topic: str, maxlen: int = DEFAULT_BUFFER) -> Subscription:
        validate_topic(topic)
        sub = Subscription(self, topic, maxlen)
        with self._lock:
            self._subs.setdefault(topic, []).append(sub)
        return sub

    def _detach(self, sub: Subscription) -> None:
        with self._lock:
            subs = self._subs.get(sub.topic, [])
            if sub in subs:
                subs.remove(sub)
            if not subs:
                self._subs.pop(sub.topic, None)

    def publish(self, topic: str, payload: bytes, publisher_id: str,
                sequence: int | None = None) -> int:
        """Deliver ``payload`` to all current subscribers of ``topic``.

        ``sequence`` is normally assigned by the bus; a redelivering producer
        may pass the original value explicitly so that downstream dedup keyed
        on (publisher, sequence) recognizes the retry.
        """
        key = (publisher_id, topic)
        # a key gets a sequence only after its topic is validated, so the
        # sequence table doubles as the cache of validated topics
        if key not in self._sequences:
            validate_topic(topic)
        if len(payload) > MAX_BUS_PAYLOAD:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds {MAX_BUS_PAYLOAD}")
        with self._lock:
            last = self._sequences.get(key, 0)
            if sequence is None:
                sequence = last + 1
            self._sequences[key] = sequence if sequence > last else last
            message = BusMessage(topic, payload, publisher_id, sequence)
            for sub in self._subs.get(topic, ()):
                sub._offer(message)
        return sequence


# =============================================================================
# Gateway: bus topics -> ledger channels
# =============================================================================

def encode_bridge_record(message: BusMessage) -> bytes:
    """The bridge record of :mod:`masksim.records` for one bus message.

    ``decode_bridge_record(body)`` inverts it: a dict with keys
    ``publisher``, ``topic``, ``seq`` and ``payload``, or ``None`` for a
    body that is not a bridge record.
    """
    return encode_bridge(message.publisher_id, message.topic,
                         message.sequence, message.payload)


class Gateway:
    """Bridges routed bus topics onto ledger channels, exactly once each.

    On construction the gateway scans its routed channels and rebuilds the
    dedup set from what is already on the ledger, which is what makes a
    restart after a crash safe: redelivered messages are recognized by
    (publisher, topic, sequence) and skipped.
    """

    def __init__(self, bus: MessageBus, tangle: Tangle,
                 routes: dict[str, MamChannel]):
        self._tangle = tangle
        self._routes = dict(routes)
        self._subs = {topic: bus.subscribe(topic) for topic in self._routes}
        self._seen: set[tuple[str, str, int]] = set()
        self.bridged = 0
        self.duplicates = 0
        self.dead_letters: list[BusMessage] = []
        for topic, channel in self._routes.items():
            reader = ChannelReader(tangle, channel.base_address, channel.mode,
                                   channel.side_key)
            for msg in reader.poll():
                rec = decode_bridge_record(msg.body)
                if rec is not None:
                    self._seen.add((rec["publisher"], rec["topic"], rec["seq"]))
            # recover the publish cursor of a restarted writer
            channel.fast_forward(reader.next_index)

    @property
    def dropped(self) -> int:
        return sum(s.dropped for s in self._subs.values())

    def pump(self, limit: int | None = None) -> list[bytes]:
        """Bridge pending messages; returns appended transaction ids.

        ``limit`` bounds how many messages are processed (tests use it to
        force a crash mid-stream).
        """
        appended: list[bytes] = []
        left = limit
        seen = self._seen
        for topic, sub in self._subs.items():
            queue = sub._queue
            if not queue:
                continue
            channel = self._routes[topic]
            while left is None or left > 0:
                try:
                    message = queue.popleft()
                except IndexError:
                    break
                if left is not None:
                    left -= 1
                key = (message.publisher_id, topic, message.sequence)
                if key in seen:
                    self.duplicates += 1
                    continue
                tx_id = self._append(channel, message)
                if tx_id is None:
                    self.dead_letters.append(message)
                else:
                    seen.add(key)
                    self.bridged += 1
                    appended.append(tx_id)
            if left == 0:
                break
        return appended

    def _append(self, channel: MamChannel, message: BusMessage) -> bytes | None:
        """Append one message's bridge record; ``None`` if it cannot go on
        the ledger.  Every such failure is deterministic (a field the
        record cannot hold, a record over the transaction limit), so the
        message is dead-lettered at once instead of retried."""
        try:
            return channel.publish(self._tangle, encode_bridge_record(message))
        except (ValueError, LedgerError) as exc:
            log.error("dead-lettering %s/%s seq %d: %s", message.publisher_id,
                      message.topic, message.sequence, exc)
            return None

    def counters(self) -> dict:
        return {
            "bridged": self.bridged,
            "duplicates": self.duplicates,
            "dead_letters": len(self.dead_letters),
            "dropped": self.dropped,
        }

    def close(self) -> None:
        for sub in self._subs.values():
            sub.close()
