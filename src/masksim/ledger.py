"""Append-only DAG ledger with tip selection and authenticated message channels.

The ledger is the communication backbone of the framework: compliance bits,
escrow transfers and controller cost vectors are all written to it and read
back from it.  It is a Tangle-style structure: every new transaction approves
two existing transactions (its *parents*), transactions are content-addressed
by a 32-byte hash, and the set of transactions with no approvers yet (the
*tips*) is where new transactions attach.

Channels layer an ordered, optionally encrypted message stream on top of raw
transactions.  A channel is identified by a 32-byte root; the address of
message ``i`` is a hash chain starting at the mode-dependent base address, so
a subscriber who knows the base address can walk the channel in publish
order.  Modes:

* ``PUBLIC``      address = root, plaintext payloads
* ``PRIVATE``     address = H(root), plaintext payloads (the address itself
                  is unguessable without the root)
* ``RESTRICTED``  address = H(root || side_key), payloads encrypted and
                  authenticated under a key derived from the side key

Genesis convention: the genesis transaction lists itself as both parents so
the two-parent rule holds for every transaction.  Its id is computed with
zero bytes in the parent slots (a literal fixpoint hash is impossible), and
``verify`` knows about that convention.

Concurrency: appends are serialized through one internal lock, taken
once per append.  ``verify`` holds the lock for its whole walk, so appends
wait for it.  ``ChannelReader.poll`` takes it once per channel index it
looks up (through ``transactions_at``), not for the whole walk: a poll that
races a publish returns a prefix of the channel, and the next poll resumes
at the first index it did not see.
"""

from __future__ import annotations

import base64
import json
import random
import struct
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import crypto

MAX_PAYLOAD = 4096          # bytes, per transaction
ZERO32 = bytes(32)
_GENESIS_PAYLOAD = b"genesis"

_TX_DOMAIN = b"masksim-tx-v1"
_CHAIN_DOMAIN = b"masksim-mam-next"
_KEY_DOMAIN = b"masksim-mam-key"
_NONCE_DOMAIN = b"masksim-mam-nonce"

_ENVELOPE_MAGIC = b"MAM1"
_ENVELOPE_VERSION = 1
_ENVELOPE_HEADER = len(_ENVELOPE_MAGIC) + 2 + 8     # magic, version, mode, index
_INDEX = struct.Struct(">Q")                        # a message's channel index

SNAPSHOT_FORMAT = "masksim-tangle"
SNAPSHOT_VERSION = 1

# one transaction of the snapshot, laid out as ``json.dump(indent=1)`` does
_SNAPSHOT_RECORD = ('%s  {\n'
                    '   "id": "%s",\n'
                    '   "parents": [\n'
                    '    "%s",\n'
                    '    "%s"\n'
                    '   ],\n'
                    '   "payload": "%s",\n'
                    '   "channel_address": %s,\n'
                    '   "logical_time": %d\n'
                    '  }')


class LedgerError(Exception):
    """Base class for ledger faults."""


class PayloadTooLarge(LedgerError):
    """Payload exceeds the per-transaction limit."""


class IntegrityError(LedgerError):
    """Stored data fails verification (corrupt snapshot, bad hash, ...).

    ``problems`` holds one line per fault; the message joins them.
    """

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class ChannelKeyError(LedgerError):
    """Channel mode / key combination is invalid."""


# =============================================================================
# Transactions and the Tangle
# =============================================================================

class Transaction(NamedTuple):
    """One immutable DAG node.

    ``id`` is the hash of (parents, payload, channel_address) and is
    recomputable; ``logical_time`` is the append sequence number.
    """
    id: bytes
    parents: tuple[bytes, bytes]
    payload: bytes
    channel_address: bytes | None
    logical_time: int


def transaction_id(parents: tuple[bytes, bytes], payload: bytes,
                   channel_address: bytes | None) -> bytes:
    """Content hash of a transaction.

    Self-referencing parent slots (the genesis convention) are hashed as
    zero bytes, which is what makes the genesis id computable at all.
    """
    addr = channel_address if channel_address is not None else ZERO32
    flag = b"\x01" if channel_address is not None else b"\x00"
    return crypto.digest(_TX_DOMAIN, parents[0], parents[1], flag, addr, payload)


class Tangle:
    """Append-only two-parent DAG with uniform random tip selection.

    A fresh Tangle contains only the self-parenting genesis transaction.
    ``rng_seed`` fixes the tip-selection stream, which makes whole runs
    reproducible.
    """

    def __init__(self, rng_seed: int = 0):
        gid = transaction_id((ZERO32, ZERO32), _GENESIS_PAYLOAD, None)
        self._start(gid, rng_seed)
        self._attach(Transaction(gid, (gid, gid), _GENESIS_PAYLOAD, None, 0))

    def _start(self, genesis: bytes, rng_seed: int) -> None:
        """An empty store around the genesis id; ``_attach`` fills it."""
        self._lock = threading.Lock()
        self._rng = random.Random(rng_seed)
        self.genesis = genesis
        self.transactions: dict[bytes, Transaction] = {}
        # insertion-ordered so tip sampling never depends on bytes hashing
        self._tips: dict[bytes, None] = {}
        self._by_address: dict[bytes, list[Transaction]] = {}
        self._next_time = 0

    def _attach(self, tx: Transaction) -> None:
        """Store ``tx``: the one place the store, the tips and the address
        index change.  The caller holds the lock or owns the tangle."""
        tid, (p0, p1), _, address, logical_time = tx
        self.transactions[tid] = tx
        tips = self._tips
        tips.pop(p0, None)
        tips.pop(p1, None)
        tips[tid] = None
        if address is not None:
            self._by_address.setdefault(address, []).append(tx)
        self._next_time = logical_time + 1

    # -- core operations ------------------------------------------------

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def tips(self) -> set[bytes]:
        with self._lock:
            return set(self._tips)

    def _draw_tips(self, rng: random.Random) -> tuple[bytes, bytes]:
        """Two tips drawn uniformly with replacement (duplicates allowed);
        the caller holds the lock."""
        pool = list(self._tips)
        return rng.choice(pool), rng.choice(pool)

    def select_tips(self, rng: random.Random | None = None) -> tuple[bytes, bytes]:
        """Sample two tips uniformly with replacement (duplicates allowed)."""
        with self._lock:
            return self._draw_tips(rng if rng is not None else self._rng)

    def append(self, payload: bytes, channel_address: bytes | None = None,
               parents: tuple[bytes, bytes] | None = None) -> bytes:
        """Attach a new transaction; returns its id.

        Parents default to two freshly selected tips.  A concurrent publisher
        may stage the write by calling :meth:`select_tips` itself and passing
        the result in; the referenced transactions only need to exist, they
        need not still be tips (that is how the DAG branches).
        """
        if len(payload) > MAX_PAYLOAD:
            raise PayloadTooLarge(
                f"payload is {len(payload)} bytes, limit is {MAX_PAYLOAD}")
        if channel_address is not None and len(channel_address) != 32:
            raise LedgerError("channel address must be 32 bytes")
        with self._lock:
            txs = self.transactions
            if parents is None:
                parents = self._draw_tips(self._rng)
            else:
                if len(parents) != 2:
                    raise LedgerError("exactly two parents required")
                for p in parents:
                    if p not in txs:
                        raise IntegrityError(f"unknown parent {p.hex()}")
                parents = (parents[0], parents[1])
            tid = transaction_id(parents, payload, channel_address)
            if tid in txs:
                # identical content already attached at the same parents;
                # content addressing makes the re-append a no-op
                return tid
            self._attach(Transaction(tid, parents, payload, channel_address,
                                     self._next_time))
            return tid

    def transactions_at(self, address: bytes) -> list[Transaction]:
        """All transactions carrying ``address``, in append order."""
        with self._lock:
            return list(self._by_address.get(address, ()))

    # -- verification ---------------------------------------------------

    def verify(self) -> list[str]:
        """Check every structural invariant; returns one line per fault.

        One walk over the store in append order (``load`` keeps the
        snapshot's order), holding the lock.  Two ordering rules carry the
        structure: logical time rises strictly along the store, and every
        parent resolves to a transaction with a lower logical time.  Together
        they make the DAG acyclic and lead every ancestor chain back to
        genesis, so a fault is reported where it is and not again at each
        descendant.
        """
        problems: list[str] = []
        with self._lock:
            txs = self.transactions
            genesis = self.genesis
            g = txs.get(genesis)
            if g is None:
                return [f"genesis {genesis.hex()} missing from store"]
            if g.parents != (genesis, genesis):
                problems.append("genesis does not reference itself twice")

            children = dict.fromkeys(txs, 0)
            last_time = -1
            ordered = True
            for tid, tx in txs.items():
                _, parents, payload, address, logical_time = tx
                is_genesis = tid == genesis
                effective = (ZERO32, ZERO32) if is_genesis else parents
                if transaction_id(effective, payload, address) != tid:
                    problems.append(f"content hash mismatch on {tid.hex()[:16]}")
                if len(payload) > MAX_PAYLOAD:
                    problems.append(f"oversize payload on {tid.hex()[:16]}")
                if logical_time <= last_time:
                    ordered = False
                    problems.append(
                        f"{tid.hex()[:16]} is stored out of logical-time order "
                        f"({logical_time} after {last_time})")
                last_time = logical_time
                if is_genesis:
                    continue
                # a twice-named parent once
                for p in (parents if parents[0] != parents[1] else parents[:1]):
                    parent = txs.get(p)
                    if parent is None:
                        problems.append(f"{tid.hex()[:16]} has unresolvable "
                                        f"parent {p.hex()[:16]}")
                        continue
                    children[p] += 1
                    if parent.logical_time >= logical_time:
                        ordered = False
                        problems.append(f"{tid.hex()[:16]} does not postdate "
                                        f"parent {p.hex()[:16]}")
            tips = set(self._tips)

        # ``_attach`` keeps the tips in store order, so they can part from
        # the parent links only where a parent is stored after its child,
        # which an ordering rule has already reported
        expected_tips = {t for t, n in children.items() if n == 0}
        if ordered and expected_tips != tips:
            problems.append(
                f"tip set inconsistent: tracked {len(tips)}, actual {len(expected_tips)}")
        return problems

    def stats(self) -> dict:
        """DAG statistics used by the inspection tooling and run summaries."""
        with self._lock:
            n = len(self.transactions)
            tips = len(self._tips)
            addressed = sum(len(v) for v in self._by_address.values())
            chains = _chain_partition(set(self._by_address))
        return {
            "transactions": n,
            "tips": tips,
            "channel_messages": addressed,
            "channels": len(chains),
            "messages_per_channel": sorted((len(c) for c in chains), reverse=True),
        }

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write a versioned JSON snapshot, transactions in append order.

        The text is exactly ``json.dump(doc, fh, indent=1)`` plus a newline,
        written one record at a time: every value is a hex or base64 string,
        an integer or null, so no JSON escaping is ever needed.
        """
        with self._lock:
            txs = list(self.transactions.values())
            genesis = self.genesis.hex()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{\n "format": "{SNAPSHOT_FORMAT}",\n'
                     f' "version": {SNAPSHOT_VERSION},\n'
                     f' "genesis": "{genesis}",\n'
                     f' "transactions": [')
            sep = "\n"
            for t in txs:
                address = (f'"{t.channel_address.hex()}"' if t.channel_address
                           else "null")
                fh.write(_SNAPSHOT_RECORD % (
                    sep, t.id.hex(), t.parents[0].hex(), t.parents[1].hex(),
                    base64.b64encode(t.payload).decode("ascii"), address,
                    t.logical_time))
                sep = ",\n"
            fh.write("\n ]\n}\n")      # never empty: genesis is always there

    @classmethod
    def load(cls, path, rng_seed: int = 0) -> "Tangle":
        """Load a snapshot and re-verify every invariant.

        Raises :class:`IntegrityError` on any malformed or tampered record;
        its ``problems`` name each fault ``verify`` finds once.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        # ValueError: bad JSON, bad UTF-8 or an int past the digit limit
        except (ValueError, RecursionError) as exc:
            raise IntegrityError(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
            raise IntegrityError("not a tangle snapshot")
        if doc.get("version") != SNAPSHOT_VERSION:
            raise IntegrityError(f"unsupported snapshot version {doc.get('version')}")
        try:
            genesis = bytes.fromhex(doc["genesis"])
        except (KeyError, ValueError, TypeError) as exc:
            raise IntegrityError("snapshot has no valid genesis id") from exc
        records = doc.get("transactions")
        if not isinstance(records, list):
            raise IntegrityError("snapshot has no transaction list")

        # one pass in snapshot order attaches each record as ``append`` does,
        # so the tips keep a live tangle's order; ``verify`` then rejects a
        # snapshot out of append order
        tangle = cls.__new__(cls)
        tangle._start(genesis, rng_seed)
        txs = tangle.transactions
        fromhex, b64decode = bytes.fromhex, base64.b64decode
        for rec in records:
            try:
                parents, time = rec["parents"], rec["logical_time"]
                if type(parents) is not list or type(time) is not int:
                    raise TypeError("parents must be a list, time an int")
                p0, p1 = parents
                address = rec["channel_address"]
                if address is not None:
                    address = fromhex(address)
                    if len(address) != 32:
                        raise ValueError("channel address must be 32 bytes")
                tx = Transaction(fromhex(rec["id"]), (fromhex(p0), fromhex(p1)),
                                 b64decode(rec["payload"], validate=True),
                                 address, time)
            except (KeyError, ValueError, TypeError) as exc:
                raise IntegrityError(f"malformed snapshot record: {rec!r}") from exc
            if tx.id in txs:
                raise IntegrityError(f"duplicate transaction id {tx.id.hex()[:16]}")
            tangle._attach(tx)
        problems = tangle.verify()
        if problems:
            raise IntegrityError(*problems)
        return tangle


def _chain_partition(addresses: set[bytes]) -> list[list[bytes]]:
    """Group addresses into hash chains (address -> H(chain-domain, address)).

    Channel identity is recoverable from snapshot structure alone because
    successive message addresses are linked by a public hash.
    """
    succ = {}
    has_pred = set()
    for a in addresses:
        nxt = _next_address(a)
        if nxt in addresses:
            succ[a] = nxt
            has_pred.add(nxt)
    chains = []
    for a in addresses:
        if a in has_pred:
            continue
        chain = [a]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(chain)
    return chains


# =============================================================================
# Message channels
# =============================================================================

class ChannelMode(Enum):
    PUBLIC = "public"
    PRIVATE = "private"
    RESTRICTED = "restricted"


def channel_address(mode: ChannelMode, root: bytes,
                    side_key: bytes | None = None) -> bytes:
    """Base (index-0) address of a channel.

    Public channels sit at the root verbatim, private ones at H(root), and
    restricted ones at H(root || side_key); the concatenation order is a
    convention of this framework.
    """
    if len(root) != 32:
        raise ChannelKeyError("channel root must be 32 bytes")
    if mode is ChannelMode.RESTRICTED:
        if not side_key:
            raise ChannelKeyError("restricted mode requires a side key")
        return crypto.digest(root, side_key)
    if side_key:
        raise ChannelKeyError(f"{mode.value} mode does not take a side key")
    if mode is ChannelMode.PRIVATE:
        return crypto.digest(root)
    return root


def _next_address(address: bytes) -> bytes:
    return crypto.digest(_CHAIN_DOMAIN, address)


def _message_key(base_address: bytes, side_key: bytes) -> bytes:
    """The channel's 32-byte AEAD key, domain-separated by its label."""
    return crypto.digest(_KEY_DOMAIN, base_address, side_key)


def _message_nonce(base_address: bytes, index_bytes: bytes) -> bytes:
    """The AEAD nonce of a message, from its 8 channel-index bytes."""
    return crypto.digest(_NONCE_DOMAIN, base_address,
                         index_bytes)[:crypto.AEAD_NONCE_SIZE]


def _envelope_head(mode: ChannelMode) -> bytes:
    """What every envelope of a ``mode`` channel starts with, before its
    8 index bytes: magic, version and mode."""
    return _ENVELOPE_MAGIC + bytes([_ENVELOPE_VERSION, _MODE_BYTES[mode]])


@dataclass
class MamChannel:
    """Writer-side state of one message channel.

    ``next_index`` counts published messages; the current attachment address
    is maintained incrementally so publishing stays O(1) per message.
    """
    mode: ChannelMode
    root: bytes
    side_key: bytes | None = None
    next_index: int = field(default=0, init=False)

    def __post_init__(self):
        # validates the mode/key combination as a side effect
        self._base = channel_address(self.mode, self.root, self.side_key)
        self._aead = (crypto.cipher(_message_key(self._base, self.side_key))
                      if self.mode is ChannelMode.RESTRICTED else None)
        self._head = _envelope_head(self.mode)
        self._cursor = self._base

    @property
    def base_address(self) -> bytes:
        return self._base

    @property
    def message_limit(self) -> int:
        """Largest message that fits one transaction on this channel."""
        overhead = _ENVELOPE_HEADER
        if self._aead is not None:
            overhead += crypto.AEAD_TAG_SIZE
        return MAX_PAYLOAD - overhead

    def fast_forward(self, index: int) -> None:
        """Advance the publish cursor past ``index`` messages already on the
        ledger (used when a writer restarts against an existing channel)."""
        while self.next_index < index:
            self._cursor = _next_address(self._cursor)
            self.next_index += 1

    def publish(self, tangle: Tangle, message: bytes) -> bytes:
        """Encode, encrypt if restricted, and append; returns the tx id."""
        index = self.next_index
        address = self._cursor
        index_bytes = _INDEX.pack(index)
        if self._aead is not None:
            body = crypto.encrypt(self._aead,
                                  _message_nonce(self._base, index_bytes),
                                  message, aad=address)
        else:
            body = message
        envelope = self._head + index_bytes + body
        if len(envelope) > MAX_PAYLOAD:
            raise PayloadTooLarge(
                f"message of {len(message)} bytes exceeds the channel limit")
        tx_id = tangle.append(envelope, channel_address=address)
        self.next_index = index + 1
        self._cursor = _next_address(address)
        return tx_id


_MODE_BYTES = {ChannelMode.PUBLIC: 0, ChannelMode.PRIVATE: 1,
               ChannelMode.RESTRICTED: 2}


def _decode_envelope(payload: bytes, header: bytes, address: bytes,
                     base_address: bytes, restricted: bool,
                     aead) -> bytes | None:
    """Decode one stored envelope; ``None`` if it is not decodable.

    ``header`` is the envelope head of the channel's mode followed by the
    message's 8 index bytes; ``aead`` is the channel's cipher, ``None``
    when the reader has no key.
    """
    if payload[:_ENVELOPE_HEADER] != header:
        return None
    body = payload[_ENVELOPE_HEADER:]
    if not restricted:
        return body
    if aead is None:
        return None
    return crypto.decrypt(aead,
                          _message_nonce(base_address, header[-_INDEX.size:]),
                          body, aad=address)


class ChannelMessage(NamedTuple):
    index: int
    tx_id: bytes
    body: bytes


class ChannelReader:
    """Incremental subscriber cursor over one channel.

    Holds the walk position so polling inside a simulation loop is O(new
    messages), not O(channel length).
    """

    def __init__(self, tangle: Tangle, address: bytes, mode: ChannelMode,
                 side_key: bytes | None = None):
        self._tangle = tangle
        self._base = address
        self._head = _envelope_head(mode)
        self._restricted = mode is ChannelMode.RESTRICTED
        self._aead = (crypto.cipher(_message_key(address, side_key))
                      if self._restricted and side_key else None)
        self._cursor = address
        self._index = 0

    @property
    def next_index(self) -> int:
        """First channel index not yet seen populated."""
        return self._index

    def poll(self) -> list[ChannelMessage]:
        """Messages published since the last poll, in channel order."""
        out: list[ChannelMessage] = []
        transactions_at = self._tangle.transactions_at
        head, base, restricted, aead = (self._head, self._base,
                                        self._restricted, self._aead)
        cursor, index = self._cursor, self._index
        while True:
            txs = transactions_at(cursor)
            if not txs:
                return out
            header = head + _INDEX.pack(index)
            for tx in txs:
                body = _decode_envelope(tx.payload, header, cursor, base,
                                        restricted, aead)
                if body is not None:
                    out.append(ChannelMessage(index, tx.id, body))
            index += 1
            cursor = _next_address(cursor)
            self._cursor, self._index = cursor, index


def mam_fetch(tangle: Tangle, address: bytes, mode: ChannelMode,
              side_key: bytes | None = None) -> list[bytes]:
    """All decodable messages of the channel at ``address``, in order.

    An unknown address or a restricted channel without its side key simply
    yields an empty list; absence of messages is not an error.
    """
    reader = ChannelReader(tangle, address, mode, side_key)
    return [m.body for m in reader.poll()]
