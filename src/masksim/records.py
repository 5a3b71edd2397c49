"""The one binary codec for every record masksim writes to a ledger channel.

A record is a kind byte, a version byte and fixed big-endian fields.
Strings are UTF-8 behind a 2-byte length, and a record decodes only when
it is exactly as long as its fields say, so a truncated or padded record
never decodes.  The layouts (``struct`` notation, after kind and version):

* status (1): ``I`` step, ``B`` mask bit, ``B`` position flag, ``d d``
  position (zero without a fix), ``H`` agent id length; then the agent id.
* bridge (2): ``Q`` bus sequence, ``H`` publisher length, ``H`` topic
  length, ``I`` message length; then publisher, topic and the bridged
  message, raw.
* cost (3): ``I`` step, ``d`` global cost, ``B`` full flag; then either
  ``I`` n and the n individual costs as ``f`` (full, up to
  :data:`COST_VECTOR_LIMIT` agents) or ``d`` their mean.
* escrow bundle (4): ``I`` transfer count; then per transfer ``I`` step,
  ``B`` kind (an index into :data:`TRANSFER_KINDS`), ``Q`` micro-tokens,
  ``H`` agent id length and the agent id.

Every encoder raises ``ValueError`` for a field outside its range.
Decoders of status and bridge records return ``None`` for anything they
cannot decode (a reader skips such records); the cost and escrow
decoders raise ``ValueError``, because an audit must not skip them.
"""

from __future__ import annotations

import struct

import numpy as np

STATUS, BRIDGE, COST, ESCROW = 1, 2, 3, 4
VERSION = 1

# escrow transfer kinds; ``init`` is an agent's opening balance
TRANSFER_KINDS = ("init", "deposit", "refund", "forfeit", "partial_return")
_KIND_CODES = {kind: code for code, kind in enumerate(TRANSFER_KINDS)}

MAX_AMOUNT = 2**64 - 1      # micro-tokens in one escrow transfer
# a full cost vector fits one 4 KiB transaction up to this many agents
COST_VECTOR_LIMIT = 1000

_STATUS = struct.Struct(">BBIBBddH")
_BRIDGE = struct.Struct(">BBQHHI")
_COST = struct.Struct(">BBIdB")
_COUNT = struct.Struct(">I")
_MEAN = struct.Struct(">d")
_BUNDLE = struct.Struct(">BBI")
_TRANSFER = struct.Struct(">IBQH")


def _range_error(what: str, exc: struct.error) -> ValueError:
    return ValueError(f"{what} field out of range: {exc}")


# -- status ---------------------------------------------------------------

def encode_status(agent_id: str, step: int, m: int,
                  position: tuple[float, float] | None) -> bytes:
    """One agent's mask bit ``m`` at ``step``, with its position fix."""
    agent = agent_id.encode("utf-8")
    x, y = (0.0, 0.0) if position is None else position
    try:
        head = _STATUS.pack(STATUS, VERSION, step, int(m),
                            position is not None, x, y, len(agent))
    except struct.error as exc:
        raise _range_error("status", exc) from None
    return head + agent


def decode_status(payload: bytes) -> dict | None:
    """``{"v", "agent", "step", "M", "pos"}`` with ``pos`` ``[x, y]`` or
    ``None``; ``None`` for a payload that is not a status record."""
    try:
        kind, version, step, m, fix, x, y, n = _STATUS.unpack_from(payload)
        agent = payload[_STATUS.size:].decode("utf-8")
    except (struct.error, UnicodeDecodeError):
        return None
    if (kind != STATUS or version != VERSION or fix > 1
            or len(payload) != _STATUS.size + n):
        return None
    return {"v": version, "agent": agent, "step": step, "M": m,
            "pos": [x, y] if fix else None}


# -- bridge ---------------------------------------------------------------

def encode_bridge(publisher: str, topic: str, seq: int,
                  message: bytes) -> bytes:
    """A bus message as the gateway puts it on an agent's channel."""
    pub, top = publisher.encode("utf-8"), topic.encode("utf-8")
    try:
        head = _BRIDGE.pack(BRIDGE, VERSION, seq, len(pub), len(top),
                            len(message))
    except struct.error as exc:
        raise _range_error("bridge", exc) from None
    return head + pub + top + message


def decode_bridge_record(body: bytes) -> dict | None:
    """``{"publisher", "topic", "seq", "payload"}``; ``None`` for a body
    that is not a bridge record."""
    try:
        kind, version, seq, n_pub, n_top, n_msg = _BRIDGE.unpack_from(body)
    except struct.error:
        return None
    start = _BRIDGE.size
    mid = start + n_pub
    end = mid + n_top
    if (kind != BRIDGE or version != VERSION
            or len(body) != end + n_msg):
        return None
    try:
        publisher = body[start:mid].decode("utf-8")
        topic = body[mid:end].decode("utf-8")
    except UnicodeDecodeError:
        return None
    return {"publisher": publisher, "topic": topic, "seq": seq,
            "payload": body[end:]}


# -- controller cost vector ----------------------------------------------

def encode_cost_vector(step: int, global_cost: float,
                       individual_costs) -> bytes:
    """The whole vector as float32 while it fits one transaction, else
    only its mean."""
    costs = np.asarray(individual_costs, dtype=float)
    full = len(costs) <= COST_VECTOR_LIMIT
    try:
        head = _COST.pack(COST, VERSION, step, global_cost, full)
        if full:
            return (head + _COUNT.pack(len(costs))
                    + costs.astype(">f4").tobytes())
        return head + _MEAN.pack(float(costs.mean()) if len(costs) else 0.0)
    except struct.error as exc:
        raise _range_error("cost", exc) from None


def decode_cost_vector(payload: bytes) -> dict:
    """``{"step", "C", "c", "mean_c"}`` with ``c`` the float64 vector, or
    ``None`` for a summary record; ``ValueError`` for anything else."""
    try:
        kind, version, step, global_cost, full = _COST.unpack_from(payload)
        if kind != COST or version != VERSION or full > 1:
            raise ValueError("not a cost record")
        if full:
            (n,) = _COUNT.unpack_from(payload, _COST.size)
            start = _COST.size + _COUNT.size
            if len(payload) != start + 4 * n:
                raise ValueError("cost record length does not match")
            costs = np.frombuffer(payload, dtype=">f4", count=n,
                                  offset=start).astype(float)
            return {"step": step, "C": global_cost, "c": costs,
                    "mean_c": float(costs.mean()) if n else 0.0}
        if len(payload) != _COST.size + _MEAN.size:
            raise ValueError("cost record length does not match")
        (mean_c,) = _MEAN.unpack_from(payload, _COST.size)
    except struct.error as exc:
        raise ValueError(f"truncated cost record: {exc}") from None
    return {"step": step, "C": global_cost, "c": None, "mean_c": mean_c}


# -- escrow bundles -------------------------------------------------------

def encode_bundles(transfers, limit: int) -> list[bytes]:
    """Pack ``(step, agent, kind, micro)`` transfers, in order, greedily
    into as few bundles of at most ``limit`` bytes as possible.  A
    transfer that alone exceeds ``limit`` goes out as a bundle of one."""
    groups: list[list[bytes]] = []
    size = 0
    pack = _TRANSFER.pack
    for step, agent_id, kind, amount in transfers:
        agent = agent_id.encode("utf-8")
        try:
            item = pack(step, _KIND_CODES[kind], amount, len(agent)) + agent
        except KeyError:
            raise ValueError(f"unknown escrow record kind {kind!r}") from None
        except struct.error as exc:
            raise _range_error("escrow", exc) from None
        if not groups or size + len(item) > limit:
            groups.append([])
            size = _BUNDLE.size
        groups[-1].append(item)
        size += len(item)
    return [_BUNDLE.pack(ESCROW, VERSION, len(g)) + b"".join(g)
            for g in groups]


def decode_bundle(payload: bytes) -> list[tuple[int, str, str, int]]:
    """The ``(step, agent, kind, micro)`` transfers of one bundle."""
    try:
        kind, version, count = _BUNDLE.unpack_from(payload)
    except struct.error:
        raise ValueError(f"malformed escrow bundle: {payload[:40]!r}") from None
    if kind != ESCROW or version != VERSION:
        raise ValueError(f"not an escrow bundle of record version {VERSION}: "
                         f"{payload[:40]!r}")
    out = []
    pos = _BUNDLE.size
    unpack, head = _TRANSFER.unpack_from, _TRANSFER.size
    try:
        for _ in range(count):
            step, code, amount, n = unpack(payload, pos)
            pos += head + n
            out.append((step, payload[pos - n:pos].decode("utf-8"),
                        TRANSFER_KINDS[code], amount))
    except (struct.error, UnicodeDecodeError, IndexError):
        pos = -1
    if pos != len(payload):
        raise ValueError(f"malformed escrow bundle: {payload[:40]!r}")
    return out
