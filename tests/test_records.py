"""The binary record codec: round trips, framing, and rejection of bad bytes."""

import base64
import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masksim import records
from masksim.bus import BusMessage, decode_bridge_record, encode_bridge_record
from masksim.cli import main
from masksim.controller import decode_cost_vector, encode_cost_vector
from masksim.escrow import replay_records
from masksim.ledger import ChannelMode, MamChannel
from masksim.runner import run_scenario
from masksim.scenario import scenario_from_dict
from masksim.sensing import decode_status, encode_status

U32, U64 = 2**32 - 1, 2**64 - 1

steps = st.integers(0, U32)
texts = st.text(max_size=12)
floats = st.floats(allow_nan=False)
positions = st.none() | st.tuples(floats, floats)
costs32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
transfer = st.tuples(steps, texts, st.sampled_from(records.TRANSFER_KINDS),
                     st.integers(0, U64))


def prefixes(data: bytes):
    return [data[:k] for k in range(len(data))]


def bundle_of(payload: bytes):
    """decode_bundle, with ValueError turned into ``None``."""
    try:
        return records.decode_bundle(payload)
    except ValueError:
        return None


# =============================================================================
# Round trips
# =============================================================================

@given(texts, steps, st.integers(0, 1), positions)
@example("a007", U32, 1, None)
@example("ágent-ü-試", 3, 0, (-0.5, 1e300))
def test_status_round_trip(agent, step, m, pos):
    doc = decode_status(encode_status(agent, step, m, pos))
    assert doc == {"v": records.VERSION, "agent": agent, "step": step,
                   "M": m, "pos": None if pos is None else list(pos)}


@given(texts, texts, st.integers(0, U64), st.binary(max_size=300))
@example("ágent", "mask/ágent/status", U64, b"")
def test_bridge_round_trip(publisher, topic, seq, payload):
    body = encode_bridge_record(BusMessage(topic, payload, publisher, seq))
    assert decode_bridge_record(body) == {"publisher": publisher,
                                          "topic": topic, "seq": seq,
                                          "payload": payload}


@given(steps, floats, st.lists(costs32, max_size=40))
@example(U32, 0.0, [])
def test_cost_vector_round_trip(step, global_cost, costs):
    doc = decode_cost_vector(encode_cost_vector(step, global_cost, costs))
    assert doc["step"] == step and doc["C"] == global_cost
    assert doc["c"].tolist() == costs


def test_cost_vector_summary_beyond_the_limit():
    n = records.COST_VECTOR_LIMIT + 1
    costs = np.linspace(-1.0, 3.0, n)
    payload = encode_cost_vector(U32, 2.5, costs)
    assert len(payload) < MamChannel(ChannelMode.PUBLIC, bytes(32)).message_limit
    assert decode_cost_vector(payload) == {"step": U32, "C": 2.5, "c": None,
                                           "mean_c": float(costs.mean())}


@given(st.lists(transfer, max_size=60), st.integers(40, 600))
def test_bundles_round_trip_and_pack_greedily(items, limit):
    bundles = records.encode_bundles(items, limit)
    assert [t for b in bundles for t in records.decode_bundle(b)] == items
    sizes = [[len(records.encode_bundles([t], limit)[0]) - 6
              for t in records.decode_bundle(b)] for b in bundles]
    for bundle, items_in, nxt in zip(bundles, sizes, sizes[1:] + [None]):
        assert len(bundle) == 6 + sum(items_in)
        assert len(bundle) <= limit or len(items_in) == 1
        if nxt is not None:             # the next item would not have fit
            assert len(bundle) + nxt[0] > limit


def test_bundle_split_at_message_limit():
    limit = MamChannel(ChannelMode.PUBLIC, bytes(32)).message_limit
    # 6-byte header, then items of 15 + 5 bytes: 203 fill 4066 of 4082
    # bytes, one more item needs 20 and starts the second bundle
    items = [(U32, "a0000", "deposit", U64)] * 204
    first, second = records.encode_bundles(items, limit)
    assert len(first) == 6 + 203 * 20 <= limit < len(first) + 20
    assert records.decode_bundle(second) == items[203:]
    # an item that lands exactly on the limit stays in the bundle
    exact = [(1, "b" * 16, "refund", 7)] * 130 + [(1, "c" * 31, "refund", 7)]
    assert [len(b) for b in records.encode_bundles(exact, limit)] == [limit]
    assert replay_records(records.encode_bundles(
        [(0, "a", "init", 5)], limit)).wallets == {"a": 5}


@pytest.mark.parametrize("encode", [
    lambda: encode_status("a", U32 + 1, 1, None),
    lambda: encode_status("a", 1, 256, None),
    lambda: encode_status("a" * 70_000, 1, 1, None),
    lambda: encode_bridge_record(BusMessage("t", b"", "p", U64 + 1)),
    lambda: encode_cost_vector(-1, 0.0, [1.0]),
    lambda: records.encode_bundles([(1, "a", "deposit", U64 + 1)], 4000),
    lambda: records.encode_bundles([(1, "a", "bribe", 1)], 4000),
], ids=["step", "bit", "agent-id", "seq", "cost-step", "amount", "kind"])
def test_out_of_range_fields_raise_value_error(encode):
    with pytest.raises(ValueError):
        encode()


# =============================================================================
# Truncated, random and old-format bytes
# =============================================================================

@given(texts, steps, st.integers(0, 1), positions, texts, st.integers(0, U64))
def test_truncated_status_and_bridge_records_do_not_decode(
        agent, step, m, pos, topic, seq):
    status = encode_status(agent, step, m, pos)
    bridge = encode_bridge_record(BusMessage(topic, status, agent, seq))
    assert all(decode_status(p) is None for p in prefixes(status))
    assert all(decode_bridge_record(p) is None for p in prefixes(bridge))
    assert decode_status(status + b"\0") is None
    assert decode_bridge_record(bridge + b"\0") is None


@given(steps, st.lists(costs32, max_size=5),
       st.lists(transfer, min_size=1, max_size=6))
def test_truncated_cost_and_escrow_records_raise_value_error(step, costs,
                                                             items):
    cost = encode_cost_vector(step, 1.0, costs)
    for p in prefixes(cost) + [cost + b"\0"]:
        with pytest.raises(ValueError):
            decode_cost_vector(p)
    (bundle,) = records.encode_bundles(items, 10**6)
    assert all(bundle_of(p) is None for p in prefixes(bundle))
    assert bundle_of(bundle + b"\0") is None


@settings(max_examples=300)
@given(st.binary(max_size=80)
       | st.builds(lambda k, rest: bytes([k, 1]) + rest,
                   st.integers(1, 4), st.binary(max_size=80)))
def test_random_bytes_give_none_or_value_error(data):
    for decode in (decode_status, decode_bridge_record):
        assert decode(data) is None or isinstance(decode(data), dict)
    for decode, arg in ((decode_cost_vector, data), (replay_records, [data])):
        with contextlib.suppress(ValueError):
            decode(arg)


def test_old_json_records_are_rejected():
    status = json.dumps({"v": 1, "agent": "a", "step": 1, "M": 1,
                         "pos": None}).encode()
    bridge = json.dumps({"v": 1, "publisher": "a", "topic": "t", "seq": 1,
                         "payload": base64.b64encode(status).decode()})
    assert decode_status(status) is None
    assert decode_bridge_record(bridge.encode()) is None
    with pytest.raises(ValueError):
        decode_cost_vector(b"CST1" + struct.pack(">IdB", 1, 0.5, 0)
                           + struct.pack(">d", 0.1))
    with pytest.raises(ValueError, match="version"):
        records.decode_bundle(b'{"v":2,"transfers":[[0,"a","init",5]]}')


# =============================================================================
# A tampered snapshot
# =============================================================================

@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    run_scenario(scenario_from_dict({
        "seed": 2, "steps": 6,
        "world": {"n_agents": 5, "mask_mode": "controller"}}), out_dir=out)
    return out / "ledger.json"


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_flipped_payload_byte_makes_inspect_exit_3(snapshot, data):
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    tx = data.draw(st.sampled_from(doc["transactions"]))
    payload = bytearray(base64.b64decode(tx["payload"]))
    payload[data.draw(st.integers(0, len(payload) - 1))] ^= \
        1 << data.draw(st.integers(0, 7))
    tx["payload"] = base64.b64encode(bytes(payload)).decode("ascii")
    bad = snapshot.with_name("tampered.json")
    bad.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["ledger", "inspect", str(bad)])
    assert code == 3
    assert "hash mismatch" in err.getvalue()
    assert "Traceback" not in err.getvalue()
