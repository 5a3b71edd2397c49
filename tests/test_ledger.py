"""Tangle structure, tip selection, channel codec and snapshot round trips."""

import base64
import hashlib
import json
import random
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masksim import crypto
from masksim.ledger import (ChannelKeyError, ChannelMode, ChannelReader,
                            IntegrityError, MAX_PAYLOAD, MamChannel,
                            PayloadTooLarge, Tangle, channel_address,
                            mam_fetch, transaction_id, ZERO32)


def test_fresh_tangle_has_only_genesis():
    t = Tangle()
    assert len(t) == 1
    assert t.tips == {t.genesis}
    g = t.transactions[t.genesis]
    assert g.parents == (t.genesis, t.genesis)
    assert g.logical_time == 0
    assert t.verify() == []


def test_first_append_parents_are_genesis_twice():
    t = Tangle()
    a = t.append(b"first")
    assert t.transactions[a].parents == (t.genesis, t.genesis)
    assert t.tips == {a}


def test_two_staged_appends_then_third_attaches_to_both():
    # two publishers select tips before either insert lands, so both attach
    # to genesis and the tip set grows to two
    t = Tangle(rng_seed=7)
    p1 = t.select_tips()
    p2 = t.select_tips()
    a = t.append(b"a", parents=p1)
    b = t.append(b"b", parents=p2)
    assert t.tips == {a, b}
    c = t.append(b"c")
    assert set(t.transactions[c].parents) <= {a, b}
    assert t.tips == {c} or c in t.tips


def test_append_replay_is_deterministic():
    def build():
        t = Tangle(rng_seed=42)
        p1 = t.select_tips()
        p2 = t.select_tips()
        t.append(b"a", parents=p1)
        t.append(b"b", parents=p2)
        for i in range(20):
            t.append(f"m{i}".encode())
        return [(tx.id, tx.parents) for tx in
                sorted(t.transactions.values(), key=lambda x: x.logical_time)]

    assert build() == build()


def test_content_hash_recomputable():
    t = Tangle()
    a = t.append(b"payload", channel_address=bytes(32))
    tx = t.transactions[a]
    assert transaction_id(tx.parents, tx.payload, tx.channel_address) == a


def test_oversize_payload_rejected():
    t = Tangle()
    t.append(b"x" * 4096)  # limit is inclusive
    with pytest.raises(PayloadTooLarge):
        t.append(b"x" * 4097)


def test_unknown_parent_is_integrity_fault():
    t = Tangle()
    with pytest.raises(IntegrityError):
        t.append(b"x", parents=(bytes(32), bytes(32)))


def test_logical_time_strictly_increases():
    t = Tangle()
    times = [t.transactions[t.append(f"{i}".encode())].logical_time
             for i in range(10)]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_many_appends_keep_invariants():
    t = Tangle(rng_seed=3)
    rng = random.Random(5)
    for i in range(2000):
        if rng.random() < 0.3:
            # staged append: branch the DAG
            t.append(f"s{i}".encode(), parents=t.select_tips(rng))
        else:
            t.append(f"a{i}".encode())
    assert t.verify() == []
    assert len(t) == 2001


def test_select_tips_single_tip_duplicates():
    t = Tangle()
    a = t.append(b"x")
    assert t.select_tips() == (a, a)


def test_select_tips_uniform_over_two_tips():
    t = Tangle(rng_seed=11)
    p1 = t.select_tips()
    p2 = t.select_tips()
    a = t.append(b"a", parents=p1)
    b = t.append(b"b", parents=p2)
    rng = random.Random(123)
    slots = 0
    hits_a = 0
    for _ in range(10_000):
        x, y = t.select_tips(rng)
        slots += 2
        hits_a += (x == a) + (y == a)
    share = hits_a / slots
    assert abs(share - 0.5) < 0.02
    # chi-square on the two-bin split, 1 dof: 3.84 is the 5% cutoff
    expected = slots / 2
    chi2 = ((hits_a - expected) ** 2 + ((slots - hits_a) - expected) ** 2) / expected
    assert chi2 < 3.84


# =============================================================================
# Channel addressing and message codec
# =============================================================================

GOLDEN_SHA256_OF_ZERO32 = \
    "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"


def test_public_address_is_root_verbatim():
    assert channel_address(ChannelMode.PUBLIC, bytes(32)) == bytes(32)


def test_private_address_is_hash_of_root():
    addr = channel_address(ChannelMode.PRIVATE, bytes(32))
    assert addr.hex() == GOLDEN_SHA256_OF_ZERO32


def test_restricted_addresses_differ_by_key():
    a1 = channel_address(ChannelMode.RESTRICTED, bytes(32), b"k1")
    a2 = channel_address(ChannelMode.RESTRICTED, bytes(32), b"k2")
    assert a1 != a2


def test_restricted_requires_side_key():
    with pytest.raises(ChannelKeyError):
        channel_address(ChannelMode.RESTRICTED, bytes(32))
    with pytest.raises(ChannelKeyError):
        channel_address(ChannelMode.PUBLIC, bytes(32), b"k")


@pytest.mark.parametrize("mode,key", [
    (ChannelMode.PUBLIC, None),
    (ChannelMode.PRIVATE, None),
    (ChannelMode.RESTRICTED, b"secret"),
])
def test_mam_round_trip_all_modes(mode, key):
    t = Tangle()
    root = bytes(range(32))
    ch = MamChannel(mode, root, side_key=key)
    messages = [b"one", b"two", b"three"]
    for m in messages:
        ch.publish(t, m)
    got = mam_fetch(t, ch.base_address, mode, key)
    assert got == messages


def test_restricted_fetch_without_key_yields_nothing():
    t = Tangle()
    ch = MamChannel(ChannelMode.RESTRICTED, bytes(32), side_key=b"secret")
    ch.publish(t, b"hidden")
    assert mam_fetch(t, ch.base_address, ChannelMode.RESTRICTED, None) == []
    assert mam_fetch(t, ch.base_address, ChannelMode.RESTRICTED, b"wrong") == []


def test_unknown_address_fetches_empty():
    t = Tangle()
    assert mam_fetch(t, bytes(31) + b"\x01", ChannelMode.PUBLIC) == []


def test_public_single_message_plaintext_on_ledger():
    t = Tangle()
    ch = MamChannel(ChannelMode.PUBLIC, bytes(32))
    ch.publish(t, b"plain payload")
    assert mam_fetch(t, ch.base_address, ChannelMode.PUBLIC) == [b"plain payload"]
    # public mode never encrypts: the bytes sit verbatim inside the envelope
    tx = t.transactions_at(ch.base_address)[0]
    assert b"plain payload" in tx.payload


def test_restricted_payload_not_plaintext_on_ledger():
    t = Tangle()
    ch = MamChannel(ChannelMode.RESTRICTED, bytes(32), side_key=b"secret")
    ch.publish(t, b"very confidential")
    tx = t.transactions_at(ch.base_address)[0]
    assert b"very confidential" not in tx.payload


def test_channel_reader_is_incremental():
    t = Tangle()
    ch = MamChannel(ChannelMode.PUBLIC, bytes(32))
    reader = ChannelReader(t, ch.base_address, ChannelMode.PUBLIC)
    ch.publish(t, b"m0")
    assert [m.body for m in reader.poll()] == [b"m0"]
    assert reader.poll() == []
    ch.publish(t, b"m1")
    ch.publish(t, b"m2")
    assert [m.body for m in reader.poll()] == [b"m1", b"m2"]


def test_channel_message_ordering_is_publish_order():
    t = Tangle()
    ch = MamChannel(ChannelMode.PRIVATE, bytes(32))
    msgs = [f"msg-{i}".encode() for i in range(25)]
    for m in msgs:
        ch.publish(t, m)
    assert mam_fetch(t, ch.base_address, ChannelMode.PRIVATE) == msgs


def test_reused_public_index_is_read_once():
    t = Tangle()
    ch = MamChannel(ChannelMode.PUBLIC, bytes(32))
    reader = ChannelReader(t, ch.base_address, ChannelMode.PUBLIC)
    ch.publish(t, b"m0")
    first = t.transactions_at(ch.base_address)[0]
    assert [m.body for m in reader.poll()] == [b"m0"]
    # the same index-0 envelope again, approving other parents: a new
    # transaction at the channel address
    again = t.append(first.payload, channel_address=ch.base_address,
                     parents=(first.id, t.genesis))
    assert again != first.id
    ch.publish(t, b"m1")
    assert [(m.index, m.body) for m in reader.poll()] == [(1, b"m1")]
    assert mam_fetch(t, ch.base_address, ChannelMode.PUBLIC) == [b"m0", b"m1"]


def test_envelope_appended_before_its_index_is_never_read():
    # messages 0 and 1 of one channel, copied onto another tangle as 1, 0
    src = Tangle()
    ch = MamChannel(ChannelMode.PUBLIC, bytes(32))
    ch.publish(src, b"m0")
    ch.publish(src, b"m1")
    m0, m1 = src.transactions_at(ch.base_address)
    t = Tangle()
    t.append(m1.payload, channel_address=ch.base_address)
    t.append(m0.payload, channel_address=ch.base_address)
    reader = ChannelReader(t, ch.base_address, ChannelMode.PUBLIC)
    assert [(m.index, m.body) for m in reader.poll()] == [(0, b"m0")]
    assert reader.poll() == []
    assert t.transactions_at(ch.base_address, 1) == \
        t.transactions_at(ch.base_address)[1:]


def test_forged_restricted_envelope_does_not_hide_the_message():
    root, key = bytes(32), b"secret"
    ch = MamChannel(ChannelMode.RESTRICTED, root, side_key=key)
    # a forger copies the layout of an index-0 envelope, but cannot make
    # its body authenticate without the key
    other = Tangle()
    MamChannel(ChannelMode.RESTRICTED, root, side_key=key).publish(other, b"x")
    forged = bytearray(other.transactions_at(ch.base_address)[0].payload)
    forged[-1] ^= 1
    t = Tangle()
    t.append(bytes(forged), channel_address=ch.base_address)
    ch.publish(t, b"genuine")
    ch.publish(t, b"next")
    reader = ChannelReader(t, ch.base_address, ChannelMode.RESTRICTED, key)
    assert [(m.index, m.body) for m in reader.poll()] == \
        [(0, b"genuine"), (1, b"next")]


def test_version_1_envelope_reads_as_empty(tmp_path):
    """A chain-addressed snapshot keeps only message 0 at a channel's base
    address, in a version-1 envelope: it loads and verifies, and the
    channel reads as empty rather than as its first message alone."""
    t = Tangle()
    ch = MamChannel(ChannelMode.PUBLIC, bytes(32))
    t.append(b"MAM1\x01\x00" + bytes(8) + b"old",
             channel_address=ch.base_address)
    path = tmp_path / "ledger.json"
    t.save(path)
    loaded = Tangle.load(path)
    assert loaded.verify() == []
    assert mam_fetch(loaded, ch.base_address, ChannelMode.PUBLIC) == []


# =============================================================================
# Concurrency
# =============================================================================

def test_threaded_appends_preserve_invariants():
    t = Tangle(rng_seed=1)
    n_threads, per_thread = 8, 250
    errors = []

    def worker(tid):
        rng = random.Random(tid)
        try:
            for i in range(per_thread):
                parents = t.select_tips(rng)
                t.append(f"{tid}:{i}".encode(), parents=parents)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert len(t) == 1 + n_threads * per_thread
    assert t.verify() == []


# =============================================================================
# Snapshots
# =============================================================================

def test_snapshot_round_trip(tmp_path):
    t = Tangle(rng_seed=9)
    ch = MamChannel(ChannelMode.PUBLIC, bytes(32))
    for i in range(30):
        ch.publish(t, f"r{i}".encode())
        t.append(f"x{i}".encode())
    path = tmp_path / "ledger.json"
    t.save(path)
    loaded = Tangle.load(path)
    assert loaded.verify() == []
    assert loaded.transactions.keys() == t.transactions.keys()
    assert loaded.tips == t.tips
    # in the same order, so seeded tip selection continues identically
    assert list(loaded._tips) == list(t._tips)
    assert mam_fetch(loaded, ch.base_address, ChannelMode.PUBLIC) == \
        [f"r{i}".encode() for i in range(30)]


_MODES = {"public": (ChannelMode.PUBLIC, None),
          "private": (ChannelMode.PRIVATE, None),
          "restricted": (ChannelMode.RESTRICTED, b"side")}


def _branching_tangle(seed: int, ops) -> tuple[Tangle, dict]:
    """A tangle grown by ``ops``: ``("staged", k)`` stages k + 1 tip
    selections before appending any of them, so the tip set widens; a mode
    name publishes k + 1 messages on that mode's channel; ``("raw", k)``
    appends k + 1 transactions on default tips."""
    t = Tangle(rng_seed=seed)
    channels = {name: MamChannel(mode, bytes([seed % 256]) * 32, side_key=key)
                for name, (mode, key) in _MODES.items()}
    for kind, k in ops:
        if kind == "staged":
            for parents in [t.select_tips() for _ in range(k + 1)]:
                t.append(f"staged {len(t)}".encode(), parents=parents)
        elif kind == "raw":
            for _ in range(k + 1):
                t.append(f"raw {len(t)}".encode())
        else:
            for _ in range(k + 1):
                channels[kind].publish(t, f"message {len(t)}".encode())
    return t, channels


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       ops=st.lists(st.tuples(st.sampled_from(
           ["staged", "raw", *_MODES]), st.integers(0, 3)), max_size=12))
def test_snapshot_round_trip_on_branching_dags(tmp_path_factory, seed, ops):
    t, channels = _branching_tangle(seed, ops)
    path = tmp_path_factory.mktemp("dag") / "ledger.json"
    t.save(path)
    loaded = Tangle.load(path)
    # ids, parents, payloads, addresses and logical times, in append order
    assert list(loaded.transactions.values()) == list(t.transactions.values())
    assert list(loaded._tips) == list(t._tips)
    assert loaded.stats() == t.stats()
    for name, (mode, key) in _MODES.items():
        address = channels[name].base_address
        assert mam_fetch(loaded, address, mode, key) == \
            mam_fetch(t, address, mode, key)
    again = path.with_name("again.json")
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_load_shares_one_object_per_id_and_address(tmp_path):
    t, _ = _branching_tangle(5, [("staged", 3), ("public", 2),
                                 ("restricted", 2), ("raw", 2)])
    path = tmp_path / "ledger.json"
    t.save(path)
    loaded = Tangle.load(path)
    txs = loaded.transactions
    ids = {tid: tid for tid in txs}     # each id object as its key holds it
    addresses = {}
    for tx in txs.values():
        assert all(p is ids[p] for p in tx.parents)
        if tx.channel_address is not None:
            assert addresses.setdefault(tx.channel_address,
                                        tx.channel_address) \
                is tx.channel_address
    assert len(addresses) == 2


def snapshot_oracle(t: Tangle) -> str:
    """The snapshot text, built from the store with ``json.dumps``: the
    channel table in first-use order, then one compact record per line with
    its parents as append indices."""
    txs = sorted(t.transactions.values(), key=lambda tx: tx.logical_time)
    position = {tx.id: k for k, tx in enumerate(txs)}
    channels = list(dict.fromkeys(tx.channel_address for tx in txs
                                  if tx.channel_address is not None))
    records = [json.dumps({
        "id": tx.id.hex(),
        "parents": [position[p] for p in tx.parents],
        "payload": base64.b64encode(tx.payload).decode("ascii"),
        "channel": (None if tx.channel_address is None
                    else channels.index(tx.channel_address))},
        separators=(",", ":")) for tx in txs]
    return ('{"format":"masksim-tangle","version":2,\n"channels":['
            + ",".join("\n" + json.dumps(c.hex()) for c in channels)
            + '\n],\n"transactions":['
            + ",".join("\n" + r for r in records) + "\n]}\n")


def test_snapshot_text_equals_compact_json_oracle(tmp_path):
    t = Tangle(rng_seed=4)
    path = tmp_path / "ledger.json"
    t.save(path)
    assert path.read_text(encoding="utf-8") == snapshot_oracle(t)
    restricted = MamChannel(ChannelMode.RESTRICTED, bytes(32), side_key=b"k")
    public = MamChannel(ChannelMode.PUBLIC, bytes(range(32)))
    for i in range(40):
        restricted.publish(t, bytes(range(i % 7, 3 * i)))
        public.publish(t, b'"quoted"\n\\' * i)
        t.append(f"raw {i}".encode())
    t.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == snapshot_oracle(t)
    assert text == snapshot_oracle(Tangle.load(path))
    doc = json.loads(text)
    assert doc["channels"] == [restricted.base_address.hex(),
                               public.base_address.hex()]
    assert [rec["parents"] for rec in doc["transactions"][:3]] == \
        [[0, 0], [0, 0], [1, 1]]



def test_snapshot_detects_flipped_payload_byte(tmp_path):
    import base64
    import json

    t = Tangle()
    t.append(b"tamper me")
    path = tmp_path / "ledger.json"
    t.save(path)
    doc = json.loads(path.read_text())
    raw = bytearray(base64.b64decode(doc["transactions"][1]["payload"]))
    raw[0] ^= 0x01
    doc["transactions"][1]["payload"] = base64.b64encode(bytes(raw)).decode()
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="hash mismatch"):
        Tangle.load(path)


def test_snapshot_of_fresh_tangle_is_valid(tmp_path):
    t = Tangle()
    path = tmp_path / "genesis-only.json"
    t.save(path)
    loaded = Tangle.load(path)
    assert len(loaded) == 1
    assert loaded.verify() == []


def _set(path, value):
    def edit(doc):
        *keys, last = path
        target = doc
        for k in keys:
            target = target[k]
        target[last] = value(doc) if callable(value) else value
    return edit


def _malformed(edit):
    return edit, ["malformed snapshot record"]


def _bad_channel(address):
    return (_set(("channels", 0), address),
            ["malformed snapshot channel 0"])


def _rehash(doc, i):
    """Recompute record ``i``'s id from its fields, so only the structure
    can show an edit."""
    records = doc["transactions"]
    rec = records[i]
    channel = rec["channel"]
    rec["id"] = transaction_id(
        tuple(bytes.fromhex(records[p]["id"]) for p in rec["parents"]),
        base64.b64decode(rec["payload"]),
        None if channel is None else bytes.fromhex(doc["channels"][channel])
    ).hex()


def _as_version_1(doc):
    """Rewrite the document in the version-1 layout: hex parents and
    address and a logical time in every record, and a genesis field."""
    records = doc["transactions"]
    ids = [rec["id"] for rec in records]
    doc.update(version=1, genesis=ids[0], transactions=[
        {"id": rec["id"], "parents": [ids[p] for p in rec["parents"]],
         "payload": rec["payload"],
         "channel_address": (None if rec["channel"] is None
                             else doc["channels"][rec["channel"]]),
         "logical_time": time} for time, rec in enumerate(records)])
    del doc["channels"]


# records: genesis, a (genesis, genesis), b (a, a), c (b, a) on the one
# channel; a parent index is the parent's logical time.  Each expectation
# lists the faults ``load`` reports, one line each, in order.
@pytest.mark.parametrize("edit,faults", [
    (_set(("transactions", 2, "payload"), "Qg=="), ["content hash mismatch"]),
    (_set(("transactions", 3, "payload"),
          base64.b64encode(bytes(4097)).decode()),
     ["content hash mismatch", "oversize payload"]),
    (_set(("transactions", 3, "parents", 1), 4),
     ["record 3 has unresolvable parent index 4"]),
    (_set(("transactions", 3, "parents", 1), 3),
     ["content hash mismatch", "does not postdate parent"]),
    (_set(("transactions", 1, "parents", 0), 2),
     ["content hash mismatch", "does not postdate parent"]),
    (lambda doc: doc["transactions"].insert(2, doc["transactions"].pop(3)),
     ["content hash mismatch", "does not postdate parent"]),
    (_set(("transactions", 0, "parents", 0), 1),
     ["genesis does not reference itself twice"]),
    (_set(("transactions",), []), ["genesis record missing from snapshot"]),
    (lambda doc: doc["transactions"].append(dict(doc["transactions"][3])),
     ["duplicate transaction id"]),
    _malformed(lambda doc: doc["transactions"][2]["parents"].append(1)),
    _malformed(_set(("transactions", 2, "parents", 0), "1")),
    _malformed(_set(("transactions", 2, "parents", 0), True)),
    _malformed(_set(("transactions", 3, "parents", 0), 2.0)),
    _bad_channel(""),
    _bad_channel("ab" * 31),
    _bad_channel(lambda doc: " " + doc["channels"][0]),
    _malformed(_set(("transactions", 1, "payload"), "YQ==YQ==")),
    _malformed(_set(("transactions", 1, "payload"), "Y!Q==")),
    (_set(("transactions", 2, "parents", 0), -1),
     ["record 2 has unresolvable parent index -1"]),
    (_set(("transactions", 3, "channel"), -1),
     ["record 3 has unresolvable channel index -1"]),
    (_set(("transactions", 3, "channel"), 1),
     ["record 3 has unresolvable channel index 1"]),
    _malformed(_set(("transactions", 3, "channel"), False)),
    _malformed(_set(("transactions", 3, "channel"), 0.0)),
    _malformed(_set(("transactions", 3, "channel"), "0")),
    _bad_channel("zz" * 32),
    (_as_version_1, ["unsupported snapshot version 1"]),
], ids=["payload", "oversize", "unknown-parent", "self-reference",
        "parent-not-earlier", "reordered",
        "genesis-parents", "genesis-missing", "duplicate-id",
        "three-parents", "string-time", "bool-time", "float-time",
        "empty-address", "short-address", "padded-address", "trailing-base64",
        "non-base64-char", "negative-parent", "negative-channel",
        "channel-past-end", "bool-channel", "float-channel", "string-channel",
        "non-hex-address", "version-1"])
def test_load_reports_each_fault(tmp_path, edit, faults):
    t = Tangle()
    a = t.append(b"a")
    b = t.append(b"b", parents=(a, a))
    t.append(b"c", parents=(b, a), channel_address=bytes(range(32)))
    path = tmp_path / "ledger.json"
    t.save(path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError) as info:
        Tangle.load(path)
    problems = info.value.problems
    assert len(problems) == len(faults), problems
    for fault, problem in zip(faults, problems):
        assert fault in problem
    assert str(info.value) == "; ".join(problems)


def test_verify_reports_in_memory_faults():
    t = Tangle()
    a = t.append(b"a")
    b = t.append(b"b", parents=(a, a))
    t._tips.pop(b)
    assert t.verify() == ["tip set inconsistent: tracked 0, actual 1"]


def verify_oracle(t: Tangle) -> list[str]:
    """Reference for ``Tangle.verify``: the same checks, plus a walk of which
    transactions reach genesis, a self-reference check and a parent-count
    check, all of which the two ordering rules and ``load`` make redundant."""
    problems: list[str] = []
    unreachable: list[bytes] = []
    txs = t.transactions
    genesis = t.genesis
    g = txs.get(genesis)
    if g is None:
        return [f"genesis {genesis.hex()} missing from store"]
    if g.parents != (genesis, genesis):
        problems.append("genesis does not reference itself twice")

    children = dict.fromkeys(txs, 0)
    reaches: set[bytes] = set()     # every ancestor path ends at genesis
    last_time = -1
    for tid, tx in txs.items():
        is_genesis = tid == genesis
        effective = (ZERO32, ZERO32) if is_genesis else tx.parents
        if transaction_id(effective, tx.payload,
                          tx.channel_address) != tid:
            problems.append(f"content hash mismatch on {tid.hex()[:16]}")
        if len(tx.payload) > MAX_PAYLOAD:
            problems.append(f"oversize payload on {tid.hex()[:16]}")
        if len(tx.parents) != 2:
            problems.append(f"{tid.hex()[:16]} does not have 2 parents")
        if tx.logical_time <= last_time:
            problems.append(
                f"{tid.hex()[:16]} is stored out of logical-time order "
                f"({tx.logical_time} after {last_time})")
        last_time = tx.logical_time
        if is_genesis:
            reaches.add(tid)
            continue
        if tid in tx.parents:
            problems.append(f"{tid.hex()[:16]} references itself")
        reached = True
        for p in tx.parents:
            parent = txs.get(p)
            if parent is None:
                problems.append(f"{tid.hex()[:16]} has unresolvable "
                                f"parent {p.hex()[:16]}")
                reached = False
                continue
            children[p] += 1
            if parent.logical_time >= tx.logical_time:
                problems.append(f"{tid.hex()[:16]} does not postdate "
                                f"parent {p.hex()[:16]}")
            reached = reached and p in reaches
        if reached:
            reaches.add(tid)
        else:
            unreachable.append(tid)
    tips = set(t._tips)

    # the walk meets parents first, so a transaction reaches genesis iff
    # its parents already did; this catches a disconnected second root
    problems.extend(f"{u.hex()[:16]} cannot reach genesis"
                    for u in unreachable)
    expected_tips = {u for u, n in children.items() if n == 0}
    if expected_tips != tips:
        problems.append(
            f"tip set inconsistent: tracked {len(tips)}, actual {len(expected_tips)}")
    return problems


def _snapshot_edit(n):
    """One edit to a snapshot of ``n`` records: re-parent a record to
    another record (optionally re-hashing its own id, so only the structure
    can show the fault), swap or move two records, or move a record onto or
    off the channel."""
    index = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(st.just("reparent"), index, st.integers(0, 1), index,
                  st.booleans()),
        st.tuples(st.just("swap"), index, index),
        st.tuples(st.just("move"), index, index),
        st.tuples(st.just("channel"), index, st.booleans()))


def _apply_edit(doc, edit):
    records = doc["transactions"]
    kind, i, *args = edit
    if kind == "reparent":
        slot, target, rehash = args
        records[i]["parents"][slot] = target
        if rehash:
            _rehash(doc, i)
    elif kind == "swap":
        j = args[0]
        records[i], records[j] = records[j], records[i]
    elif kind == "move":
        records.insert(args[0], records.pop(i))
    else:
        records[i]["channel"] = 0 if args[0] and doc["channels"] else None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**16), kinds=st.lists(st.booleans(), min_size=1,
                                                 max_size=10),
       data=st.data())
def test_verify_agrees_with_reachability_oracle(tmp_path_factory, seed, kinds,
                                                data):
    t = Tangle(rng_seed=seed)
    channel = MamChannel(ChannelMode.PUBLIC, bytes(32))
    for i, on_channel in enumerate(kinds):
        if on_channel:
            channel.publish(t, f"m{i}".encode())
        else:
            t.append(f"x{i}".encode())
    path = tmp_path_factory.mktemp("oracle") / "ledger.json"
    t.save(path)
    doc = json.loads(path.read_text())
    n = len(doc["transactions"])
    for edit in data.draw(st.lists(_snapshot_edit(n), min_size=1, max_size=3)):
        _apply_edit(doc, edit)
    path.write_text(json.dumps(doc))
    with mock.patch.object(Tangle, "verify", lambda self: []):
        loaded = Tangle.load(path)

    problems, oracle = loaded.verify(), verify_oracle(loaded)
    assert bool(problems) == bool(oracle)
    assert set(problems) <= set(oracle)
    assert len(set(problems)) == len(problems)      # each fault once
    assert not any("cannot reach genesis" in p for p in problems)


@pytest.mark.parametrize("parts", [
    (), (b"",), (b"abc",), (b"masksim-tx-v1", bytes(32), bytes(range(32)),
                           b"\x01", b"\xff" * 32, b"payload" * 500)])
def test_digest_equals_incremental_sha256(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    assert crypto.digest(*parts) == h.digest()


def test_genesis_hash_uses_zero_parent_slots():
    t = Tangle()
    g = t.transactions[t.genesis]
    assert transaction_id((ZERO32, ZERO32), g.payload, None) == t.genesis
