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


def snapshot_oracle(t: Tangle) -> str:
    """The snapshot text as ``json.dump(doc, fh, indent=1)`` writes it."""
    import base64
    import io
    import json

    doc = {"format": "masksim-tangle", "version": 1,
           "genesis": t.genesis.hex(),
           "transactions": [
               {"id": tx.id.hex(),
                "parents": [p.hex() for p in tx.parents],
                "payload": base64.b64encode(tx.payload).decode("ascii"),
                "channel_address": (tx.channel_address.hex()
                                    if tx.channel_address else None),
                "logical_time": tx.logical_time}
               for tx in sorted(t.transactions.values(),
                                key=lambda tx: tx.logical_time)]}
    fh = io.StringIO()
    json.dump(doc, fh, indent=1)
    fh.write("\n")
    return fh.getvalue()


def test_snapshot_text_equals_indented_json_dump(tmp_path):
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
    assert path.read_text(encoding="utf-8") == snapshot_oracle(t)
    assert path.read_text(encoding="utf-8") == \
        snapshot_oracle(Tangle.load(path))


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


def _swap_times(doc):
    txs = doc["transactions"]
    txs[1]["logical_time"], txs[2]["logical_time"] = 2, 1


def _id(i):
    return lambda doc: doc["transactions"][i]["id"]


def _malformed(edit):
    return edit, ["malformed snapshot record"]


def _rehash(rec):
    """Recompute a record's id, so only its fields can show an edit."""
    address = rec["channel_address"]
    rec["id"] = transaction_id(
        tuple(bytes.fromhex(p) for p in rec["parents"]),
        base64.b64decode(rec["payload"]),
        None if address is None else bytes.fromhex(address)).hex()


def _readdress(address):
    def edit(doc):
        rec = doc["transactions"][3]       # no record names it as a parent
        rec["channel_address"] = address
        _rehash(rec)
    return edit


# transactions: genesis, a (genesis, genesis), b (a, a), c (b, a); each
# expectation lists the faults ``load`` reports, one line each, in order
@pytest.mark.parametrize("edit,faults", [
    (_set(("transactions", 2, "payload"), "Qg=="), ["content hash mismatch"]),
    (_set(("transactions", 3, "payload"),
          base64.b64encode(bytes(4097)).decode()),
     ["content hash mismatch", "oversize payload"]),
    (_set(("transactions", 3, "parents", 1), "ab" * 32),
     ["content hash mismatch", "unresolvable parent"]),
    (_set(("transactions", 3, "parents", 1), _id(3)),
     ["content hash mismatch", "does not postdate parent"]),
    (_swap_times, ["logical-time order", "does not postdate parent"]),
    (_set(("transactions", 3, "logical_time"), 2),
     ["logical-time order", "does not postdate parent"]),
    (lambda doc: doc["transactions"].insert(2, doc["transactions"].pop(3)),
     ["logical-time order"]),
    (_set(("transactions", 0, "parents", 0), _id(1)),
     ["genesis does not reference itself twice"]),
    (_set(("genesis",), "cd" * 32), ["missing from store"]),
    (lambda doc: doc["transactions"].append(dict(doc["transactions"][3])),
     ["duplicate transaction id"]),
    _malformed(lambda doc: doc["transactions"][2]["parents"].append(_id(1)(doc))),
    _malformed(_set(("transactions", 2, "logical_time"), "2")),
    _malformed(_set(("transactions", 1, "logical_time"), True)),
    _malformed(_set(("transactions", 2, "logical_time"), 2.5)),
    _malformed(_readdress("")),
    _malformed(_readdress("ab" * 31)),
    _malformed(_readdress("ab" * 21 + " " * 22)),
    _malformed(_set(("transactions", 1, "payload"), "YQ==YQ==")),
    _malformed(_set(("transactions", 1, "payload"), "Y!Q==")),
], ids=["payload", "oversize", "unknown-parent", "self-reference",
        "parent-not-earlier", "duplicate-time", "reordered",
        "genesis-parents", "genesis-missing", "duplicate-id",
        "three-parents", "string-time", "bool-time", "float-time",
        "empty-address", "short-address", "padded-address", "trailing-base64",
        "non-base64-char"])
def test_load_reports_each_fault(tmp_path, edit, faults):
    t = Tangle()
    a = t.append(b"a")
    b = t.append(b"b", parents=(a, a))
    t.append(b"c", parents=(b, a))
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
    """One edit to a snapshot of ``n`` records: re-parent a record to an
    existing or an unknown id (optionally re-hashing its own id, so only the
    structure can show the fault), swap or move two records, or set a
    logical time."""
    index = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(st.just("reparent"), index, st.integers(0, 1),
                  st.one_of(st.none(), index), st.booleans()),
        st.tuples(st.just("swap"), index, index),
        st.tuples(st.just("move"), index, index),
        st.tuples(st.just("time"), index, st.integers(-1, n + 1)))


def _apply_edit(records, edit):
    kind, i, *args = edit
    if kind == "reparent":
        slot, target, rehash = args
        rec = records[i]
        rec["parents"][slot] = ("ab" * 32 if target is None
                                else records[target]["id"])
        if rehash:
            _rehash(rec)
    elif kind == "swap":
        j = args[0]
        records[i], records[j] = records[j], records[i]
    elif kind == "move":
        records.insert(args[0], records.pop(i))
    else:
        records[i]["logical_time"] = args[0]


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
        _apply_edit(doc["transactions"], edit)
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
