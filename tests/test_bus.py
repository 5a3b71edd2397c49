"""Bus semantics (FIFO, fan-out, overflow) and the bus-to-ledger gateway."""

import logging
import threading

import pytest

from masksim.bus import Gateway, MessageBus, TopicError, validate_topic
from masksim.ledger import ChannelMode, MamChannel, Tangle, mam_fetch


def test_topic_validation():
    validate_topic("mask/agent-1/status")
    for bad in ("", "a//b", "/a", "a/"):
        with pytest.raises(TopicError):
            validate_topic(bad)


def test_publish_without_subscribers_is_accepted():
    bus = MessageBus()
    assert bus.publish("t/x", b"hello", "p1") == 1


def test_fifo_per_publisher_topic():
    bus = MessageBus()
    sub = bus.subscribe("t/x")
    for i in range(3):
        bus.publish("t/x", f"m{i}".encode(), "p1")
    got = [m.payload for m in sub.drain()]
    assert got == [b"m0", b"m1", b"m2"]
    seqs = [bus.publish("t/x", b"m", "p1") for _ in range(3)]
    assert seqs == [4, 5, 6]


def test_fan_out_exactly_once_per_subscriber():
    bus = MessageBus()
    s1 = bus.subscribe("t/x")
    s2 = bus.subscribe("t/x")
    for i in range(5):
        bus.publish("t/x", f"{i}".encode(), "p1")
    assert [m.payload for m in s1.drain()] == [m.payload for m in s2.drain()] \
        == [b"0", b"1", b"2", b"3", b"4"]


def test_subscribe_after_publish_misses_earlier_message():
    bus = MessageBus()
    bus.publish("t/x", b"early", "p1")
    sub = bus.subscribe("t/x")
    assert sub.drain() == []


def test_closed_subscription_receives_nothing_and_detaches():
    bus = MessageBus()
    sub = bus.subscribe("t/x")
    sub.close()
    bus.publish("t/x", b"m", "p1")
    assert sub.drain() == []
    assert "t/x" not in bus._subs


def test_slow_consumer_drops_oldest():
    bus = MessageBus()
    sub = bus.subscribe("t/x", maxlen=4)
    for i in range(6):
        bus.publish("t/x", f"{i}".encode(), "p1")
    assert sub.dropped == 2
    assert [m.payload for m in sub.drain()] == [b"2", b"3", b"4", b"5"]


def test_oversize_bus_payload_rejected():
    bus = MessageBus()
    with pytest.raises(ValueError):
        bus.publish("t/x", b"x" * (64 * 1024 + 1), "p1")


def test_interleaved_publishers_keep_per_publisher_order():
    bus = MessageBus()
    sub = bus.subscribe("t/x")
    for i in range(10):
        bus.publish("t/x", f"a{i}".encode(), "alice")
        bus.publish("t/x", f"b{i}".encode(), "bob")
    msgs = sub.drain()
    a_seq = [m.sequence for m in msgs if m.publisher_id == "alice"]
    b_seq = [m.sequence for m in msgs if m.publisher_id == "bob"]
    assert a_seq == sorted(a_seq) and b_seq == sorted(b_seq)
    assert len(a_seq) == len(b_seq) == 10


def test_concurrent_publishers_never_violate_fifo():
    bus = MessageBus()
    sub = bus.subscribe("t/x", maxlen=10_000)
    n, per = 4, 200

    def worker(name):
        for i in range(per):
            bus.publish("t/x", f"{name}:{i}".encode(), name)

    threads = [threading.Thread(target=worker, args=(f"p{k}",)) for k in range(n)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    msgs = sub.drain()
    assert len(msgs) == n * per
    for k in range(n):
        seqs = [m.sequence for m in msgs if m.publisher_id == f"p{k}"]
        assert seqs == sorted(seqs) == list(range(1, per + 1))


# =============================================================================
# Gateway
# =============================================================================

def _setup(route_topic="mask/a1/status"):
    tangle = Tangle(rng_seed=2)
    bus = MessageBus()
    channel = MamChannel(ChannelMode.PUBLIC, bytes(32))
    gw = Gateway(bus, tangle, {route_topic: channel})
    return tangle, bus, channel, gw


def test_gateway_bridges_in_order():
    tangle, bus, channel, gw = _setup()
    for i in range(10):
        bus.publish("mask/a1/status", f"s{i}".encode(), "a1")
    appended = gw.pump()
    assert len(appended) == 10
    bodies = mam_fetch(tangle, channel.base_address, ChannelMode.PUBLIC)
    from masksim.bus import decode_bridge_record
    records = [decode_bridge_record(b) for b in bodies]
    assert [r["payload"] for r in records] == [f"s{i}".encode() for i in range(10)]
    assert [r["seq"] for r in records] == list(range(1, 11))


def test_gateway_ignores_unrouted_topic():
    tangle, bus, channel, gw = _setup()
    bus.publish("other/topic", b"x", "a1")
    assert gw.pump() == []
    assert gw.bridged == 0


def test_gateway_restart_mid_stream_no_duplicates():
    tangle = Tangle(rng_seed=2)
    bus = MessageBus()
    channel = MamChannel(ChannelMode.PUBLIC, bytes(32))
    gw1 = Gateway(bus, tangle, {"t/x": channel})
    for i in range(10):
        bus.publish("t/x", f"m{i}".encode(), "pub")
    gw1.pump(limit=5)          # crash after message 5
    gw1.close()

    # a fresh bridge over the same ledger; the gateway recovers the channel
    # cursor from the ledger, and the producer redelivers all ten messages
    # with their original sequence numbers (at-least-once)
    channel2 = MamChannel(ChannelMode.PUBLIC, bytes(32))
    gw2 = Gateway(bus, tangle, {"t/x": channel2})
    assert channel2.next_index == 5
    for i in range(10):
        bus.publish("t/x", f"m{i}".encode(), "pub", sequence=i + 1)
    gw2.pump()
    assert gw2.duplicates == 5

    from masksim.bus import decode_bridge_record
    bodies = mam_fetch(tangle, channel.base_address, ChannelMode.PUBLIC)
    records = [decode_bridge_record(b) for b in bodies]
    assert [r["seq"] for r in records] == list(range(1, 11))
    assert len(records) == 10


def test_gateway_dead_letters_oversize_message():
    tangle, bus, channel, gw = _setup("t/x")
    bus.publish("t/x", b"x" * 8192, "pub")   # over the 4 KiB ledger limit
    bus.publish("t/x", b"ok", "pub")
    appended = gw.pump()
    assert len(appended) == 1
    assert len(gw.dead_letters) == 1
    assert gw.counters()["dead_letters"] == 1


def test_gateway_dead_letters_on_first_failure_without_retry(caplog,
                                                             monkeypatch):
    tangle, bus, channel, gw = _setup("t/x")
    attempts = []
    real_publish = MamChannel.publish

    def counting_publish(self, tangle, message):
        attempts.append(len(message))
        return real_publish(self, tangle, message)

    monkeypatch.setattr(MamChannel, "publish", counting_publish)
    bus.publish("t/x", b"x" * 8192, "pub")   # over the 4 KiB ledger limit
    with caplog.at_level(logging.DEBUG, logger="masksim.bus"):
        assert gw.pump() == []
    assert len(attempts) == 1
    assert [(r.levelno, r.getMessage().split(":")[0]) for r in caplog.records] \
        == [(logging.ERROR, "dead-lettering pub/t/x seq 1")]
    assert gw.counters()["dead_letters"] == 1


def test_gateway_dead_letters_message_the_bridge_record_cannot_hold():
    tangle, bus, channel, gw = _setup("t/x")
    bus.publish("t/x", b"late", "pub", sequence=2**64)   # beyond 64 bits
    appended = gw.pump()
    assert appended == [] and gw.counters()["dead_letters"] == 1
    assert gw.dead_letters[0].sequence == 2**64


def test_gateway_counters_account_exactly():
    tangle, bus, channel, gw = _setup("t/x")
    for i in range(7):
        bus.publish("t/x", f"{i}".encode(), "pub")
    appended = gw.pump()
    c = gw.counters()
    assert c["bridged"] == 7 and c["dead_letters"] == 0 and c["dropped"] == 0
    # all seven messages sit at the channel address, in publish order
    stored = tangle.transactions_at(channel_base(channel))
    assert [tx.id for tx in stored] == appended and len(appended) == 7


def channel_base(channel):
    return channel.base_address
