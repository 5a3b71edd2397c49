"""Detector window semantics, synthetic streams, status publishing."""

import numpy as np
import pytest

from masksim.bus import Gateway, MessageBus
from masksim.ledger import ChannelMode, MamChannel, Tangle, mam_fetch
from masksim.sensing import (CombineRule, DetectorConfig, GasSample,
                             MaskDetector, StreamLevels, decode_status,
                             encode_status, status_topic, synth_stream)
from masksim.bus import decode_bridge_record


def feed(detector, pairs):
    out = []
    for t, (eco2, tvoc) in enumerate(pairs):
        bit = detector.push_and_detect(GasSample(eco2, tvoc, t))
        if bit is not None:
            out.append(bit)
    return out


# =============================================================================
# Thresholding
# =============================================================================

def test_worn_levels_detected_as_mask_on():
    det = MaskDetector(DetectorConfig())
    bits = feed(det, [(600.0, 60.0)] * 10)
    assert bits == [1]


def test_ambient_levels_detected_as_mask_off():
    det = MaskDetector(DetectorConfig())
    bits = feed(det, [(400.0, 0.0)] * 10)
    assert bits == [0]


def test_no_emission_before_window_fills():
    det = MaskDetector(DetectorConfig(window=10))
    assert feed(det, [(600.0, 60.0)] * 9) == []


def test_combine_rule_truth_table():
    # means (600, 40): eCO2 above, TVOC below
    and_det = MaskDetector(DetectorConfig(combine=CombineRule.AND))
    or_det = MaskDetector(DetectorConfig(combine=CombineRule.OR))
    samples = [(600.0, 40.0)] * 10
    assert feed(and_det, samples) == [0]
    assert feed(or_det, samples) == [1]


def test_thresholds_are_strict():
    det = MaskDetector(DetectorConfig(window=2))
    assert feed(det, [(500.0, 50.0)] * 2) == [0]           # equal: not above
    assert feed(MaskDetector(DetectorConfig(window=2)),
                [(500.0001, 50.0001)] * 2) == [1]


def test_window_mean_matches_bruteforce_recompute():
    rng = np.random.default_rng(5)
    cfg = DetectorConfig(window=7)
    det = MaskDetector(cfg)
    history = []
    for t in range(60):
        eco2 = float(rng.uniform(300, 700))
        tvoc = float(rng.uniform(0, 100))
        history.append((eco2, tvoc))
        bit = det.push_and_detect(GasSample(eco2, tvoc, t))
        if bit is None:
            continue
        last = history[-cfg.window:]
        mean_eco2 = sum(e for e, _ in last) / cfg.window
        mean_tvoc = sum(v for _, v in last) / cfg.window
        expect = int(mean_eco2 > cfg.eco2_threshold and
                     mean_tvoc > cfg.tvoc_threshold)
        assert bit == expect
        assert det.window_means() == pytest.approx((mean_eco2, mean_tvoc))


def test_detector_is_pure_function_of_window():
    stream = [(float(400 + 30 * (i % 11)), float(10 * (i % 9))) for i in range(80)]
    a = feed(MaskDetector(DetectorConfig()), stream)
    b = feed(MaskDetector(DetectorConfig()), stream)
    assert a == b and len(a) == 71


def test_nonfinite_sample_dropped_and_counted():
    det = MaskDetector(DetectorConfig(window=3))
    bits = feed(det, [(600.0, 60.0), (float("nan"), 60.0),
                      (600.0, 60.0), (600.0, 60.0)])
    assert det.dropped == 1
    assert bits == [1]


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(window=0)
    with pytest.raises(ValueError):
        DetectorConfig(eco2_threshold=0.0)


# =============================================================================
# Synthetic streams
# =============================================================================

def test_all_off_schedule_never_detects():
    rng = np.random.default_rng(1)
    det = MaskDetector(DetectorConfig())
    samples = synth_stream([(80, False)], rng)
    bits = [det.push_and_detect(s) for s in samples]
    emitted = [b for b in bits if b is not None]
    assert emitted and all(b == 0 for b in emitted)


def test_all_on_schedule_detects_after_warmup():
    rng = np.random.default_rng(2)
    det = MaskDetector(DetectorConfig())
    samples = synth_stream([(80, True)], rng)
    emitted = [b for b in (det.push_and_detect(s) for s in samples)
               if b is not None]
    assert emitted and all(b == 1 for b in emitted)


def test_transitions_lag_at_most_window_samples():
    rng = np.random.default_rng(3)
    cfg = DetectorConfig(window=10)
    det = MaskDetector(cfg)
    schedule = [(40, True), (40, False), (40, True)]
    samples = synth_stream(schedule, rng)
    bits = {}
    for s in samples:
        b = det.push_and_detect(s)
        if b is not None:
            bits[s.t] = b
    # edges at t=40 (on->off) and t=80 (off->on): the windowed mean must
    # cross within `window` samples of each edge
    for edge, target in ((40, 0), (80, 1)):
        crossing = min(t for t, b in bits.items() if t >= edge and b == target)
        assert crossing - edge <= cfg.window


def test_synth_stream_deterministic_per_seed():
    s1 = synth_stream([(30, True), (10, False)], np.random.default_rng(9))
    s2 = synth_stream([(30, True), (10, False)], np.random.default_rng(9))
    assert s1 == s2
    assert all(s.eco2 >= 0 and s.tvoc >= 0 for s in s1)


def test_stream_levels_cross_thresholds_with_margin():
    # worn means beat the thresholds by > 3 sigma of the window mean
    lv = StreamLevels()
    cfg = DetectorConfig()
    w = cfg.window
    assert lv.worn_eco2 - cfg.eco2_threshold > 3 * lv.sigma_eco2 / np.sqrt(w)
    assert lv.worn_tvoc - cfg.tvoc_threshold > 3 * lv.sigma_tvoc / np.sqrt(w)
    assert cfg.eco2_threshold - lv.ambient_eco2 > 3 * lv.sigma_eco2 / np.sqrt(w)
    assert cfg.tvoc_threshold - lv.ambient_tvoc > 3 * lv.sigma_tvoc / np.sqrt(w)


# =============================================================================
# Publishing
# =============================================================================

def _pipeline(agent_id="a1"):
    tangle = Tangle(rng_seed=1)
    bus = MessageBus()
    channel = MamChannel(ChannelMode.RESTRICTED, bytes(32), side_key=b"agent-key")
    gw = Gateway(bus, tangle, {status_topic(agent_id): channel})
    return tangle, bus, channel, gw


def publish(bus, gw, agent_id, step, m, position):
    """One detection onto the bus, then the bus onto the ledger, as the
    runner does it; returns the transaction ids the gateway appended."""
    bus.publish(status_topic(agent_id),
                encode_status(agent_id, step, m, position),
                publisher_id=agent_id)
    return gw.pump()


def test_one_detection_one_bus_message_one_ledger_tx():
    tangle, bus, channel, gw = _pipeline()
    [tx] = publish(bus, gw, "a1", step=3, m=1, position=(1.25, 2.5))
    assert tx in tangle.transactions
    assert gw.bridged == 1
    bodies = mam_fetch(tangle, channel.base_address, ChannelMode.RESTRICTED,
                       b"agent-key")
    assert len(bodies) == 1


def test_hundred_detections_ordered_and_bit_exact():
    tangle, bus, channel, gw = _pipeline()
    for step in range(1, 101):
        publish(bus, gw, "a1", step=step, m=step % 2,
                position=(0.1 * step, 0.2 * step))
    bodies = mam_fetch(tangle, channel.base_address, ChannelMode.RESTRICTED,
                       b"agent-key")
    assert len(bodies) == 100
    for i, body in enumerate(bodies, start=1):
        rec = decode_bridge_record(body)
        doc = decode_status(rec["payload"])
        assert doc["agent"] == "a1"
        assert doc["step"] == i
        assert doc["M"] == i % 2
        assert doc["pos"] == [0.1 * i, 0.2 * i]   # float repr round trip
