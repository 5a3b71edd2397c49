"""Acceptance suite: the framework's exit criteria.

Each test prints one PASS line with its measured numbers, so a plain
``pytest -s tests/test_acceptance.py`` doubles as the acceptance report.
The statistical criteria run the full protocols (hundreds of simulations);
the whole module stays within a few minutes on a laptop.
"""

import random
import threading
import time

import numpy as np

from masksim.cli import main as cli_main
from masksim.controller import (ComplianceController, ControllerParams,
                                simulate_compliance)
from masksim.epidemic import WorldConfig, run
from masksim.escrow import EscrowBank, PenaltyPolicy
from masksim.ledger import ChannelMode, MamChannel, Tangle, mam_fetch
from masksim.positioning import (distance, multilaterate, simulate_exchange,
                                 time_of_flight)
from masksim.runner import run_scenario
from masksim.scenario import scenario_from_dict
from masksim.sensing import DetectorConfig, MaskDetector, synth_stream


def report(name, detail):
    print(f"\nACCEPTANCE PASS  {name}: {detail}")


# -- 1: mask-fraction trend ---------------------------------------------------

def test_01_mask_fraction_trend():
    t0 = time.perf_counter()
    fractions = [0.0, 0.25, 0.35, 0.55, 0.75]
    seeds = range(20)
    means = []
    for f in fractions:
        peaks = [run(WorldConfig(n_agents=500, mask_fraction=f, seed=s,
                                 initial_infected=3), steps=150)
                 .peak_infected_fraction() for s in seeds]
        means.append(float(np.mean(peaks)))
    elapsed = time.perf_counter() - t0
    assert all(a > b for a, b in zip(means, means[1:])), \
        f"peaks not strictly decreasing: {means}"
    assert means[0] > 0.90, f"0% mask peak {means[0]:.3f} not > 0.90"
    assert means[3] < 0.30, f"55% mask peak {means[3]:.3f} not < 0.30"
    assert elapsed < 120, f"runtime {elapsed:.0f}s exceeds 2 minutes"
    report("mask-fraction trend",
           f"mean peaks {[round(m, 3) for m in means]} "
           f"for fractions {fractions}, {elapsed:.0f}s")


# -- 2: controller convergence ------------------------------------------------

def test_02_controller_convergence():
    params = ControllerParams(alpha=0.25, beta=0.25, gamma=0.95,
                              q_star=0.9, delay=1)
    tails, fair_shares = [], []
    for seed in range(10):
        q = np.random.default_rng(1000 + seed).normal(0.0, 1.0, 100)
        out = simulate_compliance(params, q, steps=2000, seed=seed)
        tail = float(out.mean_compliance[-500:].mean())
        fair = float(np.mean(np.abs(out.windowed_avgs - 0.9) <= 0.10))
        assert abs(tail - 0.9) <= 0.05, f"seed {seed}: tail mean {tail:.4f}"
        assert fair >= 0.90, f"seed {seed}: only {fair:.0%} of agents fair"
        tails.append(tail)
        fair_shares.append(fair)
    report("controller convergence",
           f"tail means {min(tails):.4f}..{max(tails):.4f}, "
           f"fairness {min(fair_shares):.0%}..{max(fair_shares):.0%}")


# -- 3: TWR exactness ---------------------------------------------------------

def test_03_twr_exactness():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(0.1, 100.0)
        ts = simulate_exchange(d,
                               reply_delay=rng.uniform(1e-9, 1e-7),
                               final_delay=rng.uniform(1e-9, 1e-7),
                               clock_offset=rng.uniform(-1e-7, 1e-7),
                               start=rng.uniform(0.0, 1e-7))
        rel = abs(distance(time_of_flight(ts)) - d) / d
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12, f"worst relative error {worst:.2e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report("TWR exactness",
           f"worst relative error {worst:.2e} over 1000 exchanges, "
           f"{elapsed * 1000:.0f}ms")


# -- 4: multilateration accuracy ---------------------------------------------

def test_04_multilateration_accuracy():
    anchors = np.array([(0.0, 0.0), (20.0, 0.0), (0.0, 10.0), (20.0, 10.0)])
    rng = np.random.default_rng(7)
    sq_err = []
    worst_clean = 0.0
    for i in range(1000):
        p = rng.uniform([0.2, 0.2], [19.8, 9.8])
        true_d = np.linalg.norm(anchors - p, axis=1)
        noisy = np.maximum(true_d + rng.normal(0.0, 0.10, 4), 0.0)
        fix = multilaterate(anchors, noisy)
        assert fix.converged
        sq_err.append((fix.position[0] - p[0]) ** 2
                      + (fix.position[1] - p[1]) ** 2)
        if i < 200:   # noiseless recovery spot checks
            clean = multilaterate(anchors, true_d)
            err = np.hypot(clean.position[0] - p[0], clean.position[1] - p[1])
            worst_clean = max(worst_clean, err)
    rmse = float(np.sqrt(np.mean(sq_err)))
    assert rmse < 0.15, f"RMSE {rmse:.3f} m"
    assert worst_clean < 1e-6, f"noiseless recovery {worst_clean:.1e} m"
    report("multilateration accuracy",
           f"RMSE {rmse * 100:.1f} cm at sigma=10 cm, "
           f"noiseless {worst_clean:.1e} m")


# -- 5: detector thresholds ---------------------------------------------------

def test_05_detector_thresholds():
    cfg = DetectorConfig()   # window 10, 500 ppm, 50 ppb
    rng = np.random.default_rng(12)

    worn = synth_stream([(200, True)], rng)
    det = MaskDetector(cfg)
    bits = [b for b in (det.push_and_detect(s) for s in worn) if b is not None]
    assert bits and all(b == 1 for b in bits), "worn stream must read M=1"

    ambient = synth_stream([(200, False)], rng,)
    det = MaskDetector(cfg)
    bits = [b for b in (det.push_and_detect(s) for s in ambient)
            if b is not None]
    assert bits and all(b == 0 for b in bits), "ambient stream must read M=0"

    # transition lag at schedule edges
    det = MaskDetector(cfg)
    lags = []
    edges = [(100, 1), (200, 0), (300, 1)]
    stream = synth_stream([(100, False), (100, True), (100, False),
                           (100, True)], rng)
    emitted = {}
    for s in stream:
        b = det.push_and_detect(s)
        if b is not None:
            emitted[s.t] = b
    for edge, target in edges:
        crossing = min(t for t, b in emitted.items()
                       if t >= edge and b == target)
        lags.append(crossing - edge)
        assert crossing - edge <= cfg.window, \
            f"lag {crossing - edge} samples at edge t={edge}"
    report("detector thresholds",
           f"worn->1, ambient->0, edge lags {lags} samples (window 10)")


# -- 6: ledger invariants under concurrency -----------------------------------

def test_06_ledger_invariant_suite(tmp_path):
    tangle = Tangle(rng_seed=3)
    n_threads, per_thread = 8, 1250
    errors = []

    def worker(tid):
        rng = random.Random(tid)
        try:
            for i in range(per_thread):
                tangle.append(f"{tid}:{i}".encode(),
                              parents=tangle.select_tips(rng))
        except Exception as exc:   # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert len(tangle) == 1 + n_threads * per_thread
    problems = tangle.verify()
    assert problems == [], problems

    # channel round trips on the same ledger, all three modes
    root = bytes(range(32))
    for mode, key in ((ChannelMode.PUBLIC, None), (ChannelMode.PRIVATE, None),
                      (ChannelMode.RESTRICTED, b"side-key")):
        ch = MamChannel(mode, root, side_key=key)
        msgs = [f"{mode.value}-{i}".encode() for i in range(5)]
        for m in msgs:
            ch.publish(tangle, m)
        assert mam_fetch(tangle, ch.base_address, mode, key) == msgs
    restricted = MamChannel(ChannelMode.RESTRICTED, bytes(32), side_key=b"k")
    restricted.publish(tangle, b"hidden")
    assert mam_fetch(tangle, restricted.base_address,
                     ChannelMode.RESTRICTED, b"wrong") == []

    snapshot = tmp_path / "ledger.json"
    tangle.save(snapshot)
    code = cli_main(["ledger", "inspect", str(snapshot)])
    assert code == 0, f"ledger inspect exited {code}"
    report("ledger invariants",
           f"{len(tangle)} transactions over {n_threads} threads, "
           f"MAM round trips in 3 modes, inspect exit 0")


# -- 7: token conservation ----------------------------------------------------

def test_07_token_conservation():
    agents = [f"a{i}" for i in range(50)]
    everyone = np.ones(len(agents), dtype=bool)
    for policy in PenaltyPolicy:
        rng = np.random.default_rng(hash(policy.value) % 2**32)
        bank = EscrowBank({a: 200.0 for a in agents}, policy, rho=0.5)
        for k in range(1, 1001):
            bank.enter(np.round(rng.uniform(0, 3, len(agents)), 4), k)
            bits = (rng.random(len(agents)) < 0.65).astype(np.int8)
            bank.settle(bits, everyone, k)
            assert bank.balances.total() == bank.initial_total_micro, \
                f"{policy.value}: conservation broken at step {k}"
        bank.close(1000)
        assert bank.balances.total() == bank.initial_total_micro

    # rho=0 variant is bit-identical to plain adaptive
    def drive(policy, rho):
        rng = np.random.default_rng(99)
        bank = EscrowBank({a: 200.0 for a in agents}, policy, rho=rho)
        for k in range(1, 1001):
            bank.enter(np.round(rng.uniform(0, 3, len(agents)), 4), k)
            bank.settle((rng.random(len(agents)) < 0.6).astype(np.int8),
                        everyone, k)
        return bank

    plain = drive(PenaltyPolicy.ADAPTIVE, rho=0.7)
    zero = drive(PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=0.0)
    assert plain.transfers == zero.transfers
    assert plain.balances.wallets == zero.balances.wallets
    report("token conservation",
           "4 policies x 1000 steps x 50 agents exact at 1e-6 granularity; "
           "rho=0 bit-identical to adaptive")


# -- 8: windowed-average oracle -----------------------------------------------

def test_08_windowed_average_oracle():
    # 400 random histories of 1..64 bits, one agent each.  Leading zeros pad
    # every history to 64 steps: the average stays exactly 0.0 through them,
    # so each agent's final average is that of its own history.
    rng = np.random.default_rng(5)
    histories = [rng.integers(0, 2, size=int(rng.integers(1, 65)))
                 for _ in range(400)]
    padded = np.zeros((64, len(histories)))
    for a, bits in enumerate(histories):
        padded[64 - len(bits):, a] = bits
    worst = 0.0
    for gamma in (0.1, 0.5, 0.9):
        ctrl = ComplianceController(ControllerParams(gamma=gamma),
                                    [f"a{a}" for a in range(len(histories))])
        everyone = np.ones(len(histories), dtype=bool)
        for k, bits in enumerate(padded, start=1):
            ctrl.step(k, bits, everyone)
        for a, bits in enumerate(histories):
            k = len(bits)
            direct = (1 - gamma) * sum(gamma ** (k - j) * bits[j - 1]
                                       for j in range(1, k + 1))
            worst = max(worst, abs(ctrl.windowed_avgs[a] - direct))
    assert worst < 1e-12, f"worst deviation {worst:.2e}"
    report("windowed-average oracle",
           f"controller vs direct sum worst deviation {worst:.2e}")


# -- 9: determinism -----------------------------------------------------------

def test_09_simulate_determinism(tmp_path):
    doc = {
        "version": 1, "seed": 2024, "steps": 60,
        "world": {"n_agents": 40, "mask_mode": "controller",
                  "initial_infected": 2},
        "escrow": {"policy": "adaptive_with_return", "rho": 0.5,
                   "initial_balance": 60.0},
    }
    for d in ("first", "second"):
        run_scenario(scenario_from_dict(doc), out_dir=tmp_path / d)
    names = ["epidemic.csv", "costs.csv", "transfers.csv", "ledger.json"]
    for name in names:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report("determinism",
           f"byte-identical {names} across two runs of the same config+seed")
