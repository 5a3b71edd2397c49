"""The benchmark's own tests: every correctness check passes on a real run
and fails once its input is corrupted.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from masksim import epidemic, runner  # noqa: E402


class SmallLoop(workloads.ClosedLoop):
    agents = 12
    steps = 15


class SmallSweep(workloads.MaskSweep):
    agents = 60
    steps = 30
    fractions = (0.0, 0.9)
    seeds_per_fraction = 1


class SmallAudit(workloads.LedgerAudit):
    agents = 12
    steps = 15


def _ran(cls, tmp_path_factory, seed=3):
    work = tmp_path_factory.mktemp(cls.name)
    wl = cls(seed, work)
    wl.setup()
    _, attempted, failed = wl.run_round()
    wl.rounds += 1
    return wl, attempted, failed


@pytest.fixture(scope="module")
def loop(tmp_path_factory):
    wl, attempted, failed = _ran(SmallLoop, tmp_path_factory)
    assert (attempted, failed) == (1, 0)
    return wl


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    wl, attempted, failed = _ran(SmallAudit, tmp_path_factory)
    assert (attempted, failed) == (1, 0)
    return wl


@pytest.fixture()
def loop_copy(loop, tmp_path):
    """The closed-loop workload with its outputs copied, safe to corrupt."""
    shutil.copytree(loop.out, tmp_path / "out")
    loop_copy = SmallLoop(loop.seed, tmp_path)
    loop_copy.__dict__.update({k: v for k, v in loop.__dict__.items()
                               if k not in ("work", "out")})
    loop_copy.out = tmp_path / "out"
    return loop_copy


def _edit_csv_row(path: Path, row: int, column: str, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = edit(fields[i])
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


# =============================================================================
# Every check holds on real runs
# =============================================================================

def test_closed_loop_checks_hold(loop):
    assert loop.problems() == []


def test_ledger_audit_checks_hold(audit):
    assert audit.problems() == []


def test_mask_sweep_checks_hold(tmp_path_factory):
    wl, attempted, _ = _ran(SmallSweep, tmp_path_factory)
    assert attempted == 2 * len(wl.configs)
    assert wl.problems() == []


def test_rounds_must_repeat_the_first(loop_copy):
    (loop_copy.out / "costs.csv").write_text("step,C,mean_c,mean_compliance\n")
    loop_copy.out, first = loop_copy.work / "first", loop_copy.out
    shutil.copytree(first, loop_copy.out)
    loop_copy.first = {"costs.csv": "0" * 64}
    loop_copy.run_round()
    assert any("differs from round 1" in p for p in loop_copy.round_problems)


# =============================================================================
# ... and fails on a corrupted input
# =============================================================================

def test_altered_transfer_amount_fails(loop_copy):
    path = loop_copy.out / "transfers.csv"
    rows = path.read_text().splitlines()[1:]
    deposit = next(i for i, r in enumerate(rows)
                   if i > 100 and ",deposit," in r)
    _edit_csv_row(path, deposit, "amount",
                  lambda a: f"{checks.parse_micro(a) / 1e6 + 0.000001:.6f}")
    problems = loop_copy.problems()
    assert any("not conserved" in p for p in problems)
    assert any("wallets differ" in p for p in problems)


def test_flipped_detector_bit_fails(loop):
    expected = checks.detector_oracle(loop.capture, 10, 500.0, 50.0)
    assert checks.detector_problems(expected, expected[:loop.steps]) == []
    flipped = list(expected[:loop.steps])
    flipped[4] ^= 1
    assert checks.detector_problems(expected, flipped) == [
        f"step 5: ledger bit {flipped[4]}, oracle {expected[4]}"]


def test_detector_oracle_agrees_with_masksim(loop):
    from masksim.sensing import DetectorConfig, GasSample
    samples = [GasSample(e, t, i) for i, (e, t) in enumerate(loop.capture)]
    assert (checks.detector_oracle(loop.capture, 10, 500.0, 50.0)
            == runner.detector_bits(DetectorConfig(), samples))


def test_dropped_contact_pair_fails():
    world = epidemic.World(epidemic.WorldConfig(n_agents=200, seed=4))
    ii, jj = epidemic.contact_pairs(world.positions, 2.0)
    assert checks.contact_pair_problems(world.positions, 2.0, ii, jj) == []
    problems = checks.contact_pair_problems(world.positions, 2.0,
                                            ii[1:], jj[1:])
    assert len(problems) == 1 and "1 pairs within epsilon missing" in problems[0]


def test_changed_snapshot_byte_fails(loop_copy, audit, tmp_path):
    snapshot = loop_copy.out / "ledger.json"
    workloads.tamper_snapshot(snapshot, snapshot, np.random.default_rng(0))
    assert any("ledger.json does not load" in p for p in loop_copy.problems())

    copy = SmallAudit(audit.seed, tmp_path)
    copy.out = tmp_path / "audit"
    shutil.copytree(audit.out, copy.out)
    copy.snapshot = copy.out / "ledger.json"
    workloads.tamper_snapshot(copy.snapshot, copy.snapshot,
                              np.random.default_rng(1))
    assert copy.run_round()[1:] == (1, 1)
    assert copy.problems() == ["no round completed"]


def test_tamper_check_fails_when_nothing_changes(audit, monkeypatch):
    monkeypatch.setattr(workloads, "tamper_snapshot",
                        lambda src, dst, rng: shutil.copy(src, dst))
    assert audit.tamper_problems() == [
        "ledger inspect exits 0 on a tampered snapshot"]


def test_changed_cost_fails(loop_copy):
    _edit_csv_row(loop_copy.out / "costs.csv", 7, "C",
                  lambda c: repr(float(c) + 1e-6))
    problems = loop_copy.problems()
    assert any("control law gives" in p for p in problems)
    assert any("ledger C" in p for p in problems)


def test_changed_mean_mask_fails(loop_copy):
    _edit_csv_row(loop_copy.out / "epidemic.csv", 3, "mean_M",
                  lambda m: repr(float(m) + 1 / 12))
    assert any("ledger mean" in p for p in loop_copy.problems())


def test_moved_position_fails(loop_copy):
    agent = runner.agent_ids(loop_copy.agents)[loop_copy.hil_index]
    lines = (loop_copy.out / "agent_trace.csv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if f",{agent}," in line)
    fields = lines[row].split(",")
    fields[2] = repr(float(fields[2]) + 0.6)
    lines[row] = ",".join(fields)
    (loop_copy.out / "agent_trace.csv").write_text("\n".join(lines) + "\n")
    assert any("from the truth" in p for p in loop_copy.problems())


def test_population_checks():
    rows = [(10, 2, 0, 0), (9, 3, 0, 0), (9, 1, 2, 0)]
    assert checks.sir_problems(rows, 12) == []
    assert checks.sir_problems(rows + [(10, 0, 2, 0)], 12) == [
        "row 3: S rose from 9 to 10"]
    assert checks.sir_problems(rows + [(9, 2, 1, 0)], 12) == [
        "row 3: an immune count fell"]
    assert checks.sir_problems([(10, 1, 0, 0)], 12) == [
        "row 0: S+I+R = 11 != 12"]


def test_peak_order():
    assert checks.peak_order_problems({0.0: [0.9, 0.8], 0.9: [0.1, 0.2]}) == []
    assert checks.peak_order_problems({0.0: [0.1], 0.9: [0.1]})


def test_series_export_compared_exactly():
    series = epidemic.EpidemicSeries(
        steps=np.arange(2), susceptible=np.array([9, 8]),
        infected=np.array([1, 2]), immune_slight=np.zeros(2, dtype=int),
        immune_serious=np.zeros(2, dtype=int),
        mean_mask=np.array([0.0, 0.3]))
    good = ("step,S,I,R_slight,R_serious,mean_M,C,mean_c\n"
            "0,9,1,0,0,0.0,0.0,0.0\n1,8,2,0,0,0.3,0.0,0.0\n")
    assert checks.series_csv_problems(good, series) == []
    assert checks.series_csv_problems(good.replace("0.3", "0.30001"), series)
    assert checks.series_csv_problems(good.replace(
        "0.3,", "np.float64(0.3),"), series)


def test_parse_micro():
    assert checks.parse_micro("12.000345") == 12_000_345
    assert checks.parse_micro("0.5") == 500_000
    with pytest.raises(ValueError):
        checks.parse_micro("-1.000000")


# =============================================================================
# Tracing
# =============================================================================

def test_tracer_wraps_import_bound_names_and_restores_them():
    before = runner.sample_mask_bits
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert runner.sample_mask_bits is not before
        assert runner.sample_mask_bits is epidemic.sample_mask_bits
        tracer.recording = True
        world = epidemic.World(epidemic.WorldConfig(n_agents=30, seed=1))
        runner.sample_mask_bits(world, 1)
        epidemic.advance(world, 1)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert runner.sample_mask_bits is before
    totals = tracer.totals()
    assert totals["epidemic.sample_mask_bits"][0] == 1
    assert totals["epidemic.contact_pairs"][0] == 1
    calls, self_s, total_s = totals["epidemic.advance"]
    assert calls == 1 and 0 <= self_s < total_s


def test_benchmark_json_names_every_metric(audit):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    layer = tracing.layer_metrics(tracer, 1, 1, 1, {})
    layer["trace.overhead_pct"] = (0.0, "%")
    assert [m["name"] for m in doc["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in doc["per_layer"])
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(
        workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "agent_steps_per_s", "peak_rss_mb", "snapshot_mb"]
    assert run.SRC == BENCH.parent / "src"
