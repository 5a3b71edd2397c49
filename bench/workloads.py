"""The benchmark's workloads: what each runs, times and checks.

Each workload is one sequential caller in a closed loop: a round starts
only after the previous one has finished.  Every round of a run repeats
the same operations on the same inputs, which are made from the run's
seed in ``setup``.  The first round's outputs are checked in full after
the timed part; every later round must reproduce the first one exactly,
since masksim promises identical outputs for an identical config and seed.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from masksim import (bus, cli, controller, epidemic, escrow, ledger, runner,
                     sensing)

import checks

MICRO = 10**6


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


def _seed_base(seed: int) -> int:
    return seed % 2**31


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _controlled_scenario(seed: int, agents: int, steps: int) -> dict:
    """Controller-mode scenario with every parameter the checks use stated."""
    return {
        "version": 1,
        "seed": seed,
        "steps": steps,
        "world": {"n_agents": agents, "mask_mode": "controller",
                  "initial_infected": 2},
        "controller": {"alpha": 0.25, "beta": 0.25, "gamma": 0.95,
                       "q_star": 0.9, "delay": 1},
        "escrow": {"policy": "adaptive_with_return", "rho": 0.5,
                   "initial_balance": 100.0},
        "detector": {"window": 10, "eco2_threshold": 500.0,
                     "tvoc_threshold": 50.0, "combine": "and"},
    }


def read_ledger(tangle, seed: int, agents: list[str]) -> dict:
    """Read back every channel of a closed-loop run through the public API.

    Agent channels are restricted (so every record is decrypted) and hold
    bridge records wrapping status records; the controller channel holds
    cost vectors; the escrow channel is replayed into balances.
    """
    statuses: dict[str, list[dict]] = {}
    undecodable = 0
    for a in agents:
        ch = runner.agent_channel(seed, a)
        docs = []
        for body in ledger.mam_fetch(tangle, ch.base_address, ch.mode,
                                     ch.side_key):
            rec = bus.decode_bridge_record(body)
            doc = sensing.decode_status(rec["payload"]) if rec else None
            if doc is None:
                undecodable += 1
            else:
                docs.append(doc)
        statuses[a] = docs
    costs = [controller.decode_cost_vector(body) for body in ledger.mam_fetch(
        tangle, runner.controller_channel(seed).base_address,
        ledger.ChannelMode.PUBLIC)]
    payloads = ledger.mam_fetch(tangle, runner.escrow_channel(seed).base_address,
                                ledger.ChannelMode.PUBLIC)
    return {"statuses": statuses, "costs": costs, "undecodable": undecodable,
            "escrow_messages": len(payloads),
            "replayed": escrow.replay_records(payloads)}


def _ledger_fingerprint(read: dict) -> tuple:
    r = read["replayed"]
    return (read["statuses"], [(c["step"], c["C"]) for c in read["costs"]],
            read["undecodable"], r.wallets, r.active_bonds, r.forfeited_pool)


def _parse_transfers(path: Path) -> list[tuple]:
    return [(int(r["step"]), r["agent"], r["kind"],
             checks.parse_micro(r["amount"])) for r in _read_csv(path)]


def _parse_costs(path: Path) -> list[tuple]:
    return [(int(r["step"]), float(r["C"]), float(r["mean_compliance"]))
            for r in _read_csv(path)]


def _ledger_problems(read: dict, steps: int) -> list[str]:
    problems = checks.status_order_problems(read["statuses"], steps)
    if read["undecodable"]:
        problems.append(f"{read['undecodable']} status records do not decode")
    return problems


class Workload:
    """One workload: inputs from the seed, timed rounds, checks."""

    name = ""
    agents = 0
    steps = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = _seed_base(seed)
        self.work = workdir
        self.rounds = 0
        self.round_problems: list[str] = []
        self.first = None     # what the first completed round produced

    # overridden by each workload --------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> tuple[float, int, int]:
        """One round; returns (timed seconds, operations, failed ones)."""
        raise NotImplementedError

    def problems(self) -> list[str]:
        raise NotImplementedError

    @property
    def agent_steps(self) -> int:
        """Simulated agent-steps of one round."""
        return self.agents * self.steps

    def snapshot_bytes(self) -> int:
        raise NotImplementedError

    def expected_calls(self) -> dict[str, float]:
        """Per-round counts the traced run must report, from the make-up."""
        return {"sensing.encode_status.calls": 0,
                "ledger.tx.status": 0,
                "controller.ComplianceController.step.calls": 0,
                "epidemic.contact_pairs.calls": 0}

    def channel_kinds(self) -> dict[bytes, str]:
        return {}

    def layer_facts(self) -> dict:
        return {}

    # shared -------------------------------------------------------------

    def _round_failed(self, what: str) -> None:
        print(f"{self.name}: round {self.rounds + 1}: {what} failed:",
              file=sys.stderr)
        traceback.print_exc()

    def _same_as_first(self, first, now, what: str) -> None:
        if now != first:
            self.round_problems.append(
                f"round {self.rounds + 1}: {what} differs from round 1")


# =============================================================================
# closed_loop: masksim hil-replay through the CLI
# =============================================================================

class ClosedLoop(Workload):
    """``masksim hil-replay``: controller mode, adaptive_with_return escrow,
    agent trace on, one agent replayed from a synthesised capture."""

    name = "closed_loop"
    agents = 100
    steps = 60
    initial_micro = 100 * MICRO
    position_tolerance_m = 0.5

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.hil_index = int(rng.integers(self.agents))
        doc = _controlled_scenario(self.seed, self.agents, self.steps)
        doc["hil"] = {"agent_index": self.hil_index,
                      "ranging_jitter": 2.5e-10}
        doc["outputs"] = {"directory": str(self.work / "out"),
                          "agent_trace": True}
        self.config_path = self.work / "scenario.json"
        _write_json(self.config_path, doc)

        # worn and unworn segments of 6-20 samples, enough for every step
        window = doc["detector"]["window"]
        schedule, total, worn = [], 0, bool(rng.integers(2))
        while total < self.steps + window - 1:
            count = int(rng.integers(6, 21))
            schedule.append((count, worn))
            total += count
            worn = not worn
        samples = sensing.synth_stream(schedule, rng)
        self.capture = [(s.eco2, s.tvoc) for s in samples]
        self.capture_path = self.work / "capture.csv"
        with open(self.capture_path, "w", encoding="utf-8") as fh:
            fh.write("t,eco2_ppm,tvoc_ppb\n")
            for s in samples:
                fh.write(f"{s.t},{s.eco2!r},{s.tvoc!r}\n")
        self.doc = doc
        self.out = self.work / "out"

    def run_round(self):
        out = self.out if self.first is None else self.work / "again"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["hil-replay", str(self.config_path), str(self.capture_path),
                "--out-dir", str(out)]
        try:
            with redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - t0
        except Exception:
            self._round_failed("hil-replay")
            return 0.0, 1, 1
        if code != 0:
            print(f"{self.name}: hil-replay exited {code}", file=sys.stderr)
            return seconds, 1, 1
        digests = {p.name: _file_digest(p) for p in sorted(out.iterdir())
                   if p.name != "summary.json"}
        if self.first is None:
            self.first = digests
        else:
            self._same_as_first(self.first, digests, "output files")
        return seconds, 1, 0

    def snapshot_bytes(self) -> int:
        return os.path.getsize(self.out / "ledger.json")

    def expected_calls(self):
        n = self.agent_steps
        return {"sensing.encode_status.calls": n,
                "ledger.tx.status": n,
                "controller.ComplianceController.step.calls": self.steps,
                "epidemic.contact_pairs.calls": self.steps}

    def channel_kinds(self):
        kinds = {runner.agent_channel(self.seed, a).base_address: "status"
                 for a in runner.agent_ids(self.agents)}
        kinds[runner.escrow_channel(self.seed).base_address] = "escrow"
        kinds[runner.controller_channel(self.seed).base_address] = "controller"
        return kinds

    def layer_facts(self):
        summary = json.loads((self.out / "summary.json").read_text())
        return {"summary": summary,
                "transfers": len(_read_csv(self.out / "transfers.csv"))}

    def problems(self) -> list[str]:
        if self.first is None:
            return ["no round completed"]
        out, doc = self.out, self.doc
        problems = list(self.round_problems)
        summary = json.loads((out / "summary.json").read_text())
        if summary["steps"] != self.steps:
            problems.append(f"ran {summary['steps']} of {self.steps} steps")

        epi = _read_csv(out / "epidemic.csv")
        problems += checks.sir_problems(
            [(int(r["S"]), int(r["I"]), int(r["R_slight"]),
              int(r["R_serious"])) for r in epi], self.agents)
        mean_m = [float(r["mean_M"]) for r in epi[1:]]

        ctl = doc["controller"]
        cost_rows = _parse_costs(out / "costs.csv")
        problems += checks.cost_law_problems(cost_rows, ctl["alpha"],
                                             ctl["q_star"], ctl["delay"])
        transfers = _parse_transfers(out / "transfers.csv")
        agents = runner.agent_ids(self.agents)
        problems += checks.transfer_problems(transfers, agents,
                                             self.initial_micro)

        try:
            tangle = ledger.Tangle.load(out / "ledger.json")
        except ledger.IntegrityError as exc:
            return problems + [f"ledger.json does not load: {str(exc)[:200]}"]
        read = read_ledger(tangle, self.seed, agents)
        problems += _ledger_problems(read, self.steps)
        problems += checks.escrow_channel_problems(
            read["replayed"], transfers, agents, self.initial_micro)
        problems += checks.controller_channel_problems(read["costs"],
                                                       cost_rows)
        problems += checks.mean_bits_problems(read["statuses"], mean_m)

        det = doc["detector"]
        expected = checks.detector_oracle(self.capture, det["window"],
                                          det["eco2_threshold"],
                                          det["tvoc_threshold"],
                                          det["combine"])
        wearer = read["statuses"][agents[self.hil_index]]
        problems += checks.detector_problems(expected,
                                             [d["M"] for d in wearer])
        true = [(float(r["x"]), float(r["y"]))
                for r in _read_csv(out / "agent_trace.csv")
                if r["agent"] == agents[self.hil_index]]
        problems += checks.position_problems([d["pos"] for d in wearer], true,
                                             self.position_tolerance_m)
        return problems


# =============================================================================
# mask_sweep: fixed-fraction epidemic runs over a grid
# =============================================================================

class MaskSweep(Workload):
    """``epidemic.run`` over mask fractions x seeds, each series exported
    with ``EpidemicSeries.to_csv`` and read back."""

    name = "mask_sweep"
    agents = 500
    steps = 150
    fractions = (0.0, 0.3, 0.6, 0.9)
    seeds_per_fraction = 2
    sampled_steps = (0, 20, 40, 60)

    def setup(self) -> None:
        self.configs = [
            epidemic.WorldConfig(n_agents=self.agents, mask_fraction=f,
                                 seed=self.seed * self.seeds_per_fraction + j,
                                 initial_infected=3)
            for f in self.fractions for j in range(self.seeds_per_fraction)]
        self.export_problem = None

    @property
    def agent_steps(self) -> int:
        return len(self.configs) * self.agents * self.steps

    def run_round(self):
        seconds, failed, series_list = 0.0, 0, []
        for i, cfg in enumerate(self.configs):
            path = self.work / f"series{i}.csv"
            try:
                t0 = time.perf_counter()
                series = epidemic.run(cfg, self.steps)
                series.to_csv(path)
                seconds += time.perf_counter() - t0
            except Exception:
                self._round_failed(f"run {i}")
                return seconds, 2 * len(self.configs), 2 * len(self.configs)
            series_list.append(series)
            mismatch = checks.series_csv_problems(
                path.read_text(encoding="utf-8"), series)
            if mismatch:
                failed += 1
                if self.export_problem is None:
                    self.export_problem = mismatch[0]
                    print(f"{self.name}: to_csv export does not read back: "
                          f"{mismatch[0]}", file=sys.stderr)
        arrays = [np.stack([s.susceptible, s.infected, s.immune_slight,
                            s.immune_serious, s.mean_mask]) for s in series_list]
        if self.first is None:
            self.first = arrays
            self.first_series = series_list
            self.csv_bytes = sum(os.path.getsize(self.work / f"series{i}.csv")
                                 for i in range(len(self.configs)))
        elif not all(np.array_equal(a, b) for a, b in zip(self.first, arrays)):
            self.round_problems.append(
                f"round {self.rounds + 1}: series differ from round 1")
        return seconds, 2 * len(self.configs), failed

    def snapshot_bytes(self) -> int:
        return self.csv_bytes

    def expected_calls(self):
        calls = super().expected_calls()
        calls["epidemic.contact_pairs.calls"] = len(self.configs) * self.steps
        return calls

    def problems(self) -> list[str]:
        if self.first is None:
            return ["no round completed"]
        problems = list(self.round_problems)
        peaks: dict[float, list[float]] = {}
        for cfg, s in zip(self.configs, self.first_series):
            rows = zip(s.susceptible.tolist(), s.infected.tolist(),
                       s.immune_slight.tolist(), s.immune_serious.tolist())
            problems += checks.sir_problems(list(rows), self.agents)
            peaks.setdefault(cfg.mask_fraction, []).append(
                s.peak_infected_fraction())
        problems += checks.peak_order_problems(peaks)
        for cfg in (self.configs[0], self.configs[-1]):
            world = epidemic.World(cfg)
            for k in range(max(self.sampled_steps) + 1):
                if k in self.sampled_steps:
                    ii, jj = epidemic.contact_pairs(world.positions,
                                                    cfg.epsilon)
                    problems += checks.contact_pair_problems(
                        world.positions, cfg.epsilon, ii, jj)
                epidemic.step_movement(world)
        return problems


# =============================================================================
# ledger_audit: cold load, verification and read-back of a snapshot
# =============================================================================

class LedgerAudit(Workload):
    """Loads, verifies and reads back the ``ledger.json`` of a
    controller-mode ``masksim simulate`` run made in set-up."""

    name = "ledger_audit"
    agents = 160
    steps = 100
    initial_micro = 100 * MICRO

    def setup(self) -> None:
        doc = _controlled_scenario(self.seed, self.agents, self.steps)
        self.out = self.work / "out"
        doc["outputs"] = {"directory": str(self.out)}
        config_path = self.work / "scenario.json"
        _write_json(config_path, doc)
        src = str(Path(runner.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        # a process of its own, so the audit's peak memory is the audit's
        proc = subprocess.run(
            [sys.executable, "-m", "masksim.cli", "simulate", str(config_path),
             "--out-dir", str(self.out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=150, check=False)
        if proc.returncode != 0:
            raise SetupError(f"masksim simulate exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-500:]}")
        self.snapshot = self.out / "ledger.json"

    def run_round(self):
        agents = runner.agent_ids(self.agents)
        try:
            t0 = time.perf_counter()
            tangle = ledger.Tangle.load(self.snapshot)
            stats = tangle.stats()
            read = read_ledger(tangle, self.seed, agents)
            seconds = time.perf_counter() - t0
        except Exception:
            self._round_failed("audit")
            return 0.0, 1, 1
        if self.first is None:
            self.first = (stats, read)
            self.first_fingerprint = _ledger_fingerprint(read)
        else:
            self._same_as_first((self.first[0], self.first_fingerprint),
                                (stats, _ledger_fingerprint(read)),
                                "audit result")
        return seconds, 1, 0

    def snapshot_bytes(self) -> int:
        return os.path.getsize(self.snapshot)

    def expected_calls(self):
        calls = super().expected_calls()
        calls["ledger.tx.status"] = self.agent_steps
        calls["sensing.decode_status.calls"] = self.agent_steps
        return calls

    def layer_facts(self):
        summary = json.loads((self.out / "summary.json").read_text())
        stats, read = self.first
        return {"summary": summary,
                "transfers": len(_read_csv(self.out / "transfers.csv")),
                "tx_by_kind": {
                    "status": sum(len(d) for d in read["statuses"].values()),
                    "controller": len(read["costs"]),
                    "escrow": read["escrow_messages"]},
                "tips": stats["tips"]}

    def problems(self) -> list[str]:
        if self.first is None:
            return ["no round completed"]
        stats, read = self.first
        problems = list(self.round_problems)
        summary = json.loads((self.out / "summary.json").read_text())
        if stats["transactions"] != summary["ledger"]["transactions"]:
            problems.append(f"snapshot holds {stats['transactions']} "
                            f"transactions, summary.json "
                            f"{summary['ledger']['transactions']}")
        problems += checks.conservation_problems(read["replayed"], self.agents,
                                                 self.initial_micro)
        problems += _ledger_problems(read, self.steps)
        problems += checks.controller_channel_problems(
            read["costs"], _parse_costs(self.out / "costs.csv"))
        problems += self.tamper_problems()
        return problems

    def tamper_problems(self) -> list[str]:
        """A copy with one payload byte changed makes ``masksim ledger
        inspect`` exit 3."""
        copy = self.work / "tampered.json"
        tamper_snapshot(self.snapshot, copy,
                        np.random.default_rng([self.seed, 2]))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["ledger", "inspect", str(copy)])
        copy.unlink()
        if code != 3:
            return [f"ledger inspect exits {code} on a tampered snapshot"]
        return []


def tamper_snapshot(src: Path, dst: Path, rng: np.random.Generator) -> None:
    """Copy a snapshot with one bit of one transaction payload flipped."""
    doc = json.loads(src.read_text(encoding="utf-8"))
    txs = doc["transactions"]
    tx = txs[int(rng.integers(1, len(txs)))]
    payload = bytearray(base64.b64decode(tx["payload"]))
    payload[int(rng.integers(len(payload)))] ^= 1 << int(rng.integers(8))
    tx["payload"] = base64.b64encode(bytes(payload)).decode("ascii")
    dst.write_text(json.dumps(doc), encoding="utf-8")


WORKLOADS = {w.name: w for w in (ClosedLoop, MaskSweep, LedgerAudit)}

