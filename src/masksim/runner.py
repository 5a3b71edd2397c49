"""Closed-loop scenario execution and ledger inspection.

One run wires the whole architecture together, per step:

    mask bits (sensing / controller probabilities)
      -> bus publish per agent -> gateway -> per-agent ledger channel
      -> controller reads the channels, updates costs, publishes the cost
         vector on its own channel
      -> escrow settles every bond against the observed bit and the next
         stake, and commits the step's transfers to its channel as bundles
      -> the epidemic advances one step

When the loop ends the escrow channel is replayed from the ledger and must
equal the bank, and the ledger must pass ``verify``.

Outputs are plot-ready CSV files plus one JSON summary; identical configs
and seeds give byte-identical CSVs and ledger snapshots (the summary also
carries the wall-clock duration, which naturally varies).

In fixed-fraction mask mode the controller and escrow stay out of the loop
(that is the mask-sweep experiment of the epidemic module); compliance
records still flow through bus, gateway and ledger.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import crypto
from .bus import Gateway, MessageBus
from .controller import ComplianceController
from .epidemic import World, advance, sample_mask_bits
from .escrow import (BondState, EscrowBank, PenaltyPolicy, micro_to_str,
                     replay_records)
from .ledger import ChannelMode, ChannelReader, MamChannel, Tangle, mam_fetch
from .positioning import (distance, multilaterate, simulate_exchange,
                          time_of_flight)
from .sensing import (DetectorConfig, GasSample, MaskDetector, decode_status,
                      encode_status, status_topic)
from .bus import decode_bridge_record
from .scenario import ScenarioConfig

log = logging.getLogger(__name__)

_HIL_STREAM = 777


class InvariantBreach(RuntimeError):
    """A module invariant failed mid-run; the message names the module."""


# =============================================================================
# Channel layout
# =============================================================================

def _seed_bytes(seed: int) -> bytes:
    return seed.to_bytes(16, "big", signed=True)


def agent_ids(n: int) -> list[str]:
    width = max(3, len(str(n - 1)))
    return [f"a{i:0{width}d}" for i in range(n)]


def agent_channel(seed: int, agent_id: str) -> MamChannel:
    """Restricted per-agent channel; the side key is derivable from the run
    seed, which stands in for the wallet keys of a real deployment."""
    root = crypto.digest(b"masksim-agent-root", _seed_bytes(seed),
                         agent_id.encode())
    side_key = crypto.digest(b"masksim-agent-key", _seed_bytes(seed),
                             agent_id.encode())
    return MamChannel(ChannelMode.RESTRICTED, root, side_key=side_key)


def controller_channel(seed: int) -> MamChannel:
    return MamChannel(ChannelMode.PUBLIC,
                      crypto.digest(b"masksim-controller", _seed_bytes(seed)))


def escrow_channel(seed: int) -> MamChannel:
    return MamChannel(ChannelMode.PUBLIC,
                      crypto.digest(b"masksim-escrow", _seed_bytes(seed)))


# =============================================================================
# Run summary
# =============================================================================

@dataclass
class RunSummary:
    mode: str
    steps: int
    n_agents: int
    final_counts: dict
    time_avg_compliance: float
    tokens_forfeited: str
    tokens_returned: str
    exclusions: int
    ledger: dict
    bridge: dict
    duration_s: float

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=1, sort_keys=True)
            fh.write("\n")


@dataclass
class RunResult:
    """Summary plus live handles, for tests, demos and inspection."""
    summary: RunSummary
    tangle: Tangle
    world: World
    controller: ComplianceController | None
    bank: EscrowBank | None
    out_dir: Path | None
    costs: list = field(default_factory=list)


# =============================================================================
# Scenario runner
# =============================================================================

class _Run:
    """Internal state of one closed-loop execution."""

    def __init__(self, config: ScenarioConfig, out_dir=None,
                 hil_bits: list[int] | None = None):
        self.config = config
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.hil_bits = hil_bits
        self.controlled = config.world.mask_mode == "controller"
        seed = config.seed

        self.tangle = Tangle(rng_seed=seed)
        self.bus = MessageBus()
        self.agents = agent_ids(config.world.n_agents)
        self.channels = {a: agent_channel(seed, a) for a in self.agents}
        self.gateway = Gateway(
            self.bus, self.tangle,
            {status_topic(a): self.channels[a] for a in self.agents})
        self.readers = {
            a: ChannelReader(self.tangle, ch.base_address, ch.mode, ch.side_key)
            for a, ch in self.channels.items()}
        self.world = World(config.world)

        self.controller = None
        self.bank = None
        if self.controlled:
            self.controller = ComplianceController(
                config.controller, self.agents,
                tangle=self.tangle, channel=controller_channel(seed))
            self.bank = EscrowBank(
                {a: config.escrow.initial_balance for a in self.agents},
                config.escrow.policy, rho=config.escrow.rho,
                tangle=self.tangle, channel=escrow_channel(seed))
        self.all_compliant = np.ones(len(self.agents), dtype=bool)
        self.epidemic_rows: list[tuple] = []
        self.cost_rows: list[tuple] = []
        self.trace_rows: list[tuple] = []
        self.hil_positions: list[tuple[float, float] | None] = []

    # -- hardware-in-the-loop position fix --------------------------------

    def _hil_fix(self, step: int) -> tuple[float, float] | None:
        cfg = self.config
        idx = cfg.hil.agent_index
        true_pos = self.world.positions[idx]
        rng = np.random.default_rng([cfg.seed, _HIL_STREAM, step])
        dists = []
        for ax, ay in cfg.anchors:
            d = float(np.hypot(true_pos[0] - ax, true_pos[1] - ay))
            ts = simulate_exchange(d, reply_delay=cfg.hil.reply_delay,
                                   final_delay=cfg.hil.final_delay,
                                   jitter=cfg.hil.ranging_jitter, rng=rng)
            dists.append(distance(max(0.0, time_of_flight(ts))))
        fix = multilaterate(cfg.anchors, dists)
        if not fix.converged:
            log.warning("no position fix at step %d: %s", step, fix.reason)
            return None
        return fix.position

    # -- per-step pipeline --------------------------------------------------

    def _deposits_for_entry(self, step: int, stakes: dict[str, float]) -> None:
        bank = self.bank
        policy = self.config.escrow.policy
        for a in self.agents:
            if bank.bonds[a].state is not BondState.ACTIVE:
                if policy is PenaltyPolicy.FIXED_PENALTY and step > 1:
                    continue    # one bond per stay; no re-entry mid-run
                bank.deposit(a, stakes[a], step)

    def _settlements(self, step: int, bits: np.ndarray,
                     next_stakes: dict[str, float]) -> None:
        bank = self.bank
        policy = self.config.escrow.policy
        for i, a in enumerate(self.agents):
            if bank.bonds[a].state is not BondState.ACTIVE:
                continue
            m = int(bits[i])
            if policy in (PenaltyPolicy.ADAPTIVE,
                          PenaltyPolicy.ADAPTIVE_WITH_RETURN):
                bank.settle_step(a, m, next_stakes[a], step)
            elif policy is PenaltyPolicy.EVENT_DRIVEN:
                bank.settle_event(a, m, next_stakes[a], step)
        bank.commit()
        if not bank.conservation_ok():
            raise InvariantBreach(
                f"escrow: token conservation violated at step {step}")

    def _publish_statuses(self, step: int, bits: np.ndarray) -> None:
        hil_idx = self.config.hil.agent_index if self.hil_bits else -1
        for i, a in enumerate(self.agents):
            if i == hil_idx:
                pos = self.hil_positions[-1]
            else:
                p = self.world.positions[i]
                pos = (float(p[0]), float(p[1]))
            self.bus.publish(status_topic(a),
                             encode_status(a, step, int(bits[i]), pos),
                             publisher_id=a)
        self.gateway.pump()

    def _read_records(self, step: int) -> dict[str, int]:
        records: dict[str, int] = {}
        for a, reader in self.readers.items():
            for msg in reader.poll():
                rec = decode_bridge_record(msg.body)
                if rec is None:
                    continue
                doc = decode_status(rec["payload"])
                if doc is not None and doc["step"] == step:
                    records[a] = doc["M"]
        return records

    def _audit_escrow(self) -> None:
        """Replaying the escrow channel from the ledger gives the bank's
        wallets, active bonds and forfeited pool."""
        bank = self.bank
        channel = escrow_channel(self.config.seed)
        try:
            replayed = replay_records(
                mam_fetch(self.tangle, channel.base_address, channel.mode))
        except ValueError as exc:
            raise InvariantBreach(f"escrow: channel does not replay: {exc}") \
                from exc
        active = {a: b.amount_micro for a, b in bank.bonds.items()
                  if b.state is BondState.ACTIVE}
        wallets = {a: w.balance_micro for a, w in bank.wallets.items()}
        for what, on_ledger, in_bank in (
                ("wallets", replayed.wallets, wallets),
                ("active bonds", replayed.active_bonds, active),
                ("forfeited pool", replayed.forfeited_pool,
                 bank.forfeited_pool_micro)):
            if on_ledger != in_bank:
                raise InvariantBreach(
                    f"escrow: ledger replay differs from the bank in {what}")

    def execute(self, steps: int) -> RunResult:
        t0 = time.perf_counter()
        world = self.world
        cfg = self.config
        counts = world.counts()
        self.epidemic_rows.append((0, *counts, 0.0, 0.0, 0.0))

        for step in range(1, steps + 1):
            if self.controlled:
                probs = self.controller.probabilities(world.q)
                self._deposits_for_entry(step, self.controller.stakes())
                bits = sample_mask_bits(world, step, probs)
            else:
                bits = sample_mask_bits(world, step)

            if self.hil_bits is not None:
                idx = cfg.hil.agent_index
                bits[idx] = self.hil_bits[step - 1]
                world.mask_bits[idx] = bits[idx]
                self.hil_positions.append(self._hil_fix(step))
            self.all_compliant &= bits != 0

            self._publish_statuses(step, bits)
            records = self._read_records(step)
            if len(records) != len(self.agents):
                log.warning("step %d: %d/%d compliance records on ledger",
                            step, len(records), len(self.agents))

            mean_c = 0.0
            global_c = 0.0
            if self.controlled:
                res = self.controller.step(step, records)
                global_c, mean_c = res.global_cost, res.mean_individual_cost
                self.cost_rows.append((step, res.global_cost,
                                       res.mean_individual_cost,
                                       res.mean_compliance))
                self._settlements(step, bits, res.stakes)

            if cfg.outputs.agent_trace:
                for i, a in enumerate(self.agents):
                    p = world.positions[i]
                    self.trace_rows.append(
                        (step, a, float(p[0]), float(p[1]), int(bits[i]),
                         int(world.health[i])))

            advance(world, step)
            counts = world.counts()
            self.epidemic_rows.append(
                (step, *counts, float(bits.mean()), global_c, mean_c))

        if (self.controlled
                and cfg.escrow.policy is PenaltyPolicy.FIXED_PENALTY):
            for a, compliant in zip(self.agents, self.all_compliant.tolist()):
                if self.bank.bonds[a].state is BondState.ACTIVE:
                    self.bank.settle_exit(a, compliant, steps)
            self.bank.commit()
            if not self.bank.conservation_ok():
                raise InvariantBreach("escrow: conservation violated at exit")
        if self.controlled:
            self._audit_escrow()

        problems = self.tangle.verify()
        if problems:
            raise InvariantBreach(f"ledger: {problems[0]}")

        duration = time.perf_counter() - t0
        summary = self._summarize(steps, duration)
        result = RunResult(summary, self.tangle, world, self.controller,
                           self.bank, self.out_dir, self.cost_rows)
        if self.out_dir is not None:
            self._write_outputs(summary)
        return result

    # -- outputs ------------------------------------------------------------

    def _summarize(self, steps: int, duration: float) -> RunSummary:
        final = self.epidemic_rows[-1]
        kinds = self.bank.totals_by_kind() if self.bank else {}
        returned = kinds.get("refund", 0) + kinds.get("partial_return", 0)
        mean_m = [row[5] for row in self.epidemic_rows[1:]]
        return RunSummary(
            mode=("hil" if self.hil_bits is not None
                  else self.config.world.mask_mode),
            steps=steps,
            n_agents=self.config.world.n_agents,
            final_counts={"S": final[1], "I": final[2],
                          "R_slight": final[3], "R_serious": final[4]},
            time_avg_compliance=(float(np.mean(mean_m)) if mean_m else 0.0),
            tokens_forfeited=micro_to_str(kinds.get("forfeit", 0)),
            tokens_returned=micro_to_str(returned),
            exclusions=len(self.bank.exclusions) if self.bank else 0,
            ledger=self.tangle.stats(),
            bridge=self.gateway.counters(),
            duration_s=round(duration, 3),
        )

    def _write_outputs(self, summary: RunSummary) -> None:
        out = self.out_dir
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "epidemic.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("step,S,I,R_slight,R_serious,mean_M,C,mean_c\n")
            for row in self.epidemic_rows:
                fh.write(f"{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},"
                         f"{row[5]!r},{row[6]!r},{row[7]!r}\n")
        if self.controlled:
            with open(out / "costs.csv", "w", encoding="utf-8", newline="") as fh:
                fh.write("step,C,mean_c,mean_compliance\n")
                for step, c, mc, comp in self.cost_rows:
                    fh.write(f"{step},{c!r},{mc!r},{comp!r}\n")
            self.bank.write_transfer_csv(out / "transfers.csv")
        if self.config.outputs.agent_trace:
            with open(out / "agent_trace.csv", "w", encoding="utf-8",
                      newline="") as fh:
                fh.write("step,agent,x,y,M,health\n")
                for step, a, x, y, m, h in self.trace_rows:
                    fh.write(f"{step},{a},{x!r},{y!r},{m},{h}\n")
        self.tangle.save(out / "ledger.json")
        summary.to_json(out / "summary.json")


def run_scenario(config: ScenarioConfig, out_dir=None) -> RunResult:
    """Execute the closed loop described by ``config``.

    When ``out_dir`` is given, writes the epidemic/cost/transfer CSVs, the
    ledger snapshot and the JSON summary there; with ``None`` the run stays
    in memory (the CLI passes the configured output directory).
    """
    return _Run(config, out_dir=out_dir).execute(config.steps)


# =============================================================================
# Hardware-in-the-loop replay
# =============================================================================

def read_replay_csv(path) -> tuple[list[GasSample], list[str]]:
    """Parse a replay file (t, eco2_ppm, tvoc_ppb); malformed rows are
    skipped with line-numbered warnings."""
    samples: list[GasSample] = []
    warnings: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != \
                ["t", "eco2_ppm", "tvoc_ppb"]:
            raise ValueError(
                "replay file must start with header t,eco2_ppm,tvoc_ppb")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                t, eco2, tvoc = int(row[0]), float(row[1]), float(row[2])
            except (ValueError, IndexError):
                warnings.append(f"line {lineno}: malformed row {row!r}, skipped")
                continue
            samples.append(GasSample(eco2, tvoc, t))
    for w in warnings:
        log.warning("%s", w)
    return samples, warnings


def detector_bits(detector_config: DetectorConfig,
                  samples: list[GasSample]) -> list[int]:
    det = MaskDetector(detector_config)
    out = []
    for s in samples:
        bit = det.push_and_detect(s)
        if bit is not None:
            out.append(bit)
    return out


def run_hil_replay(config: ScenarioConfig, replay_path,
                   out_dir=None) -> RunResult:
    """Closed loop where one agent's mask bits come from a replayed sensor
    stream and its recorded position from synthetic UWB fixes.

    The run length is the shorter of the configured steps and the number of
    detector emissions the replay supports.
    """
    samples, _ = read_replay_csv(replay_path)
    bits = detector_bits(config.detector, samples)
    if not bits:
        raise ValueError("replay too short: the detector window never filled")
    steps = min(config.steps, len(bits))
    if steps < config.steps:
        log.info("replay supports %d steps (configured %d)", steps, config.steps)
    return _Run(config, out_dir=out_dir, hil_bits=bits).execute(steps)


# =============================================================================
# Snapshot inspection
# =============================================================================

def inspect_snapshot(path) -> tuple[dict, list[str]]:
    """Verify a ledger snapshot; returns (statistics, problems)."""
    from .ledger import IntegrityError
    try:
        tangle = Tangle.load(path)
    except IntegrityError as exc:
        return {}, [str(exc)]
    return tangle.stats(), tangle.verify()
