"""Closed-loop scenario execution and ledger inspection.

One run is the paper's pipeline, one pass per step:

    sense    the escrow bank stakes each bond at the controller's price,
             then every agent's mask bit is drawn (one agent's may come
             from a replayed sensor capture, with a UWB position fix)
    publish  each mask publishes its status on the bus, and the gateway
             bridges the bus onto the agent's ledger channel
    read     each agent's bit as read back from the ledger, and whether its
             record arrived: the one view both control and settle act on
    control  the controller updates the costs and publishes the cost
             vector on its own channel
    settle   the bank settles every bond whose record arrived and commits
             the step's transfers to its channel as bundles
    advance  the epidemic moves one step

When the loop ends the bank closes the fixed-penalty bonds, a replay of
the escrow channel from the ledger must equal the bank, and the ledger
must pass ``verify``.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import crypto
from .bus import Gateway, MessageBus, decode_bridge_record
from .controller import ComplianceController
from .epidemic import EpidemicSeries, World, advance, sample_mask_bits
from .escrow import EscrowBank, micro_to_str, replay_records
from .ledger import (ChannelMode, ChannelReader, IntegrityError, MamChannel,
                     Tangle, mam_fetch)
from .positioning import (ExchangeError, distance, multilaterate,
                          simulate_exchange, time_of_flight)
from .sensing import (DetectorConfig, GasSample, MaskDetector, decode_status,
                      encode_status, status_topic)
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
        self.topics = [status_topic(a) for a in self.agents]
        self.gateway = Gateway(
            self.bus, self.tangle,
            {t: self.channels[a] for t, a in zip(self.topics, self.agents)})
        self.readers = [
            ChannelReader(self.tangle, ch.base_address, ch.mode, ch.side_key)
            for ch in self.channels.values()]
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
        self.epidemic_rows: list[tuple] = []
        self.cost_rows: list[tuple] = []
        self.trace_rows: list[tuple] = []

    # -- hardware-in-the-loop position fix --------------------------------

    def _hil_fix(self, step: int) -> tuple[float, float] | None:
        """The replayed agent's UWB fix, one exchange per anchor; one whose
        jittered timestamps are out of order is dropped, after its draws."""
        cfg = self.config
        idx = cfg.hil.agent_index
        true_pos = self.world.positions[idx]
        rng = np.random.default_rng([cfg.seed, _HIL_STREAM, step])
        anchors, dists = [], []
        for ax, ay in cfg.anchors:
            d = float(np.hypot(true_pos[0] - ax, true_pos[1] - ay))
            ts = simulate_exchange(d, reply_delay=cfg.hil.reply_delay,
                                   final_delay=cfg.hil.final_delay,
                                   jitter=cfg.hil.ranging_jitter, rng=rng)
            try:
                dists.append(distance(max(0.0, time_of_flight(ts))))
                anchors.append((ax, ay))
            except ExchangeError as exc:
                log.info("step %d: exchange with anchor (%g, %g) dropped: "
                         "%s", step, ax, ay, exc)
        fix = multilaterate(anchors, dists)
        if not fix.converged:
            log.warning("no position fix at step %d: %s", step, fix.reason)
            return None
        return fix.position

    # -- per-step phases ----------------------------------------------------

    def _sense(self, step: int) -> tuple[np.ndarray, list]:
        """Every mask's bit, drawn after the bank has staked the controller's
        price, and its reported position; the replayed agent reports its
        captured bit and a UWB fix (``None`` when none converges)."""
        world = self.world
        if self.controlled:
            probs = self.controller.probabilities(world.q)
            self.bank.enter(self.controller.stakes(), step)
            bits = sample_mask_bits(world, step, probs)
        else:
            bits = sample_mask_bits(world, step)
        positions = world.positions.tolist()
        if self.hil_bits is not None:
            idx = self.config.hil.agent_index
            bits[idx] = world.mask_bits[idx] = self.hil_bits[step - 1]
            positions[idx] = self._hil_fix(step)
        return bits, positions

    def _publish_statuses(self, step: int, bits: np.ndarray,
                          positions: list) -> None:
        """Every agent's status onto the bus, then the bus onto the ledger."""
        publish = self.bus.publish
        for a, topic, m, pos in zip(self.agents, self.topics, bits.tolist(),
                                    positions):
            publish(topic, encode_status(a, step, m, pos), publisher_id=a)
        self.gateway.pump()

    def _read_records(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """The step's statuses as read back from the ledger, in agent order:
        each agent's mask bit, and whether its record arrived."""
        n = len(self.agents)
        bits, arrived = [0.0] * n, [False] * n
        bridge, status = decode_bridge_record, decode_status
        for i, reader in enumerate(self.readers):
            for msg in reader.poll():
                rec = bridge(msg.body)
                if rec is None:
                    continue
                doc = status(rec["payload"])
                if doc is not None and doc["step"] == step:
                    bits[i] = doc["M"]
                    arrived[i] = True
        bits = np.array(bits, dtype=float)
        present = np.array(arrived, dtype=bool)
        if not present.all():
            log.warning("step %d: %d/%d compliance records on ledger",
                        step, present.sum(), len(self.agents))
        return bits, present

    def _control(self, step: int, bits: np.ndarray,
                 present: np.ndarray) -> None:
        """One controller step; its costs price the next step's bonds."""
        res = self.controller.step(step, bits, present)
        self.cost_rows.append((step, res.global_cost,
                               res.mean_individual_cost, res.mean_compliance))

    def _close_escrow(self, steps: int) -> None:
        """Close the fixed-penalty bonds; then replaying the escrow channel
        from the ledger must give the bank's wallets, bonds and pool."""
        bank = self.bank
        bank.close(steps)
        if not bank.conservation_ok():
            raise InvariantBreach("escrow: conservation violated at exit")
        channel = escrow_channel(self.config.seed)
        try:
            replayed = replay_records(
                mam_fetch(self.tangle, channel.base_address, channel.mode))
        except ValueError as exc:
            raise InvariantBreach(f"escrow: channel does not replay: {exc}") \
                from exc
        what = bank.replay_mismatch(replayed)
        if what is not None:
            raise InvariantBreach(
                f"escrow: ledger replay differs from the bank in {what}")

    def execute(self, steps: int) -> RunResult:
        t0 = time.perf_counter()
        world = self.world
        self.epidemic_rows.append((0, *world.counts(), 0.0))

        for step in range(1, steps + 1):
            bits, positions = self._sense(step)
            self._publish_statuses(step, bits, positions)   # publish, bridge
            read_bits, present = self._read_records(step)
            if self.controlled:
                self._control(step, read_bits, present)
                self.bank.settle(read_bits, present, step)
                if not self.bank.conservation_ok():
                    raise InvariantBreach(
                        f"escrow: token conservation violated at step {step}")
            if self.config.outputs.agent_trace:
                self.trace_rows += [
                    (step, a, x, y, m, h) for a, (x, y), m, h in zip(
                        self.agents, world.positions.tolist(), bits.tolist(),
                        world.health.tolist())]
            advance(world, step)
            self.epidemic_rows.append(
                (step, *world.counts(), float(bits.mean())))

        if self.controlled:
            self._close_escrow(steps)
        problems = self.tangle.verify()
        if problems:
            raise InvariantBreach(f"ledger: {problems[0]}")

        series = self._series()
        summary = self._summarize(series, steps, time.perf_counter() - t0)
        if self.out_dir is not None:
            self._write_outputs(series, summary)
        return RunResult(summary, self.tangle, world, self.controller,
                         self.bank, self.out_dir)

    # -- outputs ------------------------------------------------------------

    def _series(self) -> EpidemicSeries:
        """The epidemic rows, with the controller's costs where it ran."""
        cols = [np.array(c) for c in zip(*self.epidemic_rows)]
        if self.controlled:
            cols += [np.array([0.0] + [row[k] for row in self.cost_rows])
                     for k in (1, 2)]
        return EpidemicSeries(*cols)

    def _summarize(self, series: EpidemicSeries, steps: int,
                   duration: float) -> RunSummary:
        final = self.epidemic_rows[-1]
        kinds = self.bank.totals_by_kind() if self.bank else {}
        returned = kinds.get("refund", 0) + kinds.get("partial_return", 0)
        return RunSummary(
            mode=("hil" if self.hil_bits is not None
                  else self.config.world.mask_mode),
            steps=steps,
            n_agents=self.config.world.n_agents,
            final_counts={"S": final[1], "I": final[2],
                          "R_slight": final[3], "R_serious": final[4]},
            time_avg_compliance=(float(np.mean(series.mean_mask[1:]))
                                 if steps else 0.0),
            tokens_forfeited=micro_to_str(kinds.get("forfeit", 0)),
            tokens_returned=micro_to_str(returned),
            exclusions=len(self.bank.exclusions) if self.bank else 0,
            ledger=self.tangle.stats(),
            bridge=self.gateway.counters(),
            duration_s=round(duration, 3),
        )

    def _write_outputs(self, series: EpidemicSeries,
                       summary: RunSummary) -> None:
        out = self.out_dir
        out.mkdir(parents=True, exist_ok=True)
        series.to_csv(out / "epidemic.csv")
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
    """Load and verify a ledger snapshot; returns (statistics, problems),
    one problem per fault."""
    try:
        return Tangle.load(path).stats(), []
    except IntegrityError as exc:
        return {}, exc.problems
