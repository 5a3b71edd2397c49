"""Scenario loading, closed-loop runs, HIL replay, CLI subcommands."""

import csv
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from masksim import bus, cli, crypto, escrow
from masksim.bus import Gateway, MessageBus
from masksim.cli import main
from masksim.escrow import EscrowBank, PenaltyPolicy, replay_records
from masksim.ledger import MamChannel, Tangle, mam_fetch
from masksim.records import decode_status
from masksim.runner import (agent_channel, agent_ids, controller_channel,
                            detector_bits, escrow_channel, read_replay_csv,
                            run_hil_replay, run_scenario)
from masksim.scenario import (ConfigError, ScenarioConfig, load_scenario,
                              scenario_from_dict)
from masksim.sensing import DetectorConfig, synth_stream


def make_config(**over):
    doc = {
        "version": 1,
        "seed": 11,
        "steps": 30,
        "world": {"n_agents": 12, "mask_mode": "controller",
                  "initial_infected": 1},
        "escrow": {"policy": "adaptive", "initial_balance": 50.0},
    }
    doc.update(over)
    return scenario_from_dict(doc)


# =============================================================================
# Config validation
# =============================================================================

def test_unknown_field_rejected_with_path():
    with pytest.raises(ConfigError, match="world.flux_capacitor"):
        scenario_from_dict({"seed": 1, "world": {"flux_capacitor": 1}})
    with pytest.raises(ConfigError, match="unknown field"):
        scenario_from_dict({"seed": 1, "bogus": {}})


def test_seed_is_mandatory():
    with pytest.raises(ConfigError, match="seed"):
        scenario_from_dict({"steps": 5})


def test_invalid_values_carry_section_path():
    with pytest.raises(ConfigError, match="world"):
        scenario_from_dict({"seed": 1, "world": {"epsilon": -1.0}})
    with pytest.raises(ConfigError, match="escrow.policy"):
        scenario_from_dict({"seed": 1, "escrow": {"policy": "nope"}})
    with pytest.raises(ConfigError, match="version"):
        scenario_from_dict({"seed": 1, "version": 99})


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"seed": 3, "steps": 7,
                                "world": {"n_agents": 5}}))
    cfg = load_scenario(path)
    assert cfg.seed == 3 and cfg.steps == 7 and cfg.world.n_agents == 5
    assert cfg.world.seed == 3          # seed threads into the world


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_the_one_seed_fills_absent_sections():
    assert scenario_from_dict({"seed": 5}).world.seed == 5


def test_load_scenario_overrides_replace_file_fields(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"seed": 3, "steps": 7}))
    cfg = load_scenario(path, {"seed": 8, "steps": 2})
    assert (cfg.seed, cfg.world.seed, cfg.steps) == (8, 8, 2)


@pytest.mark.parametrize("name", ["logistic", "scaled_logistic"])
def test_link_scale_and_shift_apply_under_either_name(name):
    link = scenario_from_dict({"seed": 1, "controller": {"link": {
        "name": name, "scale": 5.0, "shift": -1.0}}}).controller.link
    assert link(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-0.4)), abs=1e-15)
    with pytest.raises(ConfigError, match="controller.link: unknown link"):
        scenario_from_dict({"seed": 1, "controller": {"link": {"name": "probit"}}})


# The parser's contract, generated from the config dataclasses' annotations:
# every field a scenario file can set, with its full path and its type.

def scenario_fields(cls=ScenarioConfig, path=()):
    for name, tp in typing.get_type_hints(cls).items():
        if name == "seed":          # filled from the one top-level seed
            continue
        yield path + (name,), tp
        if dataclasses.is_dataclass(tp):
            yield from scenario_fields(tp, path + (name,))


def json_kinds(tp):
    """The JSON value kinds a field of annotation ``tp`` accepts."""
    if dataclasses.is_dataclass(tp):
        return {"object"}
    if isinstance(tp, enum.EnumMeta) or tp is str:
        return {"string"}
    if typing.get_origin(tp) in (list, tuple):
        return {"array"}
    return {int: {"integer"}, float: {"integer", "fraction"},
            bool: {"boolean"}}[tp]


JSON_SAMPLES = {"null": None, "boolean": True, "integer": 1,
                "fraction": 1.5, "string": "x", "array": [], "object": {}}
FIELDS = list(scenario_fields())


def nested(path, value):
    doc = value
    for name in reversed(path):
        doc = {name: doc}
    return {"seed": 1, **doc}


@pytest.mark.parametrize("path,tp", FIELDS, ids=[".".join(p) for p, _ in FIELDS])
def test_wrong_json_type_exits_2_naming_the_field(tmp_path, capsys, path, tp):
    config = tmp_path / "s.json"
    for kind, value in JSON_SAMPLES.items():
        if kind in json_kinds(tp):
            continue
        config.write_text(json.dumps(nested(path, value)))
        assert main(["simulate", str(config)]) == 2, kind
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {'.'.join(path)}: "), (kind, err)


@pytest.mark.parametrize("path,tp", [
    pytest.param(p, tp, id=".".join(p)) for p, tp in FIELDS
    if isinstance(tp, enum.EnumMeta)])
def test_enum_fields_load_in_upper_case(path, tp):
    for member in tp:
        cfg = scenario_from_dict(nested(path, member.value.upper()))
        assert functools.reduce(getattr, path, cfg) is member


# =============================================================================
# Closed-loop runs
# =============================================================================

def test_minimal_run_emits_consistent_outputs(tmp_path):
    cfg = make_config(steps=10, world={"n_agents": 1, "mask_mode": "controller",
                                       "initial_infected": 0})
    out = tmp_path / "out"
    res = run_scenario(cfg, out_dir=out)
    for name in ("epidemic.csv", "costs.csv", "transfers.csv",
                 "ledger.json", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    rows = list(csv.DictReader((out / "epidemic.csv").open()))
    assert len(rows) == 11               # step 0 plus 10 steps
    last = rows[-1]
    assert summary["final_counts"] == {
        "S": int(last["S"]), "I": int(last["I"]),
        "R_slight": int(last["R_slight"]), "R_serious": int(last["R_serious"])}
    mean_m = np.mean([float(r["mean_M"]) for r in rows[1:]])
    assert summary["time_avg_compliance"] == pytest.approx(mean_m)


def test_summary_token_totals_recomputable_from_transfer_csv(tmp_path):
    cfg = make_config(escrow={"policy": "adaptive_with_return", "rho": 0.5,
                              "initial_balance": 20.0})
    out = tmp_path / "out"
    res = run_scenario(cfg, out_dir=out)
    summary = json.loads((out / "summary.json").read_text())
    forfeited = returned = 0.0
    for row in csv.DictReader((out / "transfers.csv").open()):
        if row["kind"] == "forfeit":
            forfeited += float(row["amount"])
        elif row["kind"] in ("refund", "partial_return"):
            returned += float(row["amount"])
    assert float(summary["tokens_forfeited"]) == pytest.approx(forfeited)
    assert float(summary["tokens_returned"]) == pytest.approx(returned)


def test_identical_seeds_give_byte_identical_outputs(tmp_path):
    for d in ("a", "b"):
        run_scenario(make_config(), out_dir=tmp_path / d)
    for name in ("epidemic.csv", "costs.csv", "transfers.csv", "ledger.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# The scenario of the README's "Scenario configuration" section.
README_SCENARIO = {
    "version": 1, "seed": 42, "steps": 120,
    "world": {"n_agents": 80, "room": [20.0, 10.0], "epsilon": 2.0,
              "p0": 0.009, "recovery_steps": 30, "mask_mode": "controller",
              "mask_effectiveness": 0.9, "initial_infected": 2},
    "controller": {"alpha": 0.25, "beta": 0.25, "gamma": 0.95, "q_star": 0.9,
                   "delay": 1, "link": {"name": "logistic"}},
    "escrow": {"policy": "adaptive_with_return", "rho": 0.5,
               "initial_balance": 100.0},
    "detector": {"window": 10, "eco2_threshold": 500.0,
                 "tvoc_threshold": 50.0, "combine": "and"},
    "anchors": [[0, 0], [20, 0], [0, 10], [20, 10]],
    "hil": {"agent_index": 0, "ranging_jitter": 2.5e-10},
}

# The epidemic and cost digests predate escrow bundling and the binary
# record codec, which left them unchanged; the transfer and ledger digests
# are those of binary records with every bond staked at the step it opens.
README_DIGESTS = {
    "epidemic.csv":
        "9688f5cc8f8c7ca371c6daf80f31315bed02f612e2bf5fc3afd751ed8a6b447f",
    "costs.csv":
        "83adf005d032e63bcb313c603e45845bda57777eef0514224de791d14bd14df3",
    "transfers.csv":
        "1ab7da9d7ea4b48f9a067fe658287bc3f5428932763967440b654449378a1cad",
    "ledger.json":
        "aa7627aa52c5434fcc855274889a07c2457e564958cfa44adbbe9491a9f59620",
}


def test_readme_scenario_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    res = run_scenario(scenario_from_dict(README_SCENARIO), out_dir=out)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in README_DIGESTS}
    assert digests == README_DIGESTS
    assert res.summary.ledger["transactions"] == 9863


# The README scenario under each policy whose bonds settle every step, as
# (escrow overrides, SHA-256 of transfers.csv without its deposit rows,
# SHA-256 of the "agent,amount" lines of its deposits, grouped by agent).
# The first digests are those of the bank that also re-staked inside
# ``settle``: staking only at ``enter`` moves no refund, forfeit or partial
# return.  The second are that bank's deposits less each agent's last one,
# the stake it left open after the last step.
STAKE_ONLY_AT_ENTER = {
    "adaptive": (
        {"policy": "adaptive"},
        "08e372ac574de46775ebf7e9cece5cd8e4f0e04fd29b44e3a28ebf55c35c76d7",
        "de1dbd7a66107c95df1146021ad9a6c8f0533fc34c35e795f4e0d42a06ea8b1a"),
    "adaptive_with_return": (
        {"policy": "adaptive_with_return"},
        "ee5333f7196c10ba07e6f9dc72bd99f80cc1abadaf6f3c2027580f24f1fa6c11",
        "de1dbd7a66107c95df1146021ad9a6c8f0533fc34c35e795f4e0d42a06ea8b1a"),
    "event_driven": (
        {"policy": "event_driven"},
        "be851fece5987b7752b9fc58019ccdf7a2e3acf448a63db7c5c0aca9f047c0ae",
        "6d0724c1dec92a3c76243232857bf858b5d29c0db83cdaf428a6a97dce22719f"),
    "adaptive-balance-3": (
        {"policy": "adaptive", "initial_balance": 3.0},
        "daffa96f67ea307c9e7a93832caa875ef9b66cceef0fea9328f2d2fcbbbe44db",
        "d01aba78fbe8562098f514f17c061fde183c205a24796813422887614fd53dfe"),
}


@pytest.mark.parametrize("case", list(STAKE_ONLY_AT_ENTER))
def test_staking_only_at_enter_moves_only_deposit_rows(tmp_path, case):
    escrow_over, settled_digest, deposits_digest = STAKE_ONLY_AT_ENTER[case]
    doc = {**README_SCENARIO,
           "escrow": {**README_SCENARIO["escrow"], **escrow_over}}
    run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
    lines = (tmp_path / "transfers.csv").read_text().splitlines(keepends=True)
    settled = "".join(line for line in lines if ",deposit," not in line)
    rows = [line.split(",") for line in lines[1:]]
    deposits = sorted((row for row in rows if row[2] == "deposit"),
                      key=lambda row: row[1])
    assert hashlib.sha256(settled.encode()).hexdigest() == settled_digest
    assert hashlib.sha256("".join(
        f"{agent},{amount}" for _, agent, _, amount in deposits).encode()
    ).hexdigest() == deposits_digest
    # every step stakes first (enter), then settles
    for _, step_rows in itertools.groupby(rows, key=lambda row: row[0]):
        kinds = [row[2] for row in step_rows]
        n = kinds.count("deposit")
        assert kinds[:n] == ["deposit"] * n, case


def barred_run(policy):
    """40 agents x 60 steps on 3 tokens each: most are soon barred."""
    return run_scenario(make_config(
        seed=5, steps=60,
        world={"n_agents": 40, "mask_mode": "controller",
               "initial_infected": 2},
        escrow={"policy": policy, "initial_balance": 3.0}))


@pytest.mark.parametrize("policy", ["adaptive", "adaptive_with_return"])
def test_one_exclusion_per_barred_step(policy):
    res = barred_run(policy)
    transfers = res.bank.transfers
    staked = [(t.agent_id, t.step) for t in transfers if t.kind == "deposit"]
    settled = {(t.agent_id, t.step) for t in transfers if t.kind != "deposit"}
    barred = [(e.agent_id, e.step) for e in res.bank.exclusions]
    # every bond settles in the step it is staked, so each agent-step either
    # stakes one bond or is logged as barred once, and settles nothing then
    assert sorted(staked + barred) == sorted(
        (a, k) for a in res.controller.agents for k in range(1, 61))
    assert barred and not settled & set(barred)


@pytest.mark.parametrize("policy", ["adaptive", "adaptive_with_return"])
def test_no_deposit_after_the_last_settle(policy):
    res = barred_run(policy)
    kinds = [t.kind for t in res.bank.transfers]
    last_settle = max(i for i, kind in enumerate(kinds) if kind != "deposit")
    assert "deposit" not in kinds[last_settle:]
    assert not res.bank.balances.active_bonds


def test_compliance_records_travel_via_ledger():
    cfg = make_config(steps=15)
    res = run_scenario(cfg)
    stats = res.tangle.stats()
    # one channel per agent plus controller and escrow channels
    assert stats["channels"] == cfg.world.n_agents + 2
    # every agent channel carries one record per step
    per_agent = [c for c in stats["messages_per_channel"] if c == 15]
    assert len(per_agent) >= cfg.world.n_agents
    assert res.summary.bridge["bridged"] == cfg.world.n_agents * 15


def test_snapshot_addresses_are_the_runs_channels(tmp_path):
    cfg = make_config(steps=6)
    out = tmp_path / "out"
    run_scenario(cfg, out_dir=out)
    loaded = Tangle.load(out / "ledger.json")
    addresses = {tx.channel_address for tx in loaded.transactions.values()
                 if tx.channel_address is not None}
    channels = [agent_channel(cfg.seed, a)
                for a in agent_ids(cfg.world.n_agents)]
    channels += [controller_channel(cfg.seed), escrow_channel(cfg.seed)]
    assert addresses == {ch.base_address for ch in channels}
    assert loaded.stats()["channels"] == cfg.world.n_agents + 2


def test_fixed_mode_skips_controller_and_escrow(tmp_path):
    cfg = make_config(world={"n_agents": 10, "mask_mode": "fixed",
                             "mask_fraction": 0.5})
    out = tmp_path / "out"
    res = run_scenario(cfg, out_dir=out)
    assert res.controller is None and res.bank is None
    assert not (out / "costs.csv").exists()
    assert (out / "epidemic.csv").exists()
    assert res.summary.bridge["bridged"] == 10 * cfg.steps


def test_agent_trace_output(tmp_path):
    cfg = make_config(steps=8, outputs={"directory": "out",
                                        "agent_trace": True})
    out = tmp_path / "out"
    run_scenario(cfg, out_dir=out)
    rows = list(csv.DictReader((out / "agent_trace.csv").open()))
    assert len(rows) == 8 * cfg.world.n_agents
    for row in rows[:5]:
        assert 0.0 <= float(row["x"]) <= 20.0
        assert row["M"] in ("0", "1")


def test_event_driven_policy_runs_conserved():
    cfg = make_config(escrow={"policy": "event_driven", "initial_balance": 30.0})
    res = run_scenario(cfg)
    assert res.bank.conservation_ok()


def test_fixed_penalty_policy_settles_at_exit():
    cfg = make_config(escrow={"policy": "fixed_penalty",
                              "initial_balance": 30.0})
    res = run_scenario(cfg)
    assert res.bank.conservation_ok()
    assert not res.bank.balances.active_bonds   # every bond settled at exit


# Calls of one in-memory controller run, 40 agents x 20 steps under
# adaptive_with_return, counted at the functions a benchmark trace wraps:
# per status one bus message, one bridge record, one channel message and
# one append, three SHA-256 (content id and nonce on write, nonce on
# read), one encryption and one decryption; then the cost vectors, the
# escrow bundles, and the final replay and verify.  Every channel lives at
# one address, so each poll is one ``transactions_at`` lookup: one per
# agent and step, one per agent channel for the gateway's restart
# recovery, and one for the escrow replay.
# A faster hot path must neither skip this work nor go around these
# functions.
CALL_BUDGET = {
    "MessageBus.publish": 800,
    "encode_bridge_record": 800,
    "MamChannel.publish": 841,
    "Tangle.append": 841,
    "Tangle.transactions_at": 841,
    "crypto.digest": 3_527,
    "crypto.encrypt": 800,
    "crypto.decrypt": 800,
    "to_micro": 840,
}


def test_closed_loop_call_budget(monkeypatch):
    seams = {"MessageBus.publish": (MessageBus, "publish"),
             "encode_bridge_record": (bus, "encode_bridge_record"),
             "MamChannel.publish": (MamChannel, "publish"),
             "Tangle.append": (Tangle, "append"),
             "Tangle.transactions_at": (Tangle, "transactions_at"),
             "crypto.digest": (crypto, "digest"),
             "crypto.encrypt": (crypto, "encrypt"),
             "crypto.decrypt": (crypto, "decrypt"),
             "to_micro": (escrow, "to_micro")}
    counts = dict.fromkeys(seams, 0)
    for label, (owner, name) in seams.items():
        def counting(*args, _label=label, _real=getattr(owner, name),
                     **kwargs):
            counts[_label] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    cfg = make_config(steps=20, world={"n_agents": 40,
                                       "mask_mode": "controller",
                                       "initial_infected": 2},
                      escrow={"policy": "adaptive_with_return",
                              "initial_balance": 50.0})
    res = run_scenario(cfg)
    assert res.summary.bridge["bridged"] == 800
    assert counts == CALL_BUDGET


# =============================================================================
# HIL replay
# =============================================================================

def write_replay(path, schedule, seed=4):
    samples = synth_stream(schedule, np.random.default_rng(seed))
    with open(path, "w", newline="") as fh:
        fh.write("t,eco2_ppm,tvoc_ppb\n")
        for s in samples:
            fh.write(f"{s.t},{s.eco2!r},{s.tvoc!r}\n")
    return samples


def test_replay_round_trip_matches_in_memory_stream(tmp_path):
    path = tmp_path / "replay.csv"
    samples = write_replay(path, [(30, True), (20, False), (30, True)])
    parsed, warnings = read_replay_csv(path)
    assert warnings == []
    assert parsed == samples             # float repr round trip is exact
    assert detector_bits(DetectorConfig(), parsed) == \
        detector_bits(DetectorConfig(), samples)


def test_replay_malformed_rows_skipped_with_warnings(tmp_path):
    path = tmp_path / "replay.csv"
    path.write_text("t,eco2_ppm,tvoc_ppb\n0,650,70\nbroken,row\n1,651,71\n")
    samples, warnings = read_replay_csv(path)
    assert len(samples) == 2
    assert len(warnings) == 1 and "line 3" in warnings[0]


def test_hil_mask_worn_throughout_fixed_penalty_full_refund(tmp_path):
    path = tmp_path / "worn.csv"
    write_replay(path, [(60, True)])
    # warm-started controller so the entry bond is a real amount
    cfg = make_config(steps=20,
                      controller={"initial_global_cost": 2.0},
                      escrow={"policy": "fixed_penalty",
                              "initial_balance": 40.0})
    res = run_hil_replay(cfg, path)
    hil_agent = agent_ids(cfg.world.n_agents)[cfg.hil.agent_index]
    # fully compliant: every staked token comes back at exit
    assert res.bank.balances.wallets[hil_agent] == 40_000_000
    refunds = [t for t in res.bank.transfers
               if t.agent_id == hil_agent and t.kind == "refund"]
    assert len(refunds) == 1 and refunds[0].amount_micro == 2_000_000


@pytest.mark.parametrize("policy", [p.value for p in PenaltyPolicy])
def test_hil_mask_never_worn_forfeits_under_every_policy(tmp_path, policy):
    path = tmp_path / "never.csv"
    write_replay(path, [(60, False)])
    cfg = make_config(steps=20,
                      controller={"initial_global_cost": 2.0},
                      escrow={"policy": policy, "initial_balance": 40.0})
    res = run_hil_replay(cfg, path)
    hil_agent = agent_ids(cfg.world.n_agents)[cfg.hil.agent_index]
    forfeits = [t for t in res.bank.transfers
                if t.agent_id == hil_agent and t.kind == "forfeit"]
    assert forfeits, f"no forfeiture under {policy}"
    assert res.bank.balances.wallets[hil_agent] < 40_000_000


def test_hil_agent_gets_positioned_status_records(tmp_path):
    path = tmp_path / "worn.csv"
    write_replay(path, [(40, True)])
    cfg = make_config(steps=10)
    res = run_hil_replay(cfg, path)
    from masksim.bus import decode_bridge_record
    from masksim.ledger import ChannelReader
    from masksim.sensing import decode_status
    hil_agent = agent_ids(cfg.world.n_agents)[cfg.hil.agent_index]
    ch = agent_channel(cfg.seed, hil_agent)
    reader = ChannelReader(res.tangle, ch.base_address, ch.mode, ch.side_key)
    docs = [decode_status(decode_bridge_record(m.body)["payload"])
            for m in reader.poll()]
    assert len(docs) == 10
    for doc in docs:
        assert doc["M"] == 1
        assert doc["pos"] is not None
        x, y = doc["pos"]
        assert 0 <= x <= 20 and 0 <= y <= 10


def test_hil_out_of_order_exchange_is_dropped_not_fatal(tmp_path, capsys,
                                                        caplog):
    """Timestamp jitter of 2 ns against turn-arounds of 5 and 7 ns puts some
    exchanges out of order: each is dropped and the fix uses the other
    anchors, or there is no fix that step; the run goes on."""
    replay = tmp_path / "worn.csv"
    write_replay(replay, [(200, True)])
    cfg = write_config(tmp_path, seed=3, steps=150, world={"n_agents": 10},
                       hil={"ranging_jitter": 2e-9})
    with caplog.at_level("INFO", logger="masksim.runner"):
        assert main(["hil-replay", str(cfg), str(replay),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    messages = [r.getMessage() for r in caplog.records]
    dropped = {m.split(":")[0] for m in messages if "dropped" in m}
    no_fix = {m.split(": ")[0].replace("no position fix at ", "")
              for m in messages if m.startswith("no position fix")}
    # a step that lost an exchange may still have a fix from the others
    assert no_fix and no_fix < dropped


def test_hil_run_truncates_to_replay_length(tmp_path):
    path = tmp_path / "short.csv"
    write_replay(path, [(15, True)])     # only 6 emissions with window 10
    cfg = make_config(steps=50)
    res = run_hil_replay(cfg, path)
    assert res.summary.steps == 6


def test_hil_replay_too_short_raises(tmp_path):
    path = tmp_path / "tiny.csv"
    write_replay(path, [(5, True)])
    with pytest.raises(ValueError, match="window never filled"):
        run_hil_replay(make_config(), path)


# =============================================================================
# CLI
# =============================================================================

def write_config(tmp_path, **over):
    doc = {"version": 1, "seed": 11, "steps": 12,
           "world": {"n_agents": 8, "mask_mode": "controller",
                     "initial_infected": 1},
           "escrow": {"policy": "adaptive", "initial_balance": 50.0}}
    doc.update(over)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_simulate_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "summary.json").exists()
    assert "time-avg compliance" in capsys.readouterr().out


def test_cli_simulate_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--steps", "5", "--seed", "99",
                 "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 5


def test_cli_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "world": {"epsilon": -2}}))
    assert main(["simulate", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


WORLD = {"n_agents": 8, "mask_mode": "controller"}


@pytest.mark.parametrize("over,args,field", [
    pytest.param({"seed": -1}, [], "seed", id="seed-negative"),
    pytest.param({"seed": True}, [], "seed", id="seed-bool"),
    pytest.param({"seed": 2**127}, [], "seed", id="seed-too-large"),
    pytest.param({"world": {**WORLD, "initial_infected": -1}}, [],
                 "initial_infected", id="initial-infected-negative"),
    pytest.param({"world": {**WORLD, "room": ["a", 1]}}, [], "world.room",
                 id="room-not-numeric"),
    pytest.param({"anchors": [[0, 0], ["a", 1], [0, 10]]}, [], "anchors[1]",
                 id="anchor-not-numeric"),
    pytest.param({}, ["--steps", "0"], "steps", id="override-steps-0"),
    pytest.param({}, ["--seed", "-1"], "seed", id="override-seed-negative"),
    pytest.param({"world": {**WORLD, "n_agents": True}}, [], "world.n_agents",
                 id="n-agents-bool"),
    pytest.param({"world": {**WORLD, "n_agents": 2.5}}, [], "world.n_agents",
                 id="n-agents-fraction"),
    pytest.param({"world": {**WORLD, "recovery_steps": "x"}}, [],
                 "world.recovery_steps", id="recovery-steps-string"),
    pytest.param({"world": {**WORLD, "room": [float("nan"), 10]}}, [],
                 "world.room", id="room-nan"),
    pytest.param({"world": {**WORLD, "room": ["20", True]}}, [],
                 "world.room", id="room-string-and-bool"),
    pytest.param({"world": {**WORLD, "epsilon": float("nan")}}, [],
                 "world.epsilon", id="epsilon-nan"),
    pytest.param({"world": {**WORLD, "p0": True}}, [], "world.p0",
                 id="float-field-bool"),
    pytest.param({"world": {**WORLD, "mask_mode": 1}}, [], "world.mask_mode",
                 id="str-field-number"),
    pytest.param({"outputs": {"agent_trace": "yes"}}, [],
                 "outputs.agent_trace", id="bool-field-string"),
    pytest.param({"steps": True}, [], "steps", id="steps-bool"),
    pytest.param({"steps": 2.7}, [], "steps", id="steps-fraction"),
    pytest.param({"escrow": {"initial_balance": 1e14}}, [],
                 "escrow", id="balance-beyond-escrow-record"),
    pytest.param({"hil": {"reply_delay": -1e-9}}, [], "hil.reply_delay",
                 id="hil-reply-delay-negative"),
    pytest.param({"hil": {"final_delay": 0}}, [], "hil.final_delay",
                 id="hil-final-delay-zero"),
    pytest.param({"controller": [1]}, [], "controller",
                 id="controller-not-object"),
    pytest.param({"detector": "x"}, [], "detector", id="detector-not-object"),
    pytest.param({"controller": {"link": []}}, [], "controller.link",
                 id="link-not-object"),
    pytest.param({"controller": {"link": {"name": "scaled_logistic",
                                          "scale": [1]}}}, [],
                 "controller.link.scale", id="link-scale-list"),
    pytest.param({"controller": {"link": {"name": "scaled_logistic",
                                          "scale": float("inf")}}}, [],
                 "controller.link.scale", id="link-scale-inf"),
    pytest.param({"controller": {"link": {"name": "logistic", "extra": 2}}},
                 [], "controller.link.extra", id="link-unknown-field"),
    pytest.param({"anchors": [[0, 0], [10, 0], [20, 0]]}, [], "anchors",
                 id="anchors-collinear"),
    pytest.param({"anchors": [[5, 5], [5, 5], [5, 5]]}, [], "anchors",
                 id="anchors-coincident"),
])
def test_cli_bad_input_exit_2_without_traceback(tmp_path, capsys, over, args,
                                                field):
    cfg = write_config(tmp_path, **over)
    assert main(["simulate", str(cfg), *args,
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert "Traceback" not in err


NOT_UTF8 = b'{"format": "masksim-tangle\xff"}'
# JSON that the decoder rejects with RecursionError and with a ValueError
# that is not a JSONDecodeError (Python's 4,300-digit limit on int parsing)
DEEP_NESTING = b"[" * 100_000 + b"]" * 100_000
HUGE_INT = b'{"version": ' + b"9" * 5_000 + b"}"
# a CSV field past the csv module's 131,072-byte limit, on line 2
OVER_LIMIT = b"t,eco2_ppm,tvoc_ppb\n1," + b"9" * 200_000 + b",3\n"


def test_cli_missing_config_exit_4(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 4


@pytest.mark.parametrize("argv,content,code", [
    pytest.param(["simulate", "{path}"], None, 4, id="simulate-directory"),
    pytest.param(["ledger", "inspect", "{path}"], None, 4,
                 id="inspect-directory"),
    pytest.param(["position", "{ranges}", "--out", "{path}"], None, 4,
                 id="position-out-directory"),
    pytest.param(["simulate", "{path}"], NOT_UTF8, 2, id="simulate-not-utf8"),
    pytest.param(["position", "{path}"], NOT_UTF8, 2, id="position-not-utf8"),
    pytest.param(["simulate", "{path}"], DEEP_NESTING, 2,
                 id="simulate-deep-nesting"),
    pytest.param(["simulate", "{path}"], HUGE_INT, 2, id="simulate-huge-int"),
    pytest.param(["position", "{path}"], OVER_LIMIT, 2,
                 id="position-field-over-limit"),
    pytest.param(["hil-replay", "{config}", "{path}", "--out-dir", "{out}"],
                 OVER_LIMIT, 2, id="hil-replay-field-over-limit"),
])
def test_cli_unreadable_input_exit_code_without_traceback(
        tmp_path, capsys, argv, content, code):
    """A directory is an i/o error; a file that is not UTF-8 text, or that
    the CSV reader cannot split, is a malformed input."""
    path, ranges = tmp_path / "input", tmp_path / "ranges.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    _write_ranges(ranges, [(0.0, 0.0), (20.0, 0.0), (0.0, 10.0)], (4.0, 3.0))
    names = {"path": path, "ranges": ranges, "config": write_config(tmp_path),
             "out": tmp_path / "out"}
    assert main([a.format(**names) for a in argv]) == code
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    if content is OVER_LIMIT:
        assert "line 2" in err


def test_cli_ledger_inspect_clean_and_tampered(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", str(cfg), "--out-dir", str(out)])
    snapshot = out / "ledger.json"
    assert main(["ledger", "inspect", str(snapshot)]) == 0
    assert "invariants hold" in capsys.readouterr().out

    doc = json.loads(snapshot.read_text())
    doc["transactions"][1]["parents"][0] = 999999
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert main(["ledger", "inspect", str(bad)]) == 3
    assert main(["ledger", "inspect", str(tmp_path / "missing.json")]) == 4


NON_HEX_GENESIS = {"id": "not hex", "parents": [0, 0],
                  "payload": "Z2VuZXNpcw==", "channel": None}


@pytest.mark.parametrize("doc", [
    [],
    {"format": "masksim-tangle", "version": 2, "channels": [],
     "transactions": []},
    {"format": "masksim-tangle", "version": 2, "channels": [],
     "transactions": [NON_HEX_GENESIS]},
    {"format": "masksim-tangle", "version": 2, "channels": [],
     "transactions": None},
    NOT_UTF8,
    DEEP_NESTING,
    HUGE_INT,
], ids=["top-level-list", "no-genesis", "non-hex-genesis", "null-transactions",
        "not-utf8", "deep-nesting", "huge-int"])
def test_cli_ledger_inspect_malformed_snapshot_exit_3(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    assert main(["ledger", "inspect", str(path)]) == 3
    err = capsys.readouterr().err
    assert "VIOLATION" in err and "Traceback" not in err


def test_cli_ledger_inspect_prints_one_violation_per_fault(tmp_path, capsys):
    t = Tangle()
    t.append(b"a")
    t.append(b"b")
    path = tmp_path / "ledger.json"
    t.save(path)
    doc = json.loads(path.read_text())
    doc["transactions"][1]["parents"][0] = 2       # a later record
    path.write_text(json.dumps(doc))
    assert main(["ledger", "inspect", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(
        line.startswith("VIOLATION: ") and ";" not in line for line in lines)
    assert "content hash mismatch" in lines[0]
    assert "does not postdate parent" in lines[1]


def test_cli_dropped_escrow_bundle_exit_3(tmp_path, capsys, monkeypatch):
    real_commit = EscrowBank.commit
    commits = []

    def lossy_commit(bank):
        commits.append(len(bank._pending))
        if len(commits) == 10:      # this step's bundle never reaches the ledger
            bank._pending.clear()
        real_commit(bank)

    monkeypatch.setattr(EscrowBank, "commit", lossy_commit)
    cfg = write_config(tmp_path)
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    assert commits[9] > 0
    err = capsys.readouterr().err
    assert "invariant breach: escrow: ledger replay differs" in err
    assert "Traceback" not in err


def test_dead_lettered_status_is_a_gap_to_controller_and_bank(
        tmp_path, monkeypatch):
    lost = (5, "a003")                  # (step, agent) of the lost status
    real_append = Gateway._append

    def lossy_append(gateway, channel, message):
        if (decode_status(message.payload)["step"],
                message.publisher_id) == lost:
            return None                 # dead-lettered, never on the ledger
        return real_append(gateway, channel, message)

    results = []

    def keep_result(config, out_dir=None):
        results.append(run_scenario(config, out_dir=out_dir))
        return results[-1]

    monkeypatch.setattr(Gateway, "_append", lossy_append)
    monkeypatch.setattr(cli, "run_scenario", keep_result)
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path)),
                 "--out-dir", str(out)]) == 0
    res = results[0]
    assert res.controller.gap_events == [lost]
    assert res.summary.bridge["dead_letters"] == 1

    with open(out / "transfers.csv", newline="") as fh:
        kinds = {}
        for row in csv.DictReader(fh):
            if row["agent"] == lost[1]:
                kinds.setdefault(int(row["step"]), set()).add(row["kind"])
    # the bond staked at the gap step is held through it: not settled there,
    # settled the step after without a fresh stake, as the step before was
    step = lost[0]
    assert kinds[step] == {"deposit"}
    assert kinds[step + 1] and "deposit" not in kinds[step + 1]
    assert kinds[step - 1] - {"deposit"}
    assert res.bank.conservation_ok()
    channel = escrow_channel(11)
    replayed = replay_records(
        mam_fetch(res.tangle, channel.base_address, channel.mode))
    assert res.bank.replay_mismatch(replayed) is None


def test_cli_hil_replay_smoke(tmp_path):
    cfg = write_config(tmp_path)
    replay = tmp_path / "replay.csv"
    write_replay(replay, [(30, True)])
    out = tmp_path / "hil-out"
    assert main(["hil-replay", str(cfg), str(replay),
                 "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "hil"


def test_cli_position_distances_round_trip(tmp_path, capsys):
    anchors = [(0.0, 0.0), (20.0, 0.0), (0.0, 10.0), (20.0, 10.0)]
    point = (4.5, 6.25)
    path = tmp_path / "ranges.csv"
    with open(path, "w", newline="") as fh:
        fh.write("fix_id,anchor_id,distance_m\n")
        for i, (ax, ay) in enumerate(anchors):
            d = float(np.hypot(point[0] - ax, point[1] - ay))
            fh.write(f"f1,{i},{d!r}\n")
    assert main(["position", str(path)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0] == "fix_id,x,y,rms_residual_m,iterations,converged"
    row = out_lines[1].split(",")
    assert row[0] == "f1"
    assert float(row[1]) == pytest.approx(point[0], abs=1e-6)
    assert float(row[2]) == pytest.approx(point[1], abs=1e-6)


def test_cli_position_timestamp_format(tmp_path):
    from masksim.positioning import simulate_exchange
    anchors = [(0.0, 0.0), (20.0, 0.0), (0.0, 10.0), (20.0, 10.0)]
    point = (12.0, 3.0)
    path = tmp_path / "stamps.csv"
    out_path = tmp_path / "fixes.csv"
    with open(path, "w", newline="") as fh:
        fh.write("fix_id,anchor_id,t_sp,t_rp,t_sr,t_rr,t_sf,t_rf\n")
        for i, (ax, ay) in enumerate(anchors):
            d = float(np.hypot(point[0] - ax, point[1] - ay))
            ts = simulate_exchange(d)
            fh.write(f"p,{i},{ts.t_sp!r},{ts.t_rp!r},{ts.t_sr!r},"
                     f"{ts.t_rr!r},{ts.t_sf!r},{ts.t_rf!r}\n")
    assert main(["position", str(path), "--out", str(out_path)]) == 0
    row = out_path.read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(point[0], abs=1e-6)
    assert float(row[2]) == pytest.approx(point[1], abs=1e-6)


def _write_ranges(path, anchors, point, extra=()):
    with open(path, "w", newline="") as fh:
        fh.write("fix_id,anchor_id,distance_m\n")
        for i, (ax, ay) in enumerate(anchors):
            d = float(np.hypot(point[0] - ax, point[1] - ay))
            fh.write(f"f1,{i},{d!r}\n")
        for line in extra:
            fh.write(line + "\n")


@pytest.mark.parametrize("anchors", ["nan,0;20,0;0,10", "0,0;inf,0;0,10",
                                     "0,0;20,0;0,-inf", "0,0;10,0;20,0",
                                     "5,5;5,5;5,5", "0,0;1,1", ""])
def test_cli_position_non_finite_anchor_exit_2(tmp_path, capsys, anchors):
    path = tmp_path / "ranges.csv"
    _write_ranges(path, [(0.0, 0.0), (20.0, 0.0), (0.0, 10.0)], (4.0, 3.0))
    assert main(["position", str(path), "--anchors", anchors]) == 2
    err = capsys.readouterr().err
    assert "--anchors" in err and "Traceback" not in err


def test_cli_position_non_finite_range_error_no_fix(tmp_path, capsys):
    # distances whose squared error overflows: a no-fix row, not a fix with
    # an infinite residual
    path = tmp_path / "ranges.csv"
    path.write_text("fix_id,anchor_id,distance_m\n"
                    + "".join(f"f,{i},1e200\n" for i in range(4)))
    assert main(["position", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "f,,,,0,0"
    assert "Traceback" not in err and "Warning" not in err


def test_cli_position_logs_why_a_fix_failed(tmp_path, caplog):
    path = tmp_path / "ranges.csv"
    path.write_text("fix_id,anchor_id,distance_m\n"
                    + "".join(f"f,{i},1e200\n" for i in range(4)))
    assert main(["position", str(path)]) == 0
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "no position fix for f: range error is not finite")]


def test_cli_module_logs_under_its_package_name(tmp_path):
    path = tmp_path / "far.csv"
    path.write_text("fix_id,anchor_id,distance_m\n"
                    + "".join(f"f,{i},1e200\n" for i in range(4)))
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("MASKSIM_LOG", None)
    done = subprocess.run([sys.executable, "-m", "masksim.cli", "position",
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0
    assert "WARNING masksim.cli: no position fix" in done.stderr


def test_cli_position_skips_non_finite_distance(tmp_path, capsys, caplog):
    anchors = [(0.0, 0.0), (20.0, 0.0), (0.0, 10.0), (20.0, 10.0)]
    point = (4.5, 6.25)
    path = tmp_path / "ranges.csv"
    _write_ranges(path, anchors, point,
                  extra=["f1,1,nan", "f1,2,inf", "f1,3,-inf"])
    assert main(["position", str(path)]) == 0
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert skipped == [
        f"line {n} skipped: distance {d} is negative or not finite"
        for n, d in ((6, "nan"), (7, "inf"), (8, "-inf"))]
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[-1] == "1"
    assert float(row[1]) == pytest.approx(point[0], abs=1e-6)
    assert float(row[2]) == pytest.approx(point[1], abs=1e-6)
