#!/usr/bin/env python3
"""Hardware-in-the-loop replay: one real mask among simulated agents.

A recorded (here: synthesized) sensor capture drives agent a000's mask
bits through the detector, its reported position comes from synthetic UWB
exchanges solved by the multilateration pipeline, and everything else is
simulated.  Under the fixed-penalty policy a fully compliant wearer gets
every staked token back at exit.

Run:  python3 demos/07_hil_replay.py
"""

import tempfile
from pathlib import Path

import numpy as np

from masksim import synth_stream
from masksim.runner import agent_ids, run_hil_replay
from masksim.scenario import scenario_from_dict

config = scenario_from_dict({
    "version": 1,
    "seed": 7,
    "steps": 40,
    "world": {"n_agents": 25, "mask_mode": "controller",
              "initial_infected": 1},
    "controller": {"initial_global_cost": 2.0},
    "escrow": {"policy": "fixed_penalty", "initial_balance": 50.0},
    "hil": {"agent_index": 0, "ranging_jitter": 2.5e-10},
})

with tempfile.TemporaryDirectory() as tmp:
    replay = Path(tmp) / "replay.csv"
    samples = synth_stream([(60, True)], np.random.default_rng(5))
    with open(replay, "w", newline="") as fh:
        fh.write("t,eco2_ppm,tvoc_ppb\n")
        for s in samples:
            fh.write(f"{s.t},{s.eco2!r},{s.tvoc!r}\n")

    result = run_hil_replay(config, replay)

wearer = agent_ids(config.world.n_agents)[config.hil.agent_index]
bank = result.bank
print(f"replayed agent:         {wearer} (mask worn for the whole capture)")
print(f"steps run:              {result.summary.steps} "
      f"(limited by replay length)")
print(f"entry bond:             2.000000 tokens (fixed-penalty policy)")
print(f"final wallet balance:   {bank.balances.wallets[wearer] / 1e6:.6f} "
      f"of 50.000000")

moves = [t for t in bank.transfers if t.agent_id == wearer]
print("escrow history of the wearer:")
for t in moves:
    print(f"  step {t.step:>3}  {t.kind:<8} {t.amount_micro / 1e6:.6f}")

others = [a for a in agent_ids(config.world.n_agents) if a != wearer]
lost = sum(1 for a in others
           if bank.balances.wallets[a] / 1e6 < config.escrow.initial_balance)
print(f"\nsimulated agents who lost tokens to violations: "
      f"{lost}/{len(others)}")
print(f"time-avg compliance across the crowd: "
      f"{result.summary.time_avg_compliance:.3f}")
