"""Correctness checks of the benchmark, computed apart from the program.

Each function takes plain data (parsed CSV rows, decoded ledger records,
arrays) and returns a list of problems; an empty list means the check
holds.  They recompute what the method prescribes (token accounting, the
global cost law, the sensor window threshold, all-pairs contacts) or test
properties every run must have (population conservation, monotone S and R).
None compares against stored bytes, so a deliberate change of an output
format leaves them valid.
"""

from __future__ import annotations

import math

import numpy as np

# at most this many problems are listed per check
_LIMIT = 5


def _capped(problems: list[str]) -> list[str]:
    if len(problems) > _LIMIT:
        return problems[:_LIMIT] + [f"... {len(problems) - _LIMIT} more"]
    return problems


def parse_micro(text: str) -> int:
    """Exact integer micro-tokens of a decimal token amount like '1.250000'."""
    whole, _, frac = text.partition(".")
    if len(frac) > 6 or not whole.isdigit() or (frac and not frac.isdigit()):
        raise ValueError(f"not a token amount: {text!r}")
    return int(whole) * 10**6 + int(frac.ljust(6, "0"))


# =============================================================================
# Epidemic
# =============================================================================

def sir_problems(rows, n_agents: int) -> list[str]:
    """``rows`` are per-step (S, I, R_slight, R_serious) counts.

    Every row sums to the population, S never rises and neither immune
    count ever falls.
    """
    problems = []
    prev = None
    for k, (s, i, r1, r2) in enumerate(rows):
        if s + i + r1 + r2 != n_agents:
            problems.append(f"row {k}: S+I+R = {s + i + r1 + r2} != {n_agents}")
        if prev is not None:
            if s > prev[0]:
                problems.append(f"row {k}: S rose from {prev[0]} to {s}")
            if r1 < prev[2] or r2 < prev[3]:
                problems.append(f"row {k}: an immune count fell")
        prev = (s, i, r1, r2)
    return _capped(problems)


def brute_force_pairs(positions: np.ndarray, epsilon: float) -> set:
    """Every unordered pair within ``epsilon`` (inclusive), all pairs tested."""
    d = positions[:, None, :] - positions[None, :, :]
    near = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) <= epsilon * epsilon
    ii, jj = np.nonzero(np.triu(near, k=1))
    return set(zip(ii.tolist(), jj.tolist()))


def contact_pair_problems(positions: np.ndarray, epsilon: float,
                          ii: np.ndarray, jj: np.ndarray) -> list[str]:
    got = list(zip(np.asarray(ii).tolist(), np.asarray(jj).tolist()))
    want = brute_force_pairs(positions, epsilon)
    problems = []
    if len(got) != len(set(got)):
        problems.append("contact_pairs returned a pair twice")
    missing, extra = want - set(got), set(got) - want
    if missing:
        problems.append(f"{len(missing)} pairs within epsilon missing, "
                        f"e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} pairs not within epsilon, "
                        f"e.g. {sorted(extra)[0]}")
    return problems


def peak_order_problems(peaks: dict[float, list[float]]) -> list[str]:
    """The mean peak infected fraction at the lowest mask fraction is above
    the mean at the highest."""
    lo, hi = min(peaks), max(peaks)
    mean_lo, mean_hi = np.mean(peaks[lo]), np.mean(peaks[hi])
    if not mean_lo > mean_hi:
        return [f"mean peak {mean_lo:.3f} at mask fraction {lo} is not above "
                f"{mean_hi:.3f} at {hi}"]
    return []


_SERIES_HEADER = "step,S,I,R_slight,R_serious,mean_M,C,mean_c"


def series_csv_problems(text: str, series) -> list[str]:
    """A ``to_csv`` export read back equals the series it was written from:
    integer columns exactly, float columns as the same doubles."""
    lines = text.splitlines()
    if not lines or lines[0] != _SERIES_HEADER:
        return ["header differs"]
    columns = [series.steps, series.susceptible, series.infected,
               series.immune_slight, series.immune_serious, series.mean_mask,
               series.global_cost, series.mean_individual_cost]
    if len(lines) - 1 != len(series.steps):
        return [f"{len(lines) - 1} rows for {len(series.steps)} steps"]
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != len(columns):
            return [f"row {k}: {len(fields)} fields: {line!r}"]
        try:
            values = ([int(f) for f in fields[:5]]
                      + [float(f) for f in fields[5:]])
        except ValueError:
            return [f"row {k} does not parse: {line!r}"]
        for col, value in zip(columns, values):
            if value != col[k]:
                return [f"row {k}: {value!r} != {col[k]!r}"]
    return []


# =============================================================================
# Escrow
# =============================================================================

def replay_transfers(transfers, agents, initial_micro: int):
    """Apply (step, agent, kind, amount_micro) rows in order.

    Returns ``(wallets, bonds, pool, problems)``: a wallet or the pool that
    goes negative at any row, or an unknown kind, is a problem.
    """
    wallets = {a: initial_micro for a in agents}
    bonds: dict[str, int] = {}
    pool = 0
    problems = []
    for row, (step, agent, kind, amount) in enumerate(transfers):
        if agent not in wallets or amount < 0:
            problems.append(f"row {row}: bad agent or amount")
            continue
        if kind == "deposit":
            wallets[agent] -= amount
            bonds[agent] = amount
        elif kind == "refund":
            wallets[agent] += amount
            bonds.pop(agent, None)
        elif kind == "forfeit":
            pool += amount
            bonds.pop(agent, None)
        elif kind == "partial_return":
            pool -= amount
            wallets[agent] += amount
        else:
            problems.append(f"row {row}: unknown kind {kind!r}")
            continue
        if wallets[agent] < 0:
            problems.append(f"row {row} (step {step}): wallet of {agent} "
                            f"is {wallets[agent]} micro-tokens")
        if pool < 0:
            problems.append(f"row {row} (step {step}): forfeited pool is {pool}")
    return wallets, bonds, pool, _capped(problems)


def transfer_problems(transfers, agents, initial_micro: int) -> list[str]:
    """No wallet goes negative, and wallets + active bonds + forfeited pool
    end at agents x initial balance."""
    wallets, bonds, pool, problems = replay_transfers(transfers, agents,
                                                      initial_micro)
    total = sum(wallets.values()) + sum(bonds.values()) + pool
    if total != len(agents) * initial_micro:
        problems.append(f"tokens not conserved: {total} != "
                        f"{len(agents)} x {initial_micro}")
    return problems


def escrow_channel_problems(replayed, transfers, agents,
                            initial_micro: int) -> list[str]:
    """The program's replay of the ledger's escrow channel
    (``escrow.replay_records``) ends in the same per-agent wallets, active
    bonds and forfeited pool as the benchmark's replay of transfers.csv."""
    wallets, bonds, pool, _ = replay_transfers(transfers, agents, initial_micro)
    problems = []
    if replayed.wallets != wallets:
        diff = [a for a in agents if replayed.wallets.get(a) != wallets[a]]
        problems.append(f"{len(diff)} wallets differ, e.g. {diff[:1]}")
    if replayed.active_bonds != bonds:
        problems.append("active bonds differ")
    if replayed.forfeited_pool != pool:
        problems.append(f"forfeited pool {replayed.forfeited_pool} != {pool}")
    return problems


def conservation_problems(replayed, n_agents: int,
                          initial_micro: int) -> list[str]:
    if replayed.total() != n_agents * initial_micro:
        return [f"replayed ledger holds {replayed.total()} micro-tokens, "
                f"not {n_agents} x {initial_micro}"]
    return []


# =============================================================================
# Controller
# =============================================================================

def cost_law_problems(cost_rows, alpha: float, q_star: float, delay: int,
                      initial_cost: float = 0.0) -> list[str]:
    """``cost_rows`` are (step, C, mean_compliance) for steps 1..K.

    C(k) - C(k-1) = alpha * (q* - mean_compliance(k - delay)), where the
    measurement is held at step 1 until ``delay`` measurements exist.
    """
    problems = []
    by_step = {step: m for step, _, m in cost_rows}
    prev = initial_cost
    for step, c, _ in cost_rows:
        expected = prev + alpha * (q_star - by_step[max(1, step - delay)])
        if not math.isclose(c, expected, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"step {step}: C = {c!r}, control law gives "
                            f"{expected!r}")
        prev = c
    return _capped(problems)


def controller_channel_problems(ledger_costs, cost_rows) -> list[str]:
    """Per-step C decoded from the controller channel equals costs.csv."""
    got = [(r["step"], r["C"]) for r in ledger_costs]
    want = [(step, c) for step, c, _ in cost_rows]
    if [s for s, _ in got] != [s for s, _ in want]:
        return [f"controller channel has steps {[s for s, _ in got][:5]}..., "
                f"costs.csv {[s for s, _ in want][:5]}..."]
    problems = [f"step {s}: ledger C {a!r} != costs.csv {b!r}"
                for (s, a), (_, b) in zip(got, want)
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)]
    return _capped(problems)


# =============================================================================
# Ledger status records, sensing and positioning
# =============================================================================

def status_order_problems(statuses: dict[str, list[dict]],
                          steps: int) -> list[str]:
    """Every agent channel holds exactly one status per step, in step order,
    each naming its own agent."""
    problems = []
    for agent, docs in statuses.items():
        got = [d["step"] for d in docs]
        if got != list(range(1, steps + 1)):
            problems.append(f"{agent}: {len(got)} records, steps {got[:3]}...")
        elif any(d["agent"] != agent for d in docs):
            problems.append(f"{agent}: a record names another agent")
    return _capped(problems)


def mean_bits_problems(statuses: dict[str, list[dict]],
                       mean_m: list[float]) -> list[str]:
    """The per-step mean of the ledger's status bits equals ``mean_m``
    (epidemic.csv ``mean_M`` for steps 1..K)."""
    n = len(statuses)
    problems = []
    for k, want in enumerate(mean_m):
        bits = [docs[k]["M"] for docs in statuses.values() if k < len(docs)]
        got = sum(bits) / n
        if len(bits) != n or not math.isclose(got, want, rel_tol=1e-12):
            problems.append(f"step {k + 1}: ledger mean {got!r} != {want!r}")
    return _capped(problems)


def detector_oracle(samples, window: int, eco2_threshold: float,
                    tvoc_threshold: float, combine: str = "and") -> list[int]:
    """Mask bits of a sliding-window threshold over (eco2, tvoc) samples.

    One bit per sample once ``window`` samples exist: 1 when the window
    means exceed both thresholds strictly (``combine="and"``) or either
    (``"or"``).
    """
    bits = []
    for end in range(window, len(samples) + 1):
        win = samples[end - window:end]
        eco2_high = sum(s[0] for s in win) / window > eco2_threshold
        tvoc_high = sum(s[1] for s in win) / window > tvoc_threshold
        bits.append(int(eco2_high and tvoc_high) if combine == "and"
                    else int(eco2_high or tvoc_high))
    return bits


def detector_problems(expected: list[int], ledger_bits: list[int]) -> list[str]:
    """The replayed agent's ledger bits equal the oracle's first bits."""
    if len(ledger_bits) > len(expected):
        return [f"{len(ledger_bits)} ledger bits, oracle has {len(expected)}"]
    problems = [f"step {k + 1}: ledger bit {b}, oracle {e}"
                for k, (b, e) in enumerate(zip(ledger_bits, expected))
                if b != e]
    return _capped(problems)


def position_problems(reported, true, tolerance_m: float) -> list[str]:
    """Reported fixes lie within ``tolerance_m`` of the true positions."""
    problems = []
    for k, (rep, tru) in enumerate(zip(reported, true)):
        if rep is None:
            problems.append(f"step {k + 1}: no position reported")
            continue
        err = math.hypot(rep[0] - tru[0], rep[1] - tru[1])
        if not err <= tolerance_m:
            problems.append(f"step {k + 1}: fix {err:.3f} m from the truth")
    if len(reported) != len(true):
        problems.append(f"{len(reported)} fixes for {len(true)} steps")
    return _capped(problems)
