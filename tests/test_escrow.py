"""Bond state machine, the four penalty policies, exact token conservation."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masksim.escrow import (BondState, EscrowBank, EscrowFault, PenaltyPolicy,
                            Transfer, decode_records, micro_to_str,
                            replay_records, to_micro)
from masksim.ledger import MAX_PAYLOAD, ChannelMode, MamChannel, Tangle, mam_fetch


def bank(policy, balances=None, rho=0.5, **kw):
    return EscrowBank(balances or {"a": 10.0}, policy, rho=rho, **kw)


# =============================================================================
# Micro-token arithmetic
# =============================================================================

def test_to_micro_half_even():
    assert to_micro(1.0) == 1_000_000
    # rounding applies to the exact binary value; 2^-7 token = 7812.5 micro
    # is a true tie and resolves to the even side, as does 3 * 2^-7
    assert to_micro(0.0078125) == 7812
    assert to_micro(0.0234375) == 23438
    with pytest.raises(ValueError):
        to_micro(-1.0)


def test_micro_to_str_exact():
    assert micro_to_str(1_000_000) == "1.000000"
    assert micro_to_str(123) == "0.000123"
    assert micro_to_str(2_500_001) == "2.500001"


# =============================================================================
# Deposits
# =============================================================================

def test_deposit_moves_balance_into_bond():
    b = bank(PenaltyPolicy.ADAPTIVE)
    assert b.deposit("a", 4.0, step=1)
    assert b.wallets["a"].balance == 6.0
    assert b.bonds["a"].state is BondState.ACTIVE
    assert b.bonds["a"].amount_micro == 4_000_000


def test_insufficient_balance_is_exclusion_not_crash():
    b = bank(PenaltyPolicy.ADAPTIVE, {"a": 3.0})
    assert not b.deposit("a", 4.0, step=1)
    assert b.wallets["a"].balance == 3.0
    assert b.bonds["a"].state is BondState.REFUNDED
    assert len(b.exclusions) == 1
    assert b.exclusions[0].required_micro == 4_000_000


def test_zero_deposit_is_valid_noop_stake():
    b = bank(PenaltyPolicy.ADAPTIVE)
    assert b.deposit("a", 0.0, step=1)
    assert b.bonds["a"].state is BondState.ACTIVE
    assert b.bonds["a"].amount_micro == 0


def test_double_deposit_is_state_fault():
    b = bank(PenaltyPolicy.ADAPTIVE)
    b.deposit("a", 1.0, step=1)
    with pytest.raises(EscrowFault):
        b.deposit("a", 1.0, step=1)


# =============================================================================
# Adaptive policies
# =============================================================================

def test_adaptive_compliant_step_nets_zero():
    b = bank(PenaltyPolicy.ADAPTIVE)
    b.deposit("a", 5.0, step=1)
    before = b.wallets["a"].balance_micro
    b.settle_step("a", m=1, next_stake_tokens=5.0, step=2)
    assert b.wallets["a"].balance_micro == before
    kinds = [t.kind for t in b.transfers]
    assert kinds == ["deposit", "refund", "deposit"]   # both legs logged


def test_adaptive_violation_forfeits_to_pool():
    b = bank(PenaltyPolicy.ADAPTIVE)
    b.deposit("a", 5.0, step=1)
    b.settle_step("a", m=0, next_stake_tokens=2.0, step=2)
    assert b.forfeited_pool_micro == 5_000_000
    assert b.wallets["a"].balance == 3.0        # 10 - 5 - 2
    assert b.bonds["a"].amount_micro == 2_000_000


def test_adaptive_with_return_partial_comeback():
    b = bank(PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=0.5)
    b.deposit("a", 5.0, step=1)
    b.settle_step("a", m=0, next_stake_tokens=5.0, step=2)   # forfeit 5
    assert b.forfeited_pool_micro == 5_000_000
    b.settle_step("a", m=1, next_stake_tokens=5.0, step=3)   # back in line
    # rho * 5 = 2.5 returned, forfeited total drawn down to 2.5
    assert b.forfeited_pool_micro == 2_500_000
    assert b.bonds["a"].forfeited_micro == 2_500_000
    returns = [t for t in b.transfers if t.kind == "partial_return"]
    assert len(returns) == 1 and returns[0].amount_micro == 2_500_000


def test_return_rho_one_restores_everything_on_next_compliance():
    b = bank(PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=1.0)
    b.deposit("a", 4.0, step=1)
    b.settle_step("a", m=0, next_stake_tokens=4.0, step=2)
    b.settle_step("a", m=1, next_stake_tokens=4.0, step=3)
    assert b.forfeited_pool_micro == 0
    assert b.bonds["a"].forfeited_micro == 0


def test_return_rho_zero_bit_identical_to_adaptive():
    rng = np.random.default_rng(2)
    bits = (rng.random(400) < 0.6).astype(int)
    stakes = np.round(rng.uniform(0, 3, 401), 3)

    def drive(policy, rho):
        b = EscrowBank({"a": 50.0}, policy, rho=rho)
        b.deposit("a", stakes[0], step=0)
        for k, m in enumerate(bits, start=1):
            if b.bonds["a"].state is BondState.ACTIVE:
                b.settle_step("a", int(m), float(stakes[k]), step=k)
            else:
                b.deposit("a", float(stakes[k]), step=k)
        return b

    plain = drive(PenaltyPolicy.ADAPTIVE, rho=0.5)
    zero = drive(PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=0.0)
    assert plain.transfers == zero.transfers
    assert plain.wallets["a"].balance_micro == zero.wallets["a"].balance_micro
    assert plain.forfeited_pool_micro == zero.forfeited_pool_micro


def test_settle_step_requires_adaptive_policy():
    b = bank(PenaltyPolicy.FIXED_PENALTY)
    b.deposit("a", 1.0, step=1)
    with pytest.raises(EscrowFault):
        b.settle_step("a", 1, 1.0, step=2)


def test_settle_nonactive_bond_is_fault():
    b = bank(PenaltyPolicy.ADAPTIVE)
    with pytest.raises(EscrowFault):
        b.settle_step("a", 1, 1.0, step=1)


# =============================================================================
# Fixed penalty
# =============================================================================

def test_fixed_penalty_full_refund_when_compliant():
    b = bank(PenaltyPolicy.FIXED_PENALTY)
    b.deposit("a", 5.0, step=1)
    b.settle_exit("a", fully_compliant=True, step=100)
    assert b.wallets["a"].balance == 10.0


def test_fixed_penalty_single_violation_refunds_nothing():
    b = bank(PenaltyPolicy.FIXED_PENALTY)
    b.deposit("a", 5.0, step=1)
    b.settle_exit("a", fully_compliant=False, step=100)
    assert b.wallets["a"].balance == 5.0
    assert b.forfeited_pool_micro == 5_000_000


def test_fixed_penalty_zero_stake_refunds_zero_either_way():
    for compliant in (True, False):
        b = bank(PenaltyPolicy.FIXED_PENALTY)
        b.deposit("a", 0.0, step=1)
        b.settle_exit("a", fully_compliant=compliant, step=9)
        assert b.wallets["a"].balance == 10.0


# =============================================================================
# Event driven
# =============================================================================

def test_event_driven_compliance_keeps_single_deposit():
    b = bank(PenaltyPolicy.EVENT_DRIVEN)
    b.deposit("a", 3.0, step=1)
    for k in range(2, 52):
        b.settle_event("a", m=1, required_tokens=3.0, step=k)
    assert [t.kind for t in b.transfers] == ["deposit"]


def test_event_driven_violation_forfeits_and_redeposits():
    b = bank(PenaltyPolicy.EVENT_DRIVEN)
    b.deposit("a", 3.0, step=1)
    b.settle_event("a", m=0, required_tokens=6.0, step=10)
    assert b.forfeited_pool_micro == 3_000_000
    assert b.bonds["a"].state is BondState.ACTIVE
    assert b.bonds["a"].amount_micro == 6_000_000
    assert b.wallets["a"].balance == 1.0


def test_event_driven_two_violations_two_redeposits():
    b = bank(PenaltyPolicy.EVENT_DRIVEN, {"a": 20.0})
    b.deposit("a", 2.0, step=1)
    b.settle_event("a", m=0, required_tokens=3.0, step=2)
    b.settle_event("a", m=0, required_tokens=4.0, step=3)
    kinds = [t.kind for t in b.transfers]
    assert kinds == ["deposit", "forfeit", "deposit", "forfeit", "deposit"]
    assert b.forfeited_pool_micro == 5_000_000


def test_event_driven_redeposit_may_exclude():
    b = bank(PenaltyPolicy.EVENT_DRIVEN, {"a": 5.0})
    b.deposit("a", 5.0, step=1)
    assert not b.settle_event("a", m=0, required_tokens=6.0, step=2)
    assert len(b.exclusions) == 1


# =============================================================================
# Conservation (property)
# =============================================================================

POLICIES = list(PenaltyPolicy)


@given(policy=st.sampled_from(POLICIES),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_conservation_and_nonnegativity_random_sequences(policy, data):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    n_agents = 6
    agents = [f"a{i}" for i in range(n_agents)]
    b = EscrowBank({a: float(rng.integers(0, 20)) for a in agents},
                   policy, rho=float(rng.choice([0.0, 0.3, 0.5, 1.0])))
    for a in agents:
        b.deposit(a, float(np.round(rng.uniform(0, 4), 4)), step=0)
    for k in range(1, 40):
        for a in agents:
            m = int(rng.random() < 0.6)
            stake = float(np.round(rng.uniform(0, 4), 4))
            if b.bonds[a].state is not BondState.ACTIVE:
                b.deposit(a, stake, step=k)
            elif policy in (PenaltyPolicy.ADAPTIVE,
                            PenaltyPolicy.ADAPTIVE_WITH_RETURN):
                b.settle_step(a, m, stake, step=k)
            elif policy is PenaltyPolicy.EVENT_DRIVEN:
                b.settle_event(a, m, stake, step=k)
        assert b.conservation_ok()
        assert all(w.balance_micro >= 0 for w in b.wallets.values())
        assert b.forfeited_pool_micro >= 0
    if policy is PenaltyPolicy.FIXED_PENALTY:
        for a in agents:
            if b.bonds[a].state is BondState.ACTIVE:
                b.settle_exit(a, bool(rng.random() < 0.5), step=40)
        assert b.conservation_ok()


# =============================================================================
# Ledger audit trail
# =============================================================================

def test_every_transfer_lands_on_ledger_and_replays_to_same_balances():
    tangle = Tangle(rng_seed=5)
    channel = MamChannel(ChannelMode.PUBLIC, bytes(32))
    rng = np.random.default_rng(7)
    agents = [f"a{i}" for i in range(5)]
    b = EscrowBank({a: 30.0 for a in agents}, PenaltyPolicy.ADAPTIVE_WITH_RETURN,
                   rho=0.5, tangle=tangle, channel=channel)
    for a in agents:
        b.deposit(a, 2.0, step=0)
    for k in range(1, 60):
        for a in agents:
            if b.bonds[a].state is BondState.ACTIVE:
                b.settle_step(a, int(rng.random() < 0.7),
                              float(np.round(rng.uniform(0, 3), 3)), step=k)
            else:
                b.deposit(a, 1.0, step=k)
        b.commit()

    payloads = mam_fetch(tangle, channel.base_address, ChannelMode.PUBLIC)
    items = decode_records(payloads)
    assert len(items) == len(b.transfers) + len(agents)      # + init records
    replayed = replay_records(payloads)
    assert replayed.forfeited_pool == b.forfeited_pool_micro
    for a in agents:
        assert replayed.wallets[a] == b.wallets[a].balance_micro
        live = (b.bonds[a].amount_micro
                if b.bonds[a].state is BondState.ACTIVE else None)
        assert replayed.active_bonds.get(a) == live
    assert replayed.total() == b.initial_total_micro


def ledger_bank(balances, policy=PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=0.5):
    tangle = Tangle(rng_seed=1)
    channel = MamChannel(ChannelMode.PUBLIC, bytes(32))
    b = EscrowBank(balances, policy, rho=rho, tangle=tangle, channel=channel)
    return b, lambda: mam_fetch(tangle, channel.base_address, ChannelMode.PUBLIC)


def test_v2_bundle_round_trip_through_replay():
    b, fetch = ledger_bank({"a": 10.0, "b": 5.0})
    assert len(fetch()) == 1                 # the init records, one bundle
    b.deposit("a", 4.0, step=1)
    b.deposit("b", 2.0, step=1)
    assert len(fetch()) == 1                 # buffered until the commit
    b.commit()
    b.settle_step("a", 0, 3.0, step=2)       # forfeit, deposit
    b.settle_step("b", 1, 1.0, step=2)       # refund, deposit
    b.commit()
    b.settle_step("a", 1, 1.0, step=3)       # refund, partial_return, deposit
    b.commit()
    b.commit()                               # nothing pending: no bundle
    payloads = fetch()
    assert len(payloads) == 4
    # kind 4, version 1, two transfers of (step, kind 1 = deposit, micro,
    # agent id length) followed by the agent id
    assert payloads[1] == (struct.pack(">BBI", 4, 1, 2)
                           + struct.pack(">IBQH", 1, 1, 4_000_000, 1) + b"a"
                           + struct.pack(">IBQH", 1, 1, 2_000_000, 1) + b"b")
    assert decode_records(payloads) == [
        Transfer(0, "a", "init", 10_000_000),
        Transfer(0, "b", "init", 5_000_000)] + b.transfers
    replayed = replay_records(payloads)
    assert replayed.wallets == {a: w.balance_micro for a, w in b.wallets.items()}
    assert replayed.active_bonds == {"a": 1_000_000, "b": 1_000_000}
    assert replayed.forfeited_pool == b.forfeited_pool_micro == 2_000_000
    assert replayed.total() == b.initial_total_micro


def test_step_larger_than_one_payload_splits_into_bundles():
    agents = [f"a{i:03d}" for i in range(400)]
    b, fetch = ledger_bank({a: 100.0 for a in agents})
    inits = fetch()
    for a in agents:
        b.deposit(a, 1.234567, step=7)
    b.commit()
    bundles = fetch()[len(inits):]
    assert len(inits) >= 2 and len(bundles) >= 2
    limit = MamChannel(ChannelMode.PUBLIC, bytes(32)).message_limit
    assert all(len(p) <= limit < MAX_PAYLOAD for p in inits + bundles)
    # packed greedily: each bundle but the last is too full for the next item
    for p, nxt in zip(bundles, bundles[1:]):
        first = decode_records([nxt])[0]
        item = struct.calcsize(">IBQH") + len(first.agent_id.encode())
        assert len(p) + item > limit
    assert decode_records(bundles) == b.transfers
    assert replay_records(inits + bundles).total() == b.initial_total_micro


def test_v1_record_is_rejected():
    v1 = json.dumps({"v": 1, "kind": "init", "agent": "a", "step": 0,
                     "amount": 5}, separators=(",", ":"), sort_keys=True)
    with pytest.raises(ValueError, match="version"):
        replay_records([v1.encode()])
    with pytest.raises(ValueError, match="version"):
        replay_records([b'{"v":2,"transfers":[[1,"a","init",5]]}'])
    # a binary bundle announcing two transfers but carrying one
    one = struct.pack(">IBQH", 1, 0, 5, 1) + b"a"
    with pytest.raises(ValueError, match="malformed"):
        replay_records([struct.pack(">BBI", 4, 1, 2) + one])


def test_transfer_csv_schema(tmp_path):
    b = bank(PenaltyPolicy.ADAPTIVE)
    b.deposit("a", 2.5, step=1)
    b.settle_step("a", 0, 1.0, step=2)
    path = tmp_path / "transfers.csv"
    b.write_transfer_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,agent,kind,amount"
    assert lines[1] == "1,a,deposit,2.500000"
    assert lines[2] == "2,a,forfeit,2.500000"


# =============================================================================
# enter / settle / close against the per-agent dispatch they replace
# =============================================================================

def dispatch_oracle(b, agents, schedule):
    """The per-agent policy dispatch a closed-loop run once did itself,
    kept as the oracle: which rule applies to which bond under which policy,
    with the fixed-penalty compliance history kept outside the bank.  An
    agent with no record that step is skipped: its bond is held."""
    policy = b.policy
    all_compliant = np.ones(len(agents), dtype=bool)
    for step, (stakes, bits, present, next_stakes) in enumerate(schedule,
                                                                 start=1):
        stakes, next_stakes = stakes.tolist(), next_stakes.tolist()
        for i, a in enumerate(agents):
            if b.bonds[a].state is not BondState.ACTIVE:
                if policy is PenaltyPolicy.FIXED_PENALTY and step > 1:
                    continue
                b.deposit(a, stakes[i], step)
        all_compliant &= (bits != 0) | ~present
        for i, a in enumerate(agents):
            if b.bonds[a].state is not BondState.ACTIVE or not present[i]:
                continue
            m = int(bits[i])
            if policy in (PenaltyPolicy.ADAPTIVE,
                          PenaltyPolicy.ADAPTIVE_WITH_RETURN):
                b.settle_step(a, m, next_stakes[i], step)
            elif policy is PenaltyPolicy.EVENT_DRIVEN:
                b.settle_event(a, m, next_stakes[i], step)
        b.commit()
    if policy is PenaltyPolicy.FIXED_PENALTY:
        for a, compliant in zip(agents, all_compliant.tolist()):
            if b.bonds[a].state is BondState.ACTIVE:
                b.settle_exit(a, compliant, len(schedule))
        b.commit()


def step_calls(b, schedule):
    for step, (stakes, bits, present, next_stakes) in enumerate(schedule,
                                                                 start=1):
        b.enter(stakes, step)
        b.settle(bits, present, next_stakes, step)
    b.close(len(schedule))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_step_calls_equal_per_agent_dispatch(policy, seed):
    rng = np.random.default_rng([seed, POLICIES.index(policy)])
    agents = [f"a{i}" for i in range(12)]
    # low balances against stakes of up to 4 tokens: exclusions, and
    # re-entry after them, happen under every policy but fixed penalty
    balances = {a: float(rng.integers(0, 9)) for a in agents}

    def price():
        return np.round(rng.uniform(0, 4, len(agents)), 4)

    # every third agent always wears a mask, so some fixed-penalty bonds
    # come back at exit; a tenth of the records never reach the ledger, and
    # the first agent's mask is off exactly when its record is lost
    compliance = np.where(np.arange(len(agents)) % 3 == 0, 1.0, 0.7)
    schedule = []
    for step in range(1, 31):
        bits = (rng.random(len(agents)) < compliance).astype(np.int8)
        present = rng.random(len(agents)) >= 0.1
        present[0] = bits[0] = step % 3 != 0
        schedule.append((price(), bits, present, price()))
    banks = []
    for drive in (dispatch_oracle, None):
        tangle = Tangle(rng_seed=seed)
        channel = MamChannel(ChannelMode.PUBLIC, bytes(32))
        b = EscrowBank(balances, policy, rho=0.5, tangle=tangle,
                       channel=channel)
        if drive is None:
            step_calls(b, schedule)
        else:
            drive(b, agents, schedule)
        banks.append((b, mam_fetch(tangle, channel.base_address,
                                   ChannelMode.PUBLIC)))
    (oracle, oracle_ledger), (b, ledger) = banks

    assert b.transfers == oracle.transfers
    assert b.exclusions == oracle.exclusions
    assert {a: w.balance_micro for a, w in b.wallets.items()} == \
        {a: w.balance_micro for a, w in oracle.wallets.items()}
    assert b.bonds == oracle.bonds
    assert b.forfeited_pool_micro == oracle.forfeited_pool_micro
    assert ledger == oracle_ledger
    assert b.replay_mismatch(replay_records(ledger)) is None
    assert b.conservation_ok()

    # an unrecorded violation is never punished: the bond is held
    assert [t.kind for t in b.transfers if t.agent_id == "a0"]
    assert not [t for t in b.transfers
                if t.agent_id == "a0" and t.kind == "forfeit"]
    assert oracle.exclusions
    if policy is PenaltyPolicy.FIXED_PENALTY:
        kinds = {t.kind for t in b.transfers if t.step == len(schedule)}
        assert kinds == {"refund", "forfeit"}
    else:
        excluded = {(e.agent_id, e.step) for e in oracle.exclusions}
        assert any(t.kind == "deposit" and t.step > s
                   for t in oracle.transfers for a, s in excluded
                   if t.agent_id == a)


def test_replay_mismatch_names_what_differs():
    b, fetch = ledger_bank({"a": 10.0, "b": 5.0})
    b.deposit("a", 4.0, step=1)
    b.commit()
    assert b.replay_mismatch(replay_records(fetch())) is None
    b.deposit("b", 1.0, step=1)                  # not committed yet
    assert b.replay_mismatch(replay_records(fetch())) == "wallets"
    b.commit()
    replayed = replay_records(fetch())
    replayed.active_bonds["b"] += 1
    assert b.replay_mismatch(replayed) == "active bonds"
    replayed = replay_records(fetch())
    replayed.forfeited_pool = 1
    assert b.replay_mismatch(replayed) == "forfeited pool"
