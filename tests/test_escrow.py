"""Bond state machine, the four penalty policies, exact token conservation."""

import json
import math
import struct
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from masksim.escrow import (MICRO_PER_TOKEN, EscrowBank, EscrowFault,
                            PenaltyPolicy, Transfer, micro_to_str,
                            replay_records, to_micro)
from masksim.records import MAX_AMOUNT, decode_bundle, encode_bundles
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


def decimal_to_micro(tokens) -> int:
    """``to_micro`` as it was first written, in ``Decimal``: the oracle."""
    return int(Decimal(tokens).scaleb(6).quantize(Decimal(1),
                                                  rounding=ROUND_HALF_EVEN))


def nudged(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` representable doubles, not below zero."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


MAX_TOKENS = MAX_AMOUNT / MICRO_PER_TOKEN
# (2j + 1) / 128 tokens is exactly (2j + 1) * 7812.5 micro-tokens: a tie
HALF_MICRO_TIES = st.integers(0, int(MAX_TOKENS * 64) - 1).map(
    lambda j: (2 * j + 1) / 128)
TOKEN_AMOUNTS = st.one_of(
    st.floats(0.0, MAX_TOKENS),
    st.floats(0.0, 2.2250738585072014e-308),            # subnormals
    st.tuples(st.sampled_from([5e-7, 1.5e-6, 2.5e-6]),
              st.integers(-4, 4)).map(lambda t: nudged(*t)),
    HALF_MICRO_TIES,
    st.tuples(HALF_MICRO_TIES, st.integers(-2, 2)).map(lambda t: nudged(*t)),
    st.integers(0, MAX_AMOUNT // MICRO_PER_TOKEN),
)


@settings(max_examples=2000)
@given(TOKEN_AMOUNTS)
@example(-0.0)
@example(5e-324)
@example(MAX_TOKENS)
@example(MAX_AMOUNT // MICRO_PER_TOKEN)
def test_to_micro_equals_decimal_oracle(tokens):
    assert to_micro(tokens) == decimal_to_micro(tokens)


@settings(max_examples=300)
@given(rho=st.floats(0.0, 1.0),
       stakes=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4))
# 0.1 and 0.3 of 5 micro-tokens are ties in decimal but not in binary
@example(rho=0.1, stakes=[5e-06, 0.0])
@example(rho=0.3, stakes=[5e-06, 0.0])
def test_partial_return_equals_decimal_of_str_rho(rho, stakes):
    """Each partial return is ``Decimal(str(rho))`` times the cumulative
    forfeitures, rounded half even, with ``rho`` converted once per bank."""
    b = bank(PenaltyPolicy.ADAPTIVE_WITH_RETURN, {"a": 1000.0}, rho=rho)
    for step, stake in enumerate(stakes, start=1):
        b.deposit("a", stake, step)
        b.settle_step("a", 0, step)              # forfeit
    for step in range(len(stakes) + 1, len(stakes) + 4):
        b.deposit("a", 0.0, step)
        forfeited = b.forfeited["a"]
        b.settle_step("a", 1, step)              # refund, return
        want = int((Decimal(str(rho)) * forfeited)
                   .quantize(Decimal(1), rounding=ROUND_HALF_EVEN))
        got = [t.amount_micro for t in b.transfers
               if t.step == step and t.kind == "partial_return"]
        assert got == ([want] if want else [])
        assert b.forfeited["a"] == forfeited - want


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
    assert b.balances.wallets["a"] == 6_000_000
    assert "a" in b.balances.active_bonds
    assert b.balances.active_bonds["a"] == 4_000_000


def test_insufficient_balance_is_exclusion_not_crash():
    b = bank(PenaltyPolicy.ADAPTIVE, {"a": 3.0})
    assert not b.deposit("a", 4.0, step=1)
    assert b.balances.wallets["a"] == 3_000_000
    assert "a" not in b.balances.active_bonds
    assert len(b.exclusions) == 1
    assert b.exclusions[0].required_micro == 4_000_000


def test_zero_deposit_is_valid_noop_stake():
    b = bank(PenaltyPolicy.ADAPTIVE)
    assert b.deposit("a", 0.0, step=1)
    assert "a" in b.balances.active_bonds
    assert b.balances.active_bonds["a"] == 0


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
    before = b.balances.wallets["a"]
    b.deposit("a", 5.0, step=1)
    b.settle_step("a", m=1, step=1)
    assert b.balances.wallets["a"] == before
    kinds = [t.kind for t in b.transfers]
    assert kinds == ["deposit", "refund"]              # both legs logged
    assert not b.balances.active_bonds                 # settling closes it


def test_adaptive_violation_forfeits_to_pool():
    b = bank(PenaltyPolicy.ADAPTIVE)
    b.deposit("a", 5.0, step=1)
    b.settle_step("a", m=0, step=1)
    assert b.balances.forfeited_pool == 5_000_000
    assert b.balances.wallets["a"] == 5_000_000        # 10 - 5
    assert not b.balances.active_bonds


def test_adaptive_with_return_partial_comeback():
    b = bank(PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=0.5)
    b.deposit("a", 5.0, step=1)
    b.settle_step("a", m=0, step=1)                    # forfeit 5
    assert b.balances.forfeited_pool == 5_000_000
    b.deposit("a", 5.0, step=2)
    b.settle_step("a", m=1, step=2)                    # back in line
    # rho * 5 = 2.5 returned, forfeited total drawn down to 2.5
    assert b.balances.forfeited_pool == 2_500_000
    assert b.forfeited["a"] == 2_500_000
    returns = [t for t in b.transfers if t.kind == "partial_return"]
    assert len(returns) == 1 and returns[0].amount_micro == 2_500_000


def test_return_rho_one_restores_everything_on_next_compliance():
    b = bank(PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=1.0)
    for step, m in enumerate((0, 1), start=1):
        b.deposit("a", 4.0, step)
        b.settle_step("a", m, step)
    assert b.balances.forfeited_pool == 0
    assert b.forfeited["a"] == 0


def test_return_rho_zero_bit_identical_to_adaptive():
    rng = np.random.default_rng(2)
    bits = (rng.random(400) < 0.6).astype(int)
    stakes = np.round(rng.uniform(0, 3, 401), 3)

    def drive(policy, rho):
        b = EscrowBank({"a": 50.0}, policy, rho=rho)
        for k, m in enumerate(bits, start=1):
            if b.deposit("a", float(stakes[k]), step=k):
                b.settle_step("a", int(m), step=k)
        return b

    plain = drive(PenaltyPolicy.ADAPTIVE, rho=0.5)
    zero = drive(PenaltyPolicy.ADAPTIVE_WITH_RETURN, rho=0.0)
    assert plain.transfers == zero.transfers
    assert plain.balances == zero.balances
    assert plain.forfeited == zero.forfeited


def test_settle_step_requires_adaptive_policy():
    b = bank(PenaltyPolicy.FIXED_PENALTY)
    b.deposit("a", 1.0, step=1)
    with pytest.raises(EscrowFault):
        b.settle_step("a", 1, step=2)


def test_settle_nonactive_bond_is_fault():
    b = bank(PenaltyPolicy.ADAPTIVE)
    with pytest.raises(EscrowFault):
        b.settle_step("a", 1, step=1)


# =============================================================================
# Fixed penalty
# =============================================================================

def test_fixed_penalty_full_refund_when_compliant():
    b = bank(PenaltyPolicy.FIXED_PENALTY)
    b.deposit("a", 5.0, step=1)
    b.settle_exit("a", fully_compliant=True, step=100)
    assert b.balances.wallets["a"] == 10_000_000


def test_fixed_penalty_single_violation_refunds_nothing():
    b = bank(PenaltyPolicy.FIXED_PENALTY)
    b.deposit("a", 5.0, step=1)
    b.settle_exit("a", fully_compliant=False, step=100)
    assert b.balances.wallets["a"] == 5_000_000
    assert b.balances.forfeited_pool == 5_000_000


def test_fixed_penalty_zero_stake_refunds_zero_either_way():
    for compliant in (True, False):
        b = bank(PenaltyPolicy.FIXED_PENALTY)
        b.deposit("a", 0.0, step=1)
        b.settle_exit("a", fully_compliant=compliant, step=9)
        assert b.balances.wallets["a"] == 10_000_000


# =============================================================================
# Event driven
# =============================================================================

ONE_AGENT = np.ones(1, dtype=bool)


def test_event_driven_compliance_keeps_single_deposit():
    b = bank(PenaltyPolicy.EVENT_DRIVEN)
    for k in range(1, 52):
        b.enter(np.array([3.0]), k)
        b.settle(np.ones(1), ONE_AGENT, k)
    assert [t.kind for t in b.transfers] == ["deposit"]


def test_event_driven_violation_forfeits_and_redeposits():
    b = bank(PenaltyPolicy.EVENT_DRIVEN)
    b.enter(np.array([3.0]), 9)
    b.settle(np.zeros(1), ONE_AGENT, 9)
    assert b.balances.forfeited_pool == 3_000_000
    assert "a" not in b.balances.active_bonds
    b.enter(np.array([6.0]), 10)                       # the next step's price
    assert b.balances.active_bonds["a"] == 6_000_000
    assert b.balances.wallets["a"] == 1_000_000
    assert [t[:3] for t in b.transfers] == [
        (9, "a", "deposit"), (9, "a", "forfeit"), (10, "a", "deposit")]


def test_event_driven_two_violations_two_redeposits():
    b = bank(PenaltyPolicy.EVENT_DRIVEN, {"a": 20.0})
    for k, stake in enumerate((2.0, 3.0, 4.0), start=1):
        b.enter(np.array([stake]), k)
        b.settle(np.array([0.0 if k < 3 else 1.0]), ONE_AGENT, k)
    kinds = [t.kind for t in b.transfers]
    assert kinds == ["deposit", "forfeit", "deposit", "forfeit", "deposit"]
    assert b.balances.forfeited_pool == 5_000_000


def test_event_driven_redeposit_may_exclude():
    b = bank(PenaltyPolicy.EVENT_DRIVEN, {"a": 5.0})
    b.deposit("a", 5.0, step=1)
    b.settle_event("a", m=0, step=1)
    b.enter(np.array([6.0]), 2)
    assert [(e.step, e.required_micro) for e in b.exclusions] == \
        [(2, 6_000_000)]
    assert not b.balances.active_bonds


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
    for k in range(1, 40):
        for a in agents:
            m = int(rng.random() < 0.6)
            stake = float(np.round(rng.uniform(0, 4), 4))
            if a not in b.balances.active_bonds and \
                    not b.deposit(a, stake, step=k):
                continue
            if policy in (PenaltyPolicy.ADAPTIVE,
                          PenaltyPolicy.ADAPTIVE_WITH_RETURN):
                b.settle_step(a, m, step=k)
            elif policy is PenaltyPolicy.EVENT_DRIVEN:
                b.settle_event(a, m, step=k)
        assert b.conservation_ok()
        assert all(w >= 0 for w in b.balances.wallets.values())
        assert b.balances.forfeited_pool >= 0
    if policy is PenaltyPolicy.FIXED_PENALTY:
        for a in agents:
            if a in b.balances.active_bonds:
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
    for k in range(1, 60):
        for a in agents:
            if b.deposit(a, float(np.round(rng.uniform(0, 3), 3)), step=k):
                b.settle_step(a, int(rng.random() < 0.7), step=k)
        b.commit()

    payloads = mam_fetch(tangle, channel.base_address, ChannelMode.PUBLIC)
    items = transfers_of(payloads)
    assert len(items) == len(b.transfers) + len(agents)      # + init records
    replayed = replay_records(payloads)
    assert replayed == b.balances
    assert replayed.total() == b.initial_total_micro


def transfers_of(payloads):
    """All transfers (and ``init`` records) of escrow channel payloads."""
    return [Transfer(*t) for p in payloads for t in decode_bundle(p)]


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
    b.settle_step("a", 0, step=1)            # forfeit
    b.settle_step("b", 1, step=1)            # refund
    b.deposit("a", 3.0, step=2)
    b.deposit("b", 1.0, step=2)
    b.commit()
    b.settle_step("a", 1, step=2)            # refund, partial_return
    b.deposit("a", 1.0, step=3)
    b.commit()
    b.commit()                               # nothing pending: no bundle
    payloads = fetch()
    assert len(payloads) == 4
    # kind 4, version 1, two transfers of (step, kind 1 = deposit, micro,
    # agent id length) followed by the agent id
    assert payloads[1] == (struct.pack(">BBI", 4, 1, 2)
                           + struct.pack(">IBQH", 1, 1, 4_000_000, 1) + b"a"
                           + struct.pack(">IBQH", 1, 1, 2_000_000, 1) + b"b")
    assert transfers_of(payloads) == [
        Transfer(0, "a", "init", 10_000_000),
        Transfer(0, "b", "init", 5_000_000)] + b.transfers
    replayed = replay_records(payloads)
    assert replayed.wallets == b.balances.wallets
    assert replayed.active_bonds == {"a": 1_000_000, "b": 1_000_000}
    assert replayed.forfeited_pool == b.balances.forfeited_pool == 2_000_000
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
        first = transfers_of([nxt])[0]
        item = struct.calcsize(">IBQH") + len(first.agent_id.encode())
        assert len(p) + item > limit
    assert transfers_of(bundles) == b.transfers
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


def test_replay_rejects_a_transfer_before_its_init():
    limit = MamChannel(ChannelMode.PUBLIC, bytes(32)).message_limit
    with pytest.raises(ValueError, match="before its init"):
        replay_records(encode_bundles([(1, "a", "deposit", 5)], limit))


def test_transfer_csv_schema(tmp_path):
    b = bank(PenaltyPolicy.ADAPTIVE)
    b.deposit("a", 2.5, step=1)
    b.settle_step("a", 0, step=1)
    path = tmp_path / "transfers.csv"
    b.write_transfer_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,agent,kind,amount"
    assert lines[1] == "1,a,deposit,2.500000"
    assert lines[2] == "1,a,forfeit,2.500000"


# =============================================================================
# enter / settle / close against the per-agent dispatch they replace
# =============================================================================

def dispatch_oracle(b, agents, schedule):
    """The per-agent policy dispatch a closed-loop run once did itself,
    kept as the oracle: which rule applies to which bond under which policy,
    with the fixed-penalty compliance history kept outside the bank.  Every
    bond is staked at the start of a step, settling only closes bonds, and
    an agent with no record that step is skipped: its bond is held."""
    policy = b.policy
    all_compliant = np.ones(len(agents), dtype=bool)
    for step, (stakes, bits, present) in enumerate(schedule, start=1):
        stakes = stakes.tolist()
        for i, a in enumerate(agents):
            if a not in b.balances.active_bonds:
                if policy is PenaltyPolicy.FIXED_PENALTY and step > 1:
                    continue
                b.deposit(a, stakes[i], step)
        all_compliant &= (bits != 0) | ~present
        for i, a in enumerate(agents):
            if a not in b.balances.active_bonds or not present[i]:
                continue
            m = int(bits[i])
            if policy in (PenaltyPolicy.ADAPTIVE,
                          PenaltyPolicy.ADAPTIVE_WITH_RETURN):
                b.settle_step(a, m, step)
            elif policy is PenaltyPolicy.EVENT_DRIVEN:
                b.settle_event(a, m, step)
        b.commit()
    if policy is PenaltyPolicy.FIXED_PENALTY:
        for a, compliant in zip(agents, all_compliant.tolist()):
            if a in b.balances.active_bonds:
                b.settle_exit(a, compliant, len(schedule))
        b.commit()


def step_calls(b, schedule):
    for step, (stakes, bits, present) in enumerate(schedule, start=1):
        b.enter(stakes, step)
        b.settle(bits, present, step)
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
        schedule.append((price(), bits, present))
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
    assert b.balances == oracle.balances
    assert b.forfeited == oracle.forfeited
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


# =============================================================================
# The bank against a plain model of the transfer rule
# =============================================================================

micro_amounts = st.integers(0, 5_000_000)


class EscrowModel(RuleBasedStateMachine):
    """Drives a ledger-backed bank under ``POLICY`` alongside dicts of ints
    that say, written out here once more, what each transfer does.  After
    every rule the two agree and tokens are conserved; after every commit a
    replay of the escrow channel equals the bank."""

    POLICY = PenaltyPolicy.ADAPTIVE

    @initialize(opening=st.lists(st.integers(0, 20_000_000), min_size=1,
                                 max_size=4),
                rho=st.sampled_from(["0", "0.3", "0.5", "1"]))
    def open_bank(self, opening, rho):
        self.agents = [f"a{i}" for i in range(len(opening))]
        self.wallets = dict(zip(self.agents, opening))
        self.bonds = {}
        self.pool = 0
        self.forfeited = dict.fromkeys(self.agents, 0)
        self.exclusions = 0
        self.rho = Fraction(rho)
        self.step = 0
        self.initial_total = sum(opening)
        self.bank, self.fetch = ledger_bank(
            {a: m / 1e6 for a, m in self.wallets.items()}, self.POLICY,
            rho=float(rho))

    def _deposit(self, agent, amount):
        """The model's deposit; whether it succeeds."""
        if self.wallets[agent] < amount:
            self.exclusions += 1
            return False
        self.wallets[agent] -= amount
        self.bonds[agent] = amount
        return True

    def _forfeit(self, agent):
        amount = self.bonds.pop(agent)
        self.pool += amount
        self.forfeited[agent] += amount

    def _idle(self):
        return sorted(set(self.agents) - set(self.bonds))

    @precondition(lambda self: len(self.bonds) < len(self.agents))
    @rule(data=st.data(), amount=micro_amounts)
    def deposit(self, data, amount):
        agent = data.draw(st.sampled_from(self._idle()))
        self.step += 1
        assert self.bank.deposit(agent, amount / 1e6, self.step) == \
            self._deposit(agent, amount)

    @precondition(lambda self: self.bonds)
    @rule(data=st.data(), amount=micro_amounts)
    def deposit_on_active_bond_is_fault(self, data, amount):
        agent = data.draw(st.sampled_from(sorted(self.bonds)))
        with pytest.raises(EscrowFault):
            self.bank.deposit(agent, amount / 1e6, self.step)

    @precondition(lambda self: self.bonds
                  and self.POLICY in (PenaltyPolicy.ADAPTIVE,
                                      PenaltyPolicy.ADAPTIVE_WITH_RETURN))
    @rule(data=st.data(), m=st.integers(0, 1))
    def settle_step(self, data, m):
        agent = data.draw(st.sampled_from(sorted(self.bonds)))
        self.step += 1
        self.bank.settle_step(agent, m, self.step)
        if not m:
            self._forfeit(agent)
        else:
            self.wallets[agent] += self.bonds.pop(agent)
            if self.POLICY is PenaltyPolicy.ADAPTIVE_WITH_RETURN:
                back = round(self.rho * self.forfeited[agent])  # half even
                self.forfeited[agent] -= back
                self.pool -= back
                self.wallets[agent] += back

    @precondition(lambda self: self.bonds
                  and self.POLICY is PenaltyPolicy.EVENT_DRIVEN)
    @rule(data=st.data(), m=st.integers(0, 1))
    def settle_event(self, data, m):
        agent = data.draw(st.sampled_from(sorted(self.bonds)))
        self.step += 1
        self.bank.settle_event(agent, m, self.step)
        if not m:
            self._forfeit(agent)

    @precondition(lambda self: self.bonds
                  and self.POLICY is PenaltyPolicy.FIXED_PENALTY)
    @rule(data=st.data(), compliant=st.booleans())
    def settle_exit(self, data, compliant):
        agent = data.draw(st.sampled_from(sorted(self.bonds)))
        self.step += 1
        self.bank.settle_exit(agent, compliant, self.step)
        if compliant:
            self.wallets[agent] += self.bonds.pop(agent)
        else:
            self._forfeit(agent)

    @precondition(lambda self: len(self.bonds) < len(self.agents))
    @rule(data=st.data(), m=st.integers(0, 1))
    def settle_idle_bond_is_fault(self, data, m):
        agent = data.draw(st.sampled_from(self._idle()))
        settle = {PenaltyPolicy.EVENT_DRIVEN: self.bank.settle_event,
                  PenaltyPolicy.FIXED_PENALTY: self.bank.settle_exit}.get(
                      self.POLICY, self.bank.settle_step)
        with pytest.raises(EscrowFault):
            settle(agent, m, self.step)

    @rule()
    def commit(self):
        self.bank.commit()
        assert replay_records(self.fetch()) == self.bank.balances

    @invariant()
    def bank_equals_model(self):
        balances = self.bank.balances
        assert balances.wallets == self.wallets
        assert balances.active_bonds == self.bonds
        assert balances.forfeited_pool == self.pool
        assert self.bank.forfeited == self.forfeited
        assert len(self.bank.exclusions) == self.exclusions

    @invariant()
    def tokens_are_conserved(self):
        assert self.bank.conservation_ok()
        assert (sum(self.wallets.values()) + sum(self.bonds.values())
                + self.pool) == self.initial_total == \
            self.bank.initial_total_micro


def _model_test_case(policy):
    machine = type(f"EscrowModel_{policy.value}", (EscrowModel,),
                   {"POLICY": policy})
    case = machine.TestCase
    case.settings = settings(max_examples=60, stateful_step_count=30,
                             deadline=None)
    return case


TestFixedPenaltyModel = _model_test_case(PenaltyPolicy.FIXED_PENALTY)
TestAdaptiveModel = _model_test_case(PenaltyPolicy.ADAPTIVE)
TestAdaptiveWithReturnModel = _model_test_case(
    PenaltyPolicy.ADAPTIVE_WITH_RETURN)
TestEventDrivenModel = _model_test_case(PenaltyPolicy.EVENT_DRIVEN)
