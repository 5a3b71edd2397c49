"""Token wallets and bond policies as an explicit, conservation-checked
state machine.

All amounts are held internally as integer micro-tokens (1e-6 token units);
floats coming from the controller are rounded half-even at deposit time.
That makes the conservation invariant exact:

    sum(wallets) + sum(active bonds) + forfeited pool == initial total

at every step, under every policy, for every compliance sequence.

Policies:

* ``FIXED_PENALTY``        one bond per stay; full refund on exit iff the
                           whole history was compliant, else nothing back.
* ``ADAPTIVE``             the bond is reissued every step: compliant agents
                           get the stake back and stake the next amount,
                           non-compliant agents forfeit the stake.
* ``ADAPTIVE_WITH_RETURN`` adaptive, plus a compliant step after earlier
                           forfeitures claws back ``rho`` of the cumulative
                           forfeited total (geometric drawdown).
* ``EVENT_DRIVEN``         the bond persists while compliant; a violation
                           forfeits it and staying in the scheme requires a
                           fresh deposit at the current controller price.

A deposit the wallet cannot cover is never an error: it is recorded as an
exclusion event (the agent is barred for the step) and state is unchanged.

A run drives the bank with three calls that name no policy: ``enter``
before a step's mask bits are drawn, ``settle`` after the controller step,
on the same ledger read the controller acted on, and ``close`` at exit.
Which per-agent rule applies is decided here alone.

When a ledger channel is attached, every executed transfer is mirrored to
it, so replaying the channel reconstructs all balances.  Transfers are
buffered and published as bundles (in the spirit of IOTA bundles): each
:meth:`EscrowBank.commit` packs the buffered records, in order, into as
few channel messages as fit one transaction.  A bundle is the binary
escrow record of :mod:`masksim.records`: a transfer count, then per
transfer its step, kind, amount in micro-tokens and agent id.  ``kind``
is one of the transfer kinds or ``init`` (an agent's opening balance,
published at construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from enum import Enum

import numpy as np

from .ledger import MamChannel, Tangle
from .records import decode_bundle, encode_bundles

MICRO_PER_TOKEN = 10**6


class EscrowFault(Exception):
    """Bond state machine misuse (settling a non-active bond, ...)."""


def to_micro(tokens: float) -> int:
    """Round a token amount to integer micro-tokens, ties to even."""
    if tokens < 0:
        raise ValueError("token amounts are non-negative")
    return int(Decimal(tokens).scaleb(6).quantize(Decimal(1),
                                                  rounding=ROUND_HALF_EVEN))


def micro_to_str(micro: int) -> str:
    """Exact decimal rendering of a micro-token amount."""
    sign = "-" if micro < 0 else ""
    micro = abs(micro)
    return f"{sign}{micro // MICRO_PER_TOKEN}.{micro % MICRO_PER_TOKEN:06d}"


class PenaltyPolicy(Enum):
    FIXED_PENALTY = "fixed_penalty"
    ADAPTIVE = "adaptive"
    ADAPTIVE_WITH_RETURN = "adaptive_with_return"
    EVENT_DRIVEN = "event_driven"


class BondState(Enum):
    ACTIVE = "active"
    REFUNDED = "refunded"
    FORFEITED = "forfeited"


@dataclass
class Wallet:
    agent_id: str
    balance_micro: int

    @property
    def balance(self) -> float:
        return self.balance_micro / MICRO_PER_TOKEN


@dataclass
class Bond:
    """One agent's escrow slot; re-deposits reactivate the same slot."""
    agent_id: str
    amount_micro: int = 0
    state: BondState = BondState.REFUNDED
    forfeited_micro: int = 0   # cumulative, drawn down by partial returns


@dataclass(frozen=True)
class Transfer:
    step: int
    agent_id: str
    kind: str            # deposit | refund | forfeit | partial_return
                         # (and init, for opening balances on the ledger)
    amount_micro: int


@dataclass(frozen=True)
class ExclusionEvent:
    step: int
    agent_id: str
    required_micro: int
    available_micro: int


class EscrowBank:
    """All wallets and bonds of one run, plus the forfeited pool.

    Settlements for one step are plain sequential calls; the bank is not
    itself thread-safe and is driven by the single-threaded runner.
    """

    def __init__(self, initial_balances: dict[str, float],
                 policy: PenaltyPolicy, rho: float = 0.5,
                 tangle: Tangle | None = None,
                 channel: MamChannel | None = None):
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        self.policy = policy
        self.rho = rho
        self.wallets = {a: Wallet(a, to_micro(b))
                        for a, b in initial_balances.items()}
        self.bonds = {a: Bond(a) for a in self.wallets}
        self.forfeited_pool_micro = 0
        self.transfers: list[Transfer] = []
        self.exclusions: list[ExclusionEvent] = []
        self.initial_total_micro = sum(w.balance_micro
                                       for w in self.wallets.values())
        self._tangle = tangle
        self._channel = channel
        self._pending: list[tuple] = []     # records not yet on the ledger
        self._violators: set[str] = set()   # fixed penalty: not refunded at exit
        for agent, wallet in self.wallets.items():
            self._buffer(0, agent, "init", wallet.balance_micro)
        self.commit()

    # -- ledger mirroring -------------------------------------------------

    def _buffer(self, step: int, agent: str, kind: str, amount_micro: int) -> None:
        if self._channel is not None and self._tangle is not None:
            self._pending.append((step, agent, kind, amount_micro))

    def _record(self, step: int, agent: str, kind: str, amount_micro: int) -> None:
        self.transfers.append(Transfer(step, agent, kind, amount_micro))
        self._buffer(step, agent, kind, amount_micro)

    def commit(self) -> None:
        """Publish the buffered records, in order, packed greedily into as
        few bundles as fit one ledger transaction.  ``settle`` and
        ``close`` commit; without a channel this is a no-op."""
        if not self._pending:
            return
        bundles = encode_bundles(self._pending, self._channel.message_limit)
        self._pending = []
        for payload in bundles:
            self._channel.publish(self._tangle, payload)

    # -- the policy, one step at a time ------------------------------------

    def enter(self, stakes: np.ndarray, step: int) -> None:
        """Stake a bond at the controller's price (``stakes`` in bank order)
        for every agent without an active one, before the step's mask bits
        are drawn.  A fixed-penalty stay has one bond, staked at step 1:
        there is no re-entry mid-run."""
        if self.policy is PenaltyPolicy.FIXED_PENALTY and step > 1:
            return
        for (agent, bond), stake in zip(self.bonds.items(), stakes.tolist(),
                                        strict=True):
            if bond.state is not BondState.ACTIVE:
                self.deposit(agent, stake, step)

    def settle(self, bits: np.ndarray, present: np.ndarray,
               next_stakes: np.ndarray, step: int) -> None:
        """Settle every active bond against its owner's mask bit as read
        from the ledger, re-staking at ``next_stakes`` where the policy says
        so, then commit the step's transfers; all arrays are in bank order.
        A fixed-penalty bond is held until :meth:`close`; a violation is only
        noted.  An agent with no record holds its bond: no settlement, and
        no fixed-penalty violation."""
        records = zip(self.bonds.items(), bits.tolist(), present.tolist(),
                      next_stakes.tolist(), strict=True)
        if self.policy is PenaltyPolicy.FIXED_PENALTY:
            self._violators.update(agent for (agent, _), m, got, _ in records
                                   if got and not m)
        else:
            settle_one = (self.settle_event
                          if self.policy is PenaltyPolicy.EVENT_DRIVEN
                          else self.settle_step)
            for (agent, bond), m, got, stake in records:
                if got and bond.state is BondState.ACTIVE:
                    settle_one(agent, m, stake, step)
        self.commit()

    def close(self, step: int) -> None:
        """The fixed-penalty exit: every active bond is refunded if its owner
        never violated, else forfeited; then commit.  Under the other
        policies bonds settle every step and there is nothing to close."""
        if self.policy is not PenaltyPolicy.FIXED_PENALTY:
            return
        for agent, bond in self.bonds.items():
            if bond.state is BondState.ACTIVE:
                self.settle_exit(agent, agent not in self._violators, step)
        self.commit()

    # -- per-agent operations -----------------------------------------------

    def deposit(self, agent_id: str, amount_tokens: float, step: int) -> bool:
        """Stake a bond; returns False (and logs an exclusion) if the wallet
        cannot cover it."""
        wallet = self.wallets[agent_id]
        bond = self.bonds[agent_id]
        if bond.state is BondState.ACTIVE:
            raise EscrowFault(f"agent {agent_id} already has an active bond")
        amount = to_micro(amount_tokens)
        if wallet.balance_micro < amount:
            self.exclusions.append(
                ExclusionEvent(step, agent_id, amount, wallet.balance_micro))
            return False
        wallet.balance_micro -= amount
        bond.amount_micro = amount
        bond.state = BondState.ACTIVE
        self._record(step, agent_id, "deposit", amount)
        return True

    def settle_step(self, agent_id: str, m: int, next_stake_tokens: float,
                    step: int) -> bool:
        """Adaptive-policy settlement: refund or forfeit, then re-stake.

        Returns whether the re-stake succeeded (False means the agent is
        excluded from the next step).
        """
        if self.policy not in (PenaltyPolicy.ADAPTIVE,
                               PenaltyPolicy.ADAPTIVE_WITH_RETURN):
            raise EscrowFault(f"settle_step does not apply to {self.policy.value}")
        bond = self._active_bond(agent_id)
        if m:
            self._refund(bond, step)
            if (self.policy is PenaltyPolicy.ADAPTIVE_WITH_RETURN
                    and bond.forfeited_micro > 0):
                returned = int((Decimal(str(self.rho)) * bond.forfeited_micro)
                               .quantize(Decimal(1), rounding=ROUND_HALF_EVEN))
                if returned > 0:
                    self.forfeited_pool_micro -= returned
                    bond.forfeited_micro -= returned
                    self.wallets[agent_id].balance_micro += returned
                    self._record(step, agent_id, "partial_return", returned)
        else:
            self._forfeit(bond, step)
        return self.deposit(agent_id, next_stake_tokens, step)

    def settle_event(self, agent_id: str, m: int, required_tokens: float,
                     step: int) -> bool:
        """Event-driven settlement: a violation costs the bond and staying
        in the scheme needs a fresh deposit at the current price."""
        if self.policy is not PenaltyPolicy.EVENT_DRIVEN:
            raise EscrowFault(f"settle_event does not apply to {self.policy.value}")
        bond = self._active_bond(agent_id)
        if m:
            return True
        self._forfeit(bond, step)
        return self.deposit(agent_id, required_tokens, step)

    def settle_exit(self, agent_id: str, fully_compliant: bool, step: int) -> None:
        """Fixed-penalty settlement at exit: all back or nothing back."""
        if self.policy is not PenaltyPolicy.FIXED_PENALTY:
            raise EscrowFault(f"settle_exit does not apply to {self.policy.value}")
        bond = self._active_bond(agent_id)
        if fully_compliant:
            self._refund(bond, step)
        else:
            self._forfeit(bond, step)

    def _refund(self, bond: Bond, step: int) -> None:
        """The bond goes back to its owner's wallet."""
        self.wallets[bond.agent_id].balance_micro += bond.amount_micro
        bond.state = BondState.REFUNDED
        self._record(step, bond.agent_id, "refund", bond.amount_micro)

    def _forfeit(self, bond: Bond, step: int) -> None:
        """The bond goes to the forfeited pool and counts towards the
        owner's cumulative forfeitures."""
        self.forfeited_pool_micro += bond.amount_micro
        bond.forfeited_micro += bond.amount_micro
        bond.state = BondState.FORFEITED
        self._record(step, bond.agent_id, "forfeit", bond.amount_micro)

    def _active_bond(self, agent_id: str) -> Bond:
        bond = self.bonds[agent_id]
        if bond.state is not BondState.ACTIVE:
            raise EscrowFault(
                f"bond of {agent_id} is {bond.state.value}, not active")
        return bond

    # -- invariants and reporting ------------------------------------------

    def balances(self) -> ReplayedState:
        """The bank's balances in the form a ledger replay gives them."""
        return ReplayedState(
            {a: w.balance_micro for a, w in self.wallets.items()},
            {a: b.amount_micro for a, b in self.bonds.items()
             if b.state is BondState.ACTIVE},
            self.forfeited_pool_micro)

    def total_micro(self) -> int:
        return self.balances().total()

    def conservation_ok(self) -> bool:
        return self.total_micro() == self.initial_total_micro

    def replay_mismatch(self, replayed: ReplayedState) -> str | None:
        """What a replay of the escrow channel disagrees with the bank on:
        ``"wallets"``, ``"active bonds"`` or ``"forfeited pool"``; ``None``
        when they agree."""
        mine = self.balances()
        for what in ("wallets", "active_bonds", "forfeited_pool"):
            if getattr(replayed, what) != getattr(mine, what):
                return what.replace("_", " ")
        return None

    def totals_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.transfers:
            out[t.kind] = out.get(t.kind, 0) + t.amount_micro
        return out

    def write_transfer_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("step,agent,kind,amount\n")
            for t in self.transfers:
                fh.write(f"{t.step},{t.agent_id},{t.kind},"
                         f"{micro_to_str(t.amount_micro)}\n")


# =============================================================================
# Ledger replay (audit)
# =============================================================================

@dataclass
class ReplayedState:
    wallets: dict[str, int] = field(default_factory=dict)
    active_bonds: dict[str, int] = field(default_factory=dict)
    forfeited_pool: int = 0

    def total(self) -> int:
        return (sum(self.wallets.values()) + sum(self.active_bonds.values())
                + self.forfeited_pool)


def decode_records(payloads: list[bytes]) -> list[Transfer]:
    """All transfers (and ``init`` records) of raw escrow channel payloads,
    in order.  Raises ``ValueError`` on anything but an escrow bundle."""
    return [Transfer(*t) for payload in payloads
            for t in decode_bundle(payload)]


def replay_records(payloads: list[bytes]) -> ReplayedState:
    """Rebuild balances from raw escrow channel payloads, in order."""
    state = ReplayedState()
    wallets, bonds = state.wallets, state.active_bonds
    for payload in payloads:
        for _, agent, kind, amount in decode_bundle(payload):
            if kind == "init":
                wallets[agent] = wallets.get(agent, 0) + amount
                continue
            if agent not in wallets:
                raise ValueError(f"escrow {kind} for {agent!r} before its init")
            if kind == "deposit":
                wallets[agent] -= amount
                bonds[agent] = amount
            elif kind == "refund":
                wallets[agent] += amount
                bonds.pop(agent, None)
            elif kind == "forfeit":
                state.forfeited_pool += amount
                bonds.pop(agent, None)
            else:                       # partial_return
                state.forfeited_pool -= amount
                wallets[agent] += amount
    return state
