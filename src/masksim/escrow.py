"""Token wallets and bond policies as an explicit, conservation-checked
state machine.

All amounts are held internally as integer micro-tokens (1e-6 token units);
floats coming from the controller are rounded half-even at deposit time,
exactly, in integer arithmetic.
That makes the conservation invariant exact:

    sum(wallets) + sum(active bonds) + forfeited pool == initial total

at every step, under every policy, for every compliance sequence.

Policies:

* ``FIXED_PENALTY``        one bond per stay; full refund on exit iff the
                           whole history was compliant, else nothing back.
* ``ADAPTIVE``             every bond settles in the step it is staked:
                           compliant agents get the stake back,
                           non-compliant agents forfeit it.
* ``ADAPTIVE_WITH_RETURN`` adaptive, plus a compliant step after earlier
                           forfeitures claws back ``rho`` of the cumulative
                           forfeited total (geometric drawdown).
* ``EVENT_DRIVEN``         the bond persists while compliant; a violation
                           forfeits it.

A run drives the bank with three calls that name no policy; which
per-agent rule applies is decided here alone.  One call stakes bonds:
``enter``, before a step's mask bits are drawn, stakes one at the step's
controller price for every agent without one (under fixed penalty at step
1 only).  ``settle``, after the controller step and on the ledger read the
controller acted on, and ``close``, at exit, only refund, forfeit or
partially return.  A deposit the wallet cannot cover is never an error: it
is recorded as an exclusion event (the agent is barred for the step) and
state is unchanged.

The bank's balances are the fold of its own transfer records: every
record, opening balances included, moves tokens through :func:`apply` and
nothing else, and :func:`replay_records` folds the same records, read back
from the ledger, with the same function.  When a ledger channel is
attached, every record is mirrored to it, so a replay that disagrees with
the bank means records were lost, altered or reordered.  Transfers are
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
from typing import NamedTuple

import numpy as np

from .ledger import MamChannel, Tangle
from .records import decode_bundle, encode_bundles

MICRO_PER_TOKEN = 10**6
_ONE = Decimal(1)


class EscrowFault(Exception):
    """Bond state machine misuse (settling a non-active bond, ...)."""


def to_micro(tokens: float) -> int:
    """Round a token amount to integer micro-tokens, ties to even.

    Exact: a float is a binary fraction ``num / den``, so the micro-token
    amount is the integer quotient of ``num * 10**6`` by ``den``, rounded
    up past half a micro-token and to the even quotient at exactly half.
    """
    if tokens < 0:
        raise ValueError("token amounts are non-negative")
    num, den = tokens.as_integer_ratio()
    micro, rest = divmod(num * MICRO_PER_TOKEN, den)
    rest += rest
    if rest > den or (rest == den and micro & 1):
        micro += 1
    return micro


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


# the policies ``settle_step`` checks per agent, looked up once: on Python
# 3.11 an enum member lookup costs more than the check it serves
_ADAPTIVE = (PenaltyPolicy.ADAPTIVE, PenaltyPolicy.ADAPTIVE_WITH_RETURN)
_WITH_RETURN = PenaltyPolicy.ADAPTIVE_WITH_RETURN


class Transfer(NamedTuple):
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


@dataclass
class Balances:
    """Every wallet, every active bond and the forfeited pool, in
    micro-tokens: the bank's state, and what a replay of its escrow channel
    rebuilds.  :func:`apply` alone moves tokens between them."""
    wallets: dict[str, int] = field(default_factory=dict)
    active_bonds: dict[str, int] = field(default_factory=dict)
    forfeited_pool: int = 0

    def total(self) -> int:
        return (sum(self.wallets.values()) + sum(self.active_bonds.values())
                + self.forfeited_pool)


def apply(balances: Balances, agent: str, kind: str, amount: int) -> None:
    """Move ``amount`` micro-tokens of ``agent`` as a transfer of ``kind``
    moves them.  The bank and a ledger replay both call this, so the two
    cannot disagree on what a transfer does.  Raises ``ValueError`` for a
    transfer of an agent with no ``init`` before it."""
    wallets = balances.wallets
    if kind == "init":
        wallets[agent] = wallets.get(agent, 0) + amount
        return
    if agent not in wallets:
        raise ValueError(f"escrow {kind} for {agent!r} before its init")
    if kind == "deposit":
        wallets[agent] -= amount
        balances.active_bonds[agent] = amount
    elif kind == "refund":
        wallets[agent] += amount
        balances.active_bonds.pop(agent, None)
    elif kind == "forfeit":
        balances.forfeited_pool += amount
        balances.active_bonds.pop(agent, None)
    else:                       # partial_return
        balances.forfeited_pool -= amount
        wallets[agent] += amount


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
        self._rho = Decimal(str(rho))       # the partial return's exact rate
        self.balances = Balances()
        # cumulative forfeitures per agent, drawn down by partial returns
        self.forfeited = dict.fromkeys(initial_balances, 0)
        self.transfers: list[Transfer] = []
        self.exclusions: list[ExclusionEvent] = []
        self._tangle = tangle
        self._channel = channel
        self._pending: list[Transfer] = []  # records not yet on the ledger
        self._violators: set[str] = set()   # fixed penalty: not refunded at exit
        for agent, tokens in initial_balances.items():
            self._record(0, agent, "init", to_micro(tokens))
        self.initial_total_micro = self.balances.total()
        self.commit()

    # -- records: balances, transfer log, ledger ---------------------------

    def _record(self, step: int, agent: str, kind: str, amount_micro: int) -> None:
        """Apply one record to the balances, log it as a transfer (an
        ``init`` is not one) and buffer it for the ledger."""
        apply(self.balances, agent, kind, amount_micro)
        record = Transfer(step, agent, kind, amount_micro)
        if kind != "init":
            self.transfers.append(record)
        if self._channel is not None and self._tangle is not None:
            self._pending.append(record)

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
    #
    # Agents go in wallet order, which is bank order.  The active bonds are
    # in staking order, so iterating them would reorder the transfers.

    def enter(self, stakes: np.ndarray, step: int) -> None:
        """Stake a bond at the controller's price (``stakes`` in bank order)
        for every agent without an active one, before the step's mask bits
        are drawn: the one place bonds are staked.  A fixed-penalty stay
        has one bond, staked at step 1: there is no re-entry mid-run."""
        if self.policy is PenaltyPolicy.FIXED_PENALTY and step > 1:
            return
        active = self.balances.active_bonds
        for agent, stake in zip(self.balances.wallets, stakes.tolist(),
                                strict=True):
            if agent not in active:
                self.deposit(agent, stake, step)

    def settle(self, bits: np.ndarray, present: np.ndarray, step: int) -> None:
        """Settle every active bond against its owner's mask bit as read
        from the ledger (both arrays in bank order), then commit the step's
        transfers.  A fixed-penalty bond is held until :meth:`close`; a
        violation is only noted.  An agent with no record holds its bond:
        no settlement, and no fixed-penalty violation."""
        records = zip(self.balances.wallets, bits.tolist(), present.tolist(),
                      strict=True)
        if self.policy is PenaltyPolicy.FIXED_PENALTY:
            self._violators.update(agent for agent, m, got in records
                                   if got and not m)
        else:
            settle_one = (self.settle_event
                          if self.policy is PenaltyPolicy.EVENT_DRIVEN
                          else self.settle_step)
            active = self.balances.active_bonds
            for agent, m, got in records:
                if got and agent in active:
                    settle_one(agent, m, step)
        self.commit()

    def close(self, step: int) -> None:
        """The fixed-penalty exit: every active bond is refunded if its owner
        never violated, else forfeited; then commit.  Under the other
        policies bonds settle every step and there is nothing to close."""
        if self.policy is not PenaltyPolicy.FIXED_PENALTY:
            return
        active = self.balances.active_bonds
        for agent in self.balances.wallets:
            if agent in active:
                self.settle_exit(agent, agent not in self._violators, step)
        self.commit()

    # -- per-agent operations -----------------------------------------------

    def deposit(self, agent_id: str, amount_tokens: float, step: int) -> bool:
        """Stake a bond; returns False (and logs an exclusion) if the wallet
        cannot cover it."""
        if agent_id in self.balances.active_bonds:
            raise EscrowFault(f"agent {agent_id} already has an active bond")
        amount = to_micro(amount_tokens)
        available = self.balances.wallets[agent_id]
        if available < amount:
            self.exclusions.append(
                ExclusionEvent(step, agent_id, amount, available))
            return False
        self._record(step, agent_id, "deposit", amount)
        return True

    def settle_step(self, agent_id: str, m: int, step: int) -> None:
        """Adaptive-policy settlement: refund (with the partial return under
        ``ADAPTIVE_WITH_RETURN``) or forfeit."""
        if self.policy not in _ADAPTIVE:
            raise EscrowFault(f"settle_step does not apply to {self.policy.value}")
        amount = self._active_bond(agent_id)
        if not m:
            self._forfeit(agent_id, amount, step)
            return
        self._record(step, agent_id, "refund", amount)
        forfeited = self.forfeited[agent_id]
        if forfeited > 0 and self.policy is _WITH_RETURN:
            returned = int((self._rho * forfeited)
                           .quantize(_ONE, rounding=ROUND_HALF_EVEN))
            if returned > 0:
                self.forfeited[agent_id] -= returned
                self._record(step, agent_id, "partial_return", returned)

    def settle_event(self, agent_id: str, m: int, step: int) -> None:
        """Event-driven settlement: a violation costs the bond; compliance
        keeps it."""
        if self.policy is not PenaltyPolicy.EVENT_DRIVEN:
            raise EscrowFault(f"settle_event does not apply to {self.policy.value}")
        amount = self._active_bond(agent_id)
        if not m:
            self._forfeit(agent_id, amount, step)

    def settle_exit(self, agent_id: str, fully_compliant: bool, step: int) -> None:
        """Fixed-penalty settlement at exit: all back or nothing back."""
        if self.policy is not PenaltyPolicy.FIXED_PENALTY:
            raise EscrowFault(f"settle_exit does not apply to {self.policy.value}")
        amount = self._active_bond(agent_id)
        if fully_compliant:
            self._record(step, agent_id, "refund", amount)
        else:
            self._forfeit(agent_id, amount, step)

    def _forfeit(self, agent_id: str, amount: int, step: int) -> None:
        """The bond goes to the forfeited pool and counts towards the
        owner's cumulative forfeitures."""
        self.forfeited[agent_id] += amount
        self._record(step, agent_id, "forfeit", amount)

    def _active_bond(self, agent_id: str) -> int:
        """The amount of the agent's active bond."""
        try:
            return self.balances.active_bonds[agent_id]
        except KeyError:
            raise EscrowFault(f"agent {agent_id} has no active bond") from None

    # -- invariants and reporting ------------------------------------------

    def conservation_ok(self) -> bool:
        return self.balances.total() == self.initial_total_micro

    def replay_mismatch(self, replayed: Balances) -> str | None:
        """What a replay of the escrow channel disagrees with the bank on:
        ``"wallets"``, ``"active bonds"`` or ``"forfeited pool"``; ``None``
        when they agree."""
        for what in ("wallets", "active_bonds", "forfeited_pool"):
            if getattr(replayed, what) != getattr(self.balances, what):
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


def replay_records(payloads: list[bytes]) -> Balances:
    """Rebuild balances from raw escrow channel payloads, in order: the
    fold of :func:`apply` over their records."""
    balances = Balances()
    for payload in payloads:
        for _, agent, kind, amount in decode_bundle(payload):
            apply(balances, agent, kind, amount)
    return balances
