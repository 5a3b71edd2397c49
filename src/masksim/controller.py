"""Personalised feedback control of compliance via token costs.

Each agent carries a fixed proclivity ``q_i``; the controller maintains one
global cost ``C`` and one individual cost ``c_i`` per agent, and the bond an
agent must stake is ``max(0, C + c_i)``.  The probability that an agent
complies next step is ``p(q_i + C + c_i)`` with ``p`` a monotone map into
[0, 1] (logistic by default).  Both costs are driven by integral control
laws on delayed measurements:

    C(k+1)   = C(k)   + alpha * (Q* - meanـcompliance(k - m))
    c_i(k+1) = c_i(k) + beta  * (Q* - windowed_avg_i(k - m))

where the windowed average of a bit sequence is the exponentially
discounted mean

    avg(k) = (1 - gamma) * sum_{j=1..k} gamma^(k-j) * M(j),     avg(0) = 0

maintained recursively as ``avg(k) = gamma*avg(k-1) + (1-gamma)*M(k)``.

Until ``m`` measurements exist the oldest available one is held (zero-order
hold), and a missing per-agent record freezes that agent's windowed average
for the step and is logged as a gap event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ledger import MamChannel, Tangle
# re-exported: callers import the cost record's codec from here
from .records import decode_cost_vector, encode_cost_vector


# =============================================================================
# Monotone links
# =============================================================================

def _stable_logistic(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class Link:
    """The monotone increasing map ``x -> logistic((x - shift) / scale)``
    from the reals into [0, 1]; ``name`` is only a label, ``"logistic"`` or
    ``"scaled_logistic"``.  At the defaults it is the plain logistic, bit
    for bit: ``x - 0.0`` and ``x / 1.0`` are exact."""
    name: str = "logistic"
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.name not in ("logistic", "scaled_logistic"):
            raise ValueError(f"unknown link {self.name!r}; expected "
                             f"'logistic' or 'scaled_logistic'")
        if not self.scale > 0:
            raise ValueError("scale must be positive to keep the link monotone")

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = _stable_logistic((arr - self.shift) / self.scale)
        return float(out[0]) if np.ndim(x) == 0 else out


LOGISTIC = Link()


# =============================================================================
# Controller state and stepper
# =============================================================================

@dataclass
class ControllerParams:
    alpha: float = 0.25
    beta: float = 0.25
    gamma: float = 0.95    # discount window of (1-gamma)^-1 = 20 steps
    q_star: float = 0.9
    delay: int = 1
    link: Link = LOGISTIC
    initial_global_cost: float = 0.0   # warm start; fresh deployments use 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 <= self.q_star <= 1.0:
            raise ValueError("q_star must lie in [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")


@dataclass
class StepResult:
    step: int
    global_cost: float
    mean_individual_cost: float
    mean_compliance: float


class ComplianceController:
    """Single-threaded stepper applying the control laws over a ledger feed.

    Agents are registered up front; every agent has a cost and a windowed
    average from the start.  If a ledger channel is attached, each step's
    cost vector is published on it.
    """

    def __init__(self, params: ControllerParams, agent_ids: Iterable[str],
                 tangle: Tangle | None = None,
                 channel: MamChannel | None = None):
        self.params = params
        self.agents = list(agent_ids)
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent ids")
        n = len(self.agents)
        self.global_cost = params.initial_global_cost
        self.individual_costs = np.zeros(n)
        self.windowed_avgs = np.zeros(n)
        depth = params.delay + 1
        self._mean_history: deque[float] = deque(maxlen=depth)
        self._avg_history: deque[np.ndarray] = deque(maxlen=depth)
        self.gap_events: list[tuple[int, str]] = []
        self._tangle = tangle
        self._channel = channel

    # -- views ------------------------------------------------------------

    def stakes(self) -> np.ndarray:
        """Tokens each agent must deposit, in agent order: the cost sum
        clamped at zero.

        Only the deposit clamps; the unclamped sum still feeds the compliance
        probability, so the control law is unaffected.
        """
        return np.maximum(0.0, self.global_cost + self.individual_costs)

    def probabilities(self, q: np.ndarray) -> np.ndarray:
        """Compliance probabilities ``p(q_i + C + c_i)`` for proclivities
        aligned to agent order; the raw sum may be negative."""
        return self.params.link(q + self.global_cost + self.individual_costs)

    # -- stepping ---------------------------------------------------------

    def step(self, step: int, bits: np.ndarray,
             present: np.ndarray) -> StepResult:
        """Apply one control step with the compliance records of ``step``.

        ``bits`` holds each agent's mask bit and ``present`` whether its
        record was read, both in agent order; the bit of an absent agent is
        ignored.  A wrong length, or a bit other than 0 or 1 on a present
        agent, raises ``ValueError`` before any state changes.  The next
        step's stakes are then :meth:`stakes`.
        """
        p = self.params
        n = len(self.agents)
        bits = np.asarray(bits, dtype=float)
        present = np.asarray(present, dtype=bool)
        if bits.shape != (n,) or present.shape != (n,):
            raise ValueError(f"expected {n} bits and presence flags, got "
                             f"shapes {bits.shape} and {present.shape}")
        bad = np.flatnonzero(present & (bits != 0.0) & (bits != 1.0))
        if len(bad):
            i = bad[0]
            raise ValueError(f"step {step}: agent {self.agents[i]!r}: mask bit "
                             f"{float(bits[i])!r} outside {{0, 1}}")
        self.gap_events += [(step, self.agents[i])
                            for i in np.flatnonzero(~present).tolist()]

        if present.any():
            mean_now = float(bits[present].mean())
        elif self._mean_history:
            mean_now = self._mean_history[-1]
        else:
            mean_now = p.q_star  # nothing measured yet: assume on-target
        # windowed averages update before either cost; gaps hold their value
        self.windowed_avgs = np.where(
            present,
            p.gamma * self.windowed_avgs + (1.0 - p.gamma) * bits,
            self.windowed_avgs,
        )
        self._mean_history.append(mean_now)
        self._avg_history.append(self.windowed_avgs.copy())

        # delayed measurements: index 0 is k-m once the buffer is full,
        # otherwise the oldest available value (zero-order hold)
        delayed_mean = self._mean_history[0]
        delayed_avgs = self._avg_history[0]

        self.global_cost += p.alpha * (p.q_star - delayed_mean)
        self.individual_costs = (
            self.individual_costs + p.beta * (p.q_star - delayed_avgs))

        if self._channel is not None and self._tangle is not None:
            self._channel.publish(self._tangle,
                                  encode_cost_vector(step, self.global_cost,
                                                     self.individual_costs))
        return StepResult(step, self.global_cost,
                          float(self.individual_costs.mean()), mean_now)


# =============================================================================
# Closed compliance loop (no epidemic, no escrow)
# =============================================================================

@dataclass
class ComplianceRun:
    mean_compliance: np.ndarray   # per step
    global_cost: np.ndarray       # per step, after the update
    mean_individual_cost: np.ndarray
    windowed_avgs: np.ndarray     # final per-agent values
    stakes: np.ndarray            # final per-agent stakes


def simulate_compliance(params: ControllerParams, q: np.ndarray, steps: int,
                        seed: int, tangle: Tangle | None = None,
                        channel: MamChannel | None = None) -> ComplianceRun:
    """Run the pure compliance loop: sample bits, feed them back, repeat.

    Each step every agent complies with probability ``p(q_i + C + c_i)``
    using the costs from the previous update; the sampled bits then drive
    the next update.  Deterministic per seed.
    """
    n = len(q)
    agents = [f"a{i}" for i in range(n)]
    ctrl = ComplianceController(params, agents, tangle=tangle, channel=channel)
    everyone = np.ones(n, dtype=bool)
    rng = np.random.default_rng(seed)
    mean_compliance = np.zeros(steps)
    global_cost = np.zeros(steps)
    mean_c = np.zeros(steps)
    for k in range(1, steps + 1):
        probs = ctrl.probabilities(q)
        bits = (rng.random(n) < probs).astype(float)
        res = ctrl.step(k, bits, everyone)
        mean_compliance[k - 1] = res.mean_compliance
        global_cost[k - 1] = res.global_cost
        mean_c[k - 1] = res.mean_individual_cost
    return ComplianceRun(mean_compliance, global_cost, mean_c,
                         ctrl.windowed_avgs.copy(), ctrl.stakes())
