"""Agent-based epidemic model in a bounded room.

Agents random-walk inside a rectangular room with reflective walls.  When a
susceptible agent comes within the contact radius of an infected one, an
infection trial fires with probability

    P0 * (1 - m_i * M_i) * (1 - m_j * M_j)

where ``m`` is mask effectiveness and ``M`` the mask bit of each party, so
masks on either side multiply the risk down.  Infected agents recover after
a fixed number of steps into one of two immune states; the probability of
serious sequelae is logistic in age.  Immune agents neither infect nor get
infected.

Mask bits come either from a fixed wearing fraction (each step, that share
of agents wears a mask) or from the compliance controller's probabilities.

Randomness is split into independent streams keyed on (seed, stream, step,
agent/pair), so infection trials are a pure function of the pair and step
regardless of iteration order or thread count; everything is reproducible
bit-for-bit from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

# stream tags for the keyed RNG
_S_INIT = 0
_S_MOVE = 1
_S_INFECT = 2
_S_MASK = 3
_S_SEQUELAE = 4


class Health(IntEnum):
    SUSCEPTIBLE = 0
    INFECTED = 1
    IMMUNE_SLIGHT = 2
    IMMUNE_SERIOUS = 3


# plain-int copies for array comparisons: an IntEnum member costs an
# ``EnumType.__getattr__`` per use, several times a plain int's comparison
_SUSCEPTIBLE = int(Health.SUSCEPTIBLE)
_INFECTED = int(Health.INFECTED)
_IMMUNE_SLIGHT = int(Health.IMMUNE_SLIGHT)
_IMMUNE_SERIOUS = int(Health.IMMUNE_SERIOUS)


# =============================================================================
# Keyed uniform streams (counter-based, order-independent)
# =============================================================================

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z + _GOLDEN) & ~_U64(0)
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _stream_base(seed: int, stream: int, step: int) -> np.uint64:
    base = _mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF))
    base = _mix64(base ^ _U64(stream))
    return _mix64(base ^ _U64(step))


def keyed_uniform_pairs(seed: int, step: int, ii: np.ndarray,
                        jj: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per (i, j) pair, independent of pair order."""
    with np.errstate(over="ignore"):
        base = _stream_base(seed, _S_INFECT, step)
        h = _mix64(base ^ ii.astype(_U64))
        h = _mix64(h ^ _mix64(jj.astype(_U64)))
    return (h >> _U64(11)).astype(np.float64) * (2.0**-53)


def keyed_uniform_agents(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    """One uniform in [0, 1) per agent for the given stream and step."""
    with np.errstate(over="ignore"):
        base = _stream_base(seed, stream, step)
        h = _mix64(base ^ np.arange(n, dtype=_U64))
    return (h >> _U64(11)).astype(np.float64) * (2.0**-53)


# =============================================================================
# Configuration and world state
# =============================================================================

@dataclass
class WorldConfig:
    """Parameters of the room, crowd and disease.

    The epidemiological constants are deliberately toy-sized; they are
    calibrated so that the mask-fraction sweep separates cleanly, not to any
    real pathogen.
    """
    n_agents: int = 500
    room: tuple[float, float] = (20.0, 10.0)   # meters
    epsilon: float = 2.0          # contact radius, meters
    p0: float = 0.009             # infection probability per contact per step
    dt: float = 1.0               # seconds per step
    recovery_steps: int = 30
    sequelae_age_mid: float = 60.0    # age of 50% serious-sequelae risk
    sequelae_age_scale: float = 10.0
    mask_mode: str = "fixed"          # "fixed" | "controller"
    mask_fraction: float = 0.0
    mask_effectiveness: float = 0.9
    age_mean: float = 40.0
    age_sd: float = 15.0
    q_mean: float = 0.0           # proclivity distribution (controller mode)
    q_sd: float = 1.0
    max_speed: float = 2.5        # m/s, per component
    accel: float = 0.5            # bounded velocity noise per step, m/s
    initial_infected: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")
        if self.room[0] <= 0 or self.room[1] <= 0:
            raise ValueError("room dimensions must be positive")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ValueError("mask_fraction must lie in [0, 1]")
        if not 0.0 <= self.mask_effectiveness <= 1.0:
            raise ValueError("mask_effectiveness must lie in [0, 1]")
        if self.mask_mode not in ("fixed", "controller"):
            raise ValueError(f"unknown mask mode {self.mask_mode!r}")
        if not 0 <= self.initial_infected <= self.n_agents:
            raise ValueError("initial_infected must lie in [0, n_agents]")


class World:
    """Mutable state of one simulation: positions, health, masks."""

    def __init__(self, config: WorldConfig):
        self.config = config
        n = config.n_agents
        rng = np.random.default_rng([config.seed, _S_INIT])
        w, h = config.room
        self.positions = rng.uniform([0, 0], [w, h], size=(n, 2))
        self.velocities = np.clip(
            rng.normal(0.0, config.max_speed / 2, size=(n, 2)),
            -config.max_speed, config.max_speed)
        self.ages = _truncated_normal(rng, config.age_mean, config.age_sd,
                                      0.0, 100.0, n)
        self.q = rng.normal(config.q_mean, config.q_sd, size=n)
        self.mask_effect = np.full(n, config.mask_effectiveness)
        self.health = np.full(n, _SUSCEPTIBLE, dtype=np.int8)
        self.infected_since = np.full(n, -1, dtype=np.int64)
        seeds = rng.choice(n, size=config.initial_infected, replace=False)
        self.health[seeds] = _INFECTED
        self.infected_since[seeds] = 0
        self.mask_bits = np.zeros(n, dtype=np.int8)
        self._move_rng = np.random.default_rng([config.seed, _S_MOVE])
        # the serious-sequelae draw of each agent, fixed for the whole run
        self.sequelae_u = keyed_uniform_agents(config.seed, _S_SEQUELAE, 0, n)

    @property
    def n(self) -> int:
        return self.config.n_agents

    def counts(self) -> tuple[int, int, int, int]:
        s, i, slight, serious = np.bincount(self.health, minlength=4).tolist()
        return s, i, slight, serious


def _truncated_normal(rng, mean, sd, lo, hi, n) -> np.ndarray:
    out = rng.normal(mean, sd, size=n)
    bad = (out < lo) | (out > hi)
    while bad.any():
        out[bad] = rng.normal(mean, sd, size=int(bad.sum()))
        bad = (out < lo) | (out > hi)
    return out


# =============================================================================
# Per-step operations
# =============================================================================

def step_movement(world: World) -> None:
    """Random-walk update with reflective walls.

    Velocity gets bounded uniform noise and is clipped per component, so a
    position can overshoot a wall by at most ``max_speed * dt``, which the
    reflection folds back inside.
    """
    cfg = world.config
    n = world.n
    if cfg.accel > 0:
        noise = world._move_rng.uniform(-cfg.accel, cfg.accel, size=(n, 2))
        world.velocities = np.clip(world.velocities + noise,
                                   -cfg.max_speed, cfg.max_speed)
    world.positions += world.velocities * cfg.dt
    for axis, limit in enumerate(cfg.room):
        p = world.positions[:, axis]
        low = p < 0
        p[low] = -p[low]
        world.velocities[low, axis] = -world.velocities[low, axis]
        high = p > limit
        p[high] = 2 * limit - p[high]
        world.velocities[high, axis] = -world.velocities[high, axis]


def contact_pairs(positions: np.ndarray, epsilon: float,
                  sources: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unordered pairs within ``epsilon`` (inclusive), as (i, j), i < j.

    Without ``sources``, all such pairs.  With a boolean ``sources`` mask,
    only the pairs that join a source to a non-source.

    A sorted-cell join (the linked-cell method): agents are keyed by the
    row-major index of their grid cell of side ``epsilon``, and the agents
    that can be found are sorted by key.  Each querying agent's candidates
    are found by ``searchsorted`` on the sorted keys, in a stencil of
    neighbouring cells:

    - without ``sources`` every agent is both found and querying; it looks
      at the later members of its own cell and at all members of its E,
      NW, N and NE neighbours, offsets that visit every adjacent cell pair
      exactly once;
    - with ``sources`` only the non-sources are sorted, and each source
      looks at all nine cells around and including its own.

    Only candidates are distance-checked, so the result is exactly the
    all-pairs answer, just cheaper for sparse crowds.
    """
    empty = (np.empty(0, dtype=np.int64),) * 2
    n = len(positions)
    if n < 2:
        return empty
    cells = np.floor(positions / epsilon).astype(np.int64)
    cells -= cells.min(axis=0)
    # an empty margin column: offsets that step past either end of a row
    # (E, NE and SE past the last cell; W, NW and SW before the first) land
    # in it instead of wrapping onto an occupied cell of another row.  A
    # grid too large for int64 wraps keys and targets alike, so distant
    # cells may share a key (extra candidates, dropped by the distance
    # check) but no neighbour is missed.
    width = int(cells[:, 0].max()) + 2
    key = cells[:, 1] * width + cells[:, 0]
    if sources is None:
        order = np.argsort(key, kind="stable")
        queries = order
        offsets = [0, 1, width - 1, width, width + 1]
    else:
        queries = np.flatnonzero(sources)
        found = np.flatnonzero(~sources)
        if len(queries) == 0 or len(found) == 0:
            return empty
        order = found[np.argsort(key[found], kind="stable")]
        offsets = [-width - 1, -width, -width + 1, -1, 0, 1,
                   width - 1, width, width + 1]
    sk = key[order]
    targets = key[queries] + np.array(offsets, dtype=np.int64)[:, None]
    lo = np.searchsorted(sk, targets, side="left")
    hi = np.searchsorted(sk, targets, side="right")
    if sources is None:
        lo[0] = np.arange(1, n + 1)     # own cell: later members only

    counts = (hi - lo).ravel()
    ii = np.repeat(np.tile(queries, len(offsets)), counts)
    # each candidate's sorted index: its range start plus its rank within
    rank = np.arange(len(ii)) - np.repeat(np.cumsum(counts) - counts, counts)
    jj = order[np.repeat(lo.ravel(), counts) + rank]
    x, y = positions[:, 0], positions[:, 1]
    dx, dy = x[ii] - x[jj], y[ii] - y[jj]
    near = dx * dx + dy * dy <= epsilon * epsilon
    ii, jj = ii[near], jj[near]
    return np.minimum(ii, jj), np.maximum(ii, jj)


def infection_trials(world: World, ii: np.ndarray, jj: np.ndarray,
                     step: int) -> int:
    """Run all susceptible-infected contact trials for this step.

    Uses one keyed uniform per contacting pair, so the outcome does not
    depend on the order pairs are enumerated in.  Returns the number of new
    infections.
    """
    if len(ii) == 0:
        return 0
    h = world.health
    sus_i = h[ii] == _SUSCEPTIBLE
    sus_j = h[jj] == _SUSCEPTIBLE
    inf_i = h[ii] == _INFECTED
    inf_j = h[jj] == _INFECTED
    fwd = sus_i & inf_j     # i susceptible, j infected
    rev = sus_j & inf_i
    s = np.concatenate([ii[fwd], jj[rev]])
    o = np.concatenate([jj[fwd], ii[rev]])
    if len(s) == 0:
        return 0
    ki = np.concatenate([ii[fwd], ii[rev]])
    kj = np.concatenate([jj[fwd], jj[rev]])
    cfg = world.config
    m = world.mask_effect
    bits = world.mask_bits
    p = cfg.p0 * (1.0 - m[s] * bits[s]) * (1.0 - m[o] * bits[o])
    u = keyed_uniform_pairs(cfg.seed, step, ki, kj)
    newly = np.unique(s[u < p])
    world.health[newly] = _INFECTED
    world.infected_since[newly] = step
    return len(newly)


def health_transitions(world: World, step: int) -> None:
    """Recover agents whose infection has run its course.

    The serious-sequelae draw is keyed per agent, so when an agent recovers
    has no influence on which immune state it lands in.
    """
    cfg = world.config
    due = (world.health == _INFECTED) & \
          (step - world.infected_since >= cfg.recovery_steps)
    if not due.any():
        return
    ages = world.ages[due]
    p_serious = 1.0 / (1.0 + np.exp(-(ages - cfg.sequelae_age_mid)
                                    / cfg.sequelae_age_scale))
    u = world.sequelae_u[due]
    world.health[due] = np.where(u < p_serious,
                                 _IMMUNE_SERIOUS,
                                 _IMMUNE_SLIGHT).astype(np.int8)


def sample_mask_bits(world: World, step: int,
                     probabilities: np.ndarray | None = None) -> np.ndarray:
    """Draw this step's mask bits.

    Fixed mode wears masks on the configured share of agents, re-drawn every
    step; controller mode takes per-agent compliance probabilities.
    """
    cfg = world.config
    if cfg.mask_mode == "controller":
        if probabilities is None:
            raise ValueError("controller mode needs compliance probabilities")
        p = np.asarray(probabilities, dtype=float)
    else:
        p = cfg.mask_fraction
    u = keyed_uniform_agents(cfg.seed, _S_MASK, step, world.n)
    world.mask_bits = (u < p).astype(np.int8)
    return world.mask_bits


def advance(world: World, step: int) -> int:
    """One epidemic step after mask bits are set: move, contact, infect,
    recover.  Returns the number of new infections.

    Only susceptible-infected contacts can infect, so contact detection
    joins the infected to the susceptibles alone; immune agents take no
    part.  ``live`` is sorted, so mapping the pairs back keeps i < j, and
    each trial's draw stays keyed on the agents' own indices.
    """
    step_movement(world)
    h = world.health
    live = np.flatnonzero(h <= _INFECTED)
    ii, jj = contact_pairs(world.positions[live], world.config.epsilon,
                           h[live] == _INFECTED)
    new = infection_trials(world, live[ii], live[jj], step)
    health_transitions(world, step)
    return new


# =============================================================================
# Whole-run driver
# =============================================================================

@dataclass
class EpidemicSeries:
    """Per-step health-state counts plus compliance/cost traces."""
    steps: np.ndarray
    susceptible: np.ndarray
    infected: np.ndarray
    immune_slight: np.ndarray
    immune_serious: np.ndarray
    mean_mask: np.ndarray
    global_cost: np.ndarray = field(default=None)
    mean_individual_cost: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.global_cost is None:
            self.global_cost = np.zeros(len(self.steps))
        if self.mean_individual_cost is None:
            self.mean_individual_cost = np.zeros(len(self.steps))

    @property
    def n(self) -> int:
        return int(self.susceptible[0] + self.infected[0]
                   + self.immune_slight[0] + self.immune_serious[0])

    def peak_infected_fraction(self) -> float:
        return float(self.infected.max()) / self.n

    def to_csv(self, path) -> None:
        """Write the series as CSV; floats as Python ``repr``, so the text
        reads back to the same doubles."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("step,S,I,R_slight,R_serious,mean_M,C,mean_c\n")
            for k in range(len(self.steps)):
                fh.write(f"{self.steps[k]},{self.susceptible[k]},"
                         f"{self.infected[k]},{self.immune_slight[k]},"
                         f"{self.immune_serious[k]},"
                         f"{float(self.mean_mask[k])!r},"
                         f"{float(self.global_cost[k])!r},"
                         f"{float(self.mean_individual_cost[k])!r}\n")


def run(config: WorldConfig, steps: int) -> EpidemicSeries:
    """Run a standalone (fixed-fraction) epidemic for ``steps`` steps."""
    world = World(config)
    rows = np.zeros((steps + 1, 4), dtype=np.int64)
    mean_m = np.zeros(steps + 1)
    rows[0] = world.counts()
    for k in range(1, steps + 1):
        bits = sample_mask_bits(world, k)
        mean_m[k] = float(bits.mean())
        advance(world, k)
        rows[k] = world.counts()
    return EpidemicSeries(
        steps=np.arange(steps + 1),
        susceptible=rows[:, 0],
        infected=rows[:, 1],
        immune_slight=rows[:, 2],
        immune_serious=rows[:, 3],
        mean_mask=mean_m,
    )
