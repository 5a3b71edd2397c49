"""Contact detection vs brute force, infection arithmetic, run invariants."""

import hashlib

import numpy as np
import pytest

from masksim.epidemic import (Health, World, WorldConfig, advance,
                              contact_pairs, health_transitions,
                              infection_trials,
                              keyed_uniform_agents, keyed_uniform_pairs,
                              run, sample_mask_bits, step_movement)


def brute_force_pairs(positions, epsilon):
    """O(n^2) oracle for the grid-based contact finder."""
    n = len(positions)
    eps2 = epsilon * epsilon
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            dx = positions[i, 0] - positions[j, 0]
            dy = positions[i, 1] - positions[j, 1]
            if dx * dx + dy * dy <= eps2:
                pairs.add((i, j))
    return pairs


# =============================================================================
# Contact detection
# =============================================================================

def test_pair_at_exactly_epsilon_included():
    pos = np.array([[0.0, 0.0], [2.0, 0.0]])
    ii, jj = contact_pairs(pos, epsilon=2.0)
    assert list(zip(ii, jj)) == [(0, 1)]


def test_grid_spaced_2eps_has_no_pairs():
    eps = 0.7
    xs, ys = np.meshgrid(np.arange(5) * 2 * eps, np.arange(4) * 2 * eps)
    pos = np.column_stack([xs.ravel(), ys.ravel()])
    ii, jj = contact_pairs(pos, epsilon=eps)
    assert len(ii) == 0


def layout_positions(layout, rng, n, eps):
    """Agent positions for the contact-finder cases; "room" fills the room."""
    if layout == "room":
        return rng.uniform([0, 0], [20, 10], size=(n, 2))
    if layout == "outside":          # negative and beyond the walls
        return rng.uniform([-30, -15], [50, 25], size=(n, 2))
    inside_one_cell = (rng.uniform(0.1, 0.9, n) - 3) * eps
    spread = rng.uniform(-20, 40, n)
    if layout == "row":
        return np.column_stack([spread, inside_one_cell])
    if layout == "column":
        return np.column_stack([inside_one_cell, spread])
    if layout == "cluster":          # a few points, half exactly co-located
        centres = rng.uniform([0, 0], [20, 10], size=(4, 2))
        pos = centres[rng.integers(0, 4, n)]
        pos[n // 2:] += rng.normal(0, 0.1 * eps, size=(n - n // 2, 2))
        return pos
    if layout == "near_pairs":       # each agent has a partner within ~eps
        base = rng.uniform([0, 0], [20, 10], size=(n // 2, 2))
        return np.concatenate([base, base + rng.uniform(-eps, eps, base.shape)])
    raise ValueError(layout)


LAYOUTS = [
    pytest.param(0, 200, 2.0, "room", id="0-200-2.0"),
    pytest.param(1, 200, 0.5, "room", id="1-200-0.5"),
    pytest.param(2, 300, 1.3, "room", id="2-300-1.3"),
    pytest.param(3, 50, 5.0, "room", id="3-50-5.0"),
    pytest.param(4, 300, 1.0, "outside", id="outside"),
    pytest.param(5, 200, 0.7, "row", id="one-row"),
    pytest.param(6, 200, 0.7, "column", id="one-column"),
    pytest.param(7, 300, 1.0, "cluster", id="co-located-cluster"),
    pytest.param(8, 150, 50.0, "room", id="epsilon-exceeds-room"),
    pytest.param(9, 200, 1e-9, "near_pairs", id="epsilon-tiny"),
]


@pytest.mark.parametrize("seed,n,eps,layout", LAYOUTS)
def test_grid_equals_bruteforce(seed, n, eps, layout):
    rng = np.random.default_rng(seed)
    pos = layout_positions(layout, rng, n, eps)
    ii, jj = contact_pairs(pos, epsilon=eps)
    got = set(zip(ii.tolist(), jj.tolist()))
    assert len(got) == len(ii)          # no duplicates
    assert got == brute_force_pairs(pos, eps)


def source_pairs_oracle(positions, epsilon, sources):
    """The brute-force pairs that join a source to a non-source."""
    return {(i, j) for i, j in brute_force_pairs(positions, epsilon)
            if sources[i] != sources[j]}


def assert_source_join(positions, epsilon, sources):
    ii, jj = contact_pairs(positions, epsilon, sources)
    assert ii.dtype == jj.dtype == np.int64
    got = set(zip(ii.tolist(), jj.tolist()))
    assert len(got) == len(ii)          # no duplicates
    assert np.all(ii < jj)
    assert got == source_pairs_oracle(positions, epsilon, sources)
    return got


@pytest.mark.parametrize("seed,n,eps,layout", LAYOUTS)
def test_source_join_equals_filtered_bruteforce(seed, n, eps, layout):
    rng = np.random.default_rng(seed)
    pos = layout_positions(layout, rng, n, eps)
    sources = rng.random(n) < 0.4
    assert assert_source_join(pos, eps, sources)    # some pairs to compare


@pytest.mark.parametrize("share", ["none", "one", "all"])
def test_source_join_source_counts(share):
    rng = np.random.default_rng(12)
    pos = rng.uniform([0, 0], [10, 5], size=(150, 2))
    sources = np.zeros(150, dtype=bool)
    if share == "one":
        sources[rng.integers(150)] = True
    elif share == "all":
        sources[:] = True
    got = assert_source_join(pos, 1.5, sources)
    assert (len(got) > 0) == (share == "one")


def test_contact_pairs_trivial_sizes():
    assert contact_pairs(np.zeros((0, 2)), 1.0)[0].shape == (0,)
    assert contact_pairs(np.zeros((1, 2)), 1.0)[0].shape == (0,)
    ii, jj = contact_pairs(np.zeros((3, 2)), 1.0)   # all co-located
    assert set(zip(ii.tolist(), jj.tolist())) == {(0, 1), (0, 2), (1, 2)}


# =============================================================================
# Infection arithmetic
# =============================================================================

def infection_probability_oracle(p0, m_i, big_m_i, m_j, big_m_j):
    """Per-trial infection probability for one susceptible/infected contact."""
    return p0 * (1.0 - m_i * big_m_i) * (1.0 - m_j * big_m_j)


@pytest.mark.parametrize("p0,effect,mask_share,per_trial", [
    pytest.param(1.0, 1.0, 1.0, 0.0, id="perfect-mask"),
    pytest.param(0.3, 0.9, 1.0, 0.003, id="both-masked"),
    pytest.param(0.01, 0.9, 0.0, 0.01, id="masks-off"),
    pytest.param(0.05, 0.6, 0.5, None, id="mixed"),
])
def test_infection_trials_match_oracle(p0, effect, mask_share, per_trial):
    """The newly infected are exactly the susceptibles in contact with an
    infected agent whose pair draw falls below the oracle probability."""
    cfg = WorldConfig(n_agents=400, room=(10.0, 5.0), p0=p0,
                      mask_effectiveness=effect, initial_infected=100, seed=3)
    w = World(cfg)
    w.mask_bits[:] = np.random.default_rng(11).random(cfg.n_agents) < mask_share
    before = w.health.copy()
    masks = w.mask_bits.tolist()
    step = 7
    ii, jj = contact_pairs(w.positions, cfg.epsilon)
    draws = keyed_uniform_pairs(cfg.seed, step, ii, jj)
    expected, probs = set(), set()
    for i, j, u in zip(ii.tolist(), jj.tolist(), draws.tolist()):
        for s, o in ((i, j), (j, i)):
            if before[s] == Health.SUSCEPTIBLE and before[o] == Health.INFECTED:
                p = infection_probability_oracle(p0, effect, masks[s],
                                                 effect, masks[o])
                probs.add(p)
                if u < p:
                    expected.add(s)

    assert infection_trials(w, ii, jj, step) == len(expected)
    assert set(np.flatnonzero(w.health != before).tolist()) == expected
    assert np.all(w.health[list(expected)] == Health.INFECTED)
    assert np.all(w.infected_since[list(expected)] == step)
    if per_trial is not None:               # a single mask configuration
        assert list(probs) == [pytest.approx(per_trial)]
    assert (len(expected) > 0) == (per_trial != 0.0)


def test_infection_trials_respect_keyed_uniforms():
    cfg = WorldConfig(n_agents=2, p0=1.0, initial_infected=1, seed=5,
                      room=(5.0, 5.0))
    w = World(cfg)
    w.positions[:] = [[1.0, 1.0], [1.5, 1.0]]
    w.mask_bits[:] = 0
    ii, jj = contact_pairs(w.positions, cfg.epsilon)
    new = infection_trials(w, ii, jj, step=1)
    assert new == 1                      # p0=1: certain infection
    assert np.all(w.health == Health.INFECTED)


def test_immune_agents_never_infect_or_catch():
    cfg = WorldConfig(n_agents=3, p0=1.0, initial_infected=1, seed=2,
                      room=(5.0, 5.0))
    w = World(cfg)
    w.positions[:] = [[1, 1], [1.2, 1], [1.4, 1]]
    w.health[:] = [Health.IMMUNE_SLIGHT, Health.INFECTED, Health.IMMUNE_SERIOUS]
    ii, jj = contact_pairs(w.positions, cfg.epsilon)
    assert infection_trials(w, ii, jj, step=1) == 0


# =============================================================================
# Health transitions
# =============================================================================

def test_transition_fires_exactly_at_recovery_steps():
    cfg = WorldConfig(n_agents=1, recovery_steps=20, initial_infected=1, seed=0)
    w = World(cfg)
    w.infected_since[0] = 5
    for step in range(6, 25):
        health_transitions(w, step)
        assert w.health[0] == Health.INFECTED
    health_transitions(w, 25)
    assert w.health[0] in (Health.IMMUNE_SLIGHT, Health.IMMUNE_SERIOUS)


def test_sequelae_logistic_tails():
    for age, expect in ((0.0, Health.IMMUNE_SLIGHT),
                        (100.0, Health.IMMUNE_SERIOUS)):
        cfg = WorldConfig(n_agents=2000, recovery_steps=1, initial_infected=1,
                          seed=3)
        w = World(cfg)
        w.health[:] = Health.INFECTED
        w.infected_since[:] = 0
        w.ages[:] = age
        health_transitions(w, 1)
        share = np.mean(w.health == expect)
        assert share > 0.97


def test_sequelae_cohort_matches_binomial_oracle():
    # choose the age whose serious-sequelae probability is exactly 0.3
    cfg = WorldConfig(n_agents=10_000, recovery_steps=1, initial_infected=1,
                      seed=8)
    age_at_30pct = cfg.sequelae_age_mid + \
        cfg.sequelae_age_scale * np.log(0.3 / 0.7)
    w = World(cfg)
    w.health[:] = Health.INFECTED
    w.infected_since[:] = 0
    w.ages[:] = age_at_30pct
    health_transitions(w, 1)
    serious = float(np.mean(w.health == Health.IMMUNE_SERIOUS))
    assert serious == pytest.approx(0.30, abs=0.015)


# =============================================================================
# Movement
# =============================================================================

def test_zero_velocity_zero_noise_stays_put():
    cfg = WorldConfig(n_agents=5, accel=0.0, seed=1)
    w = World(cfg)
    w.velocities[:] = 0.0
    before = w.positions.copy()
    step_movement(w)
    assert np.array_equal(w.positions, before)


def test_reflection_preserves_speed_and_stays_inside():
    cfg = WorldConfig(n_agents=1, accel=0.0, max_speed=2.0, seed=1)
    w = World(cfg)
    w.positions[:] = [[0.3, 9.8]]
    w.velocities[:] = [[-1.0, 1.5]]
    step_movement(w)
    assert 0.0 <= w.positions[0, 0] <= 20.0
    assert 0.0 <= w.positions[0, 1] <= 10.0
    assert w.positions[0] == pytest.approx([0.7, 8.7])
    assert np.linalg.norm(w.velocities[0]) == pytest.approx(np.hypot(1.0, 1.5))


def test_movement_deterministic_per_seed():
    def trajectory():
        w = World(WorldConfig(n_agents=20, seed=12))
        for _ in range(50):
            step_movement(w)
        return w.positions.copy()

    assert np.array_equal(trajectory(), trajectory())


# =============================================================================
# Mask sampling
# =============================================================================

def test_fixed_fraction_extremes():
    w = World(WorldConfig(n_agents=100, mask_fraction=0.0, seed=0))
    assert sample_mask_bits(w, 1).sum() == 0
    w2 = World(WorldConfig(n_agents=100, mask_fraction=1.0, seed=0))
    assert sample_mask_bits(w2, 1).sum() == 100


def test_controller_mode_matches_binomial_concentration():
    cfg = WorldConfig(n_agents=1000, mask_mode="controller", seed=4)
    w = World(cfg)
    bits = sample_mask_bits(w, 7, probabilities=np.full(1000, 0.9))
    assert abs(bits.mean() - 0.9) < 0.03


def test_controller_mode_requires_probabilities():
    w = World(WorldConfig(n_agents=10, mask_mode="controller", seed=0))
    with pytest.raises(ValueError):
        sample_mask_bits(w, 1)


def test_keyed_streams_are_order_independent():
    ii = np.array([3, 10, 4])
    jj = np.array([7, 12, 9])
    u1 = keyed_uniform_pairs(1, 5, ii, jj)
    u2 = keyed_uniform_pairs(1, 5, ii[::-1].copy(), jj[::-1].copy())[::-1]
    assert np.array_equal(u1, u2)
    a = keyed_uniform_agents(1, 3, 5, 10)
    b = keyed_uniform_agents(1, 3, 5, 10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, keyed_uniform_agents(1, 3, 6, 10))


# =============================================================================
# Whole runs
# =============================================================================

def test_population_conserved_every_step():
    series = run(WorldConfig(n_agents=80, seed=6, initial_infected=2), steps=60)
    totals = (series.susceptible + series.infected
              + series.immune_slight + series.immune_serious)
    assert np.all(totals == 80)


def test_cumulative_infections_monotone_without_masks():
    series = run(WorldConfig(n_agents=120, seed=7, mask_fraction=0.0,
                             initial_infected=1), steps=80)
    ever_infected = 120 - series.susceptible
    assert np.all(np.diff(ever_infected) >= 0)


def test_zero_initial_infected_stays_flat():
    series = run(WorldConfig(n_agents=50, seed=8, initial_infected=0), steps=30)
    assert np.all(series.susceptible == 50)
    assert np.all(series.infected == 0)


def test_run_deterministic_and_csv_bytes_identical(tmp_path):
    cfg = WorldConfig(n_agents=60, seed=9, mask_fraction=0.25,
                      initial_infected=2)
    s1 = run(cfg, steps=40)
    s2 = run(cfg, steps=40)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    s1.to_csv(p1)
    s2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(s1.infected, s2.infected)


def advance_all_pairs_oracle(world, step):
    """All-pairs reference for ``advance``: every contact pair goes to the
    trials, which drop all but the susceptible-infected ones."""
    step_movement(world)
    ii, jj = contact_pairs(world.positions, world.config.epsilon)
    new = infection_trials(world, ii, jj, step)
    health_transitions(world, step)
    return new


@pytest.mark.parametrize("overrides", [
    pytest.param({"mask_fraction": 0.0}, id="fraction-0"),
    pytest.param({"mask_fraction": 0.3}, id="fraction-0.3"),
    pytest.param({"mask_fraction": 0.6}, id="fraction-0.6"),
    pytest.param({"mask_fraction": 0.9}, id="fraction-0.9"),
    pytest.param({"mask_fraction": 0.5, "recovery_steps": 4, "p0": 0.004},
                 id="dies-out"),
])
def test_advance_equals_all_pairs_oracle(overrides):
    cfg = WorldConfig(n_agents=500, seed=21, initial_infected=3, **overrides)
    fast, slow = World(cfg), World(cfg)
    infected = []
    for k in range(1, 121):
        sample_mask_bits(fast, k)
        sample_mask_bits(slow, k)
        assert advance(fast, k) == advance_all_pairs_oracle(slow, k)
        assert np.array_equal(fast.health, slow.health)
        assert np.array_equal(fast.infected_since, slow.infected_since)
        assert np.array_equal(fast.positions, slow.positions)
        infected.append(fast.counts()[1])
    if "recovery_steps" in overrides:       # extinct well before the end
        assert infected[-60:] == [0] * 60
    else:
        assert max(infected) > 3            # the infection spread


def test_run_series_digest_pinned():
    # Taken from the per-cell-loop contact finder that the sorted-cell join
    # replaced: any change to the contact pair set changes the series.  The
    # arrays are hashed, not to_csv's text.
    s = run(WorldConfig(n_agents=500, mask_fraction=0.35, seed=0,
                        initial_infected=3), steps=150)
    counts = np.column_stack([s.susceptible, s.infected, s.immune_slight,
                              s.immune_serious]).astype("<i8")
    digest = hashlib.sha256(counts.tobytes()
                            + s.mean_mask.astype("<f8").tobytes())
    assert digest.hexdigest() == \
        "8760c7f50e2bb65ac054a0eb9cb7c3537c55a8a028ec552fdcade4b41c6a2d62"


def test_to_csv_reads_back_to_the_same_series(tmp_path):
    s = run(WorldConfig(n_agents=50, mask_fraction=0.35, seed=0), steps=20)
    s.global_cost = np.linspace(0.0, 1.0, len(s.steps)) / 3
    path = tmp_path / "series.csv"
    s.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,S,I,R_slight,R_serious,mean_M,C,mean_c"
    rows = [line.split(",") for line in lines[1:]]
    ints = np.array([[int(f) for f in r[:5]] for r in rows])
    floats = np.array([[float(f) for f in r[5:]] for r in rows])
    assert np.array_equal(ints, np.column_stack(
        [s.steps, s.susceptible, s.infected, s.immune_slight,
         s.immune_serious]))
    # the same doubles, bit for bit, and no NumPy scalar reprs in the text
    assert np.array_equal(floats, np.column_stack(
        [s.mean_mask, s.global_cost, s.mean_individual_cost]))
    assert "np." not in path.read_text()


def test_raising_mask_effectiveness_weakly_reduces_new_infections():
    # coupling with common random numbers: one step from a common state
    base = WorldConfig(n_agents=150, seed=10, mask_fraction=0.5,
                       mask_effectiveness=0.3, initial_infected=10, p0=0.5)
    seeds = range(25)
    for s in seeds:
        w_lo = World(WorldConfig(**{**base.__dict__, "seed": s}))
        w_hi = World(WorldConfig(**{**base.__dict__, "seed": s,
                                    "mask_effectiveness": 0.9}))
        w_hi.positions[:] = w_lo.positions
        w_hi.health[:] = w_lo.health
        for w in (w_lo, w_hi):
            sample_mask_bits(w, 1)
        # same wearer set under the keyed stream, same contacts
        assert np.array_equal(w_lo.mask_bits, w_hi.mask_bits)
        ii, jj = contact_pairs(w_lo.positions, base.epsilon)
        new_lo = infection_trials(w_lo, ii, jj, 1)
        new_hi = infection_trials(w_hi, ii, jj, 1)
        assert new_hi <= new_lo


def test_peak_infected_fraction_helper():
    series = run(WorldConfig(n_agents=100, seed=11, initial_infected=1),
                 steps=100)
    assert series.peak_infected_fraction() == \
        pytest.approx(series.infected.max() / 100)
