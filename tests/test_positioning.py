"""TWR timestamp math, exchange synthesis, damped Newton multilateration."""

import warnings

import numpy as np
import pytest

from masksim.positioning import (Anchor, ExchangeError,
                                 SPEED_OF_LIGHT, TwrTimestamps, distance,
                                 locate_from_exchanges, multilaterate,
                                 simulate_exchange, time_of_flight)
from masksim.scenario import DEFAULT_ANCHORS, HilConfig

NS = 1e-9


# =============================================================================
# Time of flight
# =============================================================================

def test_frozen_exchange_recovers_tof_exactly():
    # true ToF 10 ns, responder reply 5 ns, initiator final delay 7 ns
    # -> timestamps (0, 10, 15, 25, 32, 42) ns
    ts = simulate_exchange(10 * NS * SPEED_OF_LIGHT,
                           reply_delay=5 * NS, final_delay=7 * NS)
    got = np.array([ts.t_sp, ts.t_rp, ts.t_sr, ts.t_rr, ts.t_sf, ts.t_rf])
    assert got == pytest.approx(np.array([0, 10, 15, 25, 32, 42]) * NS, abs=1e-18)
    assert time_of_flight(ts) == pytest.approx(10 * NS, abs=1e-20)


def test_zero_distance_exchange_gives_zero_tof():
    ts = simulate_exchange(0.0)
    assert time_of_flight(ts) == pytest.approx(0.0, abs=1e-20)


def test_clock_offset_cancels():
    # offsets far outside the precision envelope still cancel structurally;
    # only float rounding of the large timestamps remains
    base = time_of_flight(simulate_exchange(7.5, clock_offset=0.0))
    for offset in (1e-3, -2.5, 40.0):
        shifted = time_of_flight(simulate_exchange(7.5, clock_offset=offset))
        assert shifted == pytest.approx(base, rel=1e-6)


def test_ordering_violation_rejected():
    with pytest.raises(ExchangeError):
        time_of_flight(TwrTimestamps(0.0, 1.0, 2.0, -1.0, 3.0, 4.0))
    with pytest.raises(ExchangeError):
        time_of_flight(TwrTimestamps(0.0, 5.0, 4.0, 1.0, 2.0, 6.0))


def test_round_trip_arbitrary_delays_and_offsets():
    # delays/offsets range over the documented precision envelope (timestamp
    # magnitudes ~ns..us); double precision then keeps the round trip below
    # 1e-12 relative even at 0.1 m
    rng = np.random.default_rng(3)
    for _ in range(500):
        d = rng.uniform(0.1, 100.0)
        ts = simulate_exchange(d,
                               reply_delay=rng.uniform(1e-9, 1e-7),
                               final_delay=rng.uniform(1e-9, 1e-7),
                               clock_offset=rng.uniform(-1e-7, 1e-7),
                               start=rng.uniform(0, 1e-7))
        rec = distance(time_of_flight(ts))
        assert abs(rec - d) / d < 1e-12


# =============================================================================
# Distance conversion
# =============================================================================

def test_distance_frozen_values():
    assert distance(10 * NS) == pytest.approx(2.99792458, abs=1e-12)
    assert distance(0.0) == 0.0
    # 33.356 ns is almost exactly 10 m of flight
    assert distance(33.356 * NS) == pytest.approx(10.0002, abs=5e-4)
    # inverse check: distance/c round-trips
    assert distance(10.0 / SPEED_OF_LIGHT) == pytest.approx(10.0, rel=1e-15)


def test_negative_tof_rejected():
    with pytest.raises(ValueError):
        distance(-1e-12)


def test_jitter_propagation_matches_monte_carlo():
    # the ToF combination (2,1,-2,1,-1,1)/4 of the six stamps has noise gain
    # sqrt(12)/4, so distance error sd should be ~ 0.866 * sigma * c
    sigma = 0.5 * NS
    rng = np.random.default_rng(11)
    true_d = 20.0
    errors = np.array([
        distance(max(0.0, time_of_flight(
            simulate_exchange(true_d, jitter=sigma, rng=rng)))) - true_d
        for _ in range(10_000)
    ])
    predicted_sd = np.sqrt(12) / 4 * sigma * SPEED_OF_LIGHT
    assert errors.std() == pytest.approx(predicted_sd, rel=0.05)
    assert abs(errors.mean()) < predicted_sd / 10


# =============================================================================
# Multilateration
# =============================================================================

SQUARE = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]


def test_symmetric_exact_case():
    fix = multilaterate(SQUARE, [np.sqrt(50)] * 4)
    assert fix.converged
    assert fix.position == pytest.approx((5.0, 5.0), abs=1e-9)
    assert fix.rms_residual < 1e-9


def test_exact_recovery_random_interior_points():
    rng = np.random.default_rng(4)
    anchors = np.array(SQUARE)
    for _ in range(300):
        p = rng.uniform(0.2, 9.8, 2)
        d = np.linalg.norm(anchors - p, axis=1)
        fix = multilaterate(anchors, d)
        assert fix.converged
        assert np.hypot(fix.position[0] - p[0], fix.position[1] - p[1]) < 1e-6


def test_collinear_anchors_no_fix():
    fix = multilaterate([(0, 0), (5, 0), (10, 0)], [1.0, 2.0, 3.0])
    assert not fix.converged
    assert "collinear" in fix.reason


@pytest.mark.parametrize("d", [1e200, 1e300])
def test_non_finite_range_error_no_fix(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fix = multilaterate(SQUARE, [d] * 4)
    assert not fix.converged and fix.position is None
    assert "not finite" in fix.reason


def test_too_few_anchors_no_fix():
    fix = multilaterate([(0, 0), (5, 0)], [1.0, 2.0])
    assert not fix.converged


def test_residual_honesty():
    rng = np.random.default_rng(9)
    anchors = np.array(SQUARE)
    p = np.array([3.0, 7.0])
    d = np.linalg.norm(anchors - p, axis=1) + rng.normal(0, 0.1, 4)
    d = np.maximum(d, 0.0)
    fix = multilaterate(anchors, d)
    assert fix.converged
    recomputed = np.sqrt(np.mean(
        (np.linalg.norm(anchors - np.array(fix.position), axis=1) - d) ** 2))
    assert fix.rms_residual == pytest.approx(recomputed, rel=1e-9)


def test_noisy_rmse_within_spec():
    # 20 x 10 room, corner anchors, sigma = 10 cm distance noise
    anchors = np.array([(0.0, 0.0), (20.0, 0.0), (0.0, 10.0), (20.0, 10.0)])
    rng = np.random.default_rng(21)
    sq_err = []
    for _ in range(1000):
        p = rng.uniform([0.5, 0.5], [19.5, 9.5])
        d = np.linalg.norm(anchors - p, axis=1) + rng.normal(0, 0.10, 4)
        fix = multilaterate(anchors, np.maximum(d, 0.0))
        assert fix.converged
        sq_err.append((fix.position[0] - p[0]) ** 2 + (fix.position[1] - p[1]) ** 2)
    rmse = float(np.sqrt(np.mean(sq_err)))
    assert rmse < 0.15


# a bound on the Newton steps of any fix of a hil-replay position
MAX_FIX_ITERATIONS = 20


def gauss_newton_fix(anchors, distances):
    """The solver ``multilaterate`` replaced, kept as the oracle: up to 50
    Gauss-Newton steps from the anchor centroid, then up to 50 saddle-free
    Newton steps, each halved until it lowers the squared range error.
    Returns the position, or ``None`` where it found no fix."""
    a = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)

    def linearize(x):
        diff = x - a
        ranges = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        return ranges - d, diff / ranges[:, None], ranges

    def cost(x):
        residuals = linearize(x)[0]
        return float(residuals @ residuals)

    x = a.mean(axis=0)
    for _ in range(50):
        residuals, jac, _ = linearize(x)
        step, *_ = np.linalg.lstsq(jac, -residuals, rcond=None)
        x = x + step
        if np.linalg.norm(step) < 1e-10:
            return tuple(x)
    current = cost(x)
    for _ in range(50):
        residuals, jac, ranges = linearize(x)
        bend = residuals / ranges
        hess = (jac * (1.0 - bend)[:, None]).T @ jac + bend.sum() * np.eye(2)
        curv, axes = np.linalg.eigh(hess)
        curv = np.maximum(np.abs(curv), 1e-12 * np.abs(curv).max())
        step = -axes @ ((axes.T @ (jac.T @ residuals)) / curv)
        for _ in range(40):
            trial_cost = cost(x + step)
            if trial_cost < current:
                break
            step = step / 2
        else:
            return tuple(x)
        fall, x, current = current - trial_cost, x + step, trial_cost
        if np.linalg.norm(step) < 1e-10 or fall <= 1e-12 * current:
            return tuple(x)
    return None


def test_fix_ten_centimetres_from_an_anchor():
    # the hil-replay wearer of the closed-loop benchmark's seed 909 at step
    # 39, 10 cm from the anchor at (20, 10): Gauss-Newton creeps here (each
    # step ~0.8 of the last) and gives up after 50 steps
    truth = (19.901255115623037, 9.978360862333945)
    d = [22.28263921594496, 9.938889231832361, 19.800908319142756,
         0.019667991254645176]
    fix = multilaterate(DEFAULT_ANCHORS, d)
    assert fix.converged and fix.iterations <= MAX_FIX_ITERATIONS
    assert np.hypot(fix.position[0] - truth[0],
                    fix.position[1] - truth[1]) < 0.01


def hil_distances(p, rng) -> list[float]:
    """Distances to the default anchors as a hil-replay run measures them."""
    hil = HilConfig()
    out = []
    for ax, ay in DEFAULT_ANCHORS:
        ts = simulate_exchange(float(np.hypot(p[0] - ax, p[1] - ay)),
                               reply_delay=hil.reply_delay,
                               final_delay=hil.final_delay,
                               jitter=hil.ranging_jitter, rng=rng)
        out.append(distance(max(0.0, time_of_flight(ts))))
    return out


def near_anchor_samples(rng, per_anchor: int):
    """Yield (truth, distances) for ``per_anchor`` positions within 0.5 m of
    each default anchor, measured as a hil-replay run measures them."""
    for ax, ay in DEFAULT_ANCHORS:
        # inward from the corner anchor, radius uniform in [0, 0.5] m so
        # the hardest ground, right beside the anchor, is well sampled
        inward = np.array([1.0 if ax == 0 else -1.0, 1.0 if ay == 0 else -1.0])
        for _ in range(per_anchor):
            r, theta = rng.uniform(0.0, 0.5), rng.uniform(0.0, np.pi / 2)
            p = np.array([ax, ay]) + inward * r * np.array(
                [np.cos(theta), np.sin(theta)])
            yield p, hil_distances(p, rng)


def test_fixes_within_half_a_metre_of_each_anchor():
    fixed = tried = 0
    for p, d in near_anchor_samples(np.random.default_rng(909), 500):
        fix = multilaterate(DEFAULT_ANCHORS, d)
        tried += 1
        fixed += bool(fix.converged and np.hypot(
            fix.position[0] - p[0], fix.position[1] - p[1]) <= 0.5)
    assert fixed >= 0.999 * tried, f"{tried - fixed} of {tried} without a fix"


def test_room_fixes_match_the_oracle():
    # away from the anchors the error has one minimum, and both solvers
    # settle on it to within rounding
    rng = np.random.default_rng(17)
    compared = 0
    while compared < 600:
        p = rng.uniform([0.0, 0.0], [20.0, 10.0])
        if min(np.hypot(p[0] - ax, p[1] - ay)
               for ax, ay in DEFAULT_ANCHORS) < 1.0:
            continue
        d = hil_distances(p, rng)
        fix, want = multilaterate(DEFAULT_ANCHORS, d), gauss_newton_fix(
            DEFAULT_ANCHORS, d)
        assert fix.converged and fix.iterations <= MAX_FIX_ITERATIONS
        assert np.hypot(fix.position[0] - want[0],
                        fix.position[1] - want[1]) <= 1e-8, (p, d)
        compared += 1


def test_near_anchor_fixes_against_the_oracle():
    # within 0.5 m of an anchor the error can have a second minimum, and the
    # two solvers need not settle on the same one; both are near the truth
    for p, d in near_anchor_samples(np.random.default_rng(910), 300):
        fix = multilaterate(DEFAULT_ANCHORS, d)
        assert fix.iterations <= MAX_FIX_ITERATIONS
        if gauss_newton_fix(DEFAULT_ANCHORS, d) is not None:
            assert fix.converged and np.hypot(
                fix.position[0] - p[0], fix.position[1] - p[1]) <= 0.5, (p, d)


def test_full_pipeline_exchanges_to_fix():
    anchors = [Anchor(f"dw{i}", pos) for i, pos in enumerate(SQUARE)]
    p = np.array([2.5, 6.0])
    exchanges = [
        simulate_exchange(float(np.linalg.norm(np.array(a.position) - p)),
                          clock_offset=0.5 * i)
        for i, a in enumerate(anchors)
    ]
    fix = locate_from_exchanges(anchors, exchanges)
    assert fix.converged
    assert fix.position == pytest.approx(tuple(p), abs=1e-6)
