"""Control-law arithmetic, windowed-average oracle, link contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masksim.controller import (ComplianceController, ControllerParams,
                                LOGISTIC, Link, decode_cost_vector,
                                encode_cost_vector, simulate_compliance)


# =============================================================================
# Scalar oracles: the control laws as written in the paper, one agent at a
# time.  The controller implements them on whole arrays.
# =============================================================================

def windowed_average_oracle(prev_avg, m, gamma):
    return gamma * prev_avg + (1.0 - gamma) * m


def global_cost_oracle(cost, mean_compliance, alpha, q_star):
    return cost + alpha * (q_star - mean_compliance)


def individual_cost_oracle(cost, windowed_avg, beta, q_star):
    return cost + beta * (q_star - windowed_avg)


def compliance_probability_oracle(q, global_cost, individual_cost):
    return 1.0 / (1.0 + math.exp(-(q + global_cost + individual_cost)))


def stake_oracle(global_cost, individual_cost):
    return max(0.0, global_cost + individual_cost)


def direct_windowed_average(bits, gamma):
    """Independent oracle: the explicit discounted sum over the history."""
    k = len(bits)
    return (1 - gamma) * sum(gamma ** (k - j) * bits[j - 1]
                             for j in range(1, k + 1))


def one_step_controller(n, **params):
    """A controller whose first step acts on its own measurement (delay 0)."""
    return ComplianceController(ControllerParams(delay=0, **params),
                                [f"a{i}" for i in range(n)])


def step_all(ctrl, k, bits):
    """One step with every agent's record present."""
    return ctrl.step(k, np.array(bits, dtype=float),
                     np.ones(len(ctrl.agents), dtype=bool))


def windowed_averages(bits, gamma):
    """Windowed averages of one agent after each step of ``bits``."""
    ctrl = one_step_controller(1, gamma=gamma)
    out = []
    for k, m in enumerate(bits, start=1):
        step_all(ctrl, k, [m])
        out.append(float(ctrl.windowed_avgs[0]))
    return out


# =============================================================================
# Global and individual cost updates
# =============================================================================

def test_global_update_frozen_value():
    # C=2.0, alpha=0.5, Q*=0.8, mean=0.6 -> 2.0 + 0.5*(0.8-0.6) = 2.1
    ctrl = one_step_controller(5, alpha=0.5, q_star=0.8,
                               initial_global_cost=2.0)
    res = step_all(ctrl, 1, [1.0, 1.0, 1.0, 0.0, 0.0])
    assert res.mean_compliance == 0.6
    assert ctrl.global_cost == global_cost_oracle(2.0, 0.6, 0.5, 0.8)
    assert ctrl.global_cost == pytest.approx(2.1)


def test_global_update_equilibrium():
    ctrl = one_step_controller(5, alpha=0.5, q_star=0.8,
                               initial_global_cost=1.7)
    step_all(ctrl, 1, [1.0, 1.0, 1.0, 1.0, 0.0])   # mean 0.8 = Q*
    assert ctrl.global_cost == 1.7


def test_global_update_can_go_negative():
    ctrl = one_step_controller(3, alpha=1.0, q_star=0.9)
    res = step_all(ctrl, 1, [1, 1, 1])
    assert res.global_cost == global_cost_oracle(0.0, 1.0, 1.0, 0.9)
    assert res.global_cost == pytest.approx(-0.1)


def test_global_update_rejects_bad_mean():
    ctrl = one_step_controller(1, alpha=1.0, q_star=0.9)
    with pytest.raises(ValueError, match="outside"):
        step_all(ctrl, 1, [1.2])
    assert ctrl.global_cost == 0.0 and ctrl.windowed_avgs[0] == 0.0


def assert_step_rejected(ctrl, match, bits, present):
    """``step`` raises ``ValueError`` and leaves every piece of state as it
    was, and the controller still steps afterwards."""
    before = (ctrl.global_cost, ctrl.individual_costs.copy(),
              ctrl.windowed_avgs.copy(), list(ctrl.gap_events))
    with pytest.raises(ValueError, match=match):
        ctrl.step(2, bits, present)
    assert ctrl.global_cost == before[0]
    assert np.array_equal(ctrl.individual_costs, before[1])
    assert np.array_equal(ctrl.windowed_avgs, before[2])
    assert ctrl.gap_events == before[3]
    step_all(ctrl, 2, [1] * len(ctrl.agents))


# the ids name the input forms the bits once came in
@pytest.mark.parametrize("bits,agent", [
    pytest.param([3, -1], "a", id="mapping-mean-in-range"),
    pytest.param([1, 0.5], "b", id="mapping-fraction"),
    pytest.param([0, float("nan")], "b", id="mapping-nan"),
    pytest.param([0.0, 2.0], "b", id="array"),
])
def test_step_rejects_bits_other_than_0_or_1(bits, agent):
    ctrl = ComplianceController(ControllerParams(delay=0), ["a", "b"])
    step_all(ctrl, 1, [1, 0])
    assert_step_rejected(ctrl, f"step 2: agent '{agent}'", np.array(bits),
                         np.ones(2, dtype=bool))


def test_individual_update_fixed_point():
    # gamma=0.1: one compliant step lifts the average to 0.9 = Q*
    ctrl = one_step_controller(1, beta=1.0, gamma=0.1, q_star=0.9)
    step_all(ctrl, 1, [1])
    assert ctrl.windowed_avgs[0] == 0.9
    assert ctrl.individual_costs[0] == individual_cost_oracle(0.0, 0.9, 1.0,
                                                              0.9)
    assert ctrl.individual_costs[0] == 0.0


def test_individual_update_frozen_value():
    # c=1.0, beta=2, Q*=0.9, avg=0.4 -> 1 + 2*0.5 = 2.0; a second agent with
    # avg=0 and c=-1 checks the law per agent
    ctrl = one_step_controller(2, beta=2.0, gamma=0.6, q_star=0.9)
    ctrl.individual_costs[:] = [1.0, -1.0]
    step_all(ctrl, 1, [1, 0])
    assert ctrl.windowed_avgs[0] == pytest.approx(0.4)
    for i, c0 in enumerate((1.0, -1.0)):
        want = individual_cost_oracle(c0, ctrl.windowed_avgs[i], 2.0, 0.9)
        assert ctrl.individual_costs[i] == want
    assert ctrl.individual_costs[0] == pytest.approx(2.0)
    assert ctrl.individual_costs[1] == pytest.approx(0.8)


# =============================================================================
# Windowed average (Eq. 5 recursive form vs direct sum)
# =============================================================================

def test_windowed_average_frozen_sequence():
    # gamma=0.5, M=[1,0,1] -> [0.5, 0.25, 0.625]
    got = windowed_averages([1, 0, 1], gamma=0.5)
    assert got == pytest.approx([0.5, 0.25, 0.625], abs=1e-15)
    assert direct_windowed_average([1, 0, 1], 0.5) == pytest.approx(0.625)


def test_windowed_average_all_zero():
    assert windowed_averages([0] * 50, gamma=0.7) == [0.0] * 50


def test_windowed_average_all_ones_geometric():
    gamma = 0.9
    for k, avg in enumerate(windowed_averages([1] * 79, gamma), start=1):
        assert avg == pytest.approx(1 - gamma ** k, abs=1e-12)


@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=64),
       gamma=st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=300, deadline=None)
def test_recursive_matches_direct_sum(bits, gamma):
    got = windowed_averages(bits, gamma)
    want = 0.0
    for k, m in enumerate(bits):
        want = windowed_average_oracle(want, m, gamma)
        assert got[k] == want                    # same recursion, bit-exact
    assert abs(got[-1] - direct_windowed_average(bits, gamma)) < 1e-12


# =============================================================================
# Link and stake
# =============================================================================

def test_logistic_at_zero():
    ctrl = one_step_controller(1)
    assert ctrl.probabilities(np.zeros(1))[0] == pytest.approx(0.5)


def test_logistic_frozen_value():
    # q=1, C=1, c=0 -> 1/(1+e^-2); a second agent with c=-3 sums below zero
    ctrl = one_step_controller(2, initial_global_cost=1.0)
    ctrl.individual_costs[:] = [0.0, -3.0]
    q = np.array([1.0, 1.0])
    probs = ctrl.probabilities(q)
    for i in range(2):
        assert probs[i] == pytest.approx(compliance_probability_oracle(
            q[i], 1.0, ctrl.individual_costs[i]), abs=1e-15)
    assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)
    assert probs[0] == pytest.approx(0.880797, abs=1e-6)


@pytest.mark.parametrize("link", [LOGISTIC, Link("scaled_logistic", 2.0, 1.0),
                                  Link("scaled_logistic", 0.5, -2.0)])
def test_link_monotone_and_bounded_on_grid(link):
    xs = np.linspace(-60, 60, 1000)
    ys = link(xs)
    assert np.all(np.diff(ys) >= 0)
    assert np.all((ys >= 0) & (ys <= 1))
    assert link(-1e6) == pytest.approx(0.0, abs=1e-12)
    assert link(1e6) == pytest.approx(1.0, abs=1e-12)


def test_scaled_logistic_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        Link("scaled_logistic", 0.0, 0.0)


def test_stake_amount_clamps_at_zero():
    ctrl = one_step_controller(3, initial_global_cost=3.0)
    ctrl.individual_costs[:] = [1.0, -5.0, -3.0]
    assert ctrl.stakes().tolist() == [4.0, 0.0, 0.0]
    ctrl.global_cost = -2.0
    ctrl.individual_costs[:] = [1.0, 2.0, 0.0]
    stakes = ctrl.stakes().tolist()     # the bank's view of the array
    assert stakes == [0.0, 0.0, 0.0]
    for i, stake in enumerate(stakes):
        assert type(stake) is float
        assert stake == stake_oracle(-2.0, ctrl.individual_costs[i])


# =============================================================================
# Controller stepper
# =============================================================================

def test_params_validation():
    with pytest.raises(ValueError):
        ControllerParams(alpha=0.0)
    with pytest.raises(ValueError):     # a constant-cost law is rejected
        ControllerParams(beta=0.0)
    with pytest.raises(ValueError):
        ControllerParams(gamma=1.0)
    with pytest.raises(ValueError):
        ControllerParams(q_star=1.5)
    with pytest.raises(ValueError):
        ControllerParams(delay=-1)


def test_equilibrium_step_leaves_costs_unchanged():
    # when the delayed measurements sit exactly at Q*, one step is a no-op
    params = ControllerParams(alpha=0.4, beta=0.3, gamma=0.5, q_star=0.5, delay=1)
    ctrl = ComplianceController(params, ["a", "b"])
    ctrl.windowed_avgs[:] = 0.5
    ctrl._mean_history.append(0.5)
    ctrl._avg_history.append(np.array([0.5, 0.5]))
    step_all(ctrl, 1, [1, 0])   # update consumes the primed k-m values
    assert ctrl.global_cost == 0.0
    assert np.all(ctrl.individual_costs == 0.0)


def test_identical_agents_get_identical_costs():
    params = ControllerParams()
    ctrl = ComplianceController(params, ["x", "y", "z"])
    rng = np.random.default_rng(4)
    for k in range(1, 200):
        m = int(rng.random() < 0.7)
        other = int(rng.random() < 0.5)
        step_all(ctrl, k, [m, m, other])
    assert ctrl.individual_costs[0] == ctrl.individual_costs[1]   # bit-exact
    assert ctrl.windowed_avgs[0] == ctrl.windowed_avgs[1]


def test_gap_records_hold_value_and_log_event():
    params = ControllerParams(delay=0)
    ctrl = ComplianceController(params, ["a", "b"])
    step_all(ctrl, 1, [1, 1])
    avg_b = ctrl.windowed_avgs[1]
    # an absent agent's bit is ignored, even one that is not 0 or 1
    ctrl.step(2, np.array([1.0, np.nan]), np.array([True, False]))
    assert ctrl.windowed_avgs[1] == avg_b
    assert (2, "b") in ctrl.gap_events


def test_step_rejects_wrong_length_records():
    ctrl = ComplianceController(ControllerParams(delay=0), ["a", "b"])
    step_all(ctrl, 1, [1, 0])
    for n_bits, n_present in ((1, 2), (2, 3), (3, 3)):
        assert_step_rejected(ctrl, "expected 2 bits", np.ones(n_bits),
                             np.ones(n_present, dtype=bool))


def test_full_compliance_from_start_memoryless_window():
    # gamma=0: the windowed average is the last bit, so with Q*=1 and full
    # compliance every error term is zero and stakes never increase
    params = ControllerParams(alpha=0.3, beta=0.3, gamma=0.0, q_star=1.0)
    ctrl = ComplianceController(params, ["solo"])
    stakes = []
    for k in range(1, 60):
        step_all(ctrl, k, [1])
        stakes.append(ctrl.stakes()[0])
    assert all(b <= a + 1e-12 for a, b in zip(stakes, stakes[1:]))


def test_full_compliance_from_start_bounded_discounted_window():
    # with gamma>0 the average warms up from 0, so the individual cost grows
    # by the geometric tail and converges to beta*(m + gamma/(1-gamma))
    alpha, beta, gamma, m = 0.3, 0.3, 0.8, 1
    params = ControllerParams(alpha=alpha, beta=beta, gamma=gamma,
                              q_star=1.0, delay=m)
    ctrl = ComplianceController(params, ["solo"])
    stakes = []
    for k in range(1, 400):
        step_all(ctrl, k, [1])
        stakes.append(ctrl.stakes()[0])
    assert all(b >= a - 1e-12 for a, b in zip(stakes, stakes[1:]))
    # error terms: gamma at steps 1 and 2 (hold), then gamma^(k-1)
    limit = beta * (gamma + gamma / (1 - gamma))
    assert stakes[-1] == pytest.approx(limit, abs=1e-6)


def test_delay_buffer_holds_oldest_measurement():
    params = ControllerParams(alpha=1.0, beta=1.0, gamma=0.0, q_star=1.0, delay=2)
    ctrl = ComplianceController(params, ["a"])
    # with delay 2, the first two steps both see the oldest mean (step 1's)
    step_all(ctrl, 1, [0])
    assert ctrl.global_cost == pytest.approx(1.0)   # uses mean(1)=0
    step_all(ctrl, 2, [1])
    assert ctrl.global_cost == pytest.approx(2.0)   # still mean(1)=0
    step_all(ctrl, 3, [1])
    assert ctrl.global_cost == pytest.approx(3.0)   # buffer full: mean(1)=0
    step_all(ctrl, 4, [1])
    assert ctrl.global_cost == pytest.approx(3.0)   # now sees mean(2)=1


def test_determinism_identical_runs():
    params = ControllerParams()
    q = np.random.default_rng(1).normal(0, 1, 40)
    r1 = simulate_compliance(params, q, 300, seed=9)
    r2 = simulate_compliance(params, q, 300, seed=9)
    assert np.array_equal(r1.mean_compliance, r2.mean_compliance)
    assert np.array_equal(r1.global_cost, r2.global_cost)
    assert np.array_equal(r1.windowed_avgs, r2.windowed_avgs)


def test_cost_vector_codec_round_trip():
    costs = np.array([0.5, -1.25, 3.0])
    payload = encode_cost_vector(17, 2.5, costs)
    doc = decode_cost_vector(payload)
    assert doc["step"] == 17 and doc["C"] == 2.5
    assert doc["c"] == pytest.approx(costs, abs=1e-6)
    # oversize vectors degrade to a summary record that still fits the ledger
    big = np.ones(5000)
    doc2 = decode_cost_vector(encode_cost_vector(3, 1.0, big))
    assert doc2["c"] is None and doc2["mean_c"] == pytest.approx(1.0)
    assert len(encode_cost_vector(3, 1.0, big)) < 4096
