"""Ultra-wideband two-way ranging and anchor multilateration.

A ranging exchange consists of three messages (Poll, Response, Final) and
produces six timestamps, three per device clock.  The four-term average

    ToF = 1/4 * [ (T_RR - T_SP) - (T_SR - T_RP)
                + (T_RF - T_SR) - (T_SF - T_RR) ]

cancels the constant clock offset between the two devices; distance is then
ToF times the speed of light.  A position is solved from distances to at
least three non-collinear fixed anchors by Gauss-Newton least squares on
the range residuals, initialized at the anchor centroid; see
:func:`multilaterate` for when it stops.

``simulate_exchange`` is the hardware stand-in: it fabricates the six
timestamps for a given true distance, processing delays, clock offset and
optional per-timestamp jitter, and is an exact inverse of
``time_of_flight`` when the jitter is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0   # m/s

GN_MAX_ITERATIONS = 50           # per phase: Gauss-Newton, then Newton
GN_STEP_TOLERANCE = 1e-10        # meters
GN_COST_TOLERANCE = 1e-12        # relative fall of the squared range error
GN_MAX_HALVINGS = 40


class ExchangeError(ValueError):
    """Corrupt ranging exchange (timestamp ordering violated)."""


@dataclass(frozen=True)
class TwrTimestamps:
    """Six timestamps of one Poll/Response/Final exchange, in seconds.

    ``t_sp``/``t_rr``/``t_sf`` are read on the initiator clock,
    ``t_rp``/``t_sr``/``t_rf`` on the responder clock.
    """
    t_sp: float   # initiator sends Poll
    t_rp: float   # responder receives Poll
    t_sr: float   # responder sends Response
    t_rr: float   # initiator receives Response
    t_sf: float   # initiator sends Final
    t_rf: float   # responder receives Final

    def validate(self) -> None:
        if not (self.t_sp < self.t_rr < self.t_sf):
            raise ExchangeError("initiator timestamps out of order")
        if not (self.t_rp < self.t_sr < self.t_rf):
            raise ExchangeError("responder timestamps out of order")


@dataclass(frozen=True)
class Anchor:
    id: str
    position: tuple[float, float]


def time_of_flight(ts: TwrTimestamps) -> float:
    """One-way flight time recovered from the six-timestamp exchange."""
    ts.validate()
    return 0.25 * ((ts.t_rr - ts.t_sp) - (ts.t_sr - ts.t_rp)
                   + (ts.t_rf - ts.t_sr) - (ts.t_sf - ts.t_rr))


def distance(tof: float) -> float:
    """Distance in meters for a flight time in seconds."""
    if tof < 0:
        raise ValueError(f"negative time of flight: {tof}")
    return tof * SPEED_OF_LIGHT


def simulate_exchange(true_distance: float,
                      reply_delay: float = 5e-9,
                      final_delay: float = 7e-9,
                      clock_offset: float = 0.0,
                      jitter: float = 0.0,
                      rng: np.random.Generator | None = None,
                      start: float = 0.0) -> TwrTimestamps:
    """Fabricate one exchange for a given true distance.

    ``reply_delay`` is the responder's turn-around before the Response,
    ``final_delay`` the initiator's before the Final; ``clock_offset`` is
    added to every responder-clock timestamp and cancels out of the ToF
    combination.  ``jitter`` (seconds, std dev) perturbs each timestamp
    independently.

    Precision note: the cancellation is structural at any offset, but exact
    (1e-12 relative) round trips need timestamp magnitudes within a few
    microseconds of zero, since double precision carries ~16 digits and the
    flight times are sub-microsecond.  Keep ``start``, delays and offsets
    inside that envelope when exactness matters.
    """
    if true_distance < 0:
        raise ValueError("true distance must be non-negative")
    tof = true_distance / SPEED_OF_LIGHT
    t_sp = start
    t_rp = t_sp + tof + clock_offset
    t_sr = t_rp + reply_delay
    t_rr = t_sr - clock_offset + tof
    t_sf = t_rr + final_delay
    t_rf = t_sf + tof + clock_offset
    stamps = np.array([t_sp, t_rp, t_sr, t_rr, t_sf, t_rf])
    if jitter > 0:
        if rng is None:
            raise ValueError("jitter requires an rng")
        stamps = stamps + rng.normal(0.0, jitter, size=6)
    return TwrTimestamps(*(float(t) for t in stamps))


# =============================================================================
# Multilateration
# =============================================================================

@dataclass(frozen=True)
class FixResult:
    position: tuple[float, float] | None
    rms_residual: float
    iterations: int
    converged: bool
    reason: str = ""


def _collinear(anchors: np.ndarray) -> bool:
    centered = anchors - anchors.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[-1] <= 1e-9 * max(s[0], 1.0)


def _linearize(x: np.ndarray, a: np.ndarray, d: np.ndarray):
    """Range residuals at ``x``, their Jacobian and the ranges."""
    diff = x - a
    ranges = np.linalg.norm(diff, axis=1)
    ranges = np.maximum(ranges, 1e-12)   # guard: estimate on an anchor
    return ranges - d, diff / ranges[:, None], ranges


def _cost(x, a, d) -> float:
    """The squared range error ``sum_k (|x - a_k| - d_k)^2``."""
    residuals, _, _ = _linearize(x, a, d)
    return float(residuals @ residuals)


def multilaterate(anchors, distances) -> FixResult:
    """Least-squares 2-D position from anchor distances.

    Minimizes ``sum_k (|x - a_k| - d_k)^2`` by Gauss-Newton from the anchor
    centroid, and stops at a step shorter than :data:`GN_STEP_TOLERANCE`.
    Near an anchor Gauss-Newton can creep or zigzag instead: it drops the
    curvature of the ranges, which grows as the estimate nears an anchor.
    A solve still going after :data:`GN_MAX_ITERATIONS` steps goes on with
    :func:`_newton_descent`, which keeps that curvature, halves a step
    until it lowers the error, and stops at a step that short or a
    stationary cost.  No fix comes back, with a diagnostic, for fewer than
    3 anchors, collinear anchors, or an error still falling after
    :data:`GN_MAX_ITERATIONS` steps of both phases.
    """
    a = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("anchors must be an (n, 2) array")
    if a.shape[0] != d.shape[0]:
        raise ValueError("one distance per anchor required")
    if a.shape[0] < 3:
        return FixResult(None, float("nan"), 0, False, "fewer than 3 anchors")
    if np.any(d < 0):
        raise ValueError("distances are non-negative")
    if _collinear(a):
        return FixResult(None, float("nan"), 0, False, "anchors are collinear")

    x = a.mean(axis=0)
    iterations = 0
    for iterations in range(1, GN_MAX_ITERATIONS + 1):
        residuals, jac, _ = _linearize(x, a, d)
        step_vec, *_ = np.linalg.lstsq(jac, -residuals, rcond=None)
        x = x + step_vec
        if np.linalg.norm(step_vec) < GN_STEP_TOLERANCE:
            break
    else:
        x, extra = _newton_descent(x, a, d)
        iterations += extra
        if x is None:
            return FixResult(None, float("nan"), iterations, False,
                             "did not converge")

    final = np.maximum(np.linalg.norm(x - a, axis=1), 1e-12) - d
    rms = float(np.sqrt(np.mean(final**2)))
    return FixResult((float(x[0]), float(x[1])), rms, iterations, True)


def _newton_descent(x, a, d) -> tuple[np.ndarray | None, int]:
    """Newton's method on the squared range error from ``x``; returns the
    point and the steps taken, or ``None`` and the steps if the error still
    falls after :data:`GN_MAX_ITERATIONS` steps.

    The Hessian adds to Gauss-Newton's ``J^T J`` each range's curvature,
    ``r_k / rho_k (I - u_k u_k^T)``.  It turns indefinite where the
    estimate is closer to an anchor than the measured distance, so the step
    divides by the absolute value of each eigenvalue: a Newton step where
    the Hessian is positive definite, downhill off a saddle where it is not
    (saddle-free Newton).  A step is halved until it lowers the error; the
    descent stops at a step shorter than :data:`GN_STEP_TOLERANCE`, a fall
    of the error within a relative :data:`GN_COST_TOLERANCE`, or no lower
    error within :data:`GN_MAX_HALVINGS` halvings (a stationary cost).
    """
    cost = _cost(x, a, d)
    for iterations in range(1, GN_MAX_ITERATIONS + 1):
        residuals, jac, ranges = _linearize(x, a, d)
        bend = residuals / ranges
        hess = (jac * (1.0 - bend)[:, None]).T @ jac + bend.sum() * np.eye(2)
        curv, axes = np.linalg.eigh(hess)
        curv = np.maximum(np.abs(curv), 1e-12 * np.abs(curv).max())
        step_vec = -axes @ ((axes.T @ (jac.T @ residuals)) / curv)
        for _ in range(GN_MAX_HALVINGS):
            trial = x + step_vec
            trial_cost = _cost(trial, a, d)
            if trial_cost < cost:
                break
            step_vec = step_vec / 2
        else:
            return x, iterations
        fall = cost - trial_cost
        x, cost = trial, trial_cost
        if (np.linalg.norm(step_vec) < GN_STEP_TOLERANCE
                or fall <= GN_COST_TOLERANCE * cost):
            return x, iterations
    return None, GN_MAX_ITERATIONS


def locate_from_exchanges(anchors: list[Anchor],
                          exchanges: list[TwrTimestamps]) -> FixResult:
    """Full pipeline: exchanges -> distances -> position fix."""
    if len(anchors) != len(exchanges):
        raise ValueError("one exchange per anchor required")
    dists = [distance(time_of_flight(ts)) for ts in exchanges]
    return multilaterate([an.position for an in anchors], dists)
