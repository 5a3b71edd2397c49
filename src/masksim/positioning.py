"""Ultra-wideband two-way ranging and anchor multilateration.

A ranging exchange consists of three messages (Poll, Response, Final) and
produces six timestamps, three per device clock.  The four-term average

    ToF = 1/4 * [ (T_RR - T_SP) - (T_SR - T_RP)
                + (T_RF - T_SR) - (T_SF - T_RR) ]

cancels the constant clock offset between the two devices; distance is then
ToF times the speed of light.  A position is solved from distances to at
least three non-collinear fixed anchors by one damped Newton descent on
the squared range error from the anchor centroid; see :func:`multilaterate`
for when it stops and when no fix comes back.

``simulate_exchange`` is the hardware stand-in: it fabricates the six
timestamps for a given true distance, processing delays, clock offset and
optional per-timestamp jitter, and is an exact inverse of
``time_of_flight`` when the jitter is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0   # m/s

MAX_ITERATIONS = 50
STEP_TOLERANCE = 1e-10           # meters
COST_TOLERANCE = 1e-12           # relative fall of the squared range error
MAX_HALVINGS = 40


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


def collinear(anchors) -> bool:
    """Whether the anchors lie on one line (coincident ones included), which
    leaves a 2-D position undetermined."""
    centered = anchors - np.mean(anchors, axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[-1] <= 1e-9 * max(s[0], 1.0)


def _residuals(x: np.ndarray, a: np.ndarray, d: np.ndarray):
    """Range residuals at ``x``, the unit vectors from the anchors to ``x``
    (the residuals' Jacobian) and the ranges."""
    diff = x - a
    ranges = np.hypot(diff[:, 0], diff[:, 1])
    ranges = np.maximum(ranges, 1e-12)   # guard: estimate on an anchor
    return ranges - d, diff / ranges[:, None], ranges


def _newton_step(r: np.ndarray, u: np.ndarray, rho: np.ndarray):
    """The Newton step on the squared range error, or the Gauss-Newton step
    where the Hessian is not positive definite, and the fall in the error
    that the step's quadratic model predicts.

    The Hessian adds to Gauss-Newton's ``J^T J`` each range's curvature,
    ``r_k / rho_k (I - u_k u_k^T)``, which grows near an anchor and turns
    indefinite closer to one than its measured distance.
    """
    bend = r / rho
    g0, g1 = (u.T @ r).tolist()
    (h00, h01), (_, h11) = ((u * (1.0 - bend)[:, None]).T @ u).tolist()
    curvature = float(bend.sum())
    h00, h11 = h00 + curvature, h11 + curvature
    det = h00 * h11 - h01 * h01
    if not (h00 > 0 and det > 0):
        (h00, h01), (_, h11) = (u.T @ u).tolist()
        det = h00 * h11 - h01 * h01
    step = np.array([h01 * g1 - h11 * g0, h01 * g0 - h00 * g1]) / det
    return step, -(g0 * step[0] + g1 * step[1])


def multilaterate(anchors, distances) -> FixResult:
    """Least-squares 2-D position from anchor distances.

    Minimizes the squared range error ``sum_k (|x - a_k| - d_k)^2`` by one
    damped Newton descent from the anchor centroid (see
    :func:`_newton_step`).  A step is halved until it lowers the error.
    The descent stops at a step shorter than :data:`STEP_TOLERANCE`, a
    fall of the error within a relative :data:`COST_TOLERANCE` (a step
    whose predicted fall is that small is taken whole: the error's rounding
    cannot judge it), or when halving finds no lower error before the step
    is that short or within :data:`MAX_HALVINGS` halvings.  ``iterations``
    counts the Newton steps tried, the last one included.

    No fix comes back, with the reason, for fewer than 3 anchors, collinear
    anchors, a squared range error too large to be finite, or an error
    still falling after :data:`MAX_ITERATIONS` steps.
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
    if collinear(a):
        return FixResult(None, float("nan"), 0, False, "anchors are collinear")

    x = a.mean(axis=0)
    # ranges whose squares overflow give a non-finite error, checked next;
    # an overflowing step gives a trial that the line search rejects
    with np.errstate(all="ignore"):
        r, u, rho = _residuals(x, a, d)
        cost = float(r @ r)
        if not np.isfinite(cost):
            return FixResult(None, float("nan"), 0, False,
                             "range error is not finite")
        for iterations in range(1, MAX_ITERATIONS + 1):
            step, model_fall = _newton_step(r, u, rho)
            # a fall this small is within the rounding of the error, so the
            # error cannot judge the step: it is taken whole, and is the last
            settled = model_fall <= COST_TOLERANCE * cost
            for _ in range(MAX_HALVINGS):
                trial = _residuals(x + step, a, d)
                trial_cost = float(trial[0] @ trial[0])
                if (settled or trial_cost < cost
                        or math.hypot(*step) < STEP_TOLERANCE):
                    break
                step = step / 2
            if not (settled or trial_cost < cost):
                break
            x, (r, u, rho), cost = x + step, trial, trial_cost
            if settled or math.hypot(*step) < STEP_TOLERANCE:
                break
        else:
            return FixResult(None, float("nan"), MAX_ITERATIONS, False,
                             "did not converge")
    rms = math.sqrt(cost / len(d))
    return FixResult((float(x[0]), float(x[1])), rms, iterations, True)


def locate_from_exchanges(anchors: list[Anchor],
                          exchanges: list[TwrTimestamps]) -> FixResult:
    """Full pipeline: exchanges -> distances -> position fix."""
    if len(anchors) != len(exchanges):
        raise ValueError("one exchange per anchor required")
    dists = [distance(time_of_flight(ts)) for ts in exchanges]
    return multilaterate([an.position for an in anchors], dists)
