"""The coordinate map u = (u^1, u^2, u^3): distortion, gradient flows,
and the small-mass stability sweep.

Pointed Gromov-Hausdorff distance itself is never computed (the
correspondence search is infeasible); instead the two quantities that
bound it are measured: the sampled-pair distortion of u on a geodesic
ball, and one-sided coverage of the Euclidean ball by the image of the
three-step gradient-flow construction.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import LeftDomain, NoConvergence
from .geodesy import (DistanceField, distance_batch, local_distance,
                      mean_value_pick, segment_functional, MV_SAMPLES, SCORE_FLOOR)
from .geometry import MetricChart
from .harmonic import HarmonicTriple
from .seeding import rng_for


@dataclass
class DistortionReport:
    """Distortion of u over sampled pairs of the geodesic r-ball: quantiles
    of the pair defects, the Gram-defect integral, and the failed pairs."""

    r: float
    n_pairs: int
    max_defect: float
    defect_p50: float
    defect_p90: float
    defect_p99: float
    ortho_l1: float
    n_failed_pairs: int


# A candidate is certified in the geodesic r-ball without a shot when its
# chord length is below r (1 - CHORD_MARGIN) by the CHORD_NODES-point and the
# 2 CHORD_NODES-point Gauss-Legendre rules alike, and the two agree to
# CHORD_AGREE relative (near the puncture the lower rule can undershoot).
CHORD_NODES = 32
CHORD_MARGIN = 1e-6
CHORD_AGREE = 1e-9


@functools.cache
def _unit_gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights of the n-point rule on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    s, w = 0.5 * (t + 1.0), 0.5 * w
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def _chord_lengths(chart: MetricChart, p, xs, n_nodes: int):
    """Lengths of the straight chart segments p -> xs[k] under g, by the
    n_nodes-point Gauss-Legendre rule on int_0^1 phi(p + s(x - p))^2 |x - p| ds.

    The chord is an admissible curve, so its length bounds d(p, x) from
    above; near the puncture phi^2 is singular and the rule may undershoot.
    """
    s, w = _unit_gauss_legendre(n_nodes)
    seg = np.asarray(xs, float) - p
    phi = chart.conformal_factor(p + s[:, None, None] * seg)
    return (w @ phi**2) * np.linalg.norm(seg, axis=1)


def _chord_certified(chart: MetricChart, p, xs, r: float):
    """Candidates whose chord length certifies d(p, x) < r without a shot."""
    bound = r * (1.0 - CHORD_MARGIN)
    lo = _chord_lengths(chart, p, xs, CHORD_NODES)
    hi = _chord_lengths(chart, p, xs, 2 * CHORD_NODES)
    return (lo < bound) & (hi < bound) & (np.abs(lo - hi) <= CHORD_AGREE * hi)


def sample_geodesic_ball(chart: MetricChart, triple: HarmonicTriple, r: float,
                         n_points: int, seed: int, label: str = "ball"):
    """Seeded points of the geodesic r-ball around the base point.

    Rejection sampling from the chart-Euclidean r-ball, then the geodesic
    filter: a candidate whose chord length certifies d(p, x) < r (see
    _chord_certified) is kept without a shot; the others are shot from p
    and kept when the shot converges with d <= r.  Candidate order and the
    draws do not depend on which test kept a candidate.  Returns the
    (n_points, 3) points only.
    """
    p = np.asarray(chart.base_point, float)
    rng = rng_for(seed, label)
    pts = []
    budget = 12
    while len(pts) < n_points and budget > 0:
        need = max(8, int(1.3 * (n_points - len(pts))))
        dirs = rng.normal(size=(need, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = r * rng.uniform(size=need) ** (1.0 / 3.0)
        cands = p + dirs * radii[:, None]
        cands = cands[np.all(np.abs(cands) <= triple.grid.halfwidth - 2 * triple.grid.h,
                             axis=1)]
        if len(cands) == 0:
            budget -= 1
            continue
        good = _chord_certified(chart, p, cands, r)
        shoot = ~good
        if np.any(shoot):
            rest = cands[shoot]
            d, _, _, conv = distance_batch(chart, np.broadcast_to(p, rest.shape), rest)
            good[shoot] = conv & (d <= r)
        pts.extend(cands[good])
        budget -= 1
    if len(pts) < n_points:
        raise NoConvergence(f"geodesic-ball sampling stalled at {len(pts)}/{n_points}")
    return np.array(pts[:n_points])


def ball_distance_field(chart: MetricChart, r: float, nodes: int) -> DistanceField:
    """The eikonal distance field from the base point that measures the
    geodesic r-ball: halfwidth max(1.6 r, r + 2), kept inside the chart box."""
    hw = min(chart.box_halfwidth - float(np.max(np.abs(chart.base_point))),
             max(1.6 * r, r + 2.0))
    return DistanceField(chart, chart.base_point, hw, nodes=nodes)


def gh_distortion(chart: MetricChart, triple: HarmonicTriple, r: float,
                  n_pairs: int, seed: int, dist_field: DistanceField) -> DistortionReport:
    """Sampled distortion of the map u over pairs in the geodesic r-ball.

    Per-pair defect |d(x, y) - |u(x) - u(y)||; pairs whose two-point solve
    fails are excluded and counted (they must stay under 1% in acceptance
    runs).  ortho_l1 is the cell integral over the ball of
    sum_ij |<grad u^i, grad u^j> - delta^ij|, the ball being the nodes
    that dist_field (see ball_distance_field) puts within r.
    """
    pts = sample_geodesic_ball(chart, triple, r, 2 * n_pairs, seed,
                               label=f"distort-{r}")
    xs, ys = pts[:n_pairs], pts[n_pairs:]
    d, _, _, conv = distance_batch(chart, xs, ys)
    u_xs = triple.u_map(xs)
    u_ys = triple.u_map(ys)
    defects = np.abs(d - np.linalg.norm(u_xs - u_ys, axis=1))
    defects = defects[conv]
    n_failed = int(np.sum(~conv))
    if len(defects) == 0:
        raise NoConvergence("every distortion pair failed to converge")
    quant = np.percentile(np.sort(defects), [50.0, 90.0, 99.0])

    nodes = triple.grid.points()
    node_d = dist_field.at(nodes.reshape(-1, 3)).reshape(nodes.shape[:-1])
    in_ball = (node_d <= r) & ~triple.excluded
    ortho_l1 = float(np.sum(triple.gram_defect[in_ball]
                            * triple.volume_weights()[in_ball]))
    return DistortionReport(r=float(r), n_pairs=int(n_pairs),
                            max_defect=float(np.max(defects)),
                            defect_p50=float(quant[0]), defect_p90=float(quant[1]),
                            defect_p99=float(quant[2]), ortho_l1=ortho_l1,
                            n_failed_pairs=n_failed)


# ---------------------------------------------------------------------------
# gradient flows


@dataclass
class FlowTrace:
    start: tuple
    times: tuple                 # flow times per axis, in axis order 1, 2, 3
    picked: tuple                # the three mean-value-picked intermediates
    segment_ends: tuple          # endpoints of the three flow legs
    end: tuple
    u_error: float
    displacements: tuple         # geodesic d(picked_j, segment_end_j) per leg

    def to_polyline_dict(self):
        return {"start": list(self.start), "times": list(self.times),
                "picked": [list(p) for p in self.picked],
                "segment_ends": [list(p) for p in self.segment_ends],
                "end": list(self.end), "u_error": self.u_error}


def _flow_rhs(triple: HarmonicTriple, axis: int, sign: float):
    interp = triple.grad_interp[axis]

    def rhs(t, x):
        return sign * interp(x)

    return rhs


def _flow_batch(triple: HarmonicTriple, axis: int, starts, t: float, n_steps: int):
    """Fixed-step RK4 flow of many seeds through the interpolated gradient."""
    interp = triple.grad_interp[axis]
    sign = 1.0 if t >= 0 else -1.0
    dt = abs(t) / n_steps
    x = np.array(starts, float, copy=True)
    samples = [x.copy()]
    lim = triple.grid.halfwidth - 2 * triple.grid.h

    def f(q):
        return sign * interp(np.clip(q, -lim, lim))

    for _ in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        samples.append(x.copy())
    return x, np.stack(samples, axis=1)


def gradient_flow_step(chart: MetricChart, triple: HarmonicTriple, start, axis: int,
                       t: float, rho: float, seed: int, r_limit: float,
                       d_p_start: float = 0.0):
    """One mean-value-perturbed leg of the gradient flow of u^axis.

    Checks the ball-budget precondition d(p, start) + grad_sup |t| + rho
    < r_limit, picks the start y* among MV_SAMPLES candidates in
    B_rho(start) scoring the flow-integrated frame-orthonormality defect,
    then integrates dx/ds = grad u^axis over time t with an adaptive
    solver.  Returns (y*, end); a leg with t = 0 returns (start, start).
    """
    start = np.asarray(start, float)
    gsup = triple.grad_sup
    if d_p_start + gsup * abs(t) + rho >= r_limit:
        raise ValueError("flow step violates its ball budget: "
                         f"{d_p_start:.3f} + {gsup:.3f}*{abs(t):.3f} + {rho:.3f} "
                         f">= {r_limit:.3f}")
    defect_interp = triple.gram_defect_interp
    n_score_steps = max(24, int(8 * abs(t) / triple.grid.h))
    lim = triple.grid.halfwidth - 2 * triple.grid.h

    if abs(t) < 1e-14:
        return start.copy(), start.copy()

    def score(cands):
        _, samples = _flow_batch(triple, axis, cands, t, n_score_steps)
        scores = segment_functional(np.clip(samples, -lim, lim), abs(t), defect_interp)
        return np.where(scores < SCORE_FLOOR, 0.0, scores)

    y_star, _ = mean_value_pick(chart, start, rho, score, MV_SAMPLES, seed,
                                label=f"flow-{axis}")
    sign = 1.0 if t >= 0 else -1.0

    def exit_event(s, x):
        return lim - np.max(np.abs(x))
    exit_event.terminal = True

    sol = solve_ivp(_flow_rhs(triple, axis, sign), (0.0, abs(t)), y_star,
                    method="RK45", rtol=1e-10, atol=1e-12, events=exit_event)
    if sol.status == 1 or not sol.success:
        raise LeftDomain(f"gradient flow exited the usable grid box (axis {axis})")
    return y_star, sol.y[:, -1]


def reach_points(chart: MetricChart, triple: HarmonicTriple, targets, rho: float,
                 seeds):
    """Three-leg gradient-flow constructions aiming u at Euclidean targets.

    Each trace starts from the base point and flows along grad u^1, u^2,
    u^3 for times equal to its target's components (mean-value-perturbing
    each leg start, seeded by seeds[k] + 7 axis); u_error is
    |u(end) - target|.  The ball budget of a trace is
    3 (grad_sup + 1) max(|target| + 0.05 grad_sup rho, rho, 1).

    The traces run in lockstep, one leg of every trace at a time.  The next
    leg's budget check reads d(p, end), or the chord length of p -> end
    where that certifies the check (see _chord_certified): d(p, end) is
    shot only for the traces whose chord does not, one distance_batch per
    leg that has any.  The displacements d(y*, end) of all moving legs are
    one distance_batch after the last leg, so a run whose budgets all
    certify makes one.  Pair solves do not depend on their batch, so
    trace k is the same as reach_point(targets[k], seed=seeds[k]) bit for
    bit.
    """
    targets = np.atleast_2d(np.asarray(targets, float))
    n = len(targets)
    gsup = triple.grad_sup
    r_limits = np.array([3.0 * (gsup + 1.0)
                         * max(float(np.linalg.norm(t)) + gsup * 0.05 * rho, rho, 1.0)
                         for t in targets])
    p = np.asarray(chart.base_point, float)
    current = np.broadcast_to(p, targets.shape).copy()
    d_p_current = np.zeros(n)
    picked = np.empty((n, 3, 3))          # [trace, leg]: the leg's start y*
    seg_ends = np.empty((n, 3, 3))        # [trace, leg]: the leg's end
    for axis in range(3):
        for k in range(n):
            picked[k, axis], seg_ends[k, axis] = gradient_flow_step(
                chart, triple, current[k], axis, float(targets[k, axis]), rho,
                seeds[k] + 7 * axis, float(r_limits[k]),
                d_p_start=float(d_p_current[k]))
        current = seg_ends[:, axis].copy()
        if axis < 2:
            # room the next leg's budget leaves for d(p, end)
            room = r_limits - gsup * np.abs(targets[:, axis + 1]) - rho
            d_p_current = _chord_lengths(chart, p, current, 2 * CHORD_NODES)
            shoot = ~_chord_certified(chart, p, current, room)
            if np.any(shoot):
                ends = current[shoot]
                d, _, _, conv = distance_batch(chart, np.broadcast_to(p, ends.shape),
                                               ends)
                d_p_current[shoot] = np.where(conv, d, local_distance(chart, p, ends))
    moving = np.abs(targets) >= 1e-14
    displacements = np.zeros((n, 3))
    if np.any(moving):
        starts, ends = picked[moving], seg_ends[moving]
        d, _, _, conv = distance_batch(chart, starts, ends)
        displacements[moving] = np.where(conv, d, local_distance(chart, starts, ends))
    traces = []
    for k in range(n):
        err_vec = triple.u_map(current[k]) - targets[k]
        traces.append(FlowTrace(start=tuple(p), times=tuple(float(t) for t in targets[k]),
                                picked=tuple(map(tuple, picked[k])),
                                segment_ends=tuple(map(tuple, seg_ends[k])),
                                end=tuple(current[k]),
                                u_error=float(np.linalg.norm(err_vec)),
                                displacements=tuple(float(v) for v in displacements[k])))
    return traces


def reach_point(chart: MetricChart, triple: HarmonicTriple, target, rho: float,
                seed: int) -> FlowTrace:
    """The three-leg flow construction for one target; see reach_points."""
    return reach_points(chart, triple, [target], rho, [seed])[0]


def flow_coverage(chart: MetricChart, triple: HarmonicTriple, radius: float,
                  n_targets: int, seed: int, rho: float | None = None):
    """Flow traces toward seeded targets in the Euclidean ball of `radius`.

    Returns (traces, image_hausdorff) where image_hausdorff is the largest
    |u(w) - target| over the batch: the one-sided Hausdorff gap between the
    sampled Euclidean ball and the reached image points.
    """
    rng = rng_for(seed, "flow-targets")
    if rho is None:
        rho = 2.0 * triple.grid.h
    dirs = rng.normal(size=(n_targets, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=n_targets) ** (1.0 / 3.0)
    targets = dirs * radii[:, None]
    traces = reach_points(chart, triple, targets, rho,
                          [seed + 1000 + k for k in range(n_targets)])
    hausdorff = max(tr.u_error for tr in traces)
    return traces, float(hausdorff)


# ---------------------------------------------------------------------------
# the stability sweep


@dataclass
class StabilityReport:
    family: str
    parameter: float
    N: int
    R_out: float
    mass: float = float("nan")
    hessian_l2: float = float("nan")
    grad_sup: float = float("nan")
    ortho_l1: float = float("nan")
    defect_p50: float = float("nan")
    defect_p90: float = float("nan")
    defect_max: float = float("nan")
    image_hausdorff: float = float("nan")
    pythagorean_median: float = float("nan")
    psi_l1: float = float("nan")
    ricci_kappa: float = float("nan")
    scalar_min: float = float("nan")
    af_ok: bool = False
    slack: float = float("nan")
    rhs_integral: float = float("nan")
    cheng_yau: float = float("nan")
    residual_norms: tuple = ()
    stages: dict = field(default_factory=dict)
