"""The coordinate map u = (u^1, u^2, u^3): distortion, gradient flows,
and the small-mass stability sweep.

Pointed Gromov-Hausdorff distance itself is never computed (the
correspondence search is infeasible); instead the two quantities that
bound it are measured: the sampled-pair distortion of u on a geodesic
ball, and one-sided coverage of the Euclidean ball by the image of the
three-step gradient-flow construction.

Membership in the geodesic ball is decided by certificates where they
suffice and by shots where they do not.  The chord length of p -> x
bounds d(p, x) from above (see _chord_certified), and |x - p| times the
square of a lower bound of phi bounds it from below; a candidate or grid
node that neither decides is shot from p.  The shots ride as extra rows
of a distance batch that runs anyway: the grid nodes the distortion
integrates over and the undecided candidates of its sample share the
batch of its pairs, and the candidates of the Pythagorean sample share
the records' closing batch.  A candidate is guessed out, and the sample
is drawn again on the shot verdicts until the guess holds (see
consume_geodesic_ball).

A flow leg is integrated once: the mean-value candidates of its start
flow as fixed-step RK4 rows (geodesy.rk4_steps, the RK4 loop the
geodesics use), the sampled paths are scored by segment_functional, and
the picked candidate's path is the leg, as the level-set projections
keep the geodesic that scored their pick.  Leg j of every trace runs in
lockstep: the candidates of all traces with the same step count are one
RK4 batch, each row with its own step size and sign.  The flow stage
shoots no geodesic where chords decide: a leg's displacement d(y*, end)
is bounded by its chord length when that certifies the displacement
bound (displacement_bound), and so is d(p, end) for the next leg's
budget check; only the legs and ends that their chords leave undecided
are shot.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySample, LeftDomain, NoConvergence, NoDistanceBound
from .geodesy import (distance_batch, mean_value_candidates, mean_value_rule,
                      rk4_steps, segment_functional, MV_SAMPLES, SCORE_FLOOR)
from .geometry import MetricChart
from .harmonic import HarmonicTriple
from .seeding import ball_offsets, rng_for


@dataclass
class DistortionReport:
    """Distortion of u over sampled pairs of the geodesic r-ball: quantiles
    of the pair defects, the Gram-defect integral, the failed pairs, and
    the grid nodes whose ball membership a shot failed to decide."""

    r: float
    n_pairs: int
    max_defect: float
    defect_p50: float
    defect_p90: float
    defect_p99: float
    ortho_l1: float
    n_failed_pairs: int
    n_failed_nodes: int


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

    p is one start (3,) or one start per row (K, 3).  The chord is an
    admissible curve, so its length bounds d(p, x) from above; near the
    puncture phi^2 is singular and the rule may undershoot.
    """
    s, w = _unit_gauss_legendre(n_nodes)
    seg = np.asarray(xs, float) - p
    phi = chart.conformal_factor(p + s[:, None, None] * seg)
    # node by node, so a row's bits do not depend on its batch (a matrix
    # product sums in an order that does)
    total = np.zeros(len(seg))
    for wk, phik in zip(w, phi):
        total += wk * phik**2
    return total * np.linalg.norm(seg, axis=1)


def _chord_certified(chart: MetricChart, p, xs, r: float, hi=None):
    """Candidates whose chord length certifies d(p, x) < r without a shot;
    hi, when given, holds their 2 CHORD_NODES-point lengths already formed."""
    bound = r * (1.0 - CHORD_MARGIN)
    lo = _chord_lengths(chart, p, xs, CHORD_NODES)
    if hi is None:
        hi = _chord_lengths(chart, p, xs, 2 * CHORD_NODES)
    return (lo < bound) & (hi < bound) & (np.abs(lo - hi) <= CHORD_AGREE * hi)


def _replay_ball(chart: MetricChart, triple: HarmonicTriple, r: float, n_points: int,
                 seed: int, label: str, verdicts: dict):
    """The rejection loop of sample_geodesic_ball, reading the verdict of
    each candidate it would shoot from `verdicts` (candidate bytes -> in).

    A candidate missing there is taken as out and returned as assumed.
    Returns the kept points (fewer than n_points when the loop stalls) and
    the (K, 3) assumed candidates.
    """
    p = np.asarray(chart.base_point, float)
    rng = rng_for(seed, label)
    pts, assumed = [], []
    budget = 12
    while len(pts) < n_points and budget > 0:
        need = max(8, int(1.3 * (n_points - len(pts))))
        cands = p + ball_offsets(rng, need, r)
        cands = cands[np.all(np.abs(cands) <= triple.grid.halfwidth - 2 * triple.grid.h,
                             axis=1)]
        if len(cands) == 0:
            budget -= 1
            continue
        good = _chord_certified(chart, p, cands, r)
        shoot = ~good
        filled = np.cumsum(good) >= n_points - len(pts)
        if filled[-1]:
            shoot[np.argmax(filled) + 1:] = False
        for k in np.flatnonzero(shoot):
            verdict = verdicts.get(cands[k].tobytes())
            if verdict is None:
                assumed.append(cands[k])
            else:
                good[k] = verdict
        pts.extend(cands[good])
        budget -= 1
    return pts, np.reshape(assumed, (-1, 3))


def consume_geodesic_ball(chart: MetricChart, triple: HarmonicTriple, r: float,
                          n_points: int, seed: int, label: str, consume=None):
    """The sample of sample_geodesic_ball and what `consume` makes of it,
    its undecided candidates shot in the consumer's own distance batch.

    Each step replays the rejection loop on the verdicts shot so far
    (_replay_ball), guessing every candidate not yet shot to be out, then
    runs consume(points, cands) on the sample that guess gives, with the
    assumed candidates as extra rows p -> cands of its batch; consume
    returns (result, d, converged), the last two for those rows only.  A
    candidate is in when its shot converges with d <= r.  The steps end
    when a replay assumes nothing and the consumer has run on an equal
    sample.  Every row of a distance batch is batch-invariant, so that
    replay reads real verdicts only and keeps what the sequential loop
    keeps, bit for bit; a wrong guess costs one more step.  A replay that
    stalls under its guesses shoots its assumed candidates alone.  Without
    a consumer the candidates are shot alone.  Returns (the (n_points, 3)
    points, consume's result, or None without a consumer).
    """
    p = np.asarray(chart.base_point, float)
    verdicts = {}
    consumed = None            # (sample, result) of the last consumer run
    while True:
        pts, assumed = _replay_ball(chart, triple, r, n_points, seed, label, verdicts)
        sample = np.array(pts[:n_points]) if len(pts) >= n_points else None
        if len(assumed) == 0:
            if sample is None:
                raise NoConvergence("geodesic-ball sampling stalled at "
                                    f"{len(pts)}/{n_points}")
            if consume is None:
                return sample, None
            if consumed is None or not np.array_equal(consumed[0], sample):
                consumed = sample, consume(sample, assumed)[0]
            return consumed
        if consume is None or sample is None:
            d, _, _, conv = distance_batch(chart, np.broadcast_to(p, assumed.shape),
                                           assumed)
        else:
            result, d, conv = consume(sample, assumed)
            consumed = sample, result
        verdicts.update((c.tobytes(), bool(v)) for c, v in zip(assumed, conv & (d <= r)))


def sample_geodesic_ball(chart: MetricChart, triple: HarmonicTriple, r: float,
                         n_points: int, seed: int, label: str = "ball"):
    """Seeded points of the geodesic r-ball around the base point.

    Rejection sampling from the chart-Euclidean r-ball, then the geodesic
    filter: a candidate whose chord length certifies d(p, x) < r (see
    _chord_certified) is kept without a shot; the others are shot from p
    and kept when the shot converges with d <= r.  Candidate order and the
    draws do not depend on which test kept a candidate.  Once the certified
    candidates of a round fill what is missing, the later ones are cut
    away whatever their verdict, so they are not shot.  The candidates are
    shot in batches of their own (consume_geodesic_ball with no consumer);
    a stage that uses the sample shoots them in its own batch instead.
    Returns the (n_points, 3) points only.
    """
    return consume_geodesic_ball(chart, triple, r, n_points, seed, label)[0]


def _phi_floor(chart: MetricChart) -> float:
    """A positive lower bound of phi over the chart: 1 plus the negative
    Gaussian and bump amplitudes, each term being at least its amplitude
    where that is negative.  A negative monopole, or terms that sum to
    phi <= 0, leave no such bound and raise NoDistanceBound."""
    lo = 1.0 + sum(min(0.0, term[1] if term[0] == "gauss" else term[1].amplitude)
                   for term in chart.bumps)
    if chart.monopole_amplitude < 0.0 or lo <= 0.0:
        raise NoDistanceBound(f"phi of the {chart.family} chart has no positive lower "
                              "bound; the geodesic ball has no Euclidean bound")
    return lo


def _ball_nodes(chart: MetricChart, nodes, kept, r: float):
    """The kept (M, 3) nodes of the geodesic r-ball that certificates
    decide, and the ones that need a shot.

    A node x is in when its chord certifies d(p, x) < r (_chord_certified),
    and out when |x - p| phi_lo^2 > r, phi_lo being _phi_floor; the rest
    must be shot from p (a chord through the puncture starts its shot from
    the bent chord, see geodesy._extrapolated_seed).  Returns the (M,) mask
    of the certified nodes and the indices of the nodes to shoot.
    """
    p = np.asarray(chart.base_point, float)
    near = np.flatnonzero(kept & (np.linalg.norm(nodes - p, axis=1)
                                  * _phi_floor(chart) ** 2 <= r))
    cert = _chord_certified(chart, p, nodes[near], r)
    in_ball = np.zeros(len(nodes), bool)
    in_ball[near[cert]] = True
    return in_ball, near[~cert]


def gh_distortion(chart: MetricChart, triple: HarmonicTriple, r: float,
                  n_pairs: int, seed: int) -> DistortionReport:
    """Sampled distortion of the map u over pairs in the geodesic r-ball.

    Per-pair defect |d(x, y) - |u(x) - u(y)||; pairs whose two-point solve
    fails are excluded and counted (they must stay under 1% in acceptance
    runs).  ortho_l1 is the cell integral over the ball of
    sum_ij |<grad u^i, grad u^j> - delta^ij|, the ball being the kept grid
    nodes x with d(p, x) <= r: certified in or out by _ball_nodes, else in
    when a shot p -> x converges with d <= r.  The pairs come from
    consume_geodesic_ball, and one distance_batch holds the rows
    [pairs | nodes | ball candidates]: the nodes' shots ride its first
    batch only, and every row is the same as alone.  The nodes whose shot
    fails are out and counted in n_failed_nodes.
    """
    nodes = triple.grid.points().reshape(-1, 3)
    in_ball, shoot = _ball_nodes(chart, nodes, ~triple.excluded.ravel(), r)
    p = np.asarray(chart.base_point, float)
    node_shots = []              # (d, converged) of the nodes, from the first batch

    def pair_distances(pts, cands):
        extra = cands if node_shots else np.concatenate([nodes[shoot], cands])
        d, _, _, conv = distance_batch(
            chart, np.concatenate([pts[:n_pairs], np.broadcast_to(p, extra.shape)]),
            np.concatenate([pts[n_pairs:], extra]))
        if not node_shots:
            node_shots.append((d[n_pairs:n_pairs + len(shoot)],
                               conv[n_pairs:n_pairs + len(shoot)]))
        tail = slice(len(d) - len(cands), None)
        return (d[:n_pairs], conv[:n_pairs]), d[tail], conv[tail]

    pts, (d, conv) = consume_geodesic_ball(chart, triple, r, 2 * n_pairs, seed,
                                           f"distort-{r}", pair_distances)
    xs, ys = pts[:n_pairs], pts[n_pairs:]
    d_nodes, conv_nodes = node_shots[0]
    in_ball[shoot] = conv_nodes & (d_nodes <= r)
    in_ball = in_ball.reshape(triple.excluded.shape)
    n_failed_nodes = int(np.sum(~conv_nodes))
    u_xs = triple.u_map(xs)
    u_ys = triple.u_map(ys)
    defects = np.abs(d - np.linalg.norm(u_xs - u_ys, axis=1))
    defects = defects[conv]
    n_failed = int(np.sum(~conv))
    if len(defects) == 0:
        raise NoConvergence("every distortion pair failed to converge")
    quant = np.percentile(np.sort(defects), [50.0, 90.0, 99.0])

    ortho_l1 = float(np.sum(triple.gram_defect[in_ball]
                            * triple.volume_weights()[in_ball]))
    return DistortionReport(r=float(r), n_pairs=int(n_pairs),
                            max_defect=float(np.max(defects)),
                            defect_p50=float(quant[0]), defect_p90=float(quant[1]),
                            defect_p99=float(quant[2]), ortho_l1=ortho_l1,
                            n_failed_pairs=n_failed, n_failed_nodes=n_failed_nodes)


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
    displacements: tuple         # d(picked_j, segment_end_j), or its certifying chord bound

    def to_polyline_dict(self):
        return {"start": list(self.start), "times": list(self.times),
                "picked": [list(p) for p in self.picked],
                "segment_ends": [list(p) for p in self.segment_ends],
                "end": list(self.end), "u_error": self.u_error}


def displacement_bound(grad_sup: float, t):
    """The most a flow leg of time t may move: d(y*, end) <= grad_sup |t|
    times 1.001, plus 1e-12 (for t a scalar or an array)."""
    return grad_sup * np.abs(t) * 1.001 + 1e-12


def _flow_batch(triple: HarmonicTriple, axis: int, starts, t, n_steps: int):
    """Fixed-step RK4 flow of many seeds through the interpolated gradient,
    evaluated at the points clipped to the usable box; t is one flow time,
    or a (K,) array of one per row, whose step |t| / n_steps and sign ride
    as (K, 1) columns.  Returns the (K, 3) ends and the (K, n_steps + 1, 3)
    samples at every step."""
    interp = triple.grad_interp[axis]
    t = np.asarray(t, float)
    if t.ndim:
        t = t[:, None]
    sign = np.where(t >= 0, 1.0, -1.0)
    lim = triple.grid.halfwidth - 2 * triple.grid.h

    def slope(q, out):
        np.multiply(interp(np.clip(q, -lim, lim)), sign, out=out)

    return rk4_steps(slope, np.array(starts, float), np.abs(t) / n_steps, n_steps,
                     record_every=1)


def _flow_legs(chart: MetricChart, triple: HarmonicTriple, starts, axis: int, times,
               rho: float, seeds, r_limits, d_p_starts):
    """Leg `axis` of K traces in lockstep: row k is the mean-value-perturbed
    leg of time times[k] from starts[k] (see gradient_flow_step), seeded by
    seeds[k], under the ball budget r_limits[k] with d(p, start) given by
    d_p_starts[k].

    The candidates of every moving leg with the same step count
    max(24, 8 |t| / h) flow as one _flow_batch and are scored by one
    segment_functional call; each row's arithmetic is elementwise, so a
    leg is the same as alone, bit for bit.  The checks keep the order of
    a loop over the traces: the first trace whose budget, candidates, pick
    or path fails raises what that loop would.  Returns the (K, 3) picked
    starts y* and the (K, 3) ends; a leg with t = 0 returns (start, start).
    """
    starts = np.asarray(starts, float)
    gsup, h = triple.grad_sup, triple.grid.h
    lim = triple.grid.halfwidth - 2 * h
    failed = {}                  # trace -> what its budget or candidates raised
    groups = {}                  # n_steps -> [(trace, cands, has_center)]
    for k, t in enumerate(times):
        if d_p_starts[k] + gsup * abs(t) + rho >= r_limits[k]:
            failed[k] = ValueError("flow step violates its ball budget: "
                                   f"{d_p_starts[k]:.3f} + {gsup:.3f}*{abs(t):.3f} + "
                                   f"{rho:.3f} >= {r_limits[k]:.3f}")
        elif abs(t) >= 1e-14:
            try:
                cands, has_center = mean_value_candidates(chart, starts[k], rho, MV_SAMPLES,
                                                          seeds[k], label=f"flow-{axis}")
            except (ValueError, EmptySample) as exc:
                failed[k] = exc
                continue
            n_steps = max(24, int(8 * abs(t) / h))
            groups.setdefault(n_steps, []).append((k, cands, has_center))
    legs = {}                    # trace -> (cands, has_center, samples, scores)
    for n_steps, group in groups.items():
        sizes = [len(cands) for _, cands, _ in group]
        row_t = np.repeat([times[k] for k, _, _ in group], sizes)
        _, samples = _flow_batch(triple, axis, np.concatenate([c for _, c, _ in group]),
                                 row_t, n_steps)
        scores = segment_functional(np.clip(samples, -lim, lim), np.abs(row_t),
                                    triple.gram_defect_interp)
        scores = np.where(scores < SCORE_FLOOR, 0.0, scores)
        cuts = np.cumsum(sizes)[:-1]
        for (k, cands, has_center), paths, score in zip(group, np.split(samples, cuts),
                                                        np.split(scores, cuts)):
            legs[k] = cands, has_center, paths, score
    picked, ends = starts.copy(), starts.copy()
    for k in range(len(starts)):
        if k in failed:
            raise failed[k]
        if k in legs:
            cands, has_center, paths, score = legs[k]
            j = mean_value_rule(score, has_center)
            if np.max(np.abs(paths[j])) >= lim:
                raise LeftDomain(f"gradient flow exited the usable grid box (axis {axis})")
            picked[k], ends[k] = cands[j], paths[j, -1]
    return picked, ends


def gradient_flow_step(chart: MetricChart, triple: HarmonicTriple, start, axis: int,
                       t: float, rho: float, seed: int, r_limit: float):
    """One mean-value-perturbed leg of the gradient flow of u^axis, the
    one-row case of _flow_legs with d(p, start) taken as 0.

    Checks the ball-budget precondition grad_sup |t| + rho < r_limit,
    flows the MV_SAMPLES candidates in B_rho(start) along
    dx/ds = grad u^axis over time t as one fixed-step RK4 batch, scores
    each path by its integrated frame-orthonormality defect and picks the
    start y* by the mean-value rule.  The picked path is the leg: its last
    sample is the end, and a path that reaches the usable box's edge
    raises LeftDomain.  Returns (y*, end); a leg with t = 0 returns
    (start, start).
    """
    picked, ends = _flow_legs(chart, triple, np.asarray(start, float)[None], axis, [t],
                              rho, [seed], [r_limit], [0.0])
    return picked[0], ends[0]


def _chord_or_shot(chart: MetricChart, starts, ends, bound):
    """Upper bounds of d(starts[k], ends[k]) checked against bound[k]: the
    2 CHORD_NODES-point chord length where that certifies d below the bound
    (_chord_certified), else the length of a distance_batch shot, or the
    chord length when the shot fails; starts is (3,) or one per row (K, 3)."""
    chords = _chord_lengths(chart, starts, ends, 2 * CHORD_NODES)
    shoot = ~_chord_certified(chart, starts, ends, bound, hi=chords)
    if np.any(shoot):
        d, _, _, conv = distance_batch(chart, np.broadcast_to(starts, ends.shape)[shoot],
                                       ends[shoot])
        chords[shoot] = np.where(conv, d, chords[shoot])
    return chords


def reach_points(chart: MetricChart, triple: HarmonicTriple, targets, rho: float,
                 seeds):
    """Three-leg gradient-flow constructions aiming u at Euclidean targets.

    Each trace starts from the base point and flows along grad u^1, u^2,
    u^3 for times equal to its target's components (mean-value-perturbing
    each leg start, seeded by seeds[k] + 7 axis); u_error is
    |u(end) - target|.  The ball budget of a trace is
    3 (grad_sup + 1) max(|target| + 0.05 grad_sup rho, rho, 1).

    The traces run in lockstep: leg j of every trace is one _flow_legs
    call.  The next leg's budget check reads d(p, end), and a moving leg's
    displacement d(y*, end) against displacement_bound, each as an upper
    bound from _chord_or_shot: the chord length where that certifies the
    check, else a shot, one distance_batch per leg for the budgets and one
    after the last leg for the displacements, so a run whose chords all
    certify shoots no geodesic.  Every row of these steps is row-local, so
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
        picked[:, axis], seg_ends[:, axis] = _flow_legs(
            chart, triple, current, axis, targets[:, axis], rho,
            [seed + 7 * axis for seed in seeds], r_limits, d_p_current)
        current = seg_ends[:, axis].copy()
        if axis < 2:
            # room the next leg's budget leaves for d(p, end)
            room = r_limits - gsup * np.abs(targets[:, axis + 1]) - rho
            d_p_current = _chord_or_shot(chart, p, current, room)
    moving = np.abs(targets) >= 1e-14
    displacements = np.zeros((n, 3))
    if np.any(moving):
        displacements[moving] = _chord_or_shot(chart, picked[moving], seg_ends[moving],
                                               displacement_bound(gsup, targets[moving]))
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
                  n_targets: int, seed: int):
    """Flow traces toward seeded targets in the Euclidean ball of `radius`,
    each leg start mean-value-picked in the ball of radius rho = 2h.

    Returns (traces, image_hausdorff) where image_hausdorff is the largest
    |u(w) - target| over the batch: the one-sided Hausdorff gap between the
    sampled Euclidean ball and the reached image points.
    """
    rng = rng_for(seed, "flow-targets")
    rho = 2.0 * triple.grid.h
    targets = ball_offsets(rng, n_targets, radius)
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
