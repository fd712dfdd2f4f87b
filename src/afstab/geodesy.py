"""Geodesics, distances, and the level-set diagnostics built on them.

Two-point distances (distance_batch, the one distance entry point) solve
the shooting boundary-value problem for the exponential map: Newton
iteration on the initial velocity of the geodesic equation
xdd^k + Gamma^k_ab xd^a xd^b = 0, integrated by fixed-step RK4 over unit
affine time, batched over many pairs at once with finite-difference
Jacobians.  rk4_steps is the one RK4 loop of the package; the gradient
flows of gh run through it too.  It updates preallocated column-major
stage buffers in place, so each operation runs contiguous loops over the
K rows; a geodesic stage buffer is [x | v | a], whose slope [v | a]
shares the velocity columns with the state.  Each RK4 stage makes one
MetricChart.christoffel_quadratic call, which takes a closed form on a
pure monopole chart and moves rows off a monopole puncture, each on its
own side.  A pass costs its step count in such calls whatever its rows,
so every full-resolution solve, of a distance or of a level-set
projection, is seeded by _extrapolated_seed: the same Newton solve at an
eighth of the steps, one Newton pass at a quarter, and a Richardson
extrapolation of the two to the full step count, from which a solve
typically freezes after one full pass.  Pairs the coarse solve does not
converge start from the straight chord, bent away from the puncture when
it runs through it, and pairs the full solve does not converge solve once
more from the bent chord.

Batches are invariant: a converged row is frozen out of later Newton
passes and every operation on a row is row-local, so a pair's distance is
the same bit for bit alone or in any batch.  The level-set projections
and Pythagorean records build on that to run many rows in lockstep, one
Newton batch per stage step instead of one per record; the projections
take their candidate geodesics from the Newton passes that solved them
and score them with segment_functional, the trapezoid integral of
sum_j |Hess u^j|_g along the sampled trajectories.

DistanceField is a first-order upwind eikonal solve of |grad T|_g = 1
from one point.  It runs the Jacobi iteration to its fixed point (the
fast-marching solution), but each sweep updates only the nodes next to a
node that moved in the sweep before; the others would keep their values
anyway.  No stage reads it: the geodesic ball of the distortion comes
from chord certificates and shots (see gh.gh_distortion), and near the
puncture the first-order field overestimates distance.  It stays for
the Bishop-Gromov volume comparison of the tests and for the benchmark's
tracer, which times its construction.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (AfstabError, EmptySample, NoConvergence, NoCrossing,
                     OutOfDomain)
from .geometry import MetricChart
from .grid import Trilinear
from .harmonic import HarmonicTriple
from .seeding import ball_offsets, rng_for


def metric_speed(chart: MetricChart, x, v):
    """|v|_g at x, batched: sqrt((phi^4 v_0 v_0 + phi^4 v_1 v_1) + phi^4 v_2 v_2),
    the order of np.einsum on the tensor phi^4 delta.  phi^4 is an array
    power even at a single point, where conformal_factor returns a numpy
    scalar: a scalar's ** differs from the array loop in the last bit."""
    terms = chart.conformal_factor(x)[..., None] ** 4 * v * v
    return np.sqrt((terms[..., 0] + terms[..., 1]) + terms[..., 2])


def local_distance(chart: MetricChart, a, b):
    """Chord-quadrature distance for small separations.

    Simpson rule on |b-a|_g along the straight chart segment; this is the
    small-separation limit of the shooting distance (the deviation of the
    true geodesic from the chord enters at third order in separation).
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    mid = 0.5 * (a + b)
    d = b - a
    return (metric_speed(chart, a, d) + 4.0 * metric_speed(chart, mid, d)
            + metric_speed(chart, b, d)) / 6.0


def rk4_steps(slope, y, dt, n_steps: int, record_every: int = 0, tied: int = 0):
    """Fixed-step classical RK4 of dy/ds = slope(y) from state y, the one
    RK4 loop of the geodesics and the gradient flows.

    y is a (K, D) state whose first three columns are the position; dt is
    one step size, or a (K, 1) column of one per row (the lockstep flow
    legs), which every update broadcasts elementwise.  Each
    RK4 stage keeps its state and its slope in one preallocated
    column-major (K, 2D - tied) buffer: the state is its first D columns
    and the slope its last D, so the slope's first `tied` columns are the
    state's last ones (a geodesic's position slope is its velocity, a view
    rather than a copy).  slope(q, out) writes the slope's other D - tied
    columns at the stage state q into out.  Every update is in place, and
    column-major buffers make each (K, .) operation a few contiguous loops
    of length K.  The arithmetic is that of y + hdt * k1, ..., then
    y + dt * (k1 + 2 k2 + 2 k3 + k4) / 6, bit for bit.

    Returns a C-ordered copy of the state after n_steps steps of size dt,
    and the (K, M, 3) positions at the start, every record_every-th step
    and the last step (None when record_every is 0).
    """
    y0 = np.asarray(y, dtype=float)
    K, D = y0.shape
    bufs = [np.empty((K, 2 * D - tied), order="F") for _ in range(4)]
    q1, q2, q3, q4 = (b[:, :D] for b in bufs)           # the stage states
    k1, k2, k3, k4 = (b[:, D - tied:] for b in bufs)    # their slopes
    o1, o2, o3, o4 = (b[:, D:] for b in bufs)           # what slope() writes
    y = q1
    y[...] = y0
    t, u = np.empty((K, D), order="F"), np.empty((K, D), order="F")
    samples = None
    if record_every:
        # the start, every record_every-th step, and the last if not one
        samples = np.empty((K, 1 + n_steps // record_every
                            + bool(n_steps % record_every), 3))
        samples[:, 0] = y[:, :3]
        m = 1
    hdt = 0.5 * dt
    for step in range(n_steps):
        slope(q1, o1)
        np.add(y, np.multiply(k1, hdt, out=t), out=q2)
        slope(q2, o2)
        np.add(y, np.multiply(k2, hdt, out=t), out=q3)
        slope(q3, o3)
        np.add(y, np.multiply(k3, dt, out=t), out=q4)
        slope(q4, o4)
        # y += dt * (k1 + 2 k2 + 2 k3 + k4) / 6, in that operation order
        np.multiply(k2, 2.0, out=t)
        t += k1
        t += np.multiply(k3, 2.0, out=u)
        t += k4
        t *= dt
        t /= 6.0
        y += t
        if record_every and ((step + 1) % record_every == 0 or step == n_steps - 1):
            samples[:, m] = y[:, :3]
            m += 1
    return y.copy(), samples


def _rk4_batch(chart: MetricChart, x0, w, n_steps, record_every=0):
    """Integrate the geodesic equation over unit affine time for a batch.

    x0, w: (K, 3) starts and initial velocities; returns the (K, 3) end
    points and velocities.  With record_every > 0, also returns sampled
    trajectory points of shape (K, M, 3) including both endpoints.

    Each stage of rk4_steps holds one column-major (K, 9) buffer
    [x | v | a]: the state is [x | v], the slope [v | a] with
    a = -Gamma(v, v), one christoffel_quadratic call per stage on the x and
    v columns, and each RK4 update runs on contiguous columns of length K.
    Every operation is elementwise, so a row's bits do not depend on K.
    """
    y = np.concatenate([np.asarray(x0, float), np.asarray(w, float)], axis=1)

    def slope(q, out):
        np.negative(chart.christoffel_quadratic(q[:, :3], q[:, 3:]), out=out)

    y, samples = rk4_steps(slope, y, 1.0 / n_steps, n_steps, record_every, tied=3)
    x, v = y[:, :3].copy(), y[:, 3:].copy()
    return (x, v, samples) if record_every else (x, v)


def _newton_steps(J, E):
    """Per-row solutions of J step = E; a singular row alone gets the
    pseudo-inverse, so one row's conditioning never changes another's step."""
    try:
        return np.linalg.solve(J, E[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(J) == 1:
            return np.einsum("kij,kj->ki", np.linalg.pinv(J), E)
        return np.concatenate([_newton_steps(J[i:i + 1], E[i:i + 1])
                               for i in range(len(J))])


def _shoot(chart: MetricChart, starts, targets, w, n_steps, record=False):
    """The shots of one Newton pass: the endpoint misses E = x(1) - target
    of the unit-time geodesics from starts at w, their forward-difference
    Jacobians dE/dw (steps of 1e-7 max(1, |w|) along each axis), and with
    record the (K, n_steps + 1, 3) trajectories at w (else None).  The
    4K rows run as one _rk4_batch."""
    k = len(w)
    eye = np.eye(3)
    delta = 1e-7 * np.maximum(1.0, np.linalg.norm(w, axis=1))
    stacked_x = np.concatenate([starts] * 4, axis=0)
    stacked_w = np.concatenate([w] + [w + delta[:, None] * eye[j]
                                      for j in range(3)], axis=0)
    ends, _, *traj = _rk4_batch(chart, stacked_x, stacked_w, n_steps,
                                record_every=int(record))
    E = ends[:k] - targets
    J = np.stack([(ends[(j + 1) * k:(j + 2) * k] - ends[:k]) / delta[:, None]
                  for j in range(3)], axis=-1)
    return E, J, (traj[0][:k] if record else None)


# Newton passes of a shooting solve; a row not frozen by then is left
# unconverged.
NEWTON_PASSES = 16


def _bvp_batch(chart: MetricChart, starts, targets, w0=None, n_steps=160,
               rel_target=1e-9, record=False, stepped=False):
    """Batched Newton shooting for the endpoint map, at most NEWTON_PASSES
    passes.

    Returns (w, residual, converged) where w are initial velocities whose
    unit-time geodesics end nearest the targets; residual is the chart
    distance of the endpoint miss; converged marks pairs that met
    1e-6 * separation (the shipping tolerance; iteration aims lower).
    With record, also returns the (K, n_steps + 1, 3) trajectories of
    those w at every step, kept from the Newton pass that integrated them.
    With stepped, also returns (last) the velocity one full Newton step
    past w for each row the solve froze, from the Jacobian of the pass
    that froze it (NaN for the rows it never froze); that pass forms the
    step anyway, so it costs no integration.

    A row is frozen once its best residual meets rel_target * separation:
    later passes integrate and step only the rows still active.  Every
    operation on a row is row-local, so each row takes exactly the Newton
    iterates it would take alone, and the result for a pair is the same
    bit for bit whatever batch it is solved in.
    """
    starts = np.atleast_2d(np.asarray(starts, float))
    targets = np.atleast_2d(np.asarray(targets, float))
    K = len(starts)
    w = (targets - starts).copy() if w0 is None else np.array(w0, float, copy=True)
    sep = np.linalg.norm(targets - starts, axis=1)
    scale = np.maximum(sep, 1e-12)
    best_w = w.copy()
    best_res = np.full(K, np.inf)
    stepped_w = np.full((K, 3), np.nan)
    lam = np.ones(K)           # per-pair Newton damping
    eye = np.eye(3)
    active = np.arange(K)
    best_traj = None
    for _ in range(NEWTON_PASSES):
        if len(active) == 0:
            break
        w_a = w[active]
        E, J, traj = _shoot(chart, starts[active], targets[active], w_a, n_steps,
                            record)
        res = np.linalg.norm(E, axis=1)
        prev = best_res[active]
        improved = res < prev
        worse = res > prev * (1.0 + 1e-9)
        lam_a = lam[active]
        lam_a = np.where(improved, np.minimum(1.0, 1.5 * lam_a),
                         np.where(worse, 0.5 * lam_a, lam_a))
        best_w[active[improved]] = w_a[improved]
        best_res[active[improved]] = res[improved]
        if record:
            # the first pass integrates every row at its starting w, which
            # stays its best w until an iterate improves on it
            if best_traj is None:
                best_traj = traj.copy()
            else:
                best_traj[active[improved]] = traj[improved]
        live = best_res[active] > rel_target * scale[active]
        # a row freezes in the pass that improved it, so its w is w_a
        step = _newton_steps(J + 1e-13 * eye, E)
        stepped_w[active[~live]] = w_a[~live] - step[~live]
        step = step[live]
        # damp and clip steps; a worsened row restarts at its best point and
        # resumes from there with the halved damping on the next pass
        rows = active[live]
        step_norm = np.linalg.norm(step, axis=1)
        cap = 2.0 * scale[rows]
        factor = lam_a[live] * np.minimum(1.0, cap / np.maximum(step_norm, 1e-300))
        factor = np.where(worse[live], 0.0, factor)
        w[rows] = (np.where(worse[live][:, None], best_w[rows], w_a[live])
                   - factor[:, None] * step)
        lam[rows] = lam_a[live]
        active = rows
    converged = best_res <= 1e-6 * scale
    return ((best_w, best_res, converged) + ((best_traj,) if record else ())
            + ((stepped_w,) if stepped else ()))


def geodesic_lengths(chart: MetricChart, starts, w):
    """Unit-affine-time geodesic length |w|_g at the start point."""
    return metric_speed(chart, np.atleast_2d(starts), np.atleast_2d(w))


# ---------------------------------------------------------------------------
# coarse graph distances (admissible upper bounds)


class GeodesicGraph:
    """26-neighbor lattice graph with edge weights from the metric.

    Edge weights are chord lengths |dx|_g at edge midpoints, so any graph
    path is (the length of) an admissible piecewise-straight curve and the
    Dijkstra distance upper-bounds the Riemannian distance up to the chord
    quadrature error.  No stage builds one; scipy.sparse and its csgraph
    are imported here, on the first graph.
    """

    def __init__(self, chart: MetricChart, halfwidth: float, nodes: int = 25):
        import scipy.sparse as sps

        self.chart = chart
        self.halfwidth = float(halfwidth)
        self.n = int(nodes)
        ax = np.linspace(-halfwidth, halfwidth, self.n)
        self.axis = ax
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        self.pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
        n = self.n
        idx = np.arange(n**3).reshape(n, n, n)
        rows, cols, vals = [], [], []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    if (di, dj, dk) <= (0, 0, 0):
                        continue
                    src = idx[max(0, -di):n - max(0, di),
                              max(0, -dj):n - max(0, dj),
                              max(0, -dk):n - max(0, dk)].ravel()
                    dst = idx[max(0, di):n + min(0, di),
                              max(0, dj):n + min(0, dj),
                              max(0, dk):n + min(0, dk)].ravel()
                    a = self.pts[src]
                    b = self.pts[dst]
                    mid = 0.5 * (a + b)
                    wgt = metric_speed(chart, mid, b - a)
                    rows.append(src)
                    cols.append(dst)
                    vals.append(wgt)
        self.adj = sps.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n**3, n**3))

    def nearest_node(self, x):
        x = np.asarray(x, float)
        ijk = np.clip(np.rint((x - self.axis[0]) / (self.axis[1] - self.axis[0])),
                      0, self.n - 1).astype(int)
        return int(ijk[0] * self.n**2 + ijk[1] * self.n + ijk[2])

    def seed_velocity(self, x, y):
        """Initial shooting velocity along the first Dijkstra leg."""
        from scipy.sparse.csgraph import dijkstra

        ix, iy = self.nearest_node(x), self.nearest_node(y)
        dist, pred = dijkstra(self.adj, directed=False, indices=ix,
                              return_predecessors=True)
        chain = [iy]
        while chain[-1] != ix and pred[chain[-1]] >= 0:
            chain.append(int(pred[chain[-1]]))
        chain.reverse()
        if len(chain) < 2:
            return np.asarray(y, float) - np.asarray(x, float)
        first = self.pts[chain[min(2, len(chain) - 1)]]
        direction = first - np.asarray(x, float)
        nrm = np.linalg.norm(direction)
        if nrm < 1e-14:
            return np.asarray(y, float) - np.asarray(x, float)
        # Euclidean length of the full chain as the magnitude estimate
        total = float(dist[iy])
        phi2 = float(self.chart.conformal_factor(np.asarray(x, float)) ** 2)
        return direction / nrm * (total / max(phi2, 1e-300))


# ---------------------------------------------------------------------------
# public geodesic operations


# The coarse solve behind every full-resolution Newton seed:
# n_steps // COARSE_STEP_DIVISOR RK4 steps, stopped at COARSE_REL_TARGET
# times the separation, which is also the convergence rule, so it freezes
# (and forms a last Newton step for) exactly the rows it converges.
# Extrapolated from there and from one Newton pass at twice its steps, the
# seed typically freezes after one full pass.
COARSE_STEP_DIVISOR = 8
COARSE_REL_TARGET = 1e-6

# The bend of the retry seed: a failed pair's chord c, bent by BEND |c|
# away from the puncture, starts its second solve.
BEND = 0.3

# RK4 steps over unit affine time of a distance geodesic.
DISTANCE_STEPS = 160


def _extrapolated_seed(chart: MetricChart, starts, targets, n_steps: int):
    """Initial velocities for an n_steps Newton solve of the pairs.

    A Newton solve at c = n_steps // COARSE_STEP_DIVISOR steps gives, for
    each pair it converges, the velocity w_c one full Newton step past its
    solution; one Newton pass at 2c steps from there, its step taken
    unverified, gives w_2c.  RK4's global error expands as C h^4 + O(h^5),
    so the n_steps velocity is extrapolated (Richardson) as
    w_2c + (w_2c - w_c) (h_2c^4 - h_n^4) / (h_c^4 - h_2c^4), h_k = 1/k.
    The coarse solve starts from the chord c, or from _bent_chord where c
    passes within 1e-9 |c| of a puncture; pairs it does not converge keep
    that start.  Every step is row-local, so a pair's seed does not depend
    on its batch.
    """
    c = n_steps // COARSE_STEP_DIVISOR
    w0 = targets - starts
    if chart.singular_at_origin:
        # closest approach of the chord segment to the puncture
        s = np.clip(-np.sum(starts * w0, axis=1)
                    / np.maximum(np.sum(w0 * w0, axis=1), 1e-300), 0.0, 1.0)
        through = (np.linalg.norm(starts + s[:, None] * w0, axis=1)
                   <= 1e-9 * np.linalg.norm(w0, axis=1))
        w0[through] = _bent_chord(starts[through], targets[through])
    _, _, seeded, w_c = _bvp_batch(chart, starts, targets, w0=w0, n_steps=c,
                                   rel_target=COARSE_REL_TARGET, stepped=True)
    if np.any(seeded):
        w_c = w_c[seeded]
        E, J, _ = _shoot(chart, starts[seeded], targets[seeded], w_c, 2 * c)
        w_2c = w_c - _newton_steps(J + 1e-13 * np.eye(3), E)
        h_c, h_2c, h_n = (1.0 / k**4 for k in (c, 2 * c, n_steps))
        w0[seeded] = w_2c + (w_2c - w_c) * ((h_2c - h_n) / (h_c - h_2c))
    return w0


def _bent_chord(starts, targets):
    """Retry seeds c + BEND |c| e, c the chord and e the unit vector from the
    origin to the nearest point of the chord's line, or c x e_k normalised,
    k the axis of the smallest |c_k|, for a chord through the origin.
    Row-local."""
    c = targets - starts
    t = -np.sum(starts * c, axis=1) / np.maximum(np.sum(c * c, axis=1), 1e-300)
    q = starts + t[:, None] * c
    n = np.linalg.norm(c, axis=1)
    through = np.linalg.norm(q, axis=1) <= 1e-9 * n
    q[through] = np.cross(c[through], np.eye(3)[np.argmin(np.abs(c[through]), axis=1)])
    return c + BEND * n[:, None] * q / np.maximum(np.linalg.norm(q, axis=1), 1e-300)[:, None]


def distance_batch(chart: MetricChart, starts, targets):
    """Distances for many pairs at once; returns (d, w, residual, converged).

    The DISTANCE_STEPS solve starts from _extrapolated_seed: the pairs a
    solve at DISTANCE_STEPS // COARSE_STEP_DIVISOR steps converges start
    from its velocity extrapolated to DISTANCE_STEPS, which typically
    freezes after one full pass; the others start from the straight chord,
    or from the chord bent away from the puncture (_bent_chord) when the
    chord runs through it.  Pairs whose full solve fails (their chords pass
    near the puncture) get one more from the bent chord and keep the
    better of the two.  Every solve is batch-invariant, so a pair's row is
    the same bit for bit whatever other pairs share its call.
    """
    starts = np.atleast_2d(np.asarray(starts, float))
    targets = np.atleast_2d(np.asarray(targets, float))
    w0 = _extrapolated_seed(chart, starts, targets, DISTANCE_STEPS)
    w, res, conv = _bvp_batch(chart, starts, targets, w0=w0, n_steps=DISTANCE_STEPS)
    idx = np.nonzero(~conv)[0]
    if len(idx):
        w2, res2, conv2 = _bvp_batch(chart, starts[idx], targets[idx],
                                     w0=_bent_chord(starts[idx], targets[idx]),
                                     n_steps=DISTANCE_STEPS)
        better = conv2 | (res2 < res[idx])
        w[idx[better]] = w2[better]
        res[idx[better]] = res2[better]
        conv[idx[better]] = conv2[better]
    d = geodesic_lengths(chart, starts, w)
    same = np.linalg.norm(targets - starts, axis=1) < 1e-14
    d = np.where(same, 0.0, d)
    conv = conv | same
    return d, w, res, conv


def segment_functional(samples, lengths, f) -> np.ndarray:
    """Trapezoid line integrals of a nonnegative field along sampled paths.

    samples: (K, M, 3) points of K paths at M equally spaced parameter
    values (affine times of geodesics, so equally spaced in arclength, or
    flow times), lengths: the K parameter lengths, or one for all; f is a
    callable on (P, 3) points, trilinearly interpolated grid data in the
    intended use.  Returns the K integrals; this is the score of the
    mean-value picks of the level-set projections and the flow legs.
    """
    vals = np.asarray(f(samples.reshape(-1, 3)), float).reshape(samples.shape[:2])
    if np.min(vals) < -1e-12:
        raise ValueError("segment functional requires a nonnegative integrand")
    return np.trapezoid(vals, axis=1) * (lengths / (samples.shape[1] - 1))


def mean_value_candidates(chart: MetricChart, center, rho: float, n_samples: int,
                          seed: int, label: str = "mv"):
    """Candidates of a mean-value pick; returns (cands, has_center).

    The ball center comes first, followed by n_samples - 1 uniform draws
    from the chart-Euclidean rho-ball, filtered to the geodesic ball via
    the small-separation distance.  has_center says whether the center
    survived the filters and so sits in row 0.
    """
    center = np.asarray(center, float)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    rng = rng_for(seed, label, *np.round(center, 9))
    k = max(0, int(n_samples) - 1)
    if k:
        draws = center + ball_offsets(rng, k, rho)
        draws = draws[chart.in_box(draws)]
    else:
        draws = np.empty((0, 3))
    head = center[None] if np.all(chart.in_box(center)) else np.empty((0, 3))
    has_center = len(head) == 1
    cands = np.vstack([head, draws])
    if len(cands) == 0:
        raise EmptySample("every candidate fell outside the chart box")
    keep = local_distance(chart, np.broadcast_to(center, cands.shape),
                          cands) <= rho * (1.0 + 1e-9)
    has_center = has_center and bool(keep[0])
    cands = cands[keep]
    if len(cands) == 0:
        raise EmptySample("every candidate fell outside the geodesic ball")
    return cands, has_center


def mean_value_rule(values, has_center: bool) -> int:
    """Index of the candidate a mean-value pick takes, given its scores.

    Any point scoring at most twice the ball average satisfies the
    mean-value inequality the construction needs, so the center is taken
    whenever it qualifies (it always does for mildly varying integrands,
    and the pick then converges to the center in the small-mass limit);
    otherwise the minimizing sample wins, with ties resolved to the
    earliest candidate.
    """
    values = np.asarray(values, float)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise EmptySample("no candidate produced a finite score")
    avg = float(np.mean(values[finite]))
    if has_center and np.isfinite(values[0]) and values[0] <= 2.0 * avg + 1e-300:
        return 0
    vmin = float(np.min(values[finite]))
    tie_tol = 1e-9 * float(np.max(np.abs(values[finite])))
    return int(np.nonzero(values <= vmin + tie_tol)[0][0])


def mean_value_pick(chart: MetricChart, center, rho: float, score, n_samples: int,
                    seed: int, label: str = "mv"):
    """Pick a sample whose score meets the mean-value threshold on the ball.

    The composition of mean_value_candidates and mean_value_rule; `score`
    is called once with the (K, 3) candidate array and must return K
    values.  Returns (point, score).
    """
    cands, has_center = mean_value_candidates(chart, center, rho, n_samples, seed,
                                              label=label)
    values = np.asarray(score(cands), float)
    best = mean_value_rule(values, has_center)
    return cands[best], float(values[best])


# ---------------------------------------------------------------------------
# level-set projection and the almost-Pythagorean record


@dataclass(frozen=True)
class PythagoreanRecord:
    x: tuple
    y: tuple
    z: tuple
    axis: int
    defect: float
    u_defect_same: float
    u_defect_cross: float
    d_xy: float
    d_xz: float
    d_yz: float


LEVEL_TOL = 1e-10

# Integrated Hessian/orthogonality scores below this absolute level are
# finite-difference noise (observed ~1e-11 for the exactly flat family,
# ~1e-2 for the smallest corpus mass) and count as exact ties, so the
# mean-value pick falls back to the ball center.
SCORE_FLOOR = 1e-8

# Candidates of one mean-value pick (the ball center and 7 draws), for the
# level-set projections and the flow legs alike.
MV_SAMPLES = 8

# RK4 steps over unit affine time of a projection geodesic, and the stride
# of the trajectory samples its score reads: 51 samples, 50 equal intervals.
PROJECTION_STEPS = 200
SCORE_STRIDE = 4


def _level_crossing(traj, u_i, target: float, halfwidth: float):
    """First crossing of {u_i = target} along a trajectory, by bisection;
    returns the crossing point."""
    inside = np.all(np.abs(traj) <= halfwidth, axis=1)
    if not np.all(inside):
        traj = traj[:int(np.argmin(inside))]
    uvals = np.asarray(u_i(traj), float) - target
    crossings = np.nonzero(np.diff(np.sign(uvals)) != 0)[0]
    if uvals[0] == 0.0:
        return traj[0]
    if len(crossings) == 0:
        raise NoCrossing("geodesic never crossed the level set inside the grid")
    k = int(crossings[0])
    a, b = traj[k], traj[k + 1]
    fa = uvals[k]
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = float(u_i(mid)[0]) - target
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if abs(fm) < LEVEL_TOL:
            break
    return 0.5 * (a + b)


def level_set_projections(chart: MetricChart, triple: HarmonicTriple, xs, ys, axes,
                          seeds):
    """Quasi-project each xs[i] onto the u^axes[i] level set through ys[i].

    The projections run in lockstep: the mean-value candidates of every
    row are shot toward their far points as one Newton batch of
    PROJECTION_STEPS steps, seeded by _extrapolated_seed (a solve at
    PROJECTION_STEPS // COARSE_STEP_DIVISOR steps, one pass at twice that,
    extrapolated; a shot the coarse solve does not converge starts from
    its chord), which keeps the trajectory of each candidate's solution
    from the pass that integrated it.  Each candidate is scored on every
    SCORE_STRIDE-th step of its trajectory.  The picked candidate's
    solution and trajectory are the projection geodesic itself; since a
    batch solve equals the one-row solve bit for bit, nothing is solved or
    integrated twice.
    Returns one entry per row: (z, x_star), or the AfstabError that ended
    that row.  See level_set_projection for the construction.
    """
    grid = triple.grid
    L = 0.6 * grid.halfwidth
    rho = 2.0 * grid.h
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    out = [None] * len(xs)
    rows = []        # (row, axis, target, cands, has_center, fars)
    for i, (x, y, axis, seed) in enumerate(zip(xs, ys, axes, seeds)):
        u_i = triple.u_interp[axis]
        target = float(u_i(y)[0])
        if abs(float(u_i(x)[0]) - target) < LEVEL_TOL:
            out[i] = (x.copy(), x.copy())
            continue
        try:
            cands, has_center = mean_value_candidates(chart, x, rho, MV_SAMPLES,
                                                      seed, label=f"lsp-{axis}")
        except EmptySample as exc:
            out[i] = exc
            continue
        signs = np.where(target >= np.asarray(u_i(cands), float), 1.0, -1.0)
        fars = cands.copy()
        fars[:, axis] += signs * L
        rows.append((i, axis, target, cands, has_center, fars))
    if not rows:
        return out

    starts = np.vstack([r[3] for r in rows])
    fars = np.vstack([r[5] for r in rows])
    w, _, conv, trajs = _bvp_batch(
        chart, starts, fars, w0=_extrapolated_seed(chart, starts, fars, PROJECTION_STEPS),
        n_steps=PROJECTION_STEPS, record=True)
    lengths = geodesic_lengths(chart, starts, w)
    samples = trajs[:, ::SCORE_STRIDE]
    scores = segment_functional(np.clip(samples, -grid.halfwidth, grid.halfwidth),
                                lengths, triple.hess_sum_interp)
    # integrated defects at stencil-noise level are exact ties (flat family)
    scores = np.where(scores < SCORE_FLOOR, 0.0, scores)
    scores = np.where(conv, scores, np.inf)

    offset = 0
    for i, axis, target, cands, has_center, _ in rows:
        block = slice(offset, offset + len(cands))
        offset += len(cands)
        try:
            k = block.start + mean_value_rule(scores[block], has_center)
            z = _level_crossing(trajs[k], triple.u_interp[axis], target,
                                grid.halfwidth)
        except AfstabError as exc:
            out[i] = exc
            continue
        out[i] = (z, starts[k].copy())
    return out


def level_set_projection(chart: MetricChart, triple: HarmonicTriple, x, y,
                         axis: int, seed: int = 0):
    """Quasi-project x onto the u^axis level set through y.

    A mean-value-picked start x_star near x (MV_SAMPLES candidates in the
    ball of radius rho = 2h, two grid cells) shoots the minimizing geodesic
    toward the far point x_star +- L e_axis, L = 0.6 grid halfwidths, the
    sign chosen so the level value at y lies between start and far values;
    the first crossing of the level set along the geodesic, located by
    bisection on interpolated u, is the returned z.  Returns (z, x_star);
    the one-row case of level_set_projections.
    """
    result, = level_set_projections(chart, triple, [x], [y], [axis], [seed])
    if isinstance(result, AfstabError):
        raise result
    return result


def _record(triple: HarmonicTriple, x, y, z, axis: int, d) -> PythagoreanRecord:
    d_xy, d_xz, d_yz = (float(v) for v in d)
    u_vals_x = triple.u_map(x)
    u_vals_z = triple.u_map(z)
    defect = abs(d_xz**2 + d_yz**2 - d_xy**2)
    u_same = abs(d_xz - abs(u_vals_x[axis] - u_vals_z[axis]))
    u_cross = max(abs(u_vals_x[j] - u_vals_z[j]) for j in range(3) if j != axis)
    return PythagoreanRecord(tuple(x), tuple(y), tuple(z), axis, float(defect),
                             float(u_same), float(u_cross), d_xy, d_xz, d_yz)


def pythagorean_records(chart: MetricChart, triple: HarmonicTriple, xs, ys, axes,
                        seeds, _extra=None):
    """Almost-Pythagorean defect records for many pairs, in lockstep.

    Row i projects xs[i] onto the u^axes[i] level set through ys[i]
    (level_set_projections, seeded by seeds[i]) and closes the triangle
    with d(x, y), d(x, z) and d(y, z); all 3n closing distances are one
    distance_batch.  Returns one entry per pair: its PythagoreanRecord, or
    the AfstabError that ended it, so a caller can tolerate failures.

    _extra = (starts, targets) adds those rows after the closing ones in
    the same distance_batch (the ball candidates of the sample, see
    gh.consume_geodesic_ball); the return is then (entries, (d, converged)
    of the extra rows).  Every row is batch-invariant, so the records do
    not depend on them.
    """
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    axes = [int(a) for a in axes]
    out = [None] * len(xs)
    live = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if np.linalg.norm(x - y) < 1e-14:
            out[i] = PythagoreanRecord(tuple(x), tuple(y), tuple(x), axes[i],
                                       0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            live.append(i)
    projections = level_set_projections(
        chart, triple, xs[live], ys[live], [axes[i] for i in live],
        [seeds[i] for i in live]) if live else []
    closing = []     # (row, z)
    for i, proj in zip(live, projections):
        if isinstance(proj, AfstabError):
            out[i] = proj
        else:
            closing.append((i, proj[0]))
    starts = [p for i, _ in closing for p in (xs[i], xs[i], ys[i])]
    targets = [p for i, z in closing for p in (ys[i], z, z)]
    n_closing = len(starts)
    if _extra is not None:
        starts += list(_extra[0])
        targets += list(_extra[1])
    d, conv = np.empty(0), np.empty(0, bool)
    if starts:
        d, _, res, conv = distance_batch(chart, np.array(starts), np.array(targets))
    for m, (i, z) in enumerate(closing):
        tri = slice(3 * m, 3 * m + 3)
        if not np.all(conv[tri]):
            out[i] = NoConvergence("pair distances failed to converge "
                                   f"(residuals {res[tri]})")
        else:
            out[i] = _record(triple, xs[i], ys[i], z, axes[i], d[tri])
    return out if _extra is None else (out, (d[n_closing:], conv[n_closing:]))


def pythagorean_check(chart: MetricChart, triple: HarmonicTriple, x, y, axis: int,
                      seed: int = 0) -> PythagoreanRecord:
    """Almost-Pythagorean defect record for a pair and a level-set axis;
    the one-record case of pythagorean_records."""
    result, = pythagorean_records(chart, triple, [x], [y], [axis], [seed])
    if isinstance(result, AfstabError):
        raise result
    return result


# ---------------------------------------------------------------------------
# eikonal distance field


# The eikonal solve stops once no node moved by more than this many cells.
EIKONAL_TOL = 1e-10


class DistanceField:
    """First-order upwind eikonal solve of |grad T|_g = 1 from one source.

    The upwind discretization is iterated Jacobi-style to its fixed point,
    which coincides with the fast-marching solution; nodes within
    min(2, 0.3 halfwidth) of the source (at least 3 cells, and 4 cells
    clear of a puncture) are initialized with the chord quadrature to tame
    the point-source singularity.

    Each sweep sets T to min(T, f) at every free node, with f the upwind
    update from the six neighbours' values of the previous sweep (inf read
    as a large finite value).  A node none of whose neighbours' values
    changed since it was last updated would get the same f again, and its
    T is already at most that f, so it would keep its value.  The solve
    therefore updates every free node in the first sweep and afterwards
    only the free neighbours of the nodes whose values changed in the
    sweep before: the iterates, the stopping test and the sweep count are
    those of the full-grid loop, bit for bit.  `sweeps` counts the sweeps
    run; `converged` is False (and a warning is logged) when max_sweeps
    (default 4 * nodes) ran out before the largest change fell below
    EIKONAL_TOL * h.
    """

    def __init__(self, chart: MetricChart, center, halfwidth: float, nodes: int = 97,
                 max_sweeps: int | None = None):
        center = np.asarray(center, float)
        n = int(nodes)
        h = 2.0 * halfwidth / (n - 1)
        ax_rel = -halfwidth + h * np.arange(n)
        self.axes = tuple(center[a] + ax_rel for a in range(3))
        self.center = center
        self.h = h
        self.n = n
        X, Y, Z = np.meshgrid(*self.axes, indexing="ij")
        pts = np.stack([X, Y, Z], axis=-1)
        if not np.all(chart.in_box(pts[0, 0, 0])) or not np.all(chart.in_box(pts[-1, -1, -1])):
            raise OutOfDomain("distance-field box exceeds the chart domain")
        self.slowness = chart.conformal_factor(pts) ** 2
        if chart.singular_at_origin:
            rad = np.linalg.norm(pts, axis=-1)
            bad = rad < 0.5 * h
            if np.any(bad):
                self.slowness[bad] = chart.conformal_factor(
                    pts[bad] + np.array([0.5 * h, 0.0, 0.0])) ** 2
        # exact chord-quadrature initialization over a sizable ball tames the
        # point-source error of the first-order upwind march; for singular
        # charts the ball stays clear of the puncture (the quadrature must
        # never undershoot the true distance there)
        source_radius = min(2.0, 0.3 * halfwidth)
        if chart.singular_at_origin:
            source_radius = min(source_radius, float(np.linalg.norm(center)) - 4.0 * h)
        source_radius = max(source_radius, 3.0 * h)
        dist_e = np.linalg.norm(pts - center, axis=-1)
        T = np.full((n, n, n), np.inf)
        near = dist_e <= source_radius + 1e-12
        near_pts = pts[near]
        mids = 0.5 * (near_pts + center)
        seg = near_pts - center
        phi2 = lambda q: chart.conformal_factor(q) ** 2  # noqa: E731
        T[near] = np.linalg.norm(seg, axis=-1) * (
            phi2(np.broadcast_to(center, near_pts.shape)) + 4.0 * phi2(mids)
            + phi2(near_pts)) / 6.0
        self.frozen = near
        self.T = self._solve(T, max_sweeps)

    def _solve(self, T, max_sweeps):
        n, h = self.n, self.h
        m = n + 2
        steps = (m * m, m, 1)          # flat offsets of the axis neighbours
        big = 1e30
        # T and its upwind view Tc (inf read as big) on a grid with a border
        # of big, flattened, so every node has six neighbours to gather
        Tp = np.pad(T, 1, constant_values=big).ravel()
        Tc = np.where(np.isfinite(Tp), Tp, big)
        fhp = np.pad(self.slowness * h, 1).ravel()
        free = np.pad(~self.frozen, 1).ravel()
        touched = np.zeros_like(free)
        active = np.flatnonzero(free)
        sweeps = max_sweeps if max_sweeps is not None else 4 * n
        self.sweeps, self.converged = 0, False
        for _ in range(sweeps):
            self.sweeps += 1
            # the three axis minima in increasing order: a min/max network
            # sorts them as np.sort does, since Tc holds no NaN
            x, y, z = (np.minimum(Tc.take(active - s), Tc.take(active + s))
                       for s in steps)
            lo, hi = np.minimum(x, y), np.maximum(x, y)
            a1, a3 = np.minimum(lo, z), np.maximum(hi, z)
            a2 = np.maximum(lo, np.minimum(hi, z))
            fh = fhp.take(active)
            t_new = a1 + fh
            use2 = t_new > a2
            s12 = a1 + a2
            disc2 = np.maximum(2.0 * fh**2 - (a1 - a2) ** 2, 0.0)
            t2 = 0.5 * (s12 + np.sqrt(disc2))
            t_new = np.where(use2 & (a2 < big), t2, t_new)
            use3 = t_new > a3
            s123 = a1 + a2 + a3
            disc3 = np.maximum(s123**2 - 3.0 * (a1**2 + a2**2 + a3**2 - fh**2), 0.0)
            t3 = (s123 + np.sqrt(disc3)) / 3.0
            t_new = np.where(use3 & (a3 < big), t3, t_new)
            t_old = Tp.take(active)
            t_new = np.minimum(t_old, t_new)
            change = np.max(np.abs(np.where(np.isfinite(t_old) & np.isfinite(t_new),
                                            t_new - t_old, 0.0)), initial=0.0)
            still_inf = np.isinf(t_old).sum() - np.isinf(t_new).sum()
            tc_new = np.where(np.isfinite(t_new), t_new, big)
            moved = active[tc_new != Tc.take(active)]
            Tp[active] = t_new
            Tc[active] = tc_new
            if change < EIKONAL_TOL * h and still_inf == 0:
                self.converged = True
                break
            for s in steps:
                touched[moved - s] = True
                touched[moved + s] = True
            active = np.flatnonzero(touched & free)
            touched[:] = False
        if not self.converged:
            logging.getLogger(__name__).warning(
                "eikonal field not converged after %d sweeps", self.sweeps)
        return Tp.reshape(m, m, m)[1:-1, 1:-1, 1:-1].copy()

    def at(self, pts):
        """T trilinearly interpolated at points (..., 3); inf outside the
        field's box."""
        return Trilinear(self.axes, self.T, outside=np.inf)(pts)
