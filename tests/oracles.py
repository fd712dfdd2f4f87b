"""Independent oracles used by the test suite.

Everything here recomputes reference values along a route different from
the library code under test: symbolic differentiation, finite-difference
stencils on metric components, separable 1D ODE reductions, and radial
quadrature.  Where the library runs the same arithmetic in fewer or other
calls (the stacked geodesic integrator, the active-set eikonal), the plain
form it replaced is kept here as the bit-for-bit reference; where it
reaches the same solution from another start (the coarse-seeded distance
solve), the route it replaced is kept as the reference within tolerance.
"""

import numpy as np
import scipy.sparse as sps
import sympy as sp
from scipy.integrate import quad, solve_ivp
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import LinearOperator, cg

from afstab.errors import OutOfDomain
from afstab.geodesy import GeodesicGraph, _bvp_batch, geodesic_lengths, local_distance
from afstab.grid import diff1, diff2
from afstab.harmonic import LaplaceBeltrami, boundary_values


# ---------------------------------------------------------------------------
# symbolic conformal curvature


def sympy_conformal_scalar(phi_expr, syms):
    """Callable R(x, y, z) = -8 phi^-5 lap(phi) from a sympy conformal factor."""
    x, y, z = syms
    lap = sp.diff(phi_expr, x, 2) + sp.diff(phi_expr, y, 2) + sp.diff(phi_expr, z, 2)
    R = -8 * phi_expr**-5 * lap
    return sp.lambdify((x, y, z), sp.simplify(R), "numpy")


def sympy_gaussian_phi(amp, width=1.0):
    x, y, z = sp.symbols("x y z", real=True)
    phi = 1 + amp * sp.exp(-(x**2 + y**2 + z**2) / width**2)
    return phi, (x, y, z)


def sympy_compact_bump_phi(amp, center, width, monopole=0.0):
    """Conformal factor 1 + a/|x| + amp exp(1 - 1/(1 - s^2)); valid at
    sample points strictly inside the bump support."""
    x, y, z = sp.symbols("x y z", real=True)
    cx, cy, cz = center
    q = ((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / width**2
    phi = 1 + amp * sp.exp(1 - 1 / (1 - q))
    if monopole:
        phi = phi + monopole / (2 * sp.sqrt(x**2 + y**2 + z**2))
    return phi, (x, y, z)


# ---------------------------------------------------------------------------
# finite-difference curvature, with its own tensor algebra


def _fd_metric_derivs(metric_fn, x0, h):
    """4th-order centered first/second derivatives of g_ij, own stencils."""
    x0 = np.asarray(x0, float)
    c1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    o1 = np.array([-2, -1, 1, 2])
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    o2 = np.array([-2, -1, 0, 1, 2])
    g0 = metric_fn(x0)
    dg = np.zeros((3, 3, 3))
    ddg = np.zeros((3, 3, 3, 3))
    for k in range(3):
        for c, o in zip(c1, o1):
            xp = x0.copy()
            xp[k] += o * h
            dg[k] += c * metric_fn(xp)
        dg[k] /= h
    for k in range(3):
        for c, o in zip(c2, o2):
            xp = x0.copy()
            xp[k] += o * h
            ddg[k, k] += c * metric_fn(xp)
        ddg[k, k] /= h**2
    for k in range(3):
        for l in range(k + 1, 3):
            acc = np.zeros((3, 3))
            for ck, ok in zip(c1, o1):
                for cl, ol in zip(c1, o1):
                    xp = x0.copy()
                    xp[k] += ok * h
                    xp[l] += ol * h
                    acc += ck * cl * metric_fn(xp)
            ddg[k, l] = ddg[l, k] = acc / h**2
    return g0, dg, ddg


def fd_scalar_curvature(metric_fn, x0, h=0.02):
    """Scalar curvature from FD metric derivatives and textbook formulas."""
    g, dg, ddg = _fd_metric_derivs(metric_fn, x0, h)
    ginv = np.linalg.inv(g)
    gamma = np.zeros((3, 3, 3))
    for c in range(3):
        for a in range(3):
            for b in range(3):
                s = 0.0
                for d in range(3):
                    s += ginv[c, d] * (dg[a, b, d] + dg[b, a, d] - dg[d, a, b])
                gamma[c, a, b] = 0.5 * s
    dginv = np.zeros((3, 3, 3))
    for e in range(3):
        dginv[e] = -ginv @ dg[e] @ ginv
    dgamma = np.zeros((3, 3, 3, 3))
    for e in range(3):
        for c in range(3):
            for a in range(3):
                for b in range(3):
                    s = 0.0
                    for d in range(3):
                        s += dginv[e, c, d] * (dg[a, b, d] + dg[b, a, d] - dg[d, a, b])
                        s += ginv[c, d] * (ddg[e, a, b, d] + ddg[e, b, a, d] - ddg[e, d, a, b])
                    dgamma[e, c, a, b] = 0.5 * s
    ric = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            s = 0.0
            for c in range(3):
                s += dgamma[c, c, a, b] - dgamma[a, c, c, b]
                for d in range(3):
                    s += gamma[c, c, d] * gamma[d, a, b] - gamma[c, a, d] * gamma[d, c, b]
            ric[a, b] = s
    return float(np.einsum("ab,ab->", ginv, ric))


# ---------------------------------------------------------------------------
# spherically symmetric closed forms


def radial_mass_integrand(monopole_phi, r):
    """m(r) = -2 r^2 phi(r)^3 phi'(r) for g = phi^4 delta with radial phi.

    This is the exact coordinate-sphere flux of the mass integrand for a
    spherically symmetric conformal factor.
    """
    eps = 1e-7 * r
    phi = monopole_phi(r)
    dphi = (monopole_phi(r + eps) - monopole_phi(r - eps)) / (2 * eps)
    return -2.0 * r**2 * phi**3 * dphi


def schwarzschild_mass_at_radius(m, r):
    """Exact m(r) = m (1 + m/2r)^3 from the closed-form radial integrand."""
    return m * (1.0 + m / (2.0 * r)) ** 3


def schwarzschild_radial_arclength(m, r0, r1):
    """Arc length of a radial segment: integral of (1 + m/2r)^2 dr."""
    def anti(r):
        return r + m * np.log(r) - m**2 / (4.0 * r)
    return anti(r1) - anti(r0)


# ---------------------------------------------------------------------------
# separable ODE oracle for the axis harmonic coordinate on Schwarzschild


def harmonic_radial_profile(m, r_eval, r_far=300.0, rtol=1e-12):
    """u^1 on the positive x-axis for the isotropic family phi = 1 + m/2r.

    Separation u = H(r) cos(theta) reduces Delta_g u = 0 (conformal form
    div(phi^2 grad u) = 0) to (r^2 phi^2 H')' = 2 phi^2 H.  The mode
    regular at the puncture behaves like r^2 as r -> 0; integrating it
    outward and rescaling to match the asymptotic expansion
    H ~ r - a + a^2/r (a = m/2) gives the profile that the box-truncated
    grid solution converges to away from the puncture.
    """
    a = 0.5 * m
    if a == 0.0:
        return np.asarray(r_eval, float).copy()

    def rhs(r, y):
        H, dH = y
        phi = 1.0 + a / r
        dphi = -a / r**2
        return [dH, 2.0 * H / r**2 - (2.0 / r + 2.0 * dphi / phi) * dH]

    r_in = 1e-6
    r_eval = np.atleast_1d(np.asarray(r_eval, float))
    r_grid = np.unique(np.concatenate([r_eval, [r_far * 0.75, r_far]]))
    sol = solve_ivp(rhs, (r_in, r_far), [r_in**2, 2 * r_in],
                    t_eval=r_grid, rtol=rtol, atol=1e-300, method="DOP853")
    assert sol.success
    H = dict(zip(sol.t, sol.y[0]))
    # match H_num = A (r - a + a^2/r) + D / r^2 at two far radii
    R1, R2 = r_far * 0.75, r_far
    M = np.array([[R1 - a + a**2 / R1, R1**-2],
                  [R2 - a + a**2 / R2, R2**-2]])
    A, _ = np.linalg.solve(M, np.array([H[R1], H[R2]]))
    return np.array([H[r] for r in r_eval]) / A


# ---------------------------------------------------------------------------
# the whole-tensor covariant Hessian, the reference for the entrywise
# |Hess u|_g^2 of harmonic._hessian_norm2


def second_derivatives(values: np.ndarray, h: float) -> np.ndarray:
    """Coordinate Hessian d_a d_b u, shape (N, N, N, 3, 3), exactly symmetric.

    Mixed entries compose the two one-dimensional first-derivative stencils,
    which commute, so symmetry holds to round-off by construction.
    """
    out = np.empty(values.shape + (3, 3))
    firsts = [diff1(values, h, a) for a in range(3)]
    for a in range(3):
        out[..., a, a] = diff2(values, h, a)
        for b in range(a + 1, 3):
            mixed = diff1(firsts[b], h, a)
            out[..., a, b] = mixed
            out[..., b, a] = mixed
    return out


def _covariant_hessian(values: np.ndarray, du: np.ndarray, phi: np.ndarray,
                       dphi: np.ndarray, h: float) -> np.ndarray:
    """Covariant Hessian dd_ab - Gamma^k_ab d_k u of nodal values with
    coordinate partials du, from the conformal Christoffels."""
    dd = second_derivatives(values, h)
    w = dphi / phi[..., None]
    duw = np.einsum("...a,...a->...", du, w)
    gamma_term = 2.0 * (du[..., :, None] * w[..., None, :]
                        + w[..., :, None] * du[..., None, :]
                        - np.eye(3) * duw[..., None, None])
    return dd - gamma_term


# ---------------------------------------------------------------------------
# Jacobi-preconditioned CG on an assembled harmonic system


def assemble_interior_system(op):
    """CSR matrix of the interior system of a LaplaceBeltrami op plus the
    boundary-coupling triplets, assembled node by node from op.kx/ky/kz.

    Returns (A, couplings) where couplings is a list of
    (interior_flat_index, boundary_multi_index, coefficient) encoded as
    arrays, so rhs = sum coefficient * u_boundary for any Dirichlet data.
    """
    N = op.grid.nodes
    n = N - 2
    idx = -np.ones((N, N, N), dtype=np.int64)
    inner = slice(1, N - 1)
    idx[inner, inner, inner] = np.arange(n**3).reshape(n, n, n)

    rows, cols, vals = [], [], []
    b_rows, b_index, b_vals = [], [], []
    diag = np.zeros(n**3)

    I, J, K = np.meshgrid(np.arange(1, N - 1), np.arange(1, N - 1),
                          np.arange(1, N - 1), indexing="ij")
    me = idx[I, J, K].ravel()

    neighbor_face = (
        ((-1, 0, 0), op.kx[I - 1, J, K]), ((1, 0, 0), op.kx[I, J, K]),
        ((0, -1, 0), op.ky[I, J - 1, K]), ((0, 1, 0), op.ky[I, J, K]),
        ((0, 0, -1), op.kz[I, J, K - 1]), ((0, 0, 1), op.kz[I, J, K]),
    )
    for (di, dj, dk), kf in neighbor_face:
        kf = kf.ravel()
        ni, nj, nk = I + di, J + dj, K + dk
        nb = idx[ni, nj, nk].ravel()
        diag += kf
        interior = nb >= 0
        rows.append(me[interior])
        cols.append(nb[interior])
        vals.append(-kf[interior])
        bd = ~interior
        b_rows.append(me[bd])
        b_index.append(np.stack([ni.ravel()[bd], nj.ravel()[bd], nk.ravel()[bd]], axis=1))
        b_vals.append(kf[bd])

    rows.append(me)
    cols.append(me)
    vals.append(diag)
    A = sps.csr_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n**3, n**3))
    couplings = (np.concatenate(b_rows),
                 np.concatenate(b_index, axis=0),
                 np.concatenate(b_vals))
    return A, couplings


def coupling_rhs(couplings, ub):
    """Dirichlet right-hand side sum coefficient * u_boundary per interior node."""
    b_rows, b_index, b_vals = couplings
    rhs = np.zeros((ub.shape[0] - 2) ** 3)
    np.add.at(rhs, b_rows, b_vals * ub[b_index[:, 0], b_index[:, 1], b_index[:, 2]])
    return rhs


def jacobi_cg_coordinate(chart, grid, axis, bc="corrected", tol=1e-11, max_iter=20000):
    """Nodal values of one harmonic coordinate, solved by CG with the
    diagonal (Jacobi) preconditioner on the assembled interior system, from
    the same start and to the same relative residual as the library solve;
    a second solver for the same discrete problem."""
    A, couplings = assemble_interior_system(LaplaceBeltrami(chart, grid))
    ub = boundary_values(chart, grid, axis, bc)
    rhs = coupling_rhs(couplings, ub)
    inv_diag = 1.0 / A.diagonal()
    jacobi = LinearOperator(A.shape, matvec=lambda v: inv_diag * v)
    sol, info = cg(A, rhs, x0=ub[1:-1, 1:-1, 1:-1].ravel().copy(), rtol=tol, atol=0.0,
                   maxiter=max_iter, M=jacobi)
    assert info == 0
    values = ub.copy()
    n = grid.nodes - 2
    values[1:-1, 1:-1, 1:-1] = sol.reshape(n, n, n)
    return values


# ---------------------------------------------------------------------------
# volume comparison on an eikonal distance field


def hyperbolic_ball_volume(r, kappa: float):
    """Geodesic-ball volume in the constant-curvature -kappa model space.

    pi (sinh(2 sqrt(k) r)/sqrt(k) - 2 r)/k, normalized so the kappa -> 0
    limit is the Euclidean 4 pi r^3 / 3.
    """
    r = np.asarray(r, float)
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    x = kappa * r**2
    if kappa == 0.0 or np.max(x) < 1e-8:
        return 4.0 * np.pi / 3.0 * r**3 * (1.0 + 0.2 * x + 2.0 * x**2 / 105.0)
    rk = np.sqrt(kappa)
    return np.pi * (np.sinh(2.0 * rk * r) / rk - 2.0 * r) / kappa


def ball_volume(field, r: float) -> float:
    """Riemannian volume of {T <= r} on a DistanceField, with a one-cell
    smoothed indicator."""
    weights = field.slowness**3 * field.h**3   # phi^6 h^3
    soft = np.clip((r - field.T) / field.h + 0.5, 0.0, 1.0)
    return float(np.sum(soft * weights))


def bishop_gromov_check(field, radii, kappa: float):
    """Volume ratios |B_r(q)| / |B_r^-kappa| for increasing radii.

    `field` is the DistanceField seeded at q, and it must cover 1.3 r for
    every radius r; the model volume is the constant-curvature -kappa
    ball.  Monotone nonincrease of the returned sequence is the comparison
    inequality under Ric >= -2 kappa g.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    ratios = []
    for r in radii:
        if 1.3 * r > field.n * field.h:
            raise OutOfDomain(f"ball radius {r} not covered by the distance field")
        ratios.append(ball_volume(field, float(r)) / float(hyperbolic_ball_volume(r, kappa)))
    return np.asarray(ratios)


# ---------------------------------------------------------------------------
# lattice-graph distance


def graph_distance(graph, x, y):
    """Admissible-curve upper bound for d(x, y) on a GeodesicGraph: the
    Dijkstra distance between the nearest lattice nodes plus the two
    straight snaps to them."""
    ix, iy = graph.nearest_node(x), graph.nearest_node(y)
    through = float(dijkstra(graph.adj, directed=False, indices=ix)[iy])
    return (through + local_distance(graph.chart, x, graph.pts[ix])
            + local_distance(graph.chart, y, graph.pts[iy]))


# ---------------------------------------------------------------------------
# bump-function radial quadrature


def schwarzschild_harmonic_closed_form(m, x):
    """Exact axis harmonic coordinate u^1 = x^1 / phi for phi = 1 + m/2|x|.

    For any delta-harmonic phi, div(phi^2 grad(x^1/phi)) = phi_x - phi_x -
    x^1 lap(phi) = 0, so x^1/phi is g-harmonic for g = phi^4 delta; its
    expansion x^1 (1 - a/r + a^2/r^2 - ...) identifies it as the profile the
    shooting oracle computes.  Used to cross-check the ODE oracle itself.
    """
    x = np.asarray(x, float)
    r = np.linalg.norm(x, axis=-1)
    return x[..., 0] / (1.0 + 0.5 * m / r)


def bump_positive_laplacian_integral(width):
    """integral over R^3 of max(0, lap B) for B = exp(1 - 1/(1 - (r/w)^2)).

    Radial quadrature of 4 pi (B'' + 2 B'/r)^+ r^2 dr on the support.
    """
    w = float(width)

    def B(r):
        s2 = (r / w) ** 2
        if s2 >= 1.0:
            return 0.0
        return np.exp(1.0 - 1.0 / (1.0 - s2))

    def lapB(r):
        # balanced FD step: truncation ~ eps^2, roundoff ~ 1e-16/eps^2
        eps = 1e-4 * w
        if r < eps:
            return 6.0 * (B(eps) - B(0.0)) / eps**2
        return ((B(r + eps) - 2 * B(r) + B(r - eps)) / eps**2
                + (B(r + eps) - B(r - eps)) / (eps * r))

    val, _ = quad(lambda r: 4 * np.pi * max(0.0, lapB(r)) * r**2, 0, w, limit=400)
    return val


# ---------------------------------------------------------------------------
# full-grid Jacobi eikonal


def full_grid_eikonal(field, T, tol, max_sweeps):
    """The upwind eikonal Jacobi loop over every node of the grid.

    The reference for `DistanceField`, which runs the same iterates on an
    active set; T is the initial field (inf off the frozen source ball).
    Returns (T, sweeps run).
    """
    fh = field.slowness * field.h
    sweeps = max_sweeps if max_sweeps is not None else 4 * field.n
    big = 1e30
    done = 0
    for _ in range(sweeps):
        done += 1
        Tc = np.where(np.isfinite(T), T, big)
        mins = []
        for a in range(3):
            lo = np.full_like(Tc, big)
            hi = np.full_like(Tc, big)
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[a] = slice(1, None)
            sl_hi[a] = slice(None, -1)
            lo[tuple(sl_lo)] = Tc[tuple(sl_hi)]
            hi[tuple(sl_hi)] = Tc[tuple(sl_lo)]
            mins.append(np.minimum(lo, hi))
        a1, a2, a3 = np.sort(np.stack(mins, axis=0), axis=0)
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
        t_new = np.where(field.frozen, T, np.minimum(T, t_new))
        change = np.max(np.abs(np.where(np.isfinite(T) & np.isfinite(t_new),
                                        t_new - T, 0.0)))
        still_inf = np.isinf(T).sum() - np.isinf(t_new).sum()
        T = t_new
        if change < tol * field.h and still_inf == 0:
            break
    return T, done


# ---------------------------------------------------------------------------
# two-array geodesic RK4


def _conformal_gradient_reference(chart, x):
    """phi and grad phi as separate seeded arrays, term by term."""
    pts = np.asarray(x, dtype=float)
    phi = np.ones(pts.shape[:-1])
    grad = np.zeros(pts.shape)
    a = chart.monopole_amplitude
    if a != 0.0:
        r2 = np.einsum("...a,...a->...", pts, pts)
        r = np.sqrt(r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r = 1.0 / r
            inv_r3 = inv_r / r2
            phi = phi + a * inv_r
            grad = grad - a * pts * inv_r3[..., None]
    for term in chart.bumps:
        if term[0] == "gauss":
            _, amp, center, width = term
            d = pts - center
            q = np.einsum("...a,...a->...", d, d) / width**2
            val = amp * np.exp(-q)
            phi = phi + val
            grad = grad + val[..., None] * (-2.0 * d / width**2)
        else:
            v, gr, _ = term[1].value_grad_hess(pts, hessian=False)
            phi = phi + v
            grad = grad + gr
    return phi, grad


def _gamma_vv_reference(chart, x, v):
    """Gamma^k_ab v^a v^b, the puncture rows nudged by 1e-9 along x first."""
    if chart.singular_at_origin:
        r2 = np.einsum("...a,...a->...", x, x)
        bad = r2 < 1e-18
        if np.any(bad):
            x = x.copy()
            x[bad, 0] += 1e-9
    phi, dphi = _conformal_gradient_reference(chart, x)
    w = dphi / phi[..., None]
    vw = np.einsum("...a,...a->...", v, w)
    vv = np.einsum("...a,...a->...", v, v)
    return 2.0 * (2.0 * vw[..., None] * v - vv[..., None] * w)


def rk4_reference(chart, x0, w, n_steps, record_every=0):
    """Fixed-step RK4 of the geodesic equation with x and v as two arrays.

    The reference for `geodesy._rk4_batch`, which runs the same stages on
    one stacked (K, 6) state; same arguments and returns.
    """
    dt = 1.0 / n_steps
    x = np.array(x0, dtype=float, copy=True)
    v = np.array(w, dtype=float, copy=True)
    samples = [x.copy()] if record_every else None
    for step in range(n_steps):
        k1x, k1v = v, -_gamma_vv_reference(chart, x, v)
        x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
        k2x, k2v = v2, -_gamma_vv_reference(chart, x2, v2)
        x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
        k3x, k3v = v3, -_gamma_vv_reference(chart, x3, v3)
        x4, v4 = x + dt * k3x, v + dt * k3v
        k4x, k4v = v4, -_gamma_vv_reference(chart, x4, v4)
        x = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v = v + dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if record_every and ((step + 1) % record_every == 0 or step == n_steps - 1):
            samples.append(x.copy())
    if record_every:
        return x, v, np.stack(samples, axis=1)
    return x, v


# ---------------------------------------------------------------------------
# chord-seeded two-point distances


def chord_seeded_distance_batch(chart, starts, targets, n_steps=160):
    """`geodesy.distance_batch` with its Newton solve started from the
    straight chord of every pair, as it was before the coarse-step seed:
    the chord solve, then the Dijkstra-seeded retry at doubled resolution
    for the pairs it fails; same arguments and returns."""
    starts = np.atleast_2d(np.asarray(starts, float))
    targets = np.atleast_2d(np.asarray(targets, float))
    w, res, conv = _bvp_batch(chart, starts, targets, n_steps=n_steps)
    need = ~conv
    if np.any(need):
        graphs = {}
        seeds = []
        for s, t in zip(starts[need], targets[need]):
            hw = min(chart.box_halfwidth,
                     float(np.ceil(np.max(np.abs([s, t])))) + 3.0)
            if hw not in graphs:
                graphs[hw] = GeodesicGraph(chart, hw, nodes=25)
            seeds.append(graphs[hw].seed_velocity(s, t))
        w2, res2, conv2 = _bvp_batch(chart, starts[need], targets[need],
                                     w0=np.array(seeds), n_steps=2 * n_steps,
                                     max_iter=24)
        idx = np.nonzero(need)[0]
        better = conv2 | (res2 < res[idx])
        w[idx[better]] = w2[better]
        res[idx[better]] = res2[better]
        conv[idx[better]] = conv2[better]
    d = geodesic_lengths(chart, starts, w)
    same = np.linalg.norm(targets - starts, axis=1) < 1e-14
    return np.where(same, 0.0, d), w, res, conv | same
