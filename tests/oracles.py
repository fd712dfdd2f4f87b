"""Independent oracles used by the test suite.

Everything here recomputes reference values along a route different from
the library code under test: symbolic differentiation, finite-difference
stencils on metric components, the generic metric-tensor route (the
tensor phi^4 delta, whose contraction geodesy.metric_speed forms without
it, and g, dg and ddg with the textbook Christoffel, Ricci and ADM-flux
formulas) behind the library's closed forms in phi, a second harmonic
solver that also takes the plain boundary data x^i, separable 1D ODE
reductions, and radial quadrature, among them every geodesic length of
the monopole chart in the plane of its endpoints and the puncture.  Where the library runs the
same arithmetic in fewer or other calls (the stacked geodesic
integrator, the shared RK4 loop of the flows, the active-set eikonal,
the trilinear interpolator, the in-place stencils and |Hess u|_g^2
entries, the conjugate-gradient loop, the ball sampling that shot every
uncertified candidate, and the one that shot each round's candidates in
a batch of their own before the sample's rows), the plain form it
replaced is kept here as the bit-for-bit reference; where it reaches the
same solution from another start or integrator (the seeded distance
solve and level-set projections, the fixed-step flow leg), the route it
replaced is kept as the reference within tolerance.  The eikonal field
that once measured the distortion's geodesic ball is kept as the mask
its certified and shot nodes must reproduce where the eikonal is
accurate.
"""

import json
import os

import numpy as np
import scipy.sparse as sps
import sympy as sp
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import LinearOperator, cg

from afstab.errors import (AfstabError, EmptySample, LeftDomain, NoConvergence,
                           OutOfDomain)
from afstab.geodesy import (LEVEL_TOL, MV_SAMPLES, PROJECTION_STEPS, SCORE_FLOOR,
                            SCORE_STRIDE, DistanceField, _bent_chord, _bvp_batch,
                            _level_crossing, distance_batch, geodesic_lengths,
                            local_distance, mean_value_candidates, mean_value_rule,
                            pythagorean_records, segment_functional)
from afstab.gh import DistortionReport, _ball_nodes, _chord_certified
from afstab.grid import diff1, diff2
from afstab.harmonic import LaplaceBeltrami
from afstab.mass import QUADRATURE_AZIMUTH, QUADRATURE_POLAR, sphere_rule
from afstab.reporting import MANIFEST_NAME, RunManifest
from afstab.seeding import rng_for


# ---------------------------------------------------------------------------
# trilinear interpolation


def rgi_reference(axes, values, outside=None):
    """scipy's linear regular-grid interpolator, as afstab used it before
    afstab.grid.Trilinear: with outside=None points off the nodes' box
    raise ValueError, otherwise they read `outside`."""
    if outside is None:
        return RegularGridInterpolator(axes, values, method="linear", bounds_error=True)
    return RegularGridInterpolator(axes, values, method="linear", bounds_error=False,
                                   fill_value=outside)


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
# the generic metric-tensor route: g, dg, ddg and the textbook formulas


def metric(chart, x):
    """The (..., 3, 3) metric tensor phi^4 delta at points x, phi^4 an
    array power even at a single point: the tensor geodesy.metric_speed
    contracts without forming."""
    phi = chart.conformal_factor(x)
    return phi[..., None, None] ** 4 * np.eye(3)


def metric_derivs(chart, x):
    """g, dg, ddg of g = phi^4 delta from the chart's phi terms, with
    dg[..., k, i, j] = d_k g_ij and ddg[..., l, k, i, j] = d_l d_k g_ij."""
    phi, dphi, ddphi = chart.conformal_terms(x)
    eye = np.eye(3)
    g = phi[..., None, None] ** 4 * eye
    dg = 4.0 * (phi**3)[..., None, None, None] * dphi[..., :, None, None] * eye
    ddg = (12.0 * (phi**2)[..., None, None, None, None]
           * dphi[..., :, None, None, None] * dphi[..., None, :, None, None]
           + 4.0 * (phi**3)[..., None, None, None, None]
           * ddphi[..., :, :, None, None]) * eye
    return g, dg, ddg


def _ricci_from_derivs(g, dg, ddg):
    """Generic Ricci tensor from metric derivatives, batched over leading axes.

    Gamma^c_ab = 1/2 g^cd (d_a g_bd + d_b g_ad - d_d g_ab)
    Ric_ab = d_c Gamma^c_ab - d_a Gamma^c_cb + Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb
    """
    g_inv = np.linalg.inv(g)
    sym = (np.einsum("...abd->...dab", dg) + np.einsum("...bad->...dab", dg)
           - np.einsum("...dab->...dab", dg))
    gamma = 0.5 * np.einsum("...cd,...dab->...cab", g_inv, sym)
    dg_inv = -np.einsum("...cm,...emn,...nd->...ecd", g_inv, dg, g_inv)
    dsym = (np.einsum("...eabd->...edab", ddg) + np.einsum("...ebad->...edab", ddg)
            - np.einsum("...edab->...edab", ddg))
    dgamma = (0.5 * np.einsum("...ecd,...dab->...ecab", dg_inv, sym)
              + 0.5 * np.einsum("...cd,...edab->...ecab", g_inv, dsym))
    term1 = np.einsum("...ccab->...ab", dgamma)   # d_c Gamma^c_ab
    term2 = np.einsum("...accb->...ab", dgamma)   # d_a Gamma^c_cb
    term3 = np.einsum("...ccd,...dab->...ab", gamma, gamma)
    term4 = np.einsum("...cad,...dcb->...ab", gamma, gamma)
    return gamma, term1 - term2 + term3 - term4, g_inv


def generic_curvature(chart, x):
    """(Gamma^k_ab, Ric, R) at points x from metric_derivs by the generic
    formulas: Ric symmetrised, R the trace g^-1 . Ric."""
    g, dg, ddg = metric_derivs(chart, x)
    gamma, ric, g_inv = _ricci_from_derivs(g, dg, ddg)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    return gamma, ric, np.einsum("...ab,...ab->...", g_inv, ric)


def generic_decay(chart, sampling):
    """verify_asymptotic_flatness on the tensors of metric_derivs: the same
    sphere directions, the sups over every component of g - delta, dg and
    ddg, and the same fit."""
    radii = np.asarray(sampling.radii, float)
    rng = rng_for(sampling.seed, "af-verify", chart.family)
    dirs = rng.normal(size=(sampling.n_per_sphere, 3))
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = 0.0
    sup0 = []
    b, tau = chart.decay_b, chart.decay_tau
    for r in radii:
        g, dg, ddg = metric_derivs(chart, r * dirs)
        d0 = np.max(np.abs(g - np.eye(3)), axis=(-2, -1))
        d1 = np.max(np.abs(dg), axis=(-3, -2, -1))
        d2 = np.max(np.abs(ddg), axis=(-4, -3, -2, -1))
        worst = max(worst,
                    float(np.max(d0) / (b * r ** (-tau))),
                    float(np.max(d1) / (b * r ** (-tau - 1))),
                    float(np.max(d2) / (b * r ** (-tau - 2))))
        sup0.append(np.max(d0))
    sup0 = np.asarray(sup0)
    if np.all(sup0 > 0):
        fitted_tau = -float(np.polyfit(np.log(radii), np.log(sup0), 1)[0])
    else:
        fitted_tau = float("inf")
    return worst <= 1.0, fitted_tau, worst


def generic_mass_flux(chart, r):
    """adm_mass_at_radius with the flux sum_ij (d_i g_ij - d_j g_ii) nu^j
    contracted from the tensor dg of metric_derivs."""
    dirs, weights = sphere_rule(QUADRATURE_POLAR, QUADRATURE_AZIMUTH)
    _, dg, _ = metric_derivs(chart, r * dirs)
    flux = np.einsum("...iij->...j", dg) - np.einsum("...jii->...j", dg)
    return float(r**2 * np.sum(weights * np.einsum("nj,nj->n", flux, dirs))
                 / (16.0 * np.pi))


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
# the stencils, the stacked gradient and the per-axis |Hess u|_g^2 as one
# expression each, the bit-for-bit references for grid.diff1, grid.diff2,
# grid.gradient and harmonic._hessian_norm2, which form them in place


def diff1_reference(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """grid.diff1, its interior stencil as one expression."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[1] = (v[2] - v[0]) / (2.0 * h)
    out[-2] = (v[-1] - v[-3]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def diff2_reference(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """grid.diff2, its interior stencil as one expression."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2]
                 + 16.0 * v[3:-1] - v[4:]) / (12.0 * h**2)
    out[1] = (v[0] - 2.0 * v[1] + v[2]) / h**2
    out[-2] = (v[-3] - 2.0 * v[-2] + v[-1]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def gradient_reference(values: np.ndarray, h: float) -> np.ndarray:
    """grid.gradient as three separate partials stacked, component-major."""
    return np.stack([diff1_reference(values, h, a) for a in range(3)])


def hessian_norm2_reference(values: np.ndarray, du: np.ndarray, phi: np.ndarray,
                            dphi: np.ndarray, h: float) -> np.ndarray:
    """harmonic._hessian_norm2 with w and phi^8 formed per call and each
    squared entry one fresh expression, the delta_ab du.w term included
    (as 0 du.w) off the diagonal and the sums started from 0."""
    w = dphi / phi[..., None]
    duw = np.einsum("...a,...a->...", du, w)

    def squared_entry(a, b, dd):
        return (dd - 2.0 * (du[..., a] * w[..., b] + w[..., a] * du[..., b]
                            - (a == b) * duw)) ** 2

    diag = sum(squared_entry(a, a, diff2_reference(values, h, a)) for a in range(3))
    mixed = sum(squared_entry(a, b, diff1_reference(du[..., b], h, a))
                for a, b in ((0, 1), (0, 2), (1, 2)))
    return (diag + 2.0 * mixed) / phi**8


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


def flux_divergence_reference(kx, ky, kz, values: np.ndarray) -> np.ndarray:
    """The face-flux stencil of LaplaceBeltrami with one flux array per
    direction, each formed in one expression."""
    c = slice(1, -1)
    flux_x = kx[:, c, c] * (values[1:, c, c] - values[:-1, c, c])
    flux_y = ky[c, :, c] * (values[c, 1:, c] - values[c, :-1, c])
    flux_z = kz[c, c, :] * (values[c, c, 1:] - values[c, c, :-1])
    out = flux_x[1:] - flux_x[:-1]
    out += flux_y[:, 1:] - flux_y[:, :-1]
    out += flux_z[:, :, 1:] - flux_z[:, :, :-1]
    return out


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


def scipy_cg(A, b, *, M, **kwargs):
    """scipy.sparse.linalg.cg on the function A with the preconditioner
    function M, both wrapped as LinearOperators: the iteration
    afstab.harmonic.cg runs, as afstab called it before it had its own."""
    shape = (len(b), len(b))
    return cg(LinearOperator(shape, matvec=A, dtype=float), b,
              M=LinearOperator(shape, matvec=M, dtype=float), **kwargs)


def jacobi_cg_coordinate(chart, grid, axis, plain=False, tol=1e-11, max_iter=20000):
    """Nodal values of one harmonic coordinate, solved by CG with the
    diagonal (Jacobi) preconditioner on the assembled interior system, from
    the same start and to the same relative residual as the library solve;
    a second solver for the same discrete problem.  With plain=True the
    Dirichlet data are x^axis itself instead of the library's
    x^axis (1 - a/|x|)."""
    op = LaplaceBeltrami(chart, grid)
    A, couplings = assemble_interior_system(op)
    ub = grid.points()[..., axis] if plain else op.boundary_values(axis)
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
# exact planar geodesics of a monopole chart


def _geometric_rule(n, panels):
    """Gauss-Legendre nodes and weights on [0, 1], n on each of the panels
    [2^-(j+1), 2^-j], j < panels, and on [0, 2^-panels]."""
    x, wts = np.polynomial.legendre.leggauss(n)
    edges = np.concatenate([[0.0], 0.5 ** np.arange(panels, -1, -1)])
    lo, hi = edges[:-1, None], edges[1:, None]
    return (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel(), (0.5 * (hi - lo) * wts).ravel()


_PLANAR_RULE = _geometric_rule(16, 48)


def _planar_integrals(a, r0, delta, b, R):
    """(angle, length) of monotone runs of geodesics of phi^4 delta,
    phi = 1 + a/r, with F(r) sin(psi) = b, F = phi^2 r, from r0 out to R:
    the integrals of b / (r sqrt(F^2 - b^2)) and phi^2 F / sqrt(F^2 - b^2)
    over [r0, R], given delta = F(r0) - b >= 0; the arguments broadcast.

    With r = r0 + s^2, F(r) - b = s^2 (1 - a^2 / (r r0)) + delta exactly, so
    a turning point at r0 (delta = 0) leaves the integrand bounded and no
    difference cancels.  _PLANAR_RULE scaled to s in [0, sqrt(R - r0)]:
    its geometric panels resolve the peak at s ~ sqrt(delta) and the one of
    a turning point near the minimal sphere r = a.
    """
    nodes, weights = _PLANAR_RULE
    r0, delta, b, R = (np.asarray(v, float)[..., None] for v in (r0, delta, b, R))
    S = np.sqrt(np.maximum(R - r0, 0.0))
    s, ws = S * nodes, S * weights
    r = r0 + s * s
    phi2 = (1.0 + a / r) ** 2
    F = phi2 * r
    root = np.sqrt((s * s * (1.0 - a * a / (r * r0)) + delta) * (F + b))
    dr = np.divide(2.0 * s * ws, root, out=np.zeros_like(root), where=root > 0.0)
    return np.sum(b / r * dr, axis=-1), np.sum(phi2 * F * dr, axis=-1)


def planar_geodesics(a, p, x):
    """Lengths of the geodesics of phi^4 delta, phi = 1 + a/r, from p to x
    that sweep the angle theta between them about the puncture, or
    2 pi - theta, sorted; both points lie outside the minimal sphere r = a.

    Every such geodesic lies in the plane of p, x and the puncture, where
    F(r) sin(psi) = b is conserved (Bouguer's invariant, psi the angle to
    the radial direction); F = phi^2 r is smallest at r = a, F(a) = 4a.
    With r1 <= r2 the endpoint radii, a branch is monotone in r
    (0 <= b <= F(r1)) or turns once at r_t in (a, r1], b = F(r_t).  The
    swept angle runs continuously from 0 (radial, b = 0) through the
    junction b = F(r1), where r_t = r1, and grows without bound as r_t
    falls to a; the scan stops at r_t - a = 1e-12 (r1 - a).  Every root of
    the swept angle minus either target on that curve is bracketed on a
    fixed grid that includes the junction and refined by bisection.  A
    pair p, -p has a circle of equal branches and reads one length.
    """
    p, x = np.asarray(p, float), np.asarray(x, float)
    r1, r2 = sorted((float(np.linalg.norm(p)), float(np.linalg.norm(x))))
    assert r1 > a, "both points must lie outside the minimal sphere"
    theta = float(np.arctan2(np.linalg.norm(np.cross(p, x)), p @ x))
    F1 = r1 + 2.0 * a + a * a / r1

    # u in [0, 1]: monotone, delta = F1 (1 - u)^2 (u = 0 radial, 1 the
    # junction); u in (1, 2]: turning, r_t - a = (r1 - a) 1e-12^((u - 1)^2).
    # Both are linear in the launch angle near the junction.
    def branch(u):
        monotone = u <= 1.0
        delta = F1 * (1.0 - np.minimum(u, 1.0)) ** 2
        rt = a + (r1 - a) * 1e-12 ** (np.maximum(u - 1.0, 0.0) ** 2)
        bt = rt + 2.0 * a + a * a / rt
        mono = _planar_integrals(a, r1, delta, F1 - delta, r2)
        inner, outer = (_planar_integrals(a, rt, 0.0, bt, R) for R in (r1, r2))
        return (np.where(monotone, mono[0], inner[0] + outer[0]),
                np.where(monotone, mono[1], inner[1] + outer[1]))

    grid = np.linspace(0.0, 2.0, 101)
    angles = branch(grid)[0]
    exact, lo, hi, target = [], [], [], []
    for t in sorted({theta, 2.0 * np.pi - theta}):
        f = angles - t
        exact.extend(grid[f == 0.0])
        cross = np.nonzero(f[:-1] * f[1:] < 0.0)[0]
        lo.extend(grid[cross])
        hi.extend(grid[cross + 1])
        target.extend([t] * len(cross))
    lo, hi, target = np.array(lo), np.array(hi), np.array(target)
    f_lo = branch(lo)[0] - target
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = branch(mid)[0] - target
        same = (f_mid < 0.0) == (f_lo < 0.0)
        lo, f_lo, hi = (np.where(same, mid, lo), np.where(same, f_mid, f_lo),
                        np.where(same, hi, mid))
    return sorted(branch(np.concatenate([exact, 0.5 * (lo + hi)]))[1])


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


def ball_distance_field(chart, r: float, nodes: int) -> DistanceField:
    """The eikonal distance field from the base point that measured the
    geodesic r-ball of `gh.gh_distortion` before its certified and shot
    node mask: halfwidth max(1.6 r, r + 2), kept inside the chart box; the
    ball was the kept grid nodes where it reads <= r."""
    hw = min(chart.box_halfwidth - float(np.max(np.abs(chart.base_point))),
             max(1.6 * r, r + 2.0))
    return DistanceField(chart, chart.base_point, hw, nodes=nodes)


# ---------------------------------------------------------------------------
# geodesic-ball sampling


def sample_geodesic_ball_reference(chart, triple, r, n_points, seed, label="ball",
                                   cut=False):
    """`gh.sample_geodesic_ball` as it was before it stopped shooting the
    candidates past the ones its certified candidates fill: every
    uncertified candidate of a round is shot; same arguments and return.

    With cut=True, the sampler as it was before its candidates rode the
    distance batch of the rows that use the sample: the candidates past
    the ones the certified candidates fill are not shot, and each round
    shoots the rest in a distance_batch of their own before the next
    round is drawn."""
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
        filled = np.cumsum(good) >= n_points - len(pts)
        if cut and filled[-1]:
            shoot[np.argmax(filled) + 1:] = False
        if np.any(shoot):
            rest = cands[shoot]
            d, _, _, conv = distance_batch(chart, np.broadcast_to(p, rest.shape), rest)
            good[shoot] = conv & (d <= r)
        pts.extend(cands[good])
        budget -= 1
    if len(pts) < n_points:
        raise NoConvergence(f"geodesic-ball sampling stalled at {len(pts)}/{n_points}")
    return np.array(pts[:n_points])


def sequential_gh_distortion(chart, triple, r, n_pairs, seed):
    """`gh.gh_distortion` with its pairs drawn first, by
    sample_geodesic_ball_reference with cut=True, then one distance_batch
    of the rows [pairs | nodes]; same arguments and return."""
    nodes = triple.grid.points().reshape(-1, 3)
    in_ball, shoot = _ball_nodes(chart, nodes, ~triple.excluded.ravel(), r)
    pts = sample_geodesic_ball_reference(chart, triple, r, 2 * n_pairs, seed,
                                         label=f"distort-{r}", cut=True)
    xs, ys = pts[:n_pairs], pts[n_pairs:]
    p = np.broadcast_to(np.asarray(chart.base_point, float), (len(shoot), 3))
    d, _, _, conv = distance_batch(chart, np.concatenate([xs, p]),
                                   np.concatenate([ys, nodes[shoot]]))
    in_ball[shoot] = conv[n_pairs:] & (d[n_pairs:] <= r)
    in_ball = in_ball.reshape(triple.excluded.shape)
    n_failed_nodes = int(np.sum(~conv[n_pairs:]))
    d, conv = d[:n_pairs], conv[:n_pairs]
    defects = np.abs(d - np.linalg.norm(triple.u_map(xs) - triple.u_map(ys), axis=1))
    defects = defects[conv]
    if len(defects) == 0:
        raise NoConvergence("every distortion pair failed to converge")
    quant = np.percentile(np.sort(defects), [50.0, 90.0, 99.0])
    ortho_l1 = float(np.sum(triple.gram_defect[in_ball]
                            * triple.volume_weights()[in_ball]))
    return DistortionReport(r=float(r), n_pairs=int(n_pairs),
                            max_defect=float(np.max(defects)),
                            defect_p50=float(quant[0]), defect_p90=float(quant[1]),
                            defect_p99=float(quant[2]), ortho_l1=ortho_l1,
                            n_failed_pairs=int(np.sum(~conv)),
                            n_failed_nodes=n_failed_nodes)


def sequential_pythagoras(ctx):
    """`cli._pythagoras` with its pairs drawn first, by
    sample_geodesic_ball_reference with cut=True; same argument and
    return."""
    s = ctx.cfg.sampling
    n = s.n_pythagoras_pairs
    pts = sample_geodesic_ball_reference(ctx.chart, ctx.triple, s.ball_radius, 2 * n,
                                         s.seed, label="pythagoras", cut=True)
    results = pythagorean_records(ctx.chart, ctx.triple, pts[:n], pts[n:],
                                  [k % 3 for k in range(n)],
                                  [s.seed + k for k in range(n)])
    records = [r for r in results if not isinstance(r, AfstabError)]
    failures = n - len(records)
    return (records, failures), failures <= max(1, n // 100)


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
            v, gr, _ = term[1].value_grad_hess(pts, order=1)
            phi = phi + v
            grad = grad + gr
    return phi, grad


def _gamma_vv_reference(chart, x, v):
    """Gamma^k_ab v^a v^b, the puncture rows nudged by copysign(1e-9, x_0)
    along x first."""
    if chart.singular_at_origin:
        r2 = np.einsum("...a,...a->...", x, x)
        bad = r2 < 1e-18
        if np.any(bad):
            x = x.copy()
            x[bad, 0] += np.copysign(1e-9, x[bad, 0])
    phi, dphi = _conformal_gradient_reference(chart, x)
    w = dphi / phi[..., None]
    vw = np.einsum("...a,...a->...", v, w)
    vv = np.einsum("...a,...a->...", v, v)
    return 2.0 * (2.0 * vw[..., None] * v - vv[..., None] * w)


def rk4_reference(chart, x0, w, n_steps, record_every=0):
    """Fixed-step RK4 of the geodesic equation with x and v as two arrays.

    The reference for `geodesy._rk4_batch`, which runs the same stages on
    column-major stage buffers [x | v | a]; same arguments and returns.
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
    the chord solve, then the retry from the bent chord for the pairs it
    fails; same arguments and returns."""
    starts = np.atleast_2d(np.asarray(starts, float))
    targets = np.atleast_2d(np.asarray(targets, float))
    w, res, conv = _bvp_batch(chart, starts, targets, n_steps=n_steps)
    idx = np.nonzero(~conv)[0]
    if len(idx):
        w2, res2, conv2 = _bvp_batch(chart, starts[idx], targets[idx],
                                     w0=_bent_chord(starts[idx], targets[idx]),
                                     n_steps=n_steps)
        better = conv2 | (res2 < res[idx])
        w[idx[better]] = w2[better]
        res[idx[better]] = res2[better]
        conv[idx[better]] = conv2[better]
    d = geodesic_lengths(chart, starts, w)
    same = np.linalg.norm(targets - starts, axis=1) < 1e-14
    return np.where(same, 0.0, d), w, res, conv | same


def chord_seeded_projections(chart, triple, xs, ys, axes, seeds):
    """`geodesy.level_set_projections` with the Newton solve of every
    candidate's far shot started from its straight chord, as it was before
    the extrapolated seed; same arguments.  Returns the per-row outputs,
    (z, x_star) or the AfstabError that ended the row, then the candidates'
    velocities and convergence flags in batch order (None, None when no
    row shoots)."""
    grid = triple.grid
    L = 0.6 * grid.halfwidth
    rho = 2.0 * grid.h
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    out = [None] * len(xs)
    rows = []
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
        return out, None, None
    starts = np.vstack([r[3] for r in rows])
    w, _, conv, trajs = _bvp_batch(chart, starts, np.vstack([r[5] for r in rows]),
                                   n_steps=PROJECTION_STEPS, record=True)
    lengths = geodesic_lengths(chart, starts, w)
    samples = trajs[:, ::SCORE_STRIDE]
    scores = segment_functional(np.clip(samples, -grid.halfwidth, grid.halfwidth),
                                lengths, triple.hess_sum_interp)
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
    return out, w, conv


# ---------------------------------------------------------------------------
# gradient-flow legs


def flow_batch_reference(triple, axis, starts, t, n_steps):
    """Fixed-step RK4 flow of many seeds through the interpolated gradient,
    with its own RK4 loop.

    The reference for `gh._flow_batch`, which runs the same stages through
    the RK4 loop it shares with the geodesics; same arguments and returns.
    """
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


def adaptive_flow_leg(triple, axis, y_star, t):
    """End of the flow leg of u^axis over time t from y*, by scipy's
    adaptive RK45 (rtol 1e-10, atol 1e-12) with a terminal event at the
    usable box's edge, which raises LeftDomain.

    The reference for the leg end of `gh.gradient_flow_step`, which takes
    it from the fixed-step RK4 path that scored the pick.
    """
    interp = triple.grad_interp[axis]
    sign = 1.0 if t >= 0 else -1.0
    lim = triple.grid.halfwidth - 2 * triple.grid.h

    def rhs(s, x):
        return sign * interp(x)

    def exit_event(s, x):
        return lim - np.max(np.abs(x))
    exit_event.terminal = True

    sol = solve_ivp(rhs, (0.0, abs(t)), y_star,
                    method="RK45", rtol=1e-10, atol=1e-12, events=exit_event)
    if sol.status == 1 or not sol.success:
        raise LeftDomain(f"gradient flow exited the usable grid box (axis {axis})")
    return sol.y[:, -1]


# ---------------------------------------------------------------------------
# Richardson extrapolation of the slack over grid levels, and a manifest
# read back from its output directory (the program itself needs neither)


def richardson_slack(slacks, spacings):
    """Extrapolated slack and an error band from second-order Richardson.

    slacks/spacings are matched sequences over at least two grid levels,
    finest last.  The band is the spread between the extrapolations of the
    last two level pairs (or the correction magnitude when only two levels
    are given).
    """
    s = [float(v) for v in slacks]
    h = [float(v) for v in spacings]
    if len(s) < 2:
        raise ValueError("need at least two grid levels")

    def extrap(i, j):
        return (s[j] * h[i]**2 - s[i] * h[j]**2) / (h[i]**2 - h[j]**2)

    if len(s) == 2:
        e = extrap(0, 1)
        return e, abs(e - s[1])
    e_prev = extrap(-3, -2)
    e_last = extrap(-2, -1)
    band = abs(e_last - e_prev)
    return e_last, band


def load_manifest(out_dir):
    """The RunManifest an output directory holds, read back from its file."""
    path = os.path.join(str(out_dir), MANIFEST_NAME)
    with open(path) as f:
        data = json.load(f)
    m = RunManifest.__new__(RunManifest)
    m.out_dir = str(out_dir)
    m.data = data
    return m
