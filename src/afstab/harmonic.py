"""Harmonic coordinates on a truncated grid.

Solves div_g grad u = 0 for the three functions asymptotic to the chart
coordinates, with Dirichlet data on the truncation box, all three against
one operator, and normalizes them to u(p) = 0 at the chart base point p.
A solve and a reload of field dumps build the triple by one constructor
from the normalized u and the nodal conformal data; each field a
diagnostic reads (u's coordinate partials, |Hess u|_g^2, grad_sup, R, the
Gram defect, the interpolators) is derived on its first read, so a stage
pays only for what it reads: only the mass inequality and the Pythagorean
scoring read |Hess u|_g^2.  No derived field builds a whole-grid 3x3 tensor:
|Hess u|_g^2 is summed entry by entry, and R is taken slab by slab.

The discretization is the conservative second-order scheme for
u -> (1/sqrt(det g)) d_a (sqrt(det g) g^ab d_b u) with coefficients
evaluated at cell-face midpoints.  Every family in the corpus is
conformally flat, so the face tensor sqrt(det g) g^ab reduces to the
diagonal phi^2 delta^ab.  One face-flux stencil is the only encoding of
the scheme, and no matrix is assembled: without the 1/(h^2 sqrt(det g))
scaling and negated, the stencil on the interior nodes is a symmetric
positive definite operator, which is exactly the symmetry of the operator
in the sqrt(det g)-weighted inner product, and the same stencil on the
boundary data gives the Dirichlet right-hand side.

The solve is conjugate gradients on that operator, preconditioned by the
Concus-Golub scaled Laplacian: A = div(phi^2 grad .) is spectrally close
to Phi L Phi, with Phi = diag(phi) and L the 7-point Dirichlet Laplacian,
which DST-I diagonalizes exactly, so each application of the inverse is
one forward and one inverse fast sine transform.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.fft import dstn, idstn
from scipy.sparse.linalg import LinearOperator, cg

from .errors import MismatchedChart, SolverDiverged
from .geometry import MetricChart, scalar_curvature
from .grid import Grid, ScalarGridField, diff1, diff2, gradient, interpolator
from .mass import sphere_rule

# No solver reads pyamg; only bench/worker.py's environment() does (and
# TestBenchHooks checks that the name exists).
pyamg = None


def _finite_impute(arr: np.ndarray, node):
    """Replace the values at one node by the mean of its six neighbors."""
    i, j, k = node
    arr[i, j, k] = (arr[i + 1, j, k] + arr[i - 1, j, k] + arr[i, j + 1, k]
                    + arr[i, j - 1, k] + arr[i, j, k + 1] + arr[i, j, k - 1]) / 6.0


def nodal_conformal(chart: MetricChart, grid: Grid):
    """Nodal conformal factor and gradient; returns (phi, dphi, node).  For
    a chart singular at the origin with a node there, node is that node and
    phi, dphi hold the mean of its six neighbors there, else node is None."""
    phi, dphi = chart.conformal_gradient(grid.points())
    c = grid.nodes // 2
    if not (chart.singular_at_origin and abs(grid.axis[c]) < 1e-12):
        return phi, dphi, None
    node = (c, c, c)
    _finite_impute(phi, node)
    _finite_impute(dphi, node)
    return phi, dphi, node


class LaplaceBeltrami:
    """Matrix-free divergence-form operator on a grid.

    Face coefficient arrays kx, ky, kz hold sqrt(det g) g^aa at the
    midpoints of the faces normal to each axis; weight holds the nodal
    sqrt(det g), and phi, dphi, singular_node those of nodal_conformal,
    which the triple builder reuses.  One face-flux stencil encodes the
    operator: apply() scales it to the full operator at the interior
    nodes, interior_system() negates it into the SPD interior operator and
    its Dirichlet lift, and poisson_preconditioner() is the fast-Poisson
    preconditioner of that interior operator.
    """

    def __init__(self, chart: MetricChart, grid: Grid):
        if grid.halfwidth > chart.box_halfwidth:
            raise MismatchedChart("grid box exceeds the chart domain")
        self.chart = chart
        self.grid = grid
        ax = grid.axis
        mid = 0.5 * (ax[:-1] + ax[1:])

        def face_phi2(a):
            axes = [ax, ax, ax]
            axes[a] = mid
            X, Y, Z = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([X, Y, Z], axis=-1)
            return chart.conformal_factor(pts) ** 2

        self.kx = face_phi2(0)   # (N-1, N, N)
        self.ky = face_phi2(1)
        self.kz = face_phi2(2)
        self.phi, self.dphi, self.singular_node = nodal_conformal(chart, grid)
        self.weight = self.phi**6
        self.h = grid.h
        self._system = None
        self._preconditioner = None

    @staticmethod
    def _flux_divergence(kx, ky, kz, values: np.ndarray) -> np.ndarray:
        """(n, n, n) sum over the axes of the outgoing minus the incoming
        face flux k_a (difference of values across the face) of nodal
        values, at the interior nodes: h^2 weight times the operator."""
        c = slice(1, -1)
        flux_x = kx[:, c, c] * (values[1:, c, c] - values[:-1, c, c])
        flux_y = ky[c, :, c] * (values[c, 1:, c] - values[c, :-1, c])
        flux_z = kz[c, c, :] * (values[c, c, 1:] - values[c, c, :-1])
        out = flux_x[1:] - flux_x[:-1]
        out += flux_y[:, 1:] - flux_y[:, :-1]
        out += flux_z[:, :, 1:] - flux_z[:, :, :-1]
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Operator applied to nodal values; zero on the boundary ring."""
        out = np.zeros_like(values)
        inner = (slice(1, -1),) * 3
        out[inner] += self._flux_divergence(self.kx, self.ky, self.kz, values)
        out[inner] /= self.h**2 * self.weight[inner]
        return out

    def interior_system(self):
        """SPD operator over the interior nodes plus its Dirichlet lift.

        Returns (A, lift): A is the LinearOperator x -> -(stencil of x
        padded with zeros on the boundary ring), and lift(ub) the stencil
        of the nodal array ub with its interior zeroed, so A x = lift(ub)
        is the Dirichlet problem with boundary data ub.  Built on the first
        call; later calls return the same objects, so the three axes of a
        triple solve against one operator.
        """
        if self._system is None:
            n = self.grid.nodes - 2
            padded = np.zeros((n + 2,) * 3)
            # bound to the face arrays, not to self: a closure over self
            # would make a cycle that keeps the whole operator alive until
            # the cyclic garbage collector runs
            stencil = partial(self._flux_divergence, self.kx, self.ky, self.kz)

            def matvec(x):
                padded[1:-1, 1:-1, 1:-1] = x.reshape(n, n, n)
                out = stencil(padded)
                return np.negative(out, out=out).ravel()

            def lift(ub):
                shell = ub.copy()
                shell[1:-1, 1:-1, 1:-1] = 0.0
                return stencil(shell).ravel()

            A = LinearOperator((n**3, n**3), matvec=matvec, dtype=float)
            self._system = A, lift
        return self._system

    def poisson_preconditioner(self) -> LinearOperator:
        """M^-1 v = Phi^-1 L^-1 Phi^-1 v over the interior nodes.

        Phi is the interior block of the nodal phi (imputed at the
        puncture) and L the unscaled 6/-1 Dirichlet stencil, in the units
        of the interior_system() operator; L^-1 divides the DST-I transform
        by the eigenvalues sum_a (2 - 2 cos(pi k_a / (n + 1))).  Built on
        the first call; later calls return the same operator, so the three
        axes of a triple share it.
        """
        if self._preconditioner is None:
            n = self.grid.nodes - 2
            lam1 = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
            lam = lam1[:, None, None] + lam1[None, :, None] + lam1[None, None, :]
            inv_phi = 1.0 / self.phi[1:-1, 1:-1, 1:-1]

            def apply_inverse(v):
                w = dstn(v.reshape(n, n, n) * inv_phi, type=1)
                w /= lam
                w = idstn(w, type=1, overwrite_x=True)
                w *= inv_phi
                return w.ravel()

            self._preconditioner = LinearOperator((n**3, n**3), matvec=apply_inverse,
                                                  dtype=float)
        return self._preconditioner


def fit_monopole(chart: MetricChart, radius: float) -> float:
    """Coefficient a of phi ~ 1 + a/r from the sphere average at `radius`."""
    dirs, w = sphere_rule(16, 32)
    phi = chart.conformal_factor(radius * dirs)
    mean = float(np.sum(w * phi) / (4.0 * np.pi))
    return radius * (mean - 1.0)


def boundary_values(chart: MetricChart, grid: Grid, axis: int, bc: str) -> np.ndarray:
    """Dirichlet data on the whole node array (only the boundary ring is used).

    plain:      u = x^axis
    corrected:  u = x^axis (1 - a/|x|) with a the fitted monopole of phi,
                which matches the next order of the far-field expansion of
                the harmonic coordinate and shrinks the truncation error.
    """
    pts = grid.points()
    lin = pts[..., axis]
    if bc == "plain":
        return lin.copy()
    if bc == "corrected":
        a = fit_monopole(chart, grid.halfwidth)
        r = np.maximum(np.linalg.norm(pts, axis=-1), 1e-300)
        return lin * (1.0 - a / r)
    raise ValueError(f"unknown boundary policy {bc!r}")


def solve_harmonic_coordinate(chart: MetricChart, grid: Grid, axis: int,
                              bc: str = "corrected", tol: float = 1e-11,
                              max_iter: int = 20000,
                              operator: LaplaceBeltrami | None = None) -> ScalarGridField:
    """Solve the Dirichlet problem for one harmonic coordinate.

    Iterates conjugate gradients on the operator's interior system,
    preconditioned by its fast-Poisson preconditioner, to relative
    residual <= tol, starting from the boundary profile extended inward,
    and raises SolverDiverged when the budget is exhausted.
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis index must be 0, 1, or 2")
    op = operator if operator is not None else LaplaceBeltrami(chart, grid)
    N = grid.nodes
    n = N - 2
    A, lift = op.interior_system()
    ub = boundary_values(chart, grid, axis, bc)
    x0 = ub[1:-1, 1:-1, 1:-1].ravel().copy()
    sol, info = cg(A, lift(ub), x0=x0, rtol=tol, atol=0.0, maxiter=max_iter,
                   M=op.poisson_preconditioner())
    if info != 0:
        raise SolverDiverged(f"conjugate gradients returned info={info} "
                             f"(axis {axis}, N={N})")
    values = ub.copy()
    values[1:-1, 1:-1, 1:-1] = sol.reshape(n, n, n)
    return ScalarGridField(grid, values)


# ---------------------------------------------------------------------------
# the solved triple with its derived fields


def _hessian_norm2(values: np.ndarray, du: np.ndarray, phi: np.ndarray,
                   dphi: np.ndarray, h: float) -> np.ndarray:
    """|Hess u|_g^2 of nodal values with coordinate partials du, as
    sum_a e_aa^2 + 2 sum_{a<b} e_ab^2 over the covariant-Hessian entries
    e_ab = dd_ab - 2(d_a u w_b + w_a d_b u - delta_ab du.w), w = dphi / phi,
    each one (N, N, N) array."""
    w = dphi / phi[..., None]
    duw = np.einsum("...a,...a->...", du, w)

    def squared_entry(a, b, dd):
        return (dd - 2.0 * (du[..., a] * w[..., b] + w[..., a] * du[..., b]
                            - (a == b) * duw)) ** 2

    diag = sum(squared_entry(a, a, diff2(values, h, a)) for a in range(3))
    mixed = sum(squared_entry(a, b, diff1(du[..., b], h, a))
                for a, b in ((0, 1), (0, 2), (1, 2)))
    return (diag + 2.0 * mixed) / phi**8


@dataclass
class HarmonicTriple:
    """The three normalized coordinates and the fields derived from them.

    The constructor takes what a solve or a reload provides: the fields
    u^i (u^i(p) = 0), the nodal conformal data, the excluded-node mask
    and, from a solve only, the diagnostics residual_norms and u_at_p
    (None on a triple rebuilt from field dumps).  Every other field is
    derived from these on first read and kept.
    """

    chart: MetricChart
    grid: Grid
    u: tuple                     # three ScalarGridFields, u^i(p) = 0
    phi: np.ndarray              # nodal conformal factor (puncture imputed)
    dphi: np.ndarray             # nodal conformal gradient
    excluded: np.ndarray         # nodes excluded from integral norms
    residual_norms: tuple | None = None   # operator residual per raw solution
    u_at_p: tuple | None = None           # the subtracted raw values u^i(p)

    @cached_property
    def du(self) -> tuple:
        """(N, N, N, 3) coordinate partials per axis."""
        return tuple(gradient(u.values, self.grid.h) for u in self.u)

    @cached_property
    def hess2(self) -> tuple:
        """(N, N, N) |Hess u^i|_g^2 per axis."""
        return tuple(_hessian_norm2(u.values, du, self.phi, self.dphi, self.grid.h)
                     for u, du in zip(self.u, self.du))

    @cached_property
    def grad_sup(self) -> float:
        """The largest |grad u^i|_g over the axes and the kept nodes."""
        return max(float(np.max(self.grad_norm(i)[~self.excluded])) for i in range(3))

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        """R = -8 phi^-5 lap(phi) at the nodes, from the chart's phi (the
        puncture is not imputed)."""
        # one x-slab at a time, for memory: no (N, N, N, 3, 3) phi Hessian
        with np.errstate(invalid="ignore"):
            return np.stack([scalar_curvature(self.chart, slab)
                             for slab in self.grid.points()])

    @cached_property
    def gram_defect(self) -> np.ndarray:
        """sum_ij |<grad u^i, grad u^j>_g - delta^ij| field."""
        total = np.zeros((self.grid.nodes,) * 3)
        for i in range(3):
            for j in range(3):
                gram = np.einsum("...a,...a->...", self.du[i], self.du[j]) / self.phi**4
                total += np.abs(gram - (1.0 if i == j else 0.0))
        return total

    @cached_property
    def u_interp(self) -> tuple:
        """Interpolator of u^i per axis."""
        return tuple(interpolator(self.grid, u.values) for u in self.u)

    @cached_property
    def grad_interp(self) -> tuple:
        """Interpolator of the raised g-gradient du / phi^4 of u^i per axis."""
        return tuple(interpolator(self.grid, du / self.phi[..., None] ** 4)
                     for du in self.du)

    @cached_property
    def hess_sum_interp(self):
        """Interpolator of sum_j |Hess u^j|_g, the segment-functional integrand."""
        return interpolator(self.grid, sum(np.sqrt(h2) for h2 in self.hess2))

    @cached_property
    def gram_defect_interp(self):
        """Interpolator of the gram_defect field."""
        return interpolator(self.grid, self.gram_defect)

    def volume_weights(self) -> np.ndarray:
        """Riemannian cell volumes sqrt(det g) h^3 at nodes."""
        return self.phi**6 * self.grid.h**3

    def grad_norm(self, i: int) -> np.ndarray:
        """|grad u^i|_g field."""
        du = self.du[i]
        return np.sqrt(np.einsum("...a,...a->...", du, du)) / self.phi**2

    def u_map(self, pts) -> np.ndarray:
        """The map u = (u^1, u^2, u^3) at arbitrary points."""
        pts = np.asarray(pts, float)
        single = pts.ndim == 1
        out = np.stack([interp(pts) for interp in self.u_interp], axis=-1)
        return out[0] if single else out


def _excluded(grid: Grid, singular_node) -> np.ndarray:
    """Nodes excluded from norms: the two-cell margin and the puncture."""
    excluded = grid.margin_mask(2)
    if singular_node is not None:
        excluded[singular_node] = True
    return excluded


def build_harmonic_triple(chart: MetricChart, grid: Grid, bc: str = "corrected",
                          tol: float = 1e-11, max_iter: int = 20000) -> HarmonicTriple:
    """Solve all three axes against one operator, then normalize.

    The residual norms are taken from the raw solutions; each is then
    normalized in place to u^i(p) = 0 at the chart base point p (trilinear
    value subtracted).  The derived fields come from the normalized values
    on first read, as on a triple_from_solutions reload of the dumps.
    """
    operator = LaplaceBeltrami(chart, grid)
    solutions = [solve_harmonic_coordinate(chart, grid, a, bc=bc, tol=tol,
                                           max_iter=max_iter, operator=operator)
                 for a in range(3)]
    excluded = _excluded(grid, operator.singular_node)
    residual_norms = tuple(float(np.max(np.abs(operator.apply(u.values)[~excluded])))
                           for u in solutions)
    p = np.asarray(chart.base_point, float)
    u_at_p = tuple(float(interpolator(grid, u.values)(p)[0]) for u in solutions)
    for u, off in zip(solutions, u_at_p):
        u.values -= off
    return HarmonicTriple(chart=chart, grid=grid, u=tuple(solutions),
                          phi=operator.phi, dphi=operator.dphi, excluded=excluded,
                          residual_norms=residual_norms, u_at_p=u_at_p)


def triple_from_solutions(chart: MetricChart, grid: Grid, solutions) -> HarmonicTriple:
    """The triple of already-normalized nodal fields (e.g. field dumps).

    Built by the same constructor as a solved triple, from the values as
    they are, so a triple reloaded from its dumps derives the solved one's
    fields bit for bit.  No operator is built: residual_norms and u_at_p
    stay None.
    """
    for sol in solutions:
        if sol.grid != grid:
            raise MismatchedChart("field dump grid differs from the config grid")
    phi, dphi, singular_node = nodal_conformal(chart, grid)
    return HarmonicTriple(chart=chart, grid=grid, u=tuple(solutions), phi=phi,
                          dphi=dphi, excluded=_excluded(grid, singular_node))


def cheng_yau_ratio(triple: HarmonicTriple, i: int, radius: float) -> float:
    """Diagnostic sup_{B_r}|grad u| / sup_{B_2r}|u - u(p)|.

    Balls are chart-Euclidean around the base point p; the constant is
    reported per run and never asserted against a fixed value.
    """
    c = np.asarray(triple.chart.base_point, float)
    r = np.linalg.norm(triple.grid.points() - c, axis=-1)
    inner = (r <= radius) & ~triple.excluded
    outer = (r <= 2.0 * radius) & ~triple.excluded
    u0 = float(triple.u_interp[i](c)[0])
    num = float(np.max(triple.grad_norm(i)[inner]))
    den = float(np.max(np.abs(triple.u[i].values[outer] - u0)))
    return num / max(den, 1e-300)
