"""Harmonic coordinates on a truncated grid.

Solves div_g grad u = 0 for the three functions asymptotic to the chart
coordinates, with Dirichlet data on the truncation box, all three against
one operator, and normalizes them to u(p) = 0 at the chart base point p.
The data are x^i (1 - a/|x|) with a the chart's monopole amplitude, m/2
on Schwarzschild.
A solve and a reload of field dumps build the triple by one constructor
from the normalized u and the nodal conformal data; each field a
diagnostic reads (u's coordinate partials, |Hess u|_g^2, grad_sup, R, the
Gram defect, the interpolators) is derived on its first read, so a stage
pays only for what it reads: only the mass inequality and the Pythagorean
scoring read |Hess u|_g^2.  No derived field builds a whole-grid 3x3 tensor:
|Hess u|_g^2 is summed entry by entry, and R is taken slab by slab.

Each whole-grid quantity is built once per triple, in place where it can
be.  The node coordinates are built once, for the nodal phi and grad phi
(nodal_conformal); R, the boundary data, the Cheng-Yau balls and the
certificate's radii come from the grid axis without them.  The operator
builds the face coefficients from phi alone and, on the first axis, the
boundary factor 1 - a/|x|, which the three axes share.  The triple
shares w = grad phi / phi and phi^8 across the axes' |Hess u|_g^2, whose
entries and the gradient's partials are written into their arrays in
the operation order of the one-expression forms (tests/oracles.py keeps
those as the references).  |grad u|_g is not kept (three more nodal
fields): grad_norms() hands the three to a stage and fixes grad_sup from
them.

Gradient fields are component-major, shape (3, N, N, N): du per axis (from
grid.gradient) and w, so each partial is one C-contiguous array and the
products of partials that |Hess u|_g^2, |grad u|_g and the Gram defect
form stream through memory.  Their length-3 contractions all go through
grid.dot3, which fixes the summation order: np.einsum's order depends on
the operands' memory layout, and dot3 keeps the one it takes on
contiguous (N, N, N, 3) data.  Only grad_interp interleaves its values
(N, N, N, 3), as Trilinear reads them; the nodal dphi keeps the layout
the chart returns.

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

The solve is conjugate gradients on that operator (cg, scipy's iteration
on plain functions), preconditioned by the Concus-Golub scaled Laplacian:
A = div(phi^2 grad .) is spectrally close to Phi L Phi, with
Phi = diag(phi) and L the 7-point Dirichlet Laplacian, which DST-I
diagonalizes exactly, so each application of the inverse is one forward
and one inverse fast sine transform.  scipy.fft is the only part of scipy
the module imports, on the first preconditioner: a numpy rfft of the odd
extension gives the same DST-I bit for bit but takes about three times as
long.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import MismatchedChart, SolverDiverged
from .geometry import MetricChart, scalar_curvature
from .grid import (Grid, ScalarGridField, diff1, diff2, dot3, gradient, interpolator,
                   lattice)

# No solver reads pyamg; only bench/worker.py's environment() does (and
# TestBenchHooks checks that the name exists).
pyamg = None


def cg(A: Callable, b: np.ndarray, *, x0: np.ndarray, rtol: float, atol: float,
       maxiter: int, M: Callable, callback=None):
    """Preconditioned conjugate gradients for the SPD system A x = b.

    A and M are functions on flat vectors (M applies the preconditioner's
    inverse).  This is scipy.sparse.linalg.cg's iteration in its operation
    order, so it returns the same (x, info) bit for bit: info is 0 once
    |r| < max(atol, rtol |b|) and maxiter when the budget runs out; b itself
    (the exact solution) for b = 0.  callback(x) runs after each iteration.
    """
    x = np.array(x0, dtype=float)
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    r = b - A(x) if x.any() else b.copy()
    rho_prev, p = None, None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M(r)
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = A(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if callback is not None:
            callback(x)
    return x, maxiter


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
    sqrt(det g) (built on first read), and phi, dphi, singular_node those
    of nodal_conformal, which the triple builder reuses; boundary_values()
    gives each axis's Dirichlet data.  One face-flux stencil encodes the
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
            phi = chart.conformal_factor(lattice(*axes))
            return np.square(phi, out=phi)

        self.kx = face_phi2(0)   # (N-1, N, N)
        self.ky = face_phi2(1)
        self.kz = face_phi2(2)
        self.phi, self.dphi, self.singular_node = nodal_conformal(chart, grid)
        self.h = grid.h
        self._system = None
        self._preconditioner = None
        self._correction = None

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

    @cached_property
    def weight(self) -> np.ndarray:
        """Nodal sqrt(det g) = phi^6, built on the first apply(): the solves
        do not read it, so it is not alive while they run."""
        return self.phi**6

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Operator applied to nodal values; zero on the boundary ring."""
        out = np.zeros_like(values)
        inner = (slice(1, -1),) * 3
        out[inner] += self._flux_divergence(self.kx, self.ky, self.kz, values)
        out[inner] /= self.h**2 * self.weight[inner]
        return out

    def interior_system(self):
        """SPD operator over the interior nodes plus its Dirichlet lift.

        Returns (matvec, lift): matvec is the function x -> -(stencil of x
        padded with zeros on the boundary ring) on flat interior vectors of
        length (N - 2)^3, and lift(ub) the flat stencil of the nodal array
        ub with its interior zeroed, so matvec(x) = lift(ub) is the
        Dirichlet problem with boundary data ub.  Built on the first
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

            self._system = matvec, lift
        return self._system

    def boundary_values(self, axis: int) -> np.ndarray:
        """Dirichlet data u = x^axis (1 - a/|x|) for one axis on the whole
        node array (only the boundary ring is used; the interior starts the
        solve), with a the chart's monopole amplitude: the next order of the
        far-field expansion of the harmonic coordinate, which shrinks the
        truncation error.  At a = 0 the data are x^axis bit for bit.

        The factor (1 - a/|x|) is built on the first call from the node
        radii; later calls, the three axes of a triple, share it.
        """
        shape = [1, 1, 1]
        shape[axis] = self.grid.nodes
        if self._correction is None:
            factor = np.maximum(self.grid.radii(), 1e-300)
            np.divide(self.chart.monopole_amplitude, factor, out=factor)
            self._correction = np.subtract(1.0, factor, out=factor)
        return self.grid.axis.reshape(shape) * self._correction

    def poisson_preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """The function v -> M^-1 v = Phi^-1 L^-1 Phi^-1 v on flat interior
        vectors.

        Phi is the interior block of the nodal phi (imputed at the
        puncture) and L the unscaled 6/-1 Dirichlet stencil, in the units
        of the interior_system() operator; L^-1 divides the DST-I transform
        by the eigenvalues sum_a (2 - 2 cos(pi k_a / (n + 1))).  Built on
        the first call; later calls return the same function, so the three
        axes of a triple share it.
        """
        if self._preconditioner is None:
            from scipy.fft import dstn, idstn

            n = self.grid.nodes - 2
            lam1 = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
            lam = lam1[:, None, None] + lam1[None, :, None] + lam1[None, None, :]
            inv_phi = 1.0 / self.phi[1:-1, 1:-1, 1:-1]

            def apply_inverse(v):
                # both transforms overwrite their input: each is a fresh array
                w = dstn(v.reshape(n, n, n) * inv_phi, type=1, overwrite_x=True)
                w /= lam
                w = idstn(w, type=1, overwrite_x=True)
                w *= inv_phi
                return w.ravel()

            self._preconditioner = apply_inverse
        return self._preconditioner


def solve_harmonic_coordinate(chart: MetricChart, grid: Grid, axis: int,
                              tol: float = 1e-11, max_iter: int = 20000,
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
    values = op.boundary_values(axis)
    sol, info = cg(A, lift(values), x0=values[1:-1, 1:-1, 1:-1].ravel(), rtol=tol,
                   atol=0.0, maxiter=max_iter, M=op.poisson_preconditioner())
    if info != 0:
        raise SolverDiverged(f"conjugate gradients returned info={info} "
                             f"(axis {axis}, N={N})")
    values[1:-1, 1:-1, 1:-1] = sol.reshape(n, n, n)
    return ScalarGridField(grid, values)


# ---------------------------------------------------------------------------
# the solved triple with its derived fields


def _hessian_norm2(values: np.ndarray, du: np.ndarray, w: np.ndarray,
                   phi8: np.ndarray, h: float) -> np.ndarray:
    """|Hess u|_g^2 of nodal values with component-major coordinate
    partials du, given the component-major w = dphi / phi and phi^8 (the
    same for the three axes of a triple), as
    sum_a e_aa^2 + 2 sum_{a<b} e_ab^2 over the covariant-Hessian entries
    e_ab = dd_ab - 2(d_a u w_b + w_a d_b u - delta_ab du.w).

    Each squared entry is formed in place, in the order of that formula, in
    the array of its second difference dd_ab, and each sum accumulates in
    its first entry; the mixed entries go first, so du.w is not alive while
    they are formed, and at most five (N, N, N) arrays are alive at a time.
    """
    def squared(dd, a, b, duw=None):
        gamma = np.multiply(du[a], w[b])
        if duw is None:
            gamma += w[a] * du[b]
        else:                           # a == b: d_a u w_a + w_a d_a u - du.w
            gamma += gamma
            gamma -= duw
        gamma *= 2.0
        dd -= gamma
        return np.square(dd, out=dd)

    mixed = squared(diff1(du[1], h, 0), 0, 1)
    mixed += squared(diff1(du[2], h, 0), 0, 2)
    mixed += squared(diff1(du[2], h, 1), 1, 2)
    duw = dot3(du, w)
    diag = squared(diff2(values, h, 0), 0, 0, duw)
    diag += squared(diff2(values, h, 1), 1, 1, duw)
    diag += squared(diff2(values, h, 2), 2, 2, duw)
    mixed *= 2.0
    diag += mixed
    diag /= phi8
    return diag


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
    dphi: np.ndarray             # nodal conformal gradient, (N, N, N, 3)
    excluded: np.ndarray         # nodes excluded from integral norms
    residual_norms: tuple | None = None   # operator residual per raw solution
    u_at_p: tuple | None = None           # the subtracted raw values u^i(p)

    @cached_property
    def du(self) -> tuple:
        """(3, N, N, N) coordinate partials per axis (grid.gradient)."""
        return tuple(gradient(u.values, self.grid.h) for u in self.u)

    @cached_property
    def hess2(self) -> tuple:
        """(N, N, N) |Hess u^i|_g^2 per axis."""
        w = np.empty((3,) + self.phi.shape)     # component-major, as du
        for a in range(3):
            np.divide(self.dphi[..., a], self.phi, out=w[a])
        phi8 = self.phi**8
        return tuple(_hessian_norm2(u.values, du, w, phi8, self.grid.h)
                     for u, du in zip(self.u, self.du))

    @cached_property
    def grad_sup(self) -> float:
        """The largest |grad u^i|_g over the axes and the kept nodes."""
        self.grad_norms()
        return vars(self)["grad_sup"]

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        """R = -8 phi^-5 lap(phi) at the nodes, from the chart's phi (the
        puncture is not imputed)."""
        # one x-slab at a time, for memory: no (N, N, N, 3, 3) phi Hessian
        # and no (N, N, N, 3) node coordinates
        out = np.empty((self.grid.nodes,) * 3)
        with np.errstate(invalid="ignore"):
            for i in range(self.grid.nodes):
                out[i] = scalar_curvature(self.chart, self.grid.x_slab(i))
        return out

    @cached_property
    def gram_defect(self) -> np.ndarray:
        """sum_ij |<grad u^i, grad u^j>_g - delta^ij| field, summed in
        (i, j) order; the Gram matrix is symmetric, so each entry with
        i < j is formed once and added twice."""
        phi4 = self.phi**4
        upper = {}                       # |entry (i, j)|, i < j, until read twice
        total = np.zeros((self.grid.nodes,) * 3)
        for i in range(3):
            for j in range(3):
                if j < i:
                    total += upper.pop((j, i))
                    continue
                gram = dot3(self.du[i], self.du[j])
                gram /= phi4
                if i == j:
                    gram -= 1.0
                total += np.abs(gram, out=gram)
                if i < j:
                    upper[i, j] = gram
        return total

    @cached_property
    def u_interp(self) -> tuple:
        """Interpolator of u^i per axis."""
        return tuple(interpolator(self.grid, u.values) for u in self.u)

    @cached_property
    def grad_interp(self) -> tuple:
        """Interpolator of the raised g-gradient du / phi^4 of u^i per axis,
        its values interleaved (N, N, N, 3) as Trilinear reads them."""
        phi4 = self.phi**4

        def raised(du):
            out = np.empty(phi4.shape + (3,))
            for a in range(3):
                np.divide(du[a], phi4, out=out[..., a])
            return out

        return tuple(interpolator(self.grid, raised(du)) for du in self.du)

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
        norm = dot3(self.du[i], self.du[i])
        np.sqrt(norm, out=norm)
        norm /= np.square(self.phi)
        return norm

    def grad_norms(self) -> tuple:
        """|grad u^i|_g per axis: three (N, N, N) fields that the triple does
        not keep.  The first call also fixes grad_sup from them, so a stage
        that holds them evaluates no more for grad_sup."""
        norms = tuple(self.grad_norm(i) for i in range(3))
        if "grad_sup" not in vars(self):
            kept = ~self.excluded
            self.grad_sup = max(float(np.max(g[kept])) for g in norms)
        return norms

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


def build_harmonic_triple(chart: MetricChart, grid: Grid, tol: float = 1e-11,
                          max_iter: int = 20000) -> HarmonicTriple:
    """Solve all three axes against one operator, then normalize.

    The residual norms are taken from the raw solutions; each is then
    normalized in place to u^i(p) = 0 at the chart base point p (trilinear
    value subtracted).  The derived fields come from the normalized values
    on first read, as on a triple_from_solutions reload of the dumps.
    """
    operator = LaplaceBeltrami(chart, grid)
    solutions = [solve_harmonic_coordinate(chart, grid, a, tol=tol,
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


def cheng_yau_ratios(triple: HarmonicTriple, radius: float) -> list:
    """Diagnostic sup_{B_r}|grad u^i| / sup_{B_2r}|u^i - u^i(p)| per axis.

    Balls are chart-Euclidean around the base point p, their node masks
    taken once for the three axes; the constant is reported per run and
    never asserted against a fixed value.
    """
    c = np.asarray(triple.chart.base_point, float)
    r = triple.grid.radii(c)
    kept = ~triple.excluded
    inner = (r <= radius) & kept
    outer = (r <= 2.0 * radius) & kept
    ratios = []
    for i, gnorm in enumerate(triple.grad_norms()):
        u0 = float(triple.u_interp[i](c)[0])
        num = float(np.max(gnorm[inner]))
        den = float(np.max(np.abs(triple.u[i].values[outer] - u0)))
        ratios.append(num / max(den, 1e-300))
    return ratios
