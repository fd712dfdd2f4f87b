"""Harmonic coordinates on a truncated grid.

Solves div_g grad u = 0 for the three functions asymptotic to the chart
coordinates, with Dirichlet data on the truncation box, all three against
one operator, and normalizes them to u(p) = 0 at the chart base point p.
The data are x^i (1 - a/|x|) with a the chart's monopole amplitude, m/2
on Schwarzschild.
A solve and a reload of field dumps build the triple by one constructor
from the normalized u (and, from a solve, the operator's nodal phi); each
field a diagnostic reads (phi, grad phi, |Hess u|_g^2, grad_sup, R, the
Gram defect, the interpolators) is derived on its first read, so a stage
pays only for what it reads: only the mass inequality and the Pythagorean
scoring read |Hess u|_g^2.  No derived field builds a whole-grid 3x3 tensor:
|Hess u|_g^2 is summed entry by entry, and R is taken slab by slab.

The triple keeps what its readers share and no more: u, phi, the
|Hess u|_g^2 fields, and grad phi, R, the Gram defect and the interpolators
once read.  u's coordinate partials are not kept (nine nodal fields):
partials(i) derives one axis's from grid.gradient, and every consumer
uses one axis's and drops them, except the Gram defect, which holds all
nine while it sums.  |grad u|_g is not kept either (three more):
grad_norms() hands the three to a stage and fixes grad_sup from them, and
grad_norms_and_hess2() forms each axis's |grad u|_g and |Hess u|_g^2 from
one gradient, for the mass-inequality stage.

Each whole-grid quantity is built once per stage, in place where it can
be.  The node coordinates are built once: for the operator's nodal phi
in a solve, and for grad phi (with phi, on a reload) where it is read;
R, the boundary data, the Cheng-Yau balls and the certificate's radii
come from the grid axis without them.  The operator builds the face
coefficients and the nodal phi from the chart's phi alone, no grad phi,
and, on the first axis, the boundary factor 1 - a/|x|, which the three
axes share.  The |Hess u|_g^2 build shares w = grad phi / phi and phi^8
across the axes; its grad phi is not kept, so it is not alive while the
entries are formed.  The entries and the gradient's partials are written
into their arrays in the operation order of the one-expression forms
(tests/oracles.py keeps those as the references).

Gradient fields are component-major, shape (3, N, N, N): u's partials per
axis (from grid.gradient) and w, so each partial is one C-contiguous array
and the products of partials that |Hess u|_g^2, |grad u|_g and the Gram
defect form stream through memory.  Their length-3 contractions all go
through grid.dot3, which fixes the summation order: np.einsum's order
depends on the operands' memory layout, and dot3 keeps the one it takes
on contiguous (N, N, N, 3) data.  Only grad_interp interleaves its values
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
The stencil's working set is fixed: one face-flux buffer serves the three
directions and one scratch array their differences, in the operation
order of the form with one flux array per direction (tests/oracles.py
keeps it as the reference), and the solve hands cg a view of the
interior start, which cg copies once into its iterate.

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
from dataclasses import InitVar, dataclass
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
    x0 may be any array of b's size, a strided view too: it is copied once,
    into the iterate, and never written.
    """
    x = np.array(x0, dtype=float).reshape(b.shape)
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


def _puncture_node(chart: MetricChart, grid: Grid):
    """The node at the origin when the chart is singular there and the grid
    has a node there, else None."""
    c = grid.nodes // 2
    if chart.singular_at_origin and abs(grid.axis[c]) < 1e-12:
        return (c, c, c)
    return None


def _impute(arr: np.ndarray, node) -> np.ndarray:
    """arr with its values at node (none when node is None) replaced, in
    place, by the mean of its six neighbors."""
    if node is not None:
        i, j, k = node
        arr[i, j, k] = (arr[i + 1, j, k] + arr[i - 1, j, k] + arr[i, j + 1, k]
                        + arr[i, j - 1, k] + arr[i, j, k + 1] + arr[i, j, k - 1]) / 6.0
    return arr


def nodal_phi(chart: MetricChart, grid: Grid) -> np.ndarray:
    """The nodal conformal factor, imputed at the puncture node; no
    derivative is formed."""
    return _impute(chart.conformal_factor(grid.points()), _puncture_node(chart, grid))


class LaplaceBeltrami:
    """Matrix-free divergence-form operator on a grid.

    Face coefficient arrays kx, ky, kz hold sqrt(det g) g^aa at the
    midpoints of the faces normal to each axis; weight holds the nodal
    sqrt(det g) (built on first read), phi the nodal conformal factor
    (nodal_phi, which the triple builder reuses) and singular_node the
    puncture node or None; boundary_values() gives each axis's Dirichlet
    data.  One face-flux stencil encodes the operator: apply() scales it
    to the full operator at the interior nodes, interior_system() negates
    it into the SPD interior operator and its Dirichlet lift, and
    poisson_preconditioner() is the fast-Poisson preconditioner of that
    interior operator.
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
        self.singular_node = _puncture_node(chart, grid)
        self.phi = nodal_phi(chart, grid)
        self.h = grid.h
        self._system = None
        self._preconditioner = None
        self._correction = None

    @staticmethod
    def _flux_divergence(kx, ky, kz, values: np.ndarray) -> np.ndarray:
        """(n, n, n) sum over the axes of the outgoing minus the incoming
        face flux k_a (difference of values across the face) of nodal
        values, at the interior nodes: h^2 weight times the operator.  The
        three directions reuse one face-flux buffer, and y and z one
        scratch array for their differences."""
        c = slice(1, -1)
        n = values.shape[0] - 2
        flux = np.empty((n + 1) * n * n)

        def face_flux(k, hi, lo, shape):
            f = np.subtract(hi, lo, out=flux.reshape(shape))
            return np.multiply(k, f, out=f)

        f = face_flux(kx[:, c, c], values[1:, c, c], values[:-1, c, c], (n + 1, n, n))
        out = np.subtract(f[1:], f[:-1])
        scratch = np.empty_like(out)
        f = face_flux(ky[c, :, c], values[c, 1:, c], values[c, :-1, c], (n, n + 1, n))
        out += np.subtract(f[:, 1:], f[:, :-1], out=scratch)
        f = face_flux(kz[c, c, :], values[c, c, 1:], values[c, c, :-1], (n, n, n + 1))
        out += np.subtract(f[:, :, 1:], f[:, :, :-1], out=scratch)
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
    # the interior view starts the iteration: cg copies it once, into its iterate
    sol, info = cg(A, lift(values), x0=values[1:-1, 1:-1, 1:-1], rtol=tol,
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
    u^i (u^i(p) = 0), the excluded-node mask and, from a solve only, the
    diagnostics residual_norms and u_at_p and the operator's nodal phi
    (None on a triple rebuilt from field dumps).  Every other field is
    derived from these on first read and kept, except u's coordinate
    partials and |grad u|_g, which are derived per call and not kept.
    """

    chart: MetricChart
    grid: Grid
    u: tuple                     # three ScalarGridFields, u^i(p) = 0
    excluded: np.ndarray         # nodes excluded from integral norms
    residual_norms: tuple | None = None   # operator residual per raw solution
    u_at_p: tuple | None = None           # the subtracted raw values u^i(p)
    solved_phi: InitVar[np.ndarray | None] = None   # the solve's nodal phi

    def __post_init__(self, solved_phi):
        if solved_phi is not None:
            self.phi = solved_phi

    @cached_property
    def phi(self) -> np.ndarray:
        """Nodal conformal factor, imputed at the puncture (nodal_phi): the
        operator's on a solved triple, else built on first read, or with
        grad phi when that is built first."""
        return nodal_phi(self.chart, self.grid)

    @cached_property
    def dphi(self) -> np.ndarray:
        """Nodal conformal gradient (N, N, N, 3), imputed at the puncture,
        built on first read and kept (see _nodal_gradient)."""
        return self._nodal_gradient()

    def _nodal_gradient(self) -> np.ndarray:
        """A new nodal conformal gradient (N, N, N, 3), imputed at the
        puncture; phi, when it is not built yet, comes from the same chart
        call on the node coordinates."""
        node = _puncture_node(self.chart, self.grid)
        phi, dphi = self.chart.conformal_gradient(self.grid.points())
        if "phi" not in vars(self):
            self.phi = _impute(phi, node)
        return _impute(dphi, node)

    def partials(self, i: int) -> np.ndarray:
        """(3, N, N, N) coordinate partials of u^i (grid.gradient), derived
        on each call and not kept."""
        return gradient(self.u[i].values, self.grid.h)

    @cached_property
    def hess2(self) -> tuple:
        """(N, N, N) |Hess u^i|_g^2 per axis (see grad_norms_and_hess2)."""
        return self.grad_norms_and_hess2()[1]

    def grad_norms_and_hess2(self) -> tuple:
        """(grad_norms(), hess2), each axis's |grad u|_g and |Hess u|_g^2
        from one gradient of u^i while hess2 is not built; the partials of
        one axis are alive at a time, and the first call fixes hess2 and,
        unless it is fixed, grad_sup.  w = grad phi / phi comes from a
        grad phi that is not kept (_nodal_gradient), so it is not alive while
        the Hessians are formed."""
        if "hess2" in vars(self):
            return self.grad_norms(), self.hess2
        dphi = self._nodal_gradient()   # first: on a reload it also builds phi
        w = np.empty((3,) + dphi.shape[:-1])     # component-major, as the partials
        for a in range(3):
            np.divide(dphi[..., a], self.phi, out=w[a])
        del dphi
        phi8 = self.phi**8
        norms, hess2 = [], []
        for i, u in enumerate(self.u):
            du = self.partials(i)
            hess2.append(_hessian_norm2(u.values, du, w, phi8, self.grid.h))
            norms.append(self.grad_norm(i, du))
            del du
        self.hess2 = tuple(hess2)
        return self._fix_grad_sup(tuple(norms)), self.hess2

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
        du = [self.partials(i) for i in range(3)]   # the nine partials, while summing
        upper = {}                       # |entry (i, j)|, i < j, until read twice
        total = np.zeros((self.grid.nodes,) * 3)
        for i in range(3):
            for j in range(3):
                if j < i:
                    total += upper.pop((j, i))
                    continue
                gram = dot3(du[i], du[j])
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
        its values interleaved (N, N, N, 3) as Trilinear reads them; one
        axis's partials are alive at a time."""
        phi4 = self.phi**4

        def raised(du):
            out = np.empty(phi4.shape + (3,))
            for a in range(3):
                np.divide(du[a], phi4, out=out[..., a])
            return out

        return tuple(interpolator(self.grid, raised(self.partials(i))) for i in range(3))

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

    def grad_norm(self, i: int, du: np.ndarray | None = None) -> np.ndarray:
        """|grad u^i|_g field, from the partials du of u^i when the caller
        holds them, else from partials(i)."""
        if du is None:
            du = self.partials(i)
        norm = dot3(du, du)
        np.sqrt(norm, out=norm)
        norm /= np.square(self.phi)
        return norm

    def grad_norms(self) -> tuple:
        """|grad u^i|_g per axis: three (N, N, N) fields that the triple does
        not keep, one axis's partials alive at a time.  The first call also
        fixes grad_sup from them, so a stage that holds them evaluates no
        more for grad_sup."""
        return self._fix_grad_sup(tuple(self.grad_norm(i) for i in range(3)))

    def _fix_grad_sup(self, norms: tuple) -> tuple:
        """norms, after fixing grad_sup from them unless it is fixed."""
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
    return HarmonicTriple(chart=chart, grid=grid, u=tuple(solutions), excluded=excluded,
                          residual_norms=residual_norms, u_at_p=u_at_p,
                          solved_phi=operator.phi)


def triple_from_solutions(chart: MetricChart, grid: Grid, solutions) -> HarmonicTriple:
    """The triple of already-normalized nodal fields (e.g. field dumps).

    Built by the same constructor as a solved triple, from the values as
    they are, so a triple reloaded from its dumps derives the solved one's
    fields bit for bit.  No operator is built: residual_norms and u_at_p
    stay None, and phi is derived on first read.
    """
    for sol in solutions:
        if sol.grid != grid:
            raise MismatchedChart("field dump grid differs from the config grid")
    return HarmonicTriple(chart=chart, grid=grid, u=tuple(solutions),
                          excluded=_excluded(grid, _puncture_node(chart, grid)))


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
