"""Closed-form asymptotically flat 3-metric families on a global Cartesian chart.

Every family in the corpus is conformally flat, g_ij = phi(x)^4 delta_ij,
with phi built from a monopole term 1 + a/|x|, an optional Gaussian lump,
and optional smooth compactly supported bumps, whose value, gradient and
Hessian are exact closed forms.  Everything the laboratory reads of the
metric comes from phi and its derivatives in closed form: the Christoffel
symbols, the Ricci tensor and R = -8 phi^-5 lap(phi), the decay of g - delta
and its derivatives, and (in afstab.mass) the ADM flux.  The generic
metric-tensor route (g, dg, ddg and the textbook Christoffel/Ricci
formulas) and finite differences are test oracles, the independent
cross-check of these closed forms.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import OutOfDomain
from .grid import dot3
from .seeding import rng_for, unit_directions

# The params each family reads, and the kind of value each takes: a finite
# "number", a finite positive "width", a finite 3-vector "point", or
# "bumps", a list of {amplitude: number, center: point, width: width}.
FAMILY_PARAMS = {
    "flat": {},
    "schwarzschild": {"m": "number"},
    "conformal": {"A": "number", "gauss_amp": "number", "gauss_center": "point",
                  "gauss_width": "width"},
    "perturbed": {"A": "number", "bumps": "bumps"},
}
FAMILIES = tuple(FAMILY_PARAMS)

# The derivative order of MetricChart._conformal (and Bump.value_grad_hess)
# that forms, of the second derivatives, only the Laplacian: the Hessian's
# three diagonal entries, each by the arithmetic of the full Hessian.
LAPLACIAN = "laplacian"


def _second_derivative_forms(order):
    """(outer, eye, lift) for building second-derivative terms: u_a v_b,
    c delta_ab and a per-point scalar s ready to scale them.  At order 2
    these are the (..., 3, 3) Hessian forms; at LAPLACIAN their (..., 3)
    diagonals, entry for entry the same arithmetic."""
    if order == LAPLACIAN:
        return np.multiply, np.ones(3), lambda s: s[..., None]

    def outer(u, v):
        return u[..., :, None] * v[..., None, :]

    return outer, np.eye(3), lambda s: s[..., None, None]


def _as_points(x):
    """View input as an (..., 3) float array."""
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError(f"chart points must have trailing dimension 3, got {pts.shape}")
    return pts


def _monopole(pts, r2, a, order):
    """phi = 1 + a/|x| and (at orders 1 and 2, else None) grad phi from the
    points and their |x|^2, with 1/|x|^3 (None at order 0); the seeds are
    the scalars 1 and 0 the other terms add to."""
    inv_r = 1.0 / np.sqrt(r2)
    phi = 1.0 + a * inv_r
    if order == 0:
        return phi, None, None
    inv_r3 = inv_r / r2
    if order == LAPLACIAN:
        return phi, None, inv_r3
    # 0 - (a x) / |x|^3, each step in place
    grad = np.multiply(pts, a)
    grad *= inv_r3[..., None]
    return phi, np.subtract(0.0, grad, out=grad), inv_r3


@dataclass(frozen=True)
class Bump:
    """C^infinity bump c * exp(1 - 1/(1 - s^2)), s = |x - center|/width, supported in s < 1."""

    amplitude: float
    center: tuple
    width: float

    def value_grad_hess(self, pts, order: int | str = 2):
        """Bump value, then its gradient and Hessian up to derivative order
        `order` (0, 1 or 2), None above it; at LAPLACIAN the value, None and
        the (..., 3) Hessian diagonal."""
        d = pts - np.asarray(self.center, dtype=float)
        q = np.einsum("...a,...a->...", d, d) / self.width**2
        inside = q < 1.0 - 1e-12
        qs = np.where(inside, q, 0.0)
        one_m = 1.0 - qs
        base = np.where(inside, self.amplitude * np.exp(1.0 - 1.0 / one_m), 0.0)
        if order == 0:
            return base, None, None
        # dB/dq and d2B/dq2 of B(q) = amp * exp(1 - 1/(1-q))
        bq = np.where(inside, -base / one_m**2, 0.0)
        dq = 2.0 * d / self.width**2              # (..., 3)
        grad = None if order == LAPLACIAN else bq[..., None] * dq
        if order == 1:
            return base, grad, None
        outer, eye, lift = _second_derivative_forms(order)
        bqq = np.where(inside, base / one_m**4 - 2.0 * base / one_m**3, 0.0)
        ddq = (2.0 / self.width**2) * eye          # constant
        hess = outer(bqq[..., None] * dq, dq) + lift(bq) * ddq
        return base, grad, hess


@dataclass(frozen=True)
class MetricChart:
    """A conformally flat metric family on the box [-box_halfwidth, box_halfwidth]^3.

    family: one of "flat", "schwarzschild", "conformal", "perturbed".
    params: family parameters, the keys FAMILY_PARAMS names for it; "m"
        for schwarzschild, "A" (monopole amplitude), optional Gaussian
        ("gauss_amp", "gauss_center", "gauss_width") for conformal, and
        "bumps" (list of dicts with amplitude/center/width) for perturbed.
    decay_b, decay_tau: the declared asymptotic-flatness constants; the
        decay inequality |d^beta (g - delta)| <= b |x|^(-tau - |beta|)
        is verified, never assumed.
    base_point: the marked point p of the stability runs, (2, 0, 0) on
        every chart: a chart node away from the unit ball by convention.
    """

    family: str
    params: dict = field(default_factory=dict)
    box_halfwidth: float = 20.0
    decay_b: float = 10.0
    decay_tau: float = 1.0
    base_point: ClassVar[tuple] = (2.0, 0.0, 0.0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        unknown = set(self.params) - set(FAMILY_PARAMS[self.family])
        if unknown:
            raise ValueError(f"family {self.family!r} reads no param(s) {sorted(unknown)}")

    # -- conformal factor ------------------------------------------------

    @cached_property
    def monopole_amplitude(self) -> float:
        """Coefficient a in phi = 1 + a/|x| + (compactly supported terms)."""
        if self.family == "flat":
            return 0.0
        if self.family == "schwarzschild":
            return 0.5 * float(self.params.get("m", 0.0))
        return 0.5 * float(self.params.get("A", 0.0))

    @cached_property
    def bumps(self):
        """The compactly supported terms of phi, built once per chart:
        ("gauss", amplitude, center, width) and ("bump", Bump) entries."""
        out = []
        if self.family == "conformal":
            amp = float(self.params.get("gauss_amp", 0.0))
            if amp != 0.0:
                out.append(("gauss",
                            amp,
                            np.asarray(self.params.get("gauss_center", (0.0, 0.0, 0.0)), float),
                            float(self.params.get("gauss_width", 1.0))))
        if self.family == "perturbed":
            for b in self.params.get("bumps", ()):
                out.append(("bump", Bump(float(b["amplitude"]),
                                         tuple(b["center"]), float(b["width"]))))
        return tuple(out)

    @property
    def singular_at_origin(self) -> bool:
        return self.monopole_amplitude != 0.0

    def conformal_terms(self, x):
        """phi, grad phi, hess phi at points x, shape (...,), (..., 3), (..., 3, 3)."""
        return self._conformal(x, order=2)

    def conformal_gradient(self, x):
        """phi and grad phi at points x, bit-identical to conformal_terms.

        The geodesic equation and the distance quadratures read no second
        derivatives, so they skip the Hessian and its per-call identity.
        """
        phi, grad, _ = self._conformal(x, order=1)
        return phi, grad

    def conformal_factor(self, x):
        """phi at points x, bit-identical to conformal_gradient; no
        derivative is formed."""
        return self._conformal(x, order=0)[0]

    def conformal_laplacian(self, x):
        """phi and lap(phi) at points x, bit-identical to conformal_terms's
        phi and the trace of its Hessian; only the Hessian's diagonal is
        formed, and no gradient."""
        phi, _, lap = self._conformal(x, order=LAPLACIAN)
        return phi, lap

    def _conformal(self, x, order):
        """phi and its derivatives up to `order` (0, 1 or 2), None above it;
        at LAPLACIAN phi, None and lap(phi), summed from the Hessian's
        diagonal in np.trace's order."""
        pts = _as_points(x)
        first = order in (1, 2)
        second = order in (2, LAPLACIAN)
        if second:
            outer, eye, lift = _second_derivative_forms(order)
            hess = np.zeros(pts.shape + eye.shape[1:])    # (..., 3, 3) or (..., 3)
        else:
            hess = None
        a = self.monopole_amplitude
        if a == 0.0:
            phi = np.ones(pts.shape[:-1])
            grad = np.zeros(pts.shape) if first else None
        else:
            r2 = np.einsum("...a,...a->...", pts, pts)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi, grad, inv_r3 = _monopole(pts, r2, a, order)
                if second:
                    inv_r5 = inv_r3 / r2
                    hess = hess + a * (outer(3.0 * pts, pts) * lift(inv_r5)
                                       - eye * lift(inv_r3))
        for term in self.bumps:
            if term[0] == "gauss":
                _, amp, center, width = term
                d = pts - center
                q = np.einsum("...a,...a->...", d, d) / width**2
                val = amp * np.exp(-q)
                phi = phi + val
                if first:
                    grad = grad + val[..., None] * (-2.0 * d / width**2)
                if second:
                    hess = hess + lift(val) * (outer(4.0 * d, d) / width**4
                                               - 2.0 * eye / width**2)
            else:
                v, gr, he = term[1].value_grad_hess(pts, order=order)
                phi = phi + v
                if first:
                    grad = grad + gr
                if second:
                    hess = hess + he
        if order == LAPLACIAN:
            return phi, None, (hess[..., 0] + hess[..., 1]) + hess[..., 2]
        return phi, grad, hess

    # -- domain ----------------------------------------------------------

    def in_box(self, x) -> np.ndarray:
        pts = _as_points(x)
        return np.all(np.abs(pts) <= self.box_halfwidth + 1e-12, axis=-1)

    # -- metric and geodesics -----------------------------------------------

    def metric(self, x):
        phi = self.conformal_factor(x)
        return phi[..., None, None] ** 4 * np.eye(3)

    def christoffel_quadratic(self, x, v):
        """Gamma^k_ab v^a v^b for velocity vectors v, exploiting the conformal form.

        The one entry point of the geodesic right-hand side, one call per
        RK4 stage; it reads phi and grad phi only.  On a monopole family a
        row with |x|^2 < 1e-18 is first nudged by copysign(1e-9, x_0) along
        x, away from the puncture on its own side, so the puncture itself
        (+0.0) returns the value at (1e-9, 0, 0).

        A pure monopole chart, phi = 1 + a/|x|, takes the closed form
        Gamma(v, v) = -2a / (|x|^2 (|x| + a)) (2 (v.x) v - |v|^2 x), every
        step elementwise on the transposed (3, ...) views, so each row's
        bits do not depend on the memory layout or on its batch-mates.
        Charts with bumps or without a monopole go through
        conformal_gradient on C-contiguous copies of x and v, by the same
        arithmetic whatever layout the caller holds its state in.
        """
        x, v = _as_points(x), _as_points(v)
        a = self.monopole_amplitude
        if a == 0.0 or self.bumps:
            return self._christoffel_conformal(x, v)
        if x.shape != v.shape:
            x, v = np.broadcast_arrays(x, v)
        r2, xv, vv = _dots(x.T, v.T)
        if np.fmin.reduce(r2, axis=None, initial=np.inf) < 1e-18:
            x = _off_puncture(x, (r2 < 1e-18).T)
            r2, xv, vv = _dots(x.T, v.T)
        # c = -2a / (|x|^2 (|x| + a)), then (2 c (v.x)) v - (c |v|^2) x
        den = np.sqrt(r2)
        den += a
        den *= r2
        c = (-2.0 * a) / den
        xv *= c
        xv *= 2.0
        vv *= c
        gamma = np.multiply(xv, v.T)
        gamma -= vv * x.T
        return gamma.T

    def _christoffel_conformal(self, x, v):
        """christoffel_quadratic through conformal_gradient, for any chart;
        the length-3 sums are grid.dot3 on the component-major views."""
        x, v = np.ascontiguousarray(x), np.ascontiguousarray(v)
        vt = np.moveaxis(v, -1, 0)
        if self.monopole_amplitude != 0.0:
            xt = np.moveaxis(x, -1, 0)
            bad = dot3(xt, xt) < 1e-18
            if bad.any():
                x = _off_puncture(x, bad)
        phi, dphi = self.conformal_gradient(x)
        w = dphi / phi[..., None]
        vw = dot3(vt, np.moveaxis(w, -1, 0))
        vv = dot3(vt, vt)
        return 2.0 * (2.0 * vw[..., None] * v - vv[..., None] * w)


def _dots(xt, vt):
    """|x|^2, x.v and |v|^2 from transposed (3, ...) points and velocities,
    each summed ((p_0 + p_1) + p_2) elementwise."""
    out = []
    for p in (xt * xt, xt * vt, vt * vt):
        s = p[0] + p[1]
        s += p[2]
        out.append(s)
    return out


def _off_puncture(x, bad):
    """A copy of the (..., 3) points x with the rows `bad` moved 1e-9 along
    x_0, on the side of x_0's sign (+0.0 moves to +1e-9)."""
    x = x.copy()
    x[bad, 0] += np.copysign(1e-9, x[bad, 0])
    return x


# ---------------------------------------------------------------------------
# pointwise operations


def scalar_curvature(chart: MetricChart, x):
    """Scalar curvature R = -8 phi^-5 lap(phi) at points x.

    It forms no (..., 3, 3) phi Hessian, only its diagonal; ricci_batch's
    R is the same bit for bit.
    """
    phi, lap = chart.conformal_laplacian(x)
    return -8.0 * phi**-5 * lap


def ricci_batch(chart: MetricChart, pts):
    """Batched (Ricci, metric, scalar) of g = phi^4 delta from phi's closed forms:

    Ric = -2 hess(phi)/phi + 6 grad(phi) grad(phi)^T / phi^2
          - (2 lap(phi)/phi + 2 |grad(phi)|^2 / phi^2) delta,

    symmetrised exactly, and R = -8 phi^-5 lap(phi) in scalar_curvature's
    arithmetic.
    """
    phi, dphi, hess = chart.conformal_terms(pts)
    lap = np.trace(hess, axis1=-2, axis2=-1)
    w = dphi / phi[..., None]
    iso = 2.0 * lap / phi + 2.0 * np.sum(w * w, axis=-1)
    ric = (-2.0 * hess / phi[..., None, None] + 6.0 * w[..., :, None] * w[..., None, :]
           - iso[..., None, None] * np.eye(3))
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    return ric, phi[..., None, None] ** 4 * np.eye(3), -8.0 * phi**-5 * lap


# ---------------------------------------------------------------------------
# sampling policies and hypothesis certificates


@dataclass(frozen=True)
class SphereSampling:
    """Radii and per-sphere direction counts for the decay verification."""

    radii: tuple
    n_per_sphere: int = 64
    seed: int = 0


@dataclass(frozen=True)
class VolumeSampling:
    """Pseudorandom ball sampling for the curvature certificates."""

    n_points: int = 600
    r_min: float = 0.25
    r_max: float = 10.0
    seed: int = 0


@dataclass(frozen=True)
class HypothesisCertificate:
    """Sampled curvature bounds, and the decay check outside a compact set as
    verify_asymptotic_flatness returns it (af_ok, fitted_tau, worst_ratio)."""

    scalar_min: float
    ricci_kappa: float
    af_ok: bool
    fitted_tau: float
    worst_ratio: float
    witness_points: tuple   # (argmin of scalar, argmin of Ricci eigenvalue)


def verify_asymptotic_flatness(chart: MetricChart, sampling: SphereSampling):
    """Check the declared decay inequality on sampled spheres.

    Returns (af_ok, fitted_tau, worst_ratio) where worst_ratio is the
    largest of |d^beta (g - delta)| / (b r^(-tau-|beta|)) over all samples
    and derivative orders |beta| <= 2, and fitted_tau is the log-log slope
    of sup_{|x|=r} |g - delta| against r.  For g = phi^4 delta the sups
    over components are |phi^4 - 1|, max_k |4 phi^3 d_k phi| and
    max_kl |12 phi^2 d_k phi d_l phi + 4 phi^3 d_k d_l phi|.
    """
    radii = np.asarray(sampling.radii, float)
    if np.any(radii < 2.0):
        raise ValueError("decay verification samples must have |x| >= 2")
    if np.any(radii > chart.box_halfwidth * np.sqrt(3.0)):
        raise OutOfDomain("sampling sphere outside the chart box diagonal")
    rng = rng_for(sampling.seed, "af-verify", chart.family)
    dirs = unit_directions(rng, sampling.n_per_sphere)
    worst = 0.0
    sup0 = []
    b, tau = chart.decay_b, chart.decay_tau
    for r in radii:
        pts = r * dirs
        phi, dphi, ddphi = chart.conformal_terms(pts)
        d0 = np.abs(phi**4 - 1.0)
        d1 = np.max(np.abs((4.0 * phi**3)[:, None] * dphi), axis=-1)
        d2 = np.max(np.abs((12.0 * phi**2)[:, None, None] * dphi[:, :, None]
                           * dphi[:, None, :]
                           + (4.0 * phi**3)[:, None, None] * ddphi), axis=(-2, -1))
        worst = max(worst,
                    float(np.max(d0) / (b * r ** (-tau))),
                    float(np.max(d1) / (b * r ** (-tau - 1))),
                    float(np.max(d2) / (b * r ** (-tau - 2))))
        sup0.append(np.max(d0))
    sup0 = np.asarray(sup0)
    if np.all(sup0 > 0):
        slope = np.polyfit(np.log(radii), np.log(sup0), 1)[0]
        fitted_tau = -float(slope)
    else:
        fitted_tau = float("inf")  # exactly flat
    return worst <= 1.0, fitted_tau, worst


def certify_hypotheses(chart: MetricChart, sampling: VolumeSampling) -> HypothesisCertificate:
    """Empirical scalar-curvature infimum, Ricci lower-bound constant and decay.

    kappa is the smallest kappa >= 0 with Ric >= -2 kappa g on the sample
    set, computed from generalized eigenvalue minima of Ric with respect
    to g; scalar_min is the sampled infimum of R.  af_ok, fitted_tau and
    worst_ratio are verify_asymptotic_flatness on six spheres of 32 points
    from max(2, r_max) to 0.9 box halfwidths: decay outside a compact set.
    """
    rng = rng_for(sampling.seed, "certify", chart.family)
    dirs = unit_directions(rng, sampling.n_points)
    u = rng.uniform(size=sampling.n_points)
    radii = (sampling.r_min**3 + u * (sampling.r_max**3 - sampling.r_min**3)) ** (1.0 / 3.0)
    pts = dirs * radii[:, None]
    # deterministic probes at the inner radius on the axes
    probes = sampling.r_min * np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                        [-1, 0, 0], [0, -1, 0], [0, 0, -1]], float)
    pts = np.vstack([pts, probes])
    ric, g, scal = ricci_batch(chart, pts)
    # every chart metric is phi^4 delta, so the generalized eigenvalues of
    # Ric against g are the ordinary ones of Ric / phi^4
    lam = np.linalg.eigvalsh(ric / g[:, :1, :1])[:, 0]
    kappa = max(0.0, -0.5 * float(np.min(lam)))
    i_scal = int(np.argmin(scal))
    i_lam = int(np.argmin(lam))
    r_hi = 0.9 * chart.box_halfwidth
    spheres = SphereSampling(
        radii=tuple(np.geomspace(max(2.0, sampling.r_max), r_hi, 6)),
        n_per_sphere=32, seed=sampling.seed)
    af_ok, fitted_tau, worst = verify_asymptotic_flatness(chart, spheres)
    return HypothesisCertificate(
        scalar_min=float(np.min(scal)),
        ricci_kappa=kappa,
        af_ok=bool(af_ok),
        fitted_tau=fitted_tau,
        worst_ratio=worst,
        witness_points=(tuple(pts[i_scal]), tuple(pts[i_lam])))
