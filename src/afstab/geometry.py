"""Closed-form asymptotically flat 3-metric families on a global Cartesian chart.

Every family in the corpus is conformally flat, g_ij = phi(x)^4 delta_ij,
with phi built from a monopole term 1 + a/|x|, an optional Gaussian lump,
and optional smooth compactly supported bumps.  First and second metric
derivatives are exact closed forms; finite differences appear only in test
oracles.  Curvature is computed from the generic Christoffel/Ricci formulas
so that the conformal identity R = -8 phi^-5 lap(phi) is an independent
cross-check rather than the definition.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import ExcisedPoint, OutOfDomain
from .seeding import rng_for

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

# Radius below which a monopole family counts as sitting on its puncture.
SINGULAR_RADIUS = 1e-12


def _as_points(x):
    """View input as an (..., 3) float array."""
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError(f"chart points must have trailing dimension 3, got {pts.shape}")
    return pts


def _monopole(pts, r2, a):
    """phi = 1 + a/|x| and grad phi from the points and their |x|^2, with
    1/|x|^3; the seeds are the scalars 1 and 0 the other terms add to."""
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    return 1.0 + a * inv_r, 0.0 - a * pts * inv_r3[..., None], inv_r3


@dataclass(frozen=True)
class Bump:
    """C^infinity bump c * exp(1 - 1/(1 - s^2)), s = |x - center|/width, supported in s < 1."""

    amplitude: float
    center: tuple
    width: float

    def value_grad_hess(self, pts, hessian: bool = True):
        """Bump value, gradient and (unless hessian is False, then None) Hessian."""
        d = pts - np.asarray(self.center, dtype=float)
        q = np.einsum("...a,...a->...", d, d) / self.width**2
        inside = q < 1.0 - 1e-12
        qs = np.where(inside, q, 0.0)
        one_m = 1.0 - qs
        base = np.where(inside, self.amplitude * np.exp(1.0 - 1.0 / one_m), 0.0)
        # dB/dq and d2B/dq2 of B(q) = amp * exp(1 - 1/(1-q))
        bq = np.where(inside, -base / one_m**2, 0.0)
        dq = 2.0 * d / self.width**2              # (..., 3)
        grad = bq[..., None] * dq
        if not hessian:
            return base, grad, None
        bqq = np.where(inside, base / one_m**4 - 2.0 * base / one_m**3, 0.0)
        ddq = (2.0 / self.width**2) * np.eye(3)    # constant (3, 3)
        hess = (bqq[..., None, None] * dq[..., :, None] * dq[..., None, :]
                + bq[..., None, None] * ddq)
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
    base_point: the marked point p of the stability runs, on a chart
        node away from the unit ball by convention; every run takes the
        default (2, 0, 0).
    """

    family: str
    params: dict = field(default_factory=dict)
    box_halfwidth: float = 20.0
    decay_b: float = 10.0
    decay_tau: float = 1.0
    base_point: tuple = (2.0, 0.0, 0.0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        unknown = set(self.params) - set(FAMILY_PARAMS[self.family])
        if unknown:
            raise ValueError(f"family {self.family!r} reads no param(s) {sorted(unknown)}")

    # -- conformal factor ------------------------------------------------

    @property
    def monopole_amplitude(self) -> float:
        """Coefficient a in phi = 1 + a/|x| + (compactly supported terms)."""
        if self.family == "flat":
            return 0.0
        if self.family == "schwarzschild":
            return 0.5 * float(self.params.get("m", 0.0))
        return 0.5 * float(self.params.get("A", 0.0))

    @property
    def bumps(self):
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
        return out

    @property
    def singular_at_origin(self) -> bool:
        return self.monopole_amplitude != 0.0

    def conformal_terms(self, x):
        """phi, grad phi, hess phi at points x, shape (...,), (..., 3), (..., 3, 3)."""
        return self._conformal(x, hessian=True)

    def conformal_gradient(self, x):
        """phi and grad phi at points x, bit-identical to conformal_terms.

        The geodesic equation and the distance quadratures read no second
        derivatives, so they skip the Hessian and its per-call identity.
        """
        phi, grad, _ = self._conformal(x, hessian=False)
        return phi, grad

    def _conformal(self, x, hessian):
        pts = _as_points(x)
        hess = np.zeros(pts.shape + (3,)) if hessian else None
        a = self.monopole_amplitude
        if a == 0.0:
            phi = np.ones(pts.shape[:-1])
            grad = np.zeros(pts.shape)
        else:
            r2 = np.einsum("...a,...a->...", pts, pts)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi, grad, inv_r3 = _monopole(pts, r2, a)
                if hessian:
                    inv_r5 = inv_r3 / r2
                    hess = hess + a * (3.0 * pts[..., :, None] * pts[..., None, :]
                                       * inv_r5[..., None, None]
                                       - np.eye(3) * inv_r3[..., None, None])
        for term in self.bumps:
            if term[0] == "gauss":
                _, amp, center, width = term
                d = pts - center
                q = np.einsum("...a,...a->...", d, d) / width**2
                val = amp * np.exp(-q)
                phi = phi + val
                grad = grad + val[..., None] * (-2.0 * d / width**2)
                if hessian:
                    hess = hess + val[..., None, None] * (
                        4.0 * d[..., :, None] * d[..., None, :] / width**4
                        - 2.0 * np.eye(3) / width**2)
            else:
                v, gr, he = term[1].value_grad_hess(pts, hessian=hessian)
                phi = phi + v
                grad = grad + gr
                if hessian:
                    hess = hess + he
        return phi, grad, hess

    def conformal_factor(self, x):
        return self.conformal_gradient(x)[0]

    # -- domain ----------------------------------------------------------

    def in_box(self, x) -> np.ndarray:
        pts = _as_points(x)
        return np.all(np.abs(pts) <= self.box_halfwidth + 1e-12, axis=-1)

    def check_point(self, x):
        """Raise OutOfDomain / ExcisedPoint for a single chart point."""
        pts = _as_points(x)
        if not np.all(self.in_box(pts)):
            raise OutOfDomain(f"point {np.asarray(x)} outside box of halfwidth {self.box_halfwidth}")
        r = np.linalg.norm(pts, axis=-1)
        if self.singular_at_origin and np.any(r < SINGULAR_RADIUS):
            raise ExcisedPoint("point sits on the puncture of a monopole family")

    # -- metric and derivatives -------------------------------------------

    def metric(self, x):
        phi = self.conformal_factor(x)
        return phi[..., None, None] ** 4 * np.eye(3)

    def metric_derivs(self, x):
        """g, dg, ddg with dg[..., k, i, j] = d_k g_ij and ddg[..., l, k, i, j] = d_l d_k g_ij."""
        phi, dphi, ddphi = self.conformal_terms(x)
        eye = np.eye(3)
        g = phi[..., None, None] ** 4 * eye
        dg = 4.0 * (phi**3)[..., None, None, None] * dphi[..., :, None, None] * eye
        ddg = (12.0 * (phi**2)[..., None, None, None, None]
               * dphi[..., :, None, None, None] * dphi[..., None, :, None, None]
               + 4.0 * (phi**3)[..., None, None, None, None]
               * ddphi[..., :, :, None, None]) * eye
        return g, dg, ddg

    def christoffel_quadratic(self, x, v):
        """Gamma^k_ab v^a v^b for velocity vectors v, exploiting the conformal form.

        The one entry point of the geodesic right-hand side, one call per
        RK4 stage; it reads phi and grad phi only.  On a monopole family a
        row within 1e-9 of the puncture is nudged by 1e-9 along x, so the
        puncture itself returns the value at (1e-9, 0, 0).  A pure monopole
        chart forms phi and grad phi in one pass from that |x|^2, by the
        arithmetic conformal_gradient uses; charts with bumps or without
        a monopole go through conformal_gradient.
        """
        x = _as_points(x)
        a = self.monopole_amplitude
        if a != 0.0:
            r2 = np.einsum("...a,...a->...", x, x)
            bad = r2 < 1e-18
            if bad.any():
                x = x.copy()
                x[bad, 0] += 1e-9
                r2 = np.einsum("...a,...a->...", x, x)
        if a != 0.0 and not self.bumps:
            phi, dphi, _ = _monopole(x, r2, a)
        else:
            phi, dphi = self.conformal_gradient(x)
        w = dphi / phi[..., None]
        vw = np.einsum("...a,...a->...", v, w)
        vv = np.einsum("...a,...a->...", v, v)
        return 2.0 * (2.0 * vw[..., None] * v - vv[..., None] * w)


# ---------------------------------------------------------------------------
# pointwise operations


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple
    christoffel: np.ndarray   # (3, 3, 3), Gamma^k_ab
    ricci: np.ndarray         # (3, 3), symmetric
    scalar: float


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
    ric = term1 - term2 + term3 - term4
    return gamma, ric, g_inv


def curvature_at(chart: MetricChart, x) -> CurvatureSample:
    """Christoffel symbols, Ricci tensor and scalar curvature at one point."""
    chart.check_point(x)
    g, dg, ddg = chart.metric_derivs(x)
    gamma, ric, g_inv = _ricci_from_derivs(g, dg, ddg)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    scalar = np.einsum("...ab,...ab->...", g_inv, ric)
    return CurvatureSample(point=tuple(np.asarray(x, float)), christoffel=gamma,
                           ricci=ric, scalar=float(scalar))


def scalar_curvature(chart: MetricChart, x):
    """Vectorized scalar curvature via the conformal identity R = -8 phi^-5 lap(phi).

    The generic-route value from curvature_at agrees to round-off; this is
    the fast path used in volume integrals.
    """
    phi, _, ddphi = chart.conformal_terms(x)
    return -8.0 * phi**-5 * np.trace(ddphi, axis1=-2, axis2=-1)


def ricci_batch(chart: MetricChart, pts):
    """Batched (Ricci, metric, scalar) via the generic formulas."""
    g, dg, ddg = chart.metric_derivs(pts)
    _, ric, g_inv = _ricci_from_derivs(g, dg, ddg)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    scal = np.einsum("...ab,...ab->...", g_inv, ric)
    return ric, g, scal


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


def _sphere_dirs(n, rng):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def verify_asymptotic_flatness(chart: MetricChart, sampling: SphereSampling):
    """Check the declared decay inequality on sampled spheres.

    Returns (af_ok, fitted_tau, worst_ratio) where worst_ratio is the
    largest of |d^beta (g - delta)| / (b r^(-tau-|beta|)) over all samples
    and derivative orders |beta| <= 2, and fitted_tau is the log-log slope
    of sup_{|x|=r} |g - delta| against r.
    """
    radii = np.asarray(sampling.radii, float)
    if np.any(radii < 2.0):
        raise ValueError("decay verification samples must have |x| >= 2")
    if np.any(radii > chart.box_halfwidth * np.sqrt(3.0)):
        raise OutOfDomain("sampling sphere outside the chart box diagonal")
    rng = rng_for(sampling.seed, "af-verify", chart.family)
    dirs = _sphere_dirs(sampling.n_per_sphere, rng)
    worst = 0.0
    sup0 = []
    b, tau = chart.decay_b, chart.decay_tau
    for r in radii:
        pts = r * dirs
        g, dg, ddg = chart.metric_derivs(pts)
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
    dirs = _sphere_dirs(sampling.n_points, rng)
    u = rng.uniform(size=sampling.n_points)
    radii = (sampling.r_min**3 + u * (sampling.r_max**3 - sampling.r_min**3)) ** (1.0 / 3.0)
    pts = dirs * radii[:, None]
    # deterministic probes at the inner radius on the axes
    probes = sampling.r_min * np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                        [-1, 0, 0], [0, -1, 0], [0, 0, -1]], float)
    pts = np.vstack([pts, probes])
    ric, g, scal = ricci_batch(chart, pts)
    lam = np.empty(len(pts))
    for i in range(len(pts)):
        lam[i] = eigh(ric[i], g[i], eigvals_only=True)[0]
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
