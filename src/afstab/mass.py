"""ADM mass by coordinate-sphere flux quadrature and radius extrapolation.

The mass integrand (1/16 pi) sum_ij (d_i g_ij - d_j g_ii) nu^j is, for
g = phi^4 delta, (1/16 pi) (-8 phi^3 grad(phi) . nu), evaluated from the
family's closed-form phi and grad phi on a product rule: Gauss-Legendre
in the polar cosine times uniform trapezoid in azimuth, spectrally accurate
for the smooth integrands of the corpus.  The r -> infinity limit is taken
by a least-squares fit m(r) = m_inf + a r^-q, q = 2 tau - 1 from the
declared decay rate tau.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitFailure, OutOfDomain
from .geometry import MetricChart, scalar_curvature
from .grid import dot3

# The flux integral's product rule: QUADRATURE_POLAR Gauss-Legendre nodes
# in the polar cosine times QUADRATURE_AZIMUTH trapezoid azimuths.
QUADRATURE_POLAR = 32
QUADRATURE_AZIMUTH = 64

# The largest fit residual, relative to the value scale, that the
# extrapolation accepts.
FIT_RESIDUAL_TOL = 1e-3


def sphere_rule(n_polar: int, n_azimuth: int):
    """Quadrature nodes (unit directions) and weights summing to 4 pi."""
    mu, w_mu = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    w_phi = 2.0 * np.pi / n_azimuth
    sin_t = np.sqrt(1.0 - mu**2)
    dirs = np.stack([np.outer(sin_t, np.cos(phi)),
                     np.outer(sin_t, np.sin(phi)),
                     np.outer(mu, np.ones_like(phi))], axis=-1).reshape(-1, 3)
    weights = (w_mu[:, None] * w_phi * np.ones_like(phi)).reshape(-1)
    return dirs, weights


def adm_mass_at_radius(chart: MetricChart, r: float) -> float:
    """Flux integral (1/16 pi) over the coordinate sphere S_r, on the
    QUADRATURE_POLAR x QUADRATURE_AZIMUTH sphere rule.

    Euclidean unit normal and area element; the sphere must fit inside the
    chart box and stay outside the unit ball, clear of the puncture.
    """
    if r <= 1.0:
        raise ValueError(f"extraction radius {r} must exceed 1")
    if r > chart.box_halfwidth:
        raise OutOfDomain(f"sphere of radius {r} leaves the chart box "
                          f"of halfwidth {chart.box_halfwidth}")
    dirs, weights = sphere_rule(QUADRATURE_POLAR, QUADRATURE_AZIMUTH)
    pts = r * dirs
    phi, dphi = chart.conformal_gradient(pts)
    # sum_ij (d_i g_ij - d_j g_ii) nu^j = -8 phi^3 grad(phi) . nu, with nu
    # the Euclidean radial direction
    flux = (-8.0 * phi**3)[:, None] * dphi
    integrand = dot3(flux.T, dirs.T)
    return float(r**2 * np.sum(weights * integrand) / (16.0 * np.pi))


@dataclass(frozen=True)
class MassReport:
    radii: tuple
    raw_values: tuple
    extrapolated: float
    fit_exponent: float
    quadrature_order: int
    fit_residual: float


def adm_mass(chart: MetricChart, radii) -> MassReport:
    """Extrapolate m(r) over increasing radii to the ADM mass.

    The exponent q = 2 tau - 1 matches the decay rate the declared
    asymptotics produce (q = 1 for tau = 1 families).  Raises FitFailure
    when the fit residual exceeds FIT_RESIDUAL_TOL relative to the value
    scale, which signals that the family decays slower than declared.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 3:
        raise ValueError("need at least 3 extraction radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    raw = np.array([adm_mass_at_radius(chart, r) for r in radii])
    r_arr = np.asarray(radii)
    q = 2.0 * chart.decay_tau - 1.0
    A = np.stack([np.ones_like(r_arr), r_arr**-q], axis=1)
    coef, *_ = np.linalg.lstsq(A, raw, rcond=None)
    resid = float(np.max(np.abs(A @ coef - raw)))

    scale = max(abs(float(coef[0])), float(np.max(np.abs(raw))), 1e-30)
    if resid / scale > FIT_RESIDUAL_TOL:
        raise FitFailure(f"mass fit residual {resid:.3e} exceeds "
                         f"{FIT_RESIDUAL_TOL:.1e} of scale {scale:.3e}; "
                         "family may decay slower than declared", residual=resid)
    return MassReport(radii=radii, raw_values=tuple(float(v) for v in raw),
                      extrapolated=float(coef[0]), fit_exponent=float(q),
                      quadrature_order=QUADRATURE_POLAR, fit_residual=resid)


def scalar_curvature_l1(chart: MetricChart, n: int = 48):
    """Reported integrability certificate for R_g.

    Midpoint-rule integral of |R| sqrt(det g) over the interior ball of
    radius r = 0.9 box halfwidths plus a tail coefficient
    sup_{|x| = r} |R| r^(tau + 2) at the integration edge; a finite
    coefficient certifies the tail of the closed-form family is
    integrable at its declared rate.  Reported, never enforced.
    """
    r_in = 0.9 * chart.box_halfwidth
    h = 2.0 * r_in / n
    axis = -r_in + h * (np.arange(n) + 0.5)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    rad = np.linalg.norm(pts, axis=1)
    keep = rad <= r_in
    if chart.singular_at_origin:
        keep &= rad > h
    pts = pts[keep]
    phi = chart.conformal_factor(pts)
    Rg = scalar_curvature(chart, pts)
    interior = float(np.sum(np.abs(Rg) * phi**6) * h**3)
    dirs, weights = sphere_rule(16, 32)
    edge = np.max(np.abs(scalar_curvature(chart, r_in * dirs)))
    tail_coef = float(edge * r_in ** (chart.decay_tau + 2.0))
    return {"interior_l1": interior, "tail_coefficient": tail_coef,
            "interior_radius": r_in}
