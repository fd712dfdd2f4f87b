"""Mass-inequality integrands, the Kato-type refinement, and the relaxed
scalar-curvature certificate.

The central quantity is the lower bound
    (1/16 pi) integral of ( |Hess u|^2 / |grad u| + R |grad u| ) dV
for each harmonic coordinate u, which the ADM mass dominates in the
continuum.  Cells where |grad u| falls under a configurable floor are
excluded and counted instead of regularized, and the reported slack
carries a Richardson error bar over grid levels rather than being
asserted on any single grid.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import MetricChart
from .grid import Grid, gradient
from .harmonic import HarmonicTriple


@dataclass(frozen=True)
class InequalityReport:
    axis: int
    mass: float
    rhs_integral: float
    hessian_l2: float
    grad_sup: float
    slack: float
    eps_grad: float
    excluded_fraction: float    # volume fraction dropped by floor or boundary flags
    floored_fraction: float     # part of that due to the gradient floor alone


# The stages floor |grad u| at this fraction of the triple's grad_sup.
EPS_GRAD_FACTOR = 1e-6


def mass_inequality_rhs(triple: HarmonicTriple, axis: int, mass: float,
                        eps_grad: float) -> InequalityReport:
    """Evaluate the mass-inequality right side for one harmonic coordinate.

    Midpoint-rule volume integral with sqrt(det g) h^3 weights over cells
    that are neither boundary-flagged nor under the gradient floor
    eps_grad (the stages take EPS_GRAD_FACTOR times the triple's
    grad_sup).  `mass` is the ADM mass the right side is compared with
    (the caller's adm_mass extrapolation, or the family's exact value).
    The slack mass - rhs may dip below zero only within discretization
    error; it is reported, not asserted.
    """
    gnorm = triple.grad_norm(axis)
    hess2 = triple.hess2[axis]
    grad_sup = float(np.max(gnorm[~triple.excluded]))
    if eps_grad <= 0.0:
        raise ValueError("eps_grad must be positive")

    scal = triple.scalar_curvature
    weights = triple.volume_weights()

    usable = ~triple.excluded
    floored = usable & (gnorm < eps_grad)
    included = usable & ~floored

    excl_vol = float(np.sum(weights[triple.excluded | floored]))
    all_vol = float(np.sum(weights))
    excluded_fraction = excl_vol / all_vol if all_vol > 0 else 0.0
    floored_fraction = float(np.sum(weights[floored])) / all_vol if all_vol > 0 else 0.0

    integrand = hess2[included] / gnorm[included] + scal[included] * gnorm[included]
    rhs = float(np.sum(integrand * weights[included]) / (16.0 * np.pi))
    hessian_l2 = float(np.sum(hess2[usable] * weights[usable]))

    return InequalityReport(axis=axis, mass=float(mass), rhs_integral=rhs,
                            hessian_l2=hessian_l2, grad_sup=grad_sup,
                            slack=float(mass) - rhs, eps_grad=float(eps_grad),
                            excluded_fraction=excluded_fraction,
                            floored_fraction=floored_fraction)


def refined_kato_check(triple: HarmonicTriple, axis: int, eps_grad: float):
    """Integrals of both sides of |grad sqrt|grad u||^2 <= |Hess u|^2 / (4|grad u|).

    Cells under the gradient floor eps_grad are left out, as in
    mass_inequality_rhs.  Returns (lhs, rhs); the continuum inequality is
    pointwise, so lhs must not exceed rhs beyond discretization error.
    """
    gnorm = triple.grad_norm(axis)
    hess2 = triple.hess2[axis]
    s = np.sqrt(gnorm)
    ds = gradient(s, triple.grid.h)
    lhs_field = np.einsum("...a,...a->...", ds, ds) / triple.phi**4
    include = ~triple.excluded & (gnorm >= eps_grad)
    w = triple.volume_weights()
    lhs = float(np.sum(lhs_field[include] * w[include]))
    rhs = float(np.sum(hess2[include] / (4.0 * gnorm[include]) * w[include]))
    return lhs, rhs


# ---------------------------------------------------------------------------
# relaxed scalar-curvature certificate


@dataclass(frozen=True)
class VectorFieldSpec:
    """Closed-form vector field X for the relaxed curvature condition.

    kind "zero" is the trivial field; kind "gradient_bump" takes
    X = grad_g w for w = amplitude * exp(1 - 1/(1 - s^2)), s = |x-center|/width,
    so X is smooth, compactly supported, and trivially of the declared
    decay class.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    center: tuple = (0.0, 0.0, 0.0)
    width: float = 1.0

    def support_radius(self) -> float:
        if self.kind == "zero" or self.amplitude == 0.0:
            return 0.0
        return float(np.linalg.norm(self.center) + self.width)


@dataclass(frozen=True)
class RelaxedScalarCertificate:
    x_field: VectorFieldSpec
    psi_l1: float
    psi_support_radius: float
    holds_pointwise_outside: bool
    quadratic_coefficient: float


PSI_ZERO_TOL = 1e-12


def relaxed_scalar_certificate(chart: MetricChart, x_spec: VectorFieldSpec,
                               grid: Grid, scal: np.ndarray,
                               c_coef: float = 1.0) -> RelaxedScalarCertificate:
    """psi := max(0, c|X|^2 + div X - R) on the grid, its L1(g) norm, and
    the smallest radius outside which psi vanishes numerically.

    scal is R at the grid nodes, as `geometry.scalar_curvature` gives it
    (a triple keeps it as `scalar_curvature`).  For X = grad_g w the
    divergence is the conformal Laplace-Beltrami of w,
    phi^-4 lap(w) + 2 phi^-5 grad(phi).grad(w), assembled in closed form.
    The c_coef knob is the constant allowed to replace |X|^2 (any c > 1/4
    works in the continuum argument; default 1).
    """
    pts = grid.points()
    rad = np.linalg.norm(pts, axis=-1)
    phi, dphi = chart.conformal_gradient(pts)

    if x_spec.kind == "zero" or x_spec.amplitude == 0.0:
        xsq = np.zeros_like(scal)
        div = np.zeros_like(scal)
    elif x_spec.kind == "gradient_bump":
        from .geometry import Bump
        bump = Bump(x_spec.amplitude, tuple(x_spec.center), x_spec.width)
        _, dw, ddw = bump.value_grad_hess(pts)
        xsq = np.einsum("...a,...a->...", dw, dw) / phi**4
        lapw = np.trace(ddw, axis1=-2, axis2=-1)
        div = lapw / phi**4 + 2.0 * np.einsum("...a,...a->...", dphi, dw) / phi**5
    else:
        raise ValueError(f"unknown vector field kind {x_spec.kind!r}")

    psi = np.maximum(0.0, c_coef * xsq + div - scal)
    usable = np.ones_like(psi, dtype=bool)
    if chart.singular_at_origin:
        usable &= rad > 0.5 * grid.h
        psi = np.where(usable, psi, 0.0)
    weights = phi**6 * grid.h**3
    psi_l1 = float(np.sum(psi[usable] * weights[usable]))

    hot = psi > PSI_ZERO_TOL
    support_radius = float(np.max(rad[hot])) if np.any(hot) else 0.0
    declared = max(x_spec.support_radius(),
                   0.0 if not chart.bumps else max(
                       (np.linalg.norm(b[1].center) + b[1].width if b[0] == "bump"
                        else np.linalg.norm(b[2]) + 6.0 * b[3])
                       for b in chart.bumps))
    holds_outside = bool(np.all(psi[rad > declared + grid.h] <= PSI_ZERO_TOL)) \
        if np.any(rad > declared + grid.h) else True
    return RelaxedScalarCertificate(x_field=x_spec, psi_l1=psi_l1,
                                    psi_support_radius=support_radius,
                                    holds_pointwise_outside=holds_outside,
                                    quadratic_coefficient=float(c_coef))


# ---------------------------------------------------------------------------
# Richardson extrapolation of the slack over grid levels


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

