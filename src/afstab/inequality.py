"""Mass-inequality integrands, the Kato-type refinement, and the relaxed
scalar-curvature certificate.

The central quantity is the lower bound
    (1/16 pi) integral of ( |Hess u|^2 / |grad u| + R |grad u| ) dV
for each harmonic coordinate u, which the ADM mass dominates in the
continuum.  Cells where |grad u| falls under a configurable floor are
excluded and counted instead of regularized.  The slack is reported per
grid, not asserted on any single one; its extrapolation over grid levels
(second-order Richardson, with an error band) is done by the acceptance
tests.
"""

from dataclasses import dataclass

import numpy as np

from .grid import dot3, gradient
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


def _check_floor(eps_grad: float):
    """Raise ValueError unless the gradient floor is positive: at a floor
    of 0 a node with |grad u| = 0 would divide |Hess u|^2 by zero."""
    if not eps_grad > 0.0:
        raise ValueError(f"eps_grad must be positive, got {eps_grad!r}")


def _axis_fields(triple: HarmonicTriple, axis: int, fields):
    """(|grad u^axis|_g, volume weights): `fields` when the caller holds
    them, else derived from the triple."""
    if fields is not None:
        return fields
    return triple.grad_norm(axis), triple.volume_weights()


def mass_inequality_rhs(triple: HarmonicTriple, axis: int, mass: float,
                        eps_grad: float, fields: tuple | None = None) -> InequalityReport:
    """Evaluate the mass-inequality right side for one harmonic coordinate.

    Midpoint-rule volume integral with sqrt(det g) h^3 weights over cells
    that are neither boundary-flagged nor under the gradient floor
    eps_grad (the stages take EPS_GRAD_FACTOR times the triple's
    grad_sup).  `mass` is the ADM mass the right side is compared with
    (the caller's adm_mass extrapolation, or the family's exact value).
    The slack mass - rhs may dip below zero only within discretization
    error; it is reported, not asserted.  A floor eps_grad that is not
    positive raises ValueError before any field is derived.  `fields` is
    the pair (triple.grad_norm(axis), triple.volume_weights()) when the
    caller holds it; without it the pair is derived here.
    """
    _check_floor(eps_grad)
    hess2 = triple.hess2[axis]      # first: its build sets the memory peak
    gnorm, weights = _axis_fields(triple, axis, fields)
    usable = ~triple.excluded
    grad_sup = float(np.max(gnorm[usable]))

    scal = triple.scalar_curvature

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


def refined_kato_check(triple: HarmonicTriple, axis: int, eps_grad: float,
                       fields: tuple | None = None):
    """Integrals of both sides of |grad sqrt|grad u||^2 <= |Hess u|^2 / (4|grad u|).

    Cells under the gradient floor eps_grad are left out, as in
    mass_inequality_rhs, and a floor that is not positive raises ValueError
    before any field is derived; `fields` is as there.  Returns (lhs, rhs);
    the continuum inequality is pointwise, so lhs must not exceed rhs beyond
    discretization error.
    """
    _check_floor(eps_grad)
    gnorm, weights = _axis_fields(triple, axis, fields)
    hess2 = triple.hess2[axis]
    ds = gradient(np.sqrt(gnorm), triple.grid.h)
    lhs_field = dot3(ds, ds)
    del ds
    lhs_field /= triple.phi**4
    include = ~triple.excluded & (gnorm >= eps_grad)
    # each side's integrand formed in place on the kept nodes
    w = weights[include]
    lhs = lhs_field[include]
    lhs *= w
    rhs = gnorm[include]
    rhs *= 4.0
    np.divide(hess2[include], rhs, out=rhs)
    rhs *= w
    return float(np.sum(lhs)), float(np.sum(rhs))


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


def relaxed_scalar_certificate(triple: HarmonicTriple, x_spec: VectorFieldSpec,
                               c_coef: float = 1.0,
                               weights: np.ndarray | None = None) -> RelaxedScalarCertificate:
    """psi := max(0, c|X|^2 + div X - R) on the triple's grid, its L1(g)
    norm, and the smallest radius outside which psi vanishes numerically.

    Reads the triple's nodal conformal data, its R (`scalar_curvature`)
    and volume weights (`weights`, when the caller holds them); the only
    node where the triple's phi is imputed is the puncture, where psi is
    set to 0.  For X = grad_g w the divergence
    is the conformal Laplace-Beltrami of w,
    phi^-4 lap(w) + 2 phi^-5 grad(phi).grad(w), assembled in closed form.
    The c_coef knob is the constant allowed to replace |X|^2 (any c > 1/4
    works in the continuum argument; default 1).
    """
    chart, grid = triple.chart, triple.grid
    phi, dphi, scal = triple.phi, triple.dphi, triple.scalar_curvature
    rad = grid.radii()

    if x_spec.kind == "zero" or x_spec.amplitude == 0.0:
        xsq = np.zeros_like(scal)
        div = np.zeros_like(scal)
    elif x_spec.kind == "gradient_bump":
        from .geometry import Bump
        bump = Bump(x_spec.amplitude, tuple(x_spec.center), x_spec.width)
        _, dw, ddw = bump.value_grad_hess(grid.points())
        dw = np.moveaxis(dw, -1, 0)
        xsq = dot3(dw, dw) / phi**4
        lapw = np.trace(ddw, axis1=-2, axis2=-1)
        div = lapw / phi**4 + 2.0 * dot3(np.moveaxis(dphi, -1, 0), dw) / phi**5
    else:
        raise ValueError(f"unknown vector field kind {x_spec.kind!r}")

    psi = np.maximum(0.0, c_coef * xsq + div - scal)
    usable = np.ones_like(psi, dtype=bool)
    if chart.singular_at_origin:
        usable &= rad > 0.5 * grid.h
        psi = np.where(usable, psi, 0.0)
    if weights is None:
        weights = triple.volume_weights()
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
