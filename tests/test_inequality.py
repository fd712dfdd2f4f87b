"""Mass-inequality integrals, Kato refinement, relaxed certificates."""

import numpy as np
import pytest

from afstab.geometry import MetricChart
from afstab.grid import Grid
from afstab.harmonic import build_harmonic_triple
from afstab.inequality import (VectorFieldSpec, mass_inequality_rhs,
                               refined_kato_check, richardson_slack)
from afstab.mass import adm_mass

from conftest import certificate
from oracles import bump_positive_laplacian_integral


class TestMassInequality:
    def test_flat_trivial(self, flat_triple):
        rep = mass_inequality_rhs(flat_triple, 0, mass=0.0,
                                  eps_grad=1e-6 * flat_triple.grad_sup)
        assert abs(rep.rhs_integral) < 1e-12
        assert abs(rep.hessian_l2) < 1e-12
        assert rep.grad_sup == pytest.approx(1.0, abs=1e-8)
        assert abs(rep.slack) < 1e-12
        assert rep.floored_fraction == 0.0

    def test_schwarzschild_slack_nonnegative_at_desk_scale(self, schw_triples,
                                                           schw_charts):
        chart = schw_charts[0.2]
        t = schw_triples[0.2]
        rep = mass_inequality_rhs(t, 0,
                                  mass=adm_mass(chart, (20.0, 40.0, 80.0)).extrapolated,
                                  eps_grad=1e-6 * t.grad_sup)
        assert rep.mass == pytest.approx(0.2, rel=0.005)
        assert rep.rhs_integral > 0.0
        assert rep.slack > 0.0          # measured; the continuum claim is asserted
        assert rep.floored_fraction == 0.0   # via Richardson in acceptance

    def test_hessian_mass_scaling(self, schw_triples):
        vals = {}
        for m in (0.2, 0.1, 0.05):
            t = schw_triples[m]
            rep = mass_inequality_rhs(t, 0, mass=m, eps_grad=1e-6 * t.grad_sup)
            assert rep.hessian_l2 <= 16.0 * np.pi * rep.grad_sup * m * 1.1
            vals[m] = rep.hessian_l2
        assert vals[0.2] > vals[0.1] > vals[0.05]

    def test_integrand_nonnegative_for_nonneg_scalar(self, schw_triples, schw_charts):
        # every sample of |Hess u|^2/|grad u| and R |grad u| is >= 0 for R >= 0
        t = schw_triples[0.1]
        gnorm = t.grad_norm(0)[~t.excluded]
        hess2 = t.hess2[0][~t.excluded]
        assert np.all(hess2 >= 0.0) and np.all(gnorm > 0.0)

    def test_eps_grad_robustness(self, schw_triples):
        t = schw_triples[0.1]
        base = mass_inequality_rhs(t, 0, eps_grad=1e-6 * t.grad_sup, mass=0.1)
        half = mass_inequality_rhs(t, 0, eps_grad=0.5e-6 * t.grad_sup, mass=0.1)
        assert half.rhs_integral == pytest.approx(base.rhs_integral, rel=1e-3)
        assert base.floored_fraction == half.floored_fraction == 0.0

    def test_scalar_curvature_once_per_triple(self, monkeypatch):
        chart = MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=100.0)
        t = build_harmonic_triple(chart, Grid(halfwidth=20.0, nodes=17))
        real_terms = MetricChart.conformal_terms
        calls = []

        def counting_terms(self, x):
            calls.append(np.shape(x))
            return real_terms(self, x)

        monkeypatch.setattr(MetricChart, "conformal_terms", counting_terms)
        for axis in range(3):
            mass_inequality_rhs(t, axis, mass=0.2, eps_grad=1e-6 * t.grad_sup)
        # R is derived once for the triple, one x-slab of nodes per call, and
        # is bit for bit the whole-grid formula
        assert calls == [(17, 17, 3)] * 17
        phi, _, ddphi = real_terms(chart, t.grid.points())
        with np.errstate(invalid="ignore"):
            scal = -8.0 * phi**-5 * np.trace(ddphi, axis1=-2, axis2=-1)
        assert np.array_equal(t.scalar_curvature, scal, equal_nan=True)

    def test_eps_grad_must_be_positive(self, flat_triple):
        with pytest.raises(ValueError):
            mass_inequality_rhs(flat_triple, 0, eps_grad=0.0, mass=0.0)


class TestKato:
    def test_flat_both_sides_vanish(self, flat_triple):
        lhs, rhs = refined_kato_check(flat_triple, 0, eps_grad=1e-6 * flat_triple.grad_sup)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    @pytest.mark.parametrize("m", [0.2, 0.1])
    def test_schwarzschild_inequality(self, schw_triples, m):
        t = schw_triples[m]
        lhs, rhs = refined_kato_check(t, 0, eps_grad=1e-6 * t.grad_sup)
        assert lhs <= rhs * (1.0 + 1e-6)
        assert 0.0 < lhs / rhs < 1.0

    def test_bump_family_ratio_below_one(self):
        chart = MetricChart("perturbed",
                            {"A": 0.2, "bumps": [{"amplitude": 0.03,
                                                  "center": (1.5, 0.5, 0.0),
                                                  "width": 2.0}]},
                            box_halfwidth=100.0)
        from afstab.harmonic import build_harmonic_triple
        triple = build_harmonic_triple(chart, Grid(halfwidth=20.0, nodes=33))
        lhs, rhs = refined_kato_check(triple, 1, eps_grad=1e-6 * triple.grad_sup)
        assert lhs <= rhs and lhs / rhs < 1.0


class TestRelaxedCertificate:
    def test_zero_field_flat(self, flat_chart, small_grid):
        cert = certificate(flat_chart, VectorFieldSpec("zero"), small_grid)
        assert cert.psi_l1 == 0.0
        assert cert.psi_support_radius == 0.0
        assert cert.holds_pointwise_outside

    def test_zero_field_schwarzschild(self, schw_charts, small_grid):
        cert = certificate(schw_charts[0.1], VectorFieldSpec("zero"), small_grid)
        assert cert.psi_l1 < 1e-12

    def test_negative_bump_positive_part(self, small_grid):
        # width 6 so the desk grid resolves the sign structure of lap(B)
        def bump_chart(c):
            return MetricChart("perturbed",
                               {"A": 0.0, "bumps": [{"amplitude": c,
                                                     "center": (0.0, 0.0, 0.0),
                                                     "width": 6.0}]},
                               box_halfwidth=100.0)

        amps = [0.08, 0.04, 0.02, 0.01]
        grid = Grid(halfwidth=20.0, nodes=65)
        psi = [certificate(bump_chart(c), VectorFieldSpec("zero"), grid).psi_l1
               for c in amps]
        assert all(a > b for a, b in zip(psi, psi[1:]))
        slope = np.polyfit(amps, psi, 1)[0]
        oracle = 8.0 * bump_positive_laplacian_integral(6.0)
        assert slope == pytest.approx(oracle, rel=0.1)

    def test_gradient_bump_field(self, schw_charts, small_grid):
        spec = VectorFieldSpec("gradient_bump", amplitude=0.05,
                               center=(1.0, 0.0, 0.0), width=2.0)
        cert = certificate(schw_charts[0.1], spec, small_grid)
        assert cert.psi_l1 >= 0.0
        assert cert.psi_support_radius <= spec.support_radius() + small_grid.h
        # shrink the field amplitude: the positive part decreases
        weaker = VectorFieldSpec("gradient_bump", amplitude=0.01,
                                 center=(1.0, 0.0, 0.0), width=2.0)
        cert2 = certificate(schw_charts[0.1], weaker, small_grid)
        assert cert2.psi_l1 <= cert.psi_l1

    def test_c_coefficient_knob(self, small_grid):
        chart = MetricChart("perturbed",
                            {"A": 0.0, "bumps": [{"amplitude": 0.05,
                                                  "center": (0.0, 0.0, 0.0),
                                                  "width": 2.5}]},
                            box_halfwidth=100.0)
        spec = VectorFieldSpec("gradient_bump", amplitude=0.1,
                               center=(0.0, 0.0, 0.0), width=2.5)
        c1 = certificate(chart, spec, small_grid, c_coef=1.0)
        c2 = certificate(chart, spec, small_grid, c_coef=0.3)
        assert c2.psi_l1 <= c1.psi_l1


class TestRichardson:
    def test_exact_quadratic_model(self):
        h = np.array([1.0, 0.5, 0.25])
        s = 3.0 + 2.0 * h**2
        extr, band = richardson_slack(s, h)
        assert extr == pytest.approx(3.0, abs=1e-12)
        assert band < 1e-12

    def test_band_reflects_model_error(self):
        h = np.array([1.0, 0.5, 0.25])
        s = 3.0 + 2.0 * h**2 + 0.5 * h**3
        extr, band = richardson_slack(s, h)
        assert abs(extr - 3.0) <= band + 1e-9

    def test_two_levels(self):
        extr, band = richardson_slack([1.0, 0.4], [1.0, 0.5])
        assert extr == pytest.approx(0.2)
        assert band == pytest.approx(0.2)
