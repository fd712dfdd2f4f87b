"""Mass-inequality integrals, Kato refinement, relaxed certificates."""

import tracemalloc

import numpy as np
import pytest

import afstab.harmonic
from afstab.geometry import MetricChart
from afstab.grid import Grid, ScalarGridField
from afstab.harmonic import build_harmonic_triple, triple_from_solutions
from afstab.inequality import (VectorFieldSpec, mass_inequality_rhs, refined_kato_check,
                               relaxed_scalar_certificate)
from afstab.mass import adm_mass

from conftest import certificate
from oracles import bump_positive_laplacian_integral, richardson_slack


def floor_checked_first(monkeypatch, check):
    """Call check(triple, eps_grad) on a fresh triple with floors 0, -1e-9
    and NaN; each must raise ValueError before |Hess u|^2 is derived."""
    chart = MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=100.0)
    t = build_harmonic_triple(chart, Grid(halfwidth=20.0, nodes=17))
    calls = []
    monkeypatch.setattr(afstab.harmonic, "_hessian_norm2",
                        lambda *args: calls.append(args))
    for eps_grad in (0.0, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="eps_grad must be positive"):
            check(t, eps_grad)
    assert calls == [] and "hess2" not in vars(t)


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
        real_laplacian = MetricChart.conformal_laplacian
        calls = []

        def counting_laplacian(self, x):
            calls.append(np.shape(x))
            return real_laplacian(self, x)

        monkeypatch.setattr(MetricChart, "conformal_laplacian", counting_laplacian)
        for axis in range(3):
            mass_inequality_rhs(t, axis, mass=0.2, eps_grad=1e-6 * t.grad_sup)
        # R is derived once for the triple, one x-slab of nodes per call of
        # the Laplacian-only entry point, and is bit for bit the whole-grid
        # formula on the full phi Hessian
        assert calls == [(17, 17, 3)] * 17
        phi, _, ddphi = real_terms(chart, t.grid.points())
        with np.errstate(invalid="ignore"):
            scal = -8.0 * phi**-5 * np.trace(ddphi, axis1=-2, axis2=-1)
        assert np.array_equal(t.scalar_curvature, scal, equal_nan=True)

    def test_held_fields_give_the_same_reports(self, schw_triples):
        # the stage hands each axis's |grad u|_g and the volume weights to
        # both checks; the reports are those the checks derive themselves
        t = schw_triples[0.2]
        eps_grad = 1e-6 * t.grad_sup
        weights = t.volume_weights()
        for axis in range(3):
            fields = (t.grad_norm(axis), weights)
            assert (mass_inequality_rhs(t, axis, 0.2, eps_grad, fields=fields)
                    == mass_inequality_rhs(t, axis, 0.2, eps_grad))
            assert (refined_kato_check(t, axis, eps_grad, fields=fields)
                    == refined_kato_check(t, axis, eps_grad))

    def test_eps_grad_must_be_positive(self, flat_triple):
        with pytest.raises(ValueError):
            mass_inequality_rhs(flat_triple, 0, eps_grad=0.0, mass=0.0)

    def test_eps_grad_checked_before_fields(self, monkeypatch):
        floor_checked_first(monkeypatch, lambda t, eps: mass_inequality_rhs(
            t, 0, mass=0.2, eps_grad=eps))

    def test_stage_peak_memory(self):
        # tracemalloc peak of a triple's solve and its three rhs and Kato
        # calls at N=33: 8 440 769 B (8.05 MiB) at the commit before the
        # in-place harmonic layer, 8 264 853 B (7.88 MiB) after it, and
        # 8 098 581 B (7.72 MiB) while the triple kept u's partials and the
        # solve held grad phi; 5 964 303 B (5.69 MiB) without them and with
        # the stencil's one face-flux buffer.  Keeping |grad u|_g on the
        # triple would add three (N, N, N) fields.
        chart = MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=100.0)
        build_harmonic_triple(chart, Grid(halfwidth=20.0, nodes=17))   # warm-up
        tracemalloc.start()
        try:
            t = build_harmonic_triple(chart, Grid(halfwidth=20.0, nodes=33))
            eps_grad = 1e-6 * t.grad_sup
            for axis in range(3):
                mass_inequality_rhs(t, axis, mass=0.2, eps_grad=eps_grad)
            for axis in range(3):
                refined_kato_check(t, axis, eps_grad=eps_grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_080_000


class TestKato:
    def test_eps_grad_checked_before_fields(self, monkeypatch):
        # a floor of 0 kept the nodes with |grad u| = 0 and divided by it
        floor_checked_first(monkeypatch, lambda t, eps: refined_kato_check(
            t, 0, eps_grad=eps))

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

    def test_zero_field_leaves_grad_phi_unbuilt(self, small_grid):
        # the zero field reads R and the volume weights only: on a reloaded
        # triple it builds no grad phi, and it gives the certificate of a
        # triple whose grad phi (and phi with it) was built first
        chart = MetricChart("perturbed",
                            {"A": 0.2, "bumps": [{"amplitude": -0.05,
                                                  "center": (1.0, 0.5, 0.0),
                                                  "width": 2.5}]},
                            box_halfwidth=100.0)
        coords = [ScalarGridField(small_grid, small_grid.points()[..., a].copy())
                  for a in range(3)]
        lazy = triple_from_solutions(chart, small_grid, coords)
        cert = relaxed_scalar_certificate(lazy, VectorFieldSpec("zero"))
        assert "dphi" not in vars(lazy)
        assert cert.psi_l1 > 0.0
        eager = triple_from_solutions(chart, small_grid, coords)
        eager.dphi
        assert "phi" in vars(eager)
        assert cert == relaxed_scalar_certificate(eager, VectorFieldSpec("zero"))

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
