"""Metric families: exact values, curvature identities, decay checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afstab.errors import ExcisedPoint, OutOfDomain
from afstab.geometry import (MetricChart, SphereSampling, VolumeSampling,
                             certify_hypotheses, curvature_at, scalar_curvature,
                             verify_asymptotic_flatness)
from afstab.seeding import rng_for

from oracles import fd_scalar_curvature, sympy_conformal_scalar, sympy_gaussian_phi


def bump_chart(amp, center=(1.0, 0.0, 0.0), width=2.0, A=0.0, box=20.0):
    return MetricChart("perturbed",
                       {"A": A, "bumps": [{"amplitude": amp, "center": center, "width": width}]},
                       box_halfwidth=box)


class TestMetricAt:
    def test_flat_is_identity(self):
        g, dg, ddg = MetricChart("flat").metric_derivs((1.0, 2.0, 3.0))
        assert np.array_equal(g, np.eye(3))
        assert np.all(dg == 0.0) and np.all(ddg == 0.0)

    def test_schwarzschild_closed_form(self):
        # (1 + 0.5/(2*2))^4, frozen from the family's closed form
        chart = MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=100.0)
        g, _, _ = chart.metric_derivs((2.0, 0.0, 0.0))
        assert g[0, 0] == pytest.approx(1.601806640625, abs=1e-15)
        assert g[1, 1] == pytest.approx(g[0, 0], abs=1e-15)
        assert abs(g[0, 1]) == 0.0

    def test_conformal_zero_amplitude_matches_flat(self):
        conf = MetricChart("conformal", {"A": 0.0})
        g, dg, ddg = conf.metric_derivs((1.0, -2.0, 0.5))
        assert np.array_equal(g, np.eye(3))
        assert np.all(dg == 0.0) and np.all(ddg == 0.0)

    def test_second_derivative_symmetry(self):
        chart = bump_chart(0.2)
        _, _, ddg = chart.metric_derivs((1.3, 0.4, -0.2))
        assert np.allclose(ddg, np.swapaxes(ddg, 0, 1), atol=0.0)

    def test_errors(self):
        schw = MetricChart("schwarzschild", {"m": 0.1})
        with pytest.raises(ExcisedPoint):
            schw.check_point((0.0, 0.0, 0.0))
        with pytest.raises(OutOfDomain):
            schw.check_point((25.0, 0.0, 0.0))
        # a chart takes only the params its family reads
        with pytest.raises(ValueError, match=r"reads no param\(s\) \['A'\]"):
            MetricChart("schwarzschild", {"A": 0.2})
        # the flat family is regular at the origin
        flat = MetricChart("flat")
        flat.check_point((0.0, 0.0, 0.0))
        g, _, _ = flat.metric_derivs((0.0, 0.0, 0.0))
        assert np.array_equal(g, np.eye(3))


class TestCurvature:
    def test_flat_zero(self):
        cs = curvature_at(MetricChart("flat"), (0.3, -4.0, 2.0))
        assert np.all(cs.ricci == 0.0) and cs.scalar == 0.0

    def test_schwarzschild_scalar_vanishes_vs_fd_oracle(self):
        chart = MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=100.0)
        x = (2.0, 0.0, 0.0)
        cs = curvature_at(chart, x)
        assert abs(cs.scalar) < 1e-12
        fd = fd_scalar_curvature(lambda p: chart.metric(p), np.asarray(x), h=0.02)
        assert abs(cs.scalar - fd) < 1e-6

    def test_gaussian_bump_matches_symbolic_oracle(self):
        chart = MetricChart("conformal", {"A": 0.0, "gauss_amp": 0.1, "gauss_width": 1.0})
        phi, syms = sympy_gaussian_phi(0.1, 1.0)
        R_sym = sympy_conformal_scalar(phi, syms)
        for x in [(1.0, 0.0, 0.0), (0.5, 0.5, -0.3), (0.0, 0.0, 0.0)]:
            cs = curvature_at(chart, x)
            assert cs.scalar == pytest.approx(float(R_sym(*x)), abs=1e-9)

    def test_conformal_identity_on_samples(self):
        chart = bump_chart(-0.15, A=0.2)
        rng = rng_for(7, "conformal-identity")
        pts = rng.uniform(-3, 3, size=(200, 3))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.3]
        fast = scalar_curvature(chart, pts)
        for p, r_fast in zip(pts[:50], fast[:50]):
            assert curvature_at(chart, p).scalar == pytest.approx(r_fast, abs=1e-9)

    def test_ricci_symmetric_exactly(self):
        chart = bump_chart(0.3, A=0.4)
        for x in [(1.1, 0.2, 0.3), (2.0, -1.0, 0.5), (0.4, 0.4, 0.4)]:
            cs = curvature_at(chart, x)
            assert np.max(np.abs(cs.ricci - cs.ricci.T)) == 0.0

    def test_fd_consistency_order(self):
        # FD oracle converges to the closed-form value at observed order >= 3.5
        chart = MetricChart("conformal", {"A": 0.3, "gauss_amp": 0.1, "gauss_width": 1.5},
                            box_halfwidth=50.0)
        x = np.array([1.2, 0.7, -0.4])
        exact = curvature_at(chart, x).scalar
        hs = np.array([0.16, 0.08, 0.04])
        errs = np.array([abs(fd_scalar_curvature(lambda p: chart.metric(p), x, h=h) - exact)
                         for h in hs])
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 3.5

    def test_christoffel_closed_form_matches_generic(self):
        chart = bump_chart(0.25, A=0.3)
        x = np.array([1.4, -0.6, 0.9])
        g, dg, _ = chart.metric_derivs(x)
        ginv = np.linalg.inv(g)
        ref = np.zeros((3, 3, 3))
        for c in range(3):
            for a in range(3):
                for b in range(3):
                    ref[c, a, b] = 0.5 * sum(
                        ginv[c, d] * (dg[a, b, d] + dg[b, a, d] - dg[d, a, b])
                        for d in range(3))
        # e_a, e_a + e_b and one generic v: by polarization the quadratic
        # form on these determines every symmetric Gamma^k_ab
        eye = np.eye(3)
        vs = np.vstack([eye, eye + np.roll(eye, 1, axis=1), [[0.3, -1.0, 0.2]]])
        assert np.allclose(chart.christoffel_quadratic(np.broadcast_to(x, vs.shape), vs),
                           np.einsum("kab,na,nb->nk", ref, vs, vs), atol=1e-13)


class TestPositiveDefinite:
    @pytest.mark.parametrize("chart", [
        MetricChart("flat"),
        MetricChart("schwarzschild", {"m": 0.2}),
        MetricChart("conformal", {"A": 0.3, "gauss_amp": 0.1, "gauss_width": 1.0}),
        bump_chart(-0.3, A=0.1),
    ], ids=["flat", "schwarzschild", "conformal", "perturbed"])
    def test_spd_on_random_points(self, chart):
        rng = rng_for(11, "spd", chart.family)
        pts = rng.uniform(-0.95 * chart.box_halfwidth, 0.95 * chart.box_halfwidth,
                          size=(10_000, 3))
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-6]
        g = chart.metric(pts)
        assert np.allclose(g, np.swapaxes(g, -1, -2), atol=0.0)
        assert np.min(np.linalg.eigvalsh(g)) > 0.0

    @given(m=st.floats(0.0, 1.0), x=st.floats(-15, 15), y=st.floats(-15, 15),
           z=st.floats(-15, 15))
    @settings(max_examples=60, deadline=None)
    def test_spd_property_schwarzschild(self, m, x, y, z):
        pt = np.array([x, y, z])
        if np.linalg.norm(pt) < 1e-3:
            pt[0] += 1.0
        g = MetricChart("schwarzschild", {"m": m}).metric(pt)
        assert np.min(np.linalg.eigvalsh(g)) > 0.0


class TestAsymptoticFlatness:
    def test_flat(self):
        ok, fitted, worst = verify_asymptotic_flatness(
            MetricChart("flat"), SphereSampling(radii=(2.0, 4.0, 8.0, 16.0)))
        assert ok and worst == 0.0

    def test_schwarzschild_fitted_tau(self):
        chart = MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=100.0,
                            decay_b=10.0, decay_tau=1.0)
        ok, fitted, worst = verify_asymptotic_flatness(
            chart, SphereSampling(radii=tuple(np.geomspace(4.0, 90.0, 8)), n_per_sphere=48))
        assert ok
        assert fitted == pytest.approx(1.0, abs=0.05)

    def test_conformal_with_bump_declared_tau(self):
        chart = MetricChart("perturbed",
                            {"A": 0.3, "bumps": [{"amplitude": 0.05, "center": (1.0, 0, 0),
                                                  "width": 1.5}]},
                            box_halfwidth=100.0, decay_b=5.0, decay_tau=0.9)
        ok, _, worst = verify_asymptotic_flatness(
            chart, SphereSampling(radii=tuple(np.geomspace(3.0, 90.0, 10)), n_per_sphere=64))
        assert ok and worst < 1.0

    def test_declared_decay_violation_reported(self):
        # declaring too-fast decay must flip af_ok without raising
        chart = MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=100.0,
                            decay_b=0.5, decay_tau=1.5)
        ok, _, worst = verify_asymptotic_flatness(
            chart, SphereSampling(radii=(4.0, 16.0, 64.0)))
        assert not ok and worst > 1.0


class TestCertificates:
    def test_flat(self):
        cert = certify_hypotheses(MetricChart("flat"), VolumeSampling(n_points=200, seed=3))
        assert cert.ricci_kappa == 0.0
        assert cert.scalar_min == 0.0
        assert cert.af_ok
        assert (cert.fitted_tau, cert.worst_ratio) == (float("inf"), 0.0)   # exactly flat

    def test_schwarzschild(self):
        chart = MetricChart("schwarzschild", {"m": 0.1}, box_halfwidth=100.0)
        cert = certify_hypotheses(chart, VolumeSampling(n_points=500, r_min=0.25,
                                                        r_max=10.0, seed=3))
        assert abs(cert.scalar_min) < 1e-10
        assert cert.ricci_kappa > 0.0
        assert np.isfinite(cert.ricci_kappa)
        assert cert.af_ok and cert.worst_ratio < 1.0
        assert cert.fitted_tau == pytest.approx(1.0, abs=0.05)

    def test_negative_bump_witnessed(self):
        chart = bump_chart(0.4, center=(2.0, 0.0, 0.0), width=1.5)
        cert = certify_hypotheses(chart, VolumeSampling(n_points=800, r_min=0.25,
                                                        r_max=5.0, seed=5))
        assert cert.scalar_min < 0.0
        w = np.asarray(cert.witness_points[0])
        assert curvature_at(chart, w).scalar == pytest.approx(cert.scalar_min, rel=1e-12)
