"""Metric families: exact values, curvature identities, decay checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

import afstab.geometry
from afstab.geodesy import metric_speed
from afstab.geometry import (MetricChart, SphereSampling, VolumeSampling,
                             certify_hypotheses, ricci_batch, scalar_curvature,
                             verify_asymptotic_flatness)
from afstab.mass import adm_mass_at_radius
from afstab.seeding import rng_for

from oracles import (fd_scalar_curvature, generic_curvature, generic_decay,
                     generic_mass_flux, metric, metric_derivs, sympy_conformal_scalar,
                     sympy_gaussian_phi)


def bump_chart(amp, center=(1.0, 0.0, 0.0), width=2.0, A=0.0, box=20.0):
    return MetricChart("perturbed",
                       {"A": A, "bumps": [{"amplitude": amp, "center": center, "width": width}]},
                       box_halfwidth=box)


class TestConformalFactor:
    CHARTS = {
        "flat": MetricChart("flat"),
        "schwarzschild": MetricChart("schwarzschild", {"m": 0.2}),
        "conformal": MetricChart("conformal", {"A": 0.2, "gauss_amp": 0.1,
                                               "gauss_center": (0.5, 0.0, 0.0),
                                               "gauss_width": 1.0}),
        "perturbed": bump_chart(0.03, center=(1.5, 0.5, 0.0), A=0.2),
    }

    @pytest.mark.parametrize("family", CHARTS)
    def test_phi_only_matches_gradient_path(self, family):
        # conformal_factor forms no derivative, and is bit for bit the phi
        # of conformal_gradient: on one point, a batch, the node lattice of
        # a grid and no points; the origin is in each, where phi is inf for
        # the monopole families
        chart = self.CHARTS[family]
        rng = np.random.default_rng(5)
        batch = np.vstack([np.zeros((1, 3)), rng.uniform(-3.0, 3.0, size=(40, 3))])
        lattice = np.stack(np.meshgrid(*[np.linspace(-2.0, 2.0, 9)] * 3, indexing="ij"),
                           axis=-1)
        for x in (np.zeros(3), np.array([1.5, 0.5, 0.2]), batch, lattice, np.zeros((0, 3))):
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = np.asarray(chart.conformal_factor(x))
                ref = np.asarray(chart.conformal_gradient(x)[0])
            assert phi.shape == ref.shape == x.shape[:-1]
            assert np.array_equal(phi.view(np.uint64), ref.view(np.uint64))
        at_origin = chart.conformal_factor(np.zeros(3))
        assert np.isinf(at_origin) == chart.singular_at_origin

    @pytest.mark.parametrize("family", CHARTS)
    def test_laplacian_matches_hessian_trace(self, family):
        # conformal_laplacian forms only the Hessian's diagonal; phi, lap(phi)
        # and R are bit for bit those of the full Hessian and np.trace, the
        # origin (inf and nan for the monopole families) included
        chart = self.CHARTS[family]
        rng = np.random.default_rng(6)
        batch = np.vstack([np.zeros((1, 3)), rng.uniform(-3.0, 3.0, size=(40, 3))])
        lattice = np.stack(np.meshgrid(*[np.linspace(-2.0, 2.0, 9)] * 3, indexing="ij"),
                           axis=-1)
        for x in (np.zeros(3), np.array([1.5, 0.5, 0.2]), batch, lattice, np.zeros((0, 3))):
            with np.errstate(divide="ignore", invalid="ignore"):
                phi, lap = chart.conformal_laplacian(x)
                ref_phi, _, hess = chart.conformal_terms(x)
                ref_lap = np.trace(hess, axis1=-2, axis2=-1)
                scal = np.asarray(scalar_curvature(chart, x))
                ref_scal = np.asarray(-8.0 * ref_phi**-5 * ref_lap)
            assert lap.shape == ref_lap.shape == x.shape[:-1]
            for got, ref in ((phi, ref_phi), (lap, ref_lap), (scal, ref_scal)):
                assert np.array_equal(np.asarray(got).view(np.uint64),
                                      np.asarray(ref).view(np.uint64))


class TestMetricAt:
    # the metric tensors of the generic route, which the closed forms in
    # phi are checked against
    def test_flat_is_identity(self):
        g, dg, ddg = metric_derivs(MetricChart("flat"), (1.0, 2.0, 3.0))
        assert np.array_equal(g, np.eye(3))
        assert np.all(dg == 0.0) and np.all(ddg == 0.0)

    def test_schwarzschild_closed_form(self):
        # (1 + 0.5/(2*2))^4, frozen from the family's closed form
        chart = MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=100.0)
        g, _, _ = metric_derivs(chart, (2.0, 0.0, 0.0))
        assert g[0, 0] == pytest.approx(1.601806640625, abs=1e-15)
        assert g[1, 1] == pytest.approx(g[0, 0], abs=1e-15)
        assert abs(g[0, 1]) == 0.0

    def test_conformal_zero_amplitude_matches_flat(self):
        conf = MetricChart("conformal", {"A": 0.0})
        g, dg, ddg = metric_derivs(conf, (1.0, -2.0, 0.5))
        assert np.array_equal(g, np.eye(3))
        assert np.all(dg == 0.0) and np.all(ddg == 0.0)

    def test_second_derivative_symmetry(self):
        chart = bump_chart(0.2)
        _, _, ddg = metric_derivs(chart, (1.3, 0.4, -0.2))
        assert np.allclose(ddg, np.swapaxes(ddg, 0, 1), atol=0.0)

    def test_errors(self):
        # a chart takes only the params its family reads
        with pytest.raises(ValueError, match=r"reads no param\(s\) \['A'\]"):
            MetricChart("schwarzschild", {"A": 0.2})
        # the flat family is regular at the origin
        assert np.array_equal(metric(MetricChart("flat"), (0.0, 0.0, 0.0)), np.eye(3))


class TestMetricSpeed:
    # |v|_g from phi^4 alone is bit for bit the contraction of the oracle's
    # tensor, on a batch, a single point (where phi is a numpy scalar and
    # phi^4 must still be an array power) and strided views
    @staticmethod
    def _reference(chart, x, v):
        return np.sqrt(np.einsum("...ab,...a,...b->...", metric(chart, x), v, v))

    @pytest.mark.parametrize("family", TestConformalFactor.CHARTS)
    def test_matches_tensor_contraction(self, family):
        chart = TestConformalFactor.CHARTS[family]
        rng = rng_for(17, "metric-speed", family)
        x = rng.uniform(-4.0, 4.0, size=(400, 3))
        v = rng.normal(size=(400, 3))
        assert np.array_equal(metric_speed(chart, x, v), self._reference(chart, x, v))
        for xi, vi in zip(x, v):
            assert np.array_equal(metric_speed(chart, xi, vi), self._reference(chart, xi, vi))
        xs, vs = np.asfortranarray(x)[::3], v[::-3]
        assert not xs.flags.c_contiguous
        assert np.array_equal(metric_speed(chart, xs, vs), self._reference(chart, xs, vs))


class TestCurvature:
    # the generic route of tests/oracles.py against FD, sympy and the
    # closed forms in phi
    def test_flat_zero(self):
        _, ric, scal = generic_curvature(MetricChart("flat"), (0.3, -4.0, 2.0))
        assert np.all(ric == 0.0) and scal == 0.0

    def test_schwarzschild_scalar_vanishes_vs_fd_oracle(self):
        chart = MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=100.0)
        x = (2.0, 0.0, 0.0)
        scal = generic_curvature(chart, x)[2]
        assert abs(scal) < 1e-12
        fd = fd_scalar_curvature(lambda p: metric(chart, p), np.asarray(x), h=0.02)
        assert abs(scal - fd) < 1e-6

    def test_gaussian_bump_matches_symbolic_oracle(self):
        chart = MetricChart("conformal", {"A": 0.0, "gauss_amp": 0.1, "gauss_width": 1.0})
        phi, syms = sympy_gaussian_phi(0.1, 1.0)
        R_sym = sympy_conformal_scalar(phi, syms)
        for x in [(1.0, 0.0, 0.0), (0.5, 0.5, -0.3), (0.0, 0.0, 0.0)]:
            assert generic_curvature(chart, x)[2] == pytest.approx(float(R_sym(*x)),
                                                                  abs=1e-9)

    def test_conformal_identity_on_samples(self):
        chart = bump_chart(-0.15, A=0.2)
        rng = rng_for(7, "conformal-identity")
        pts = rng.uniform(-3, 3, size=(200, 3))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.3]
        fast = scalar_curvature(chart, pts)
        assert np.allclose(generic_curvature(chart, pts)[2], fast, rtol=0.0, atol=1e-9)

    def test_ricci_symmetric_exactly(self):
        chart = bump_chart(0.3, A=0.4)
        for x in [(1.1, 0.2, 0.3), (2.0, -1.0, 0.5), (0.4, 0.4, 0.4)]:
            ric = generic_curvature(chart, x)[1]
            assert np.max(np.abs(ric - ric.T)) == 0.0

    def test_fd_consistency_order(self):
        # FD oracle converges to the closed-form value at observed order >= 3.5
        chart = MetricChart("conformal", {"A": 0.3, "gauss_amp": 0.1, "gauss_width": 1.5},
                            box_halfwidth=50.0)
        x = np.array([1.2, 0.7, -0.4])
        exact = generic_curvature(chart, x)[2]
        hs = np.array([0.16, 0.08, 0.04])
        errs = np.array([abs(fd_scalar_curvature(lambda p: metric(chart, p), x, h=h) - exact)
                         for h in hs])
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 3.5

    def test_christoffel_closed_form_matches_generic(self):
        chart = bump_chart(0.25, A=0.3)
        x = np.array([1.4, -0.6, 0.9])
        g, dg, _ = metric_derivs(chart, x)
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


class TestClosedFormsAgainstGenericRoute:
    # Ric, R, the decay sups and the ADM flux come from phi in closed form;
    # the generic metric-tensor route of tests/oracles.py checks them on
    # every family
    @staticmethod
    def _points():
        pts = rng_for(13, "closed-forms").uniform(-4.0, 4.0, size=(300, 3))
        return pts[np.linalg.norm(pts, axis=1) > 0.2]

    @pytest.mark.parametrize("family", TestConformalFactor.CHARTS)
    def test_ricci_matches_generic(self, family):
        chart = TestConformalFactor.CHARTS[family]
        pts = self._points()
        ric, scal = ricci_batch(chart, pts)
        ref = generic_curvature(chart, pts)[1]
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(ric - ref)) <= 1e-12 * scale
        assert np.array_equal(ric, np.swapaxes(ric, -1, -2))
        # one formula for R: ricci_batch's is scalar_curvature's
        assert np.array_equal(scal, scalar_curvature(chart, pts))

    @pytest.mark.parametrize("family", TestConformalFactor.CHARTS)
    def test_decay_matches_generic(self, family):
        # the sups over tensor components, in the tensors' arithmetic, give
        # the same verdict, fit and ratio bit for bit
        chart = TestConformalFactor.CHARTS[family]
        sampling = SphereSampling(radii=tuple(np.geomspace(2.0, 18.0, 6)),
                                  n_per_sphere=32, seed=3)
        assert verify_asymptotic_flatness(chart, sampling) == generic_decay(chart, sampling)

    @pytest.mark.parametrize("family", TestConformalFactor.CHARTS)
    @pytest.mark.parametrize("r", [2.5, 10.0])
    def test_adm_flux_matches_generic(self, family, r):
        chart = TestConformalFactor.CHARTS[family]
        assert adm_mass_at_radius(chart, r) == pytest.approx(generic_mass_flux(chart, r),
                                                             rel=1e-14, abs=0.0)


class TestChartTerms:
    def test_terms_built_once_per_chart(self):
        # every RK4 stage reads them; they are formed on the first read
        chart = bump_chart(0.3, A=0.4)
        assert chart.bumps is chart.bumps
        assert chart.monopole_amplitude == 0.2
        assert [type(t[1]).__name__ for t in chart.bumps] == ["Bump"]


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
        g = metric(chart, pts)
        assert np.allclose(g, np.swapaxes(g, -1, -2), atol=0.0)
        assert np.min(np.linalg.eigvalsh(g)) > 0.0

    @given(m=st.floats(0.0, 1.0), x=st.floats(-15, 15), y=st.floats(-15, 15),
           z=st.floats(-15, 15))
    @settings(max_examples=60, deadline=None)
    def test_spd_property_schwarzschild(self, m, x, y, z):
        pt = np.array([x, y, z])
        if np.linalg.norm(pt) < 1e-3:
            pt[0] += 1.0
        g = metric(MetricChart("schwarzschild", {"m": m}), pt)
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

    @pytest.mark.parametrize("family", TestConformalFactor.CHARTS)
    def test_batched_ricci_eigenvalues_match_generalized(self, family, monkeypatch):
        # certify_hypotheses takes the eigenvalues of Ric / phi^4 in one
        # batch; against scipy's generalized eigh of (Ric, g) per point on
        # the certify sample they agree to 1e-14 relative, with the same
        # kappa and the same argmin witness, because g is phi^4 delta
        chart = TestConformalFactor.CHARTS[family]
        real = afstab.geometry.ricci_batch
        seen = []

        def recording(chart, pts):
            out = real(chart, pts)
            seen.append((pts, out))
            return out

        monkeypatch.setattr(afstab.geometry, "ricci_batch", recording)
        cert = certify_hypotheses(chart, VolumeSampling(seed=3))
        (pts, (ric, _)), = seen
        g = metric(chart, pts)
        assert np.array_equal(g, g[:, :1, :1] * np.eye(3))   # isotropic, exactly
        batched = np.linalg.eigvalsh(ric / g[:, :1, :1])[:, 0]
        ref = np.array([eigh(r, m, eigvals_only=True)[0] for r, m in zip(ric, g)])
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(batched - ref)) <= 1e-14 * scale
        assert cert.ricci_kappa == pytest.approx(max(0.0, -0.5 * float(np.min(ref))),
                                                 rel=1e-14, abs=1e-300)
        assert cert.witness_points[1] == tuple(pts[int(np.argmin(ref))])

    def test_negative_bump_witnessed(self):
        chart = bump_chart(0.4, center=(2.0, 0.0, 0.0), width=1.5)
        cert = certify_hypotheses(chart, VolumeSampling(n_points=800, r_min=0.25,
                                                        r_max=5.0, seed=5))
        assert cert.scalar_min < 0.0
        w = np.asarray(cert.witness_points[0])
        assert generic_curvature(chart, w)[2] == pytest.approx(cert.scalar_min, rel=1e-12)
