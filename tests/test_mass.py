"""Mass quadrature against the spherically symmetric closed forms."""

import json

import numpy as np
import pytest

from afstab.cli import run
from afstab.config import config_from_dict
from afstab.errors import FitFailure, OutOfDomain
from afstab.geometry import MetricChart
from afstab.mass import (FIT_RESIDUAL_TOL, adm_mass, adm_mass_at_radius,
                         scalar_curvature_l1, sphere_rule)

from oracles import radial_mass_integrand, schwarzschild_mass_at_radius


@pytest.fixture(scope="module")
def schw_chart():
    return MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=120.0)


class TestSphereRule:
    def test_weights_sum_to_sphere_area(self):
        _, w = sphere_rule(16, 32)
        assert np.sum(w) == pytest.approx(4.0 * np.pi, rel=1e-13)

    def test_integrates_quadratic_exactly(self):
        dirs, w = sphere_rule(8, 16)
        # integral of x^2 over the unit sphere = 4 pi / 3
        assert np.sum(w * dirs[:, 0] ** 2) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-13)


class TestMassAtRadius:
    def test_flat_zero(self):
        assert adm_mass_at_radius(MetricChart("flat"), 10.0) == 0.0

    def test_schwarzschild_r50(self, schw_chart):
        val = adm_mass_at_radius(schw_chart, 50.0)
        # frozen oracle: m (1 + m/2r)^3 at m = 0.5, r = 50
        assert schwarzschild_mass_at_radius(0.5, 50.0) == pytest.approx(0.5075375625, abs=1e-12)
        assert val == pytest.approx(0.5075375625, abs=1e-9)
        assert val == pytest.approx(0.5, rel=0.02)

    def test_conformal_r100(self):
        chart = MetricChart("conformal", {"A": 0.3}, box_halfwidth=120.0)
        val = adm_mass_at_radius(chart, 100.0)
        oracle = radial_mass_integrand(lambda r: 1.0 + 0.15 / r, 100.0)
        assert val == pytest.approx(oracle, abs=1e-6)
        assert val == pytest.approx(0.3, rel=0.01)

    def test_errors(self, schw_chart):
        with pytest.raises(OutOfDomain):
            adm_mass_at_radius(schw_chart, 500.0)
        with pytest.raises(ValueError):
            adm_mass_at_radius(schw_chart, 0.5)


class TestExtrapolation:
    def test_flat_zero_any_radii(self):
        rep = adm_mass(MetricChart("flat", box_halfwidth=50.0), (10.0, 20.0, 40.0))
        assert rep.extrapolated == 0.0
        assert all(v == 0.0 for v in rep.raw_values)

    @pytest.mark.parametrize("m", [0.05, 0.1, 0.2])
    def test_schwarzschild_extrapolation(self, m):
        chart = MetricChart("schwarzschild", {"m": m}, box_halfwidth=100.0)
        rep = adm_mass(chart, (20.0, 40.0, 80.0))
        assert rep.extrapolated == pytest.approx(m, rel=0.005)
        # monotone error decay toward the extrapolated value
        errs = [abs(v - rep.extrapolated) for v in rep.raw_values]
        assert errs[0] > errs[1] > errs[2]

    def test_bump_does_not_change_mass(self):
        base = MetricChart("conformal", {"A": 0.2}, box_halfwidth=100.0)
        pert = MetricChart("perturbed",
                           {"A": 0.2, "bumps": [{"amplitude": -0.05,
                                                 "center": (1.0, 0.5, 0.0),
                                                 "width": 2.0}]},
                           box_halfwidth=100.0)
        r_base = adm_mass(base, (20.0, 40.0, 80.0))
        r_pert = adm_mass(pert, (20.0, 40.0, 80.0))
        assert r_pert.extrapolated == pytest.approx(r_base.extrapolated, abs=1e-10)
        assert r_pert.raw_values == pytest.approx(r_base.raw_values, abs=1e-12)

    def test_fit_failure_on_misdeclared_decay(self):
        # declared tau = 0.6 fits q = 2 tau - 1 = 0.2 to a mass that decays
        # as r^-1, which leaves a residual near 1e-2
        chart = MetricChart("schwarzschild", {"m": 0.5}, box_halfwidth=100.0,
                            decay_tau=0.6)
        with pytest.raises(FitFailure) as info:
            adm_mass(chart, (5.0, 10.0, 20.0, 40.0, 80.0))
        assert info.value.residual / 0.5 > 10.0 * FIT_RESIDUAL_TOL

    def test_report_serialization(self, tmp_path):
        # the mass stage writes the report as JSON and the per-radius CSV
        chart = MetricChart("schwarzschild", {"m": 0.1}, box_halfwidth=100.0)
        rep = adm_mass(chart, (20.0, 40.0, 80.0))
        cfg = config_from_dict({"family": {"tag": "schwarzschild", "params": {"m": 0.1},
                                           "box_halfwidth": 100.0},
                                "sampling": {"seed": 1},
                                "mass": {"radii": [20.0, 40.0, 80.0]}})
        assert run("mass", cfg, out_dir=tmp_path)[0] == 0
        report = json.loads((tmp_path / "mass_report.json").read_text())
        assert (report["radii"], report["extrapolated"]) == ([20.0, 40.0, 80.0],
                                                             rep.extrapolated)
        lines = (tmp_path / "mass.csv").read_text().strip().splitlines()
        assert lines[0] == "r,m_r,abs_err_vs_extrapolated"
        assert len(lines) == 4


class TestScalarIntegrability:
    def test_reported_fields(self):
        chart = MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=40.0)
        cert = scalar_curvature_l1(chart, n=24)
        assert cert["interior_l1"] >= 0.0
        assert np.isfinite(cert["tail_coefficient"])
