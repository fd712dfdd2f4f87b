"""Distortion of the coordinate map, gradient flows, sweep reports."""

from dataclasses import asdict

import numpy as np
import pytest

import afstab.cli
import afstab.gh
from afstab.config import config_from_dict
from afstab.geodesy import distance_batch
from afstab.geometry import MetricChart
from afstab.gh import (StabilityReport, _chord_certified, _chord_lengths,
                       ball_distance_field, flow_coverage, gh_distortion,
                       gradient_flow_step, reach_point, sample_geodesic_ball)
from afstab.harmonic import LaplaceBeltrami


class TestBallSampling:
    def test_samples_inside_ball(self, flat_chart, flat_triple):
        pts = sample_geodesic_ball(flat_chart, flat_triple, 3.0, 30, seed=1)
        p = np.asarray(flat_chart.base_point)
        d, _, _, _ = distance_batch(flat_chart, np.broadcast_to(p, pts.shape), pts)
        assert len(pts) == 30
        assert np.max(np.linalg.norm(pts - p, axis=1)) <= 3.0 + 1e-9
        assert np.allclose(d, np.linalg.norm(pts - p, axis=1), atol=1e-8)

    def test_deterministic(self, flat_chart, flat_triple):
        a = sample_geodesic_ball(flat_chart, flat_triple, 3.0, 10, seed=5)
        b = sample_geodesic_ball(flat_chart, flat_triple, 3.0, 10, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m, r, n_points", [(0.2, 3.0, 400), (0.025, 3.0, 400),
                                                (0.2, 1.5, 120)])
    def test_certified_candidates_shoot_inside(self, schw_charts, schw_triples,
                                               monkeypatch, m, r, n_points):
        # the sweep ball (r = 3 on N = 65) and the desk-point ball (r = 1.5):
        # a candidate kept on its chord length alone has a converged shot
        # with d(p, x) <= r, so certifying it keeps what shooting kept
        chart = schw_charts[m]
        seen = []
        original = afstab.gh._chord_certified

        def recording(chart, p, xs, r):
            cert = original(chart, p, xs, r)
            seen.append(xs[cert])
            return cert

        monkeypatch.setattr(afstab.gh, "_chord_certified", recording)
        sample_geodesic_ball(chart, schw_triples[m], r, n_points, seed=2026,
                             label=f"distort-{r}")
        certified = np.vstack(seen)
        assert len(certified) >= n_points // 2
        p = np.asarray(chart.base_point)
        d, _, _, conv = distance_batch(chart, np.broadcast_to(p, certified.shape),
                                       certified)
        assert np.all(conv) and np.all(d <= r)

    def test_chord_through_puncture_not_certified(self, schw_charts):
        # the true chord length through the puncture is infinite; the
        # 32-point rule alone would certify it (2.876 < 3)
        chart = schw_charts[0.025]
        p = np.asarray(chart.base_point)
        x = np.array([[-0.5, 0.0, 0.0]])
        assert _chord_lengths(chart, p, x, 32)[0] < 3.0 * (1.0 - 1e-6)
        assert not _chord_certified(chart, p, x, 3.0)[0]


class TestDistortion:
    def test_flat_exact(self, flat_chart, flat_triple, flat_ball_field):
        rep = gh_distortion(flat_chart, flat_triple, 3.0, 30, seed=2,
                            dist_field=flat_ball_field)
        assert rep.max_defect < 1e-6
        assert rep.ortho_l1 < 1e-6
        assert rep.n_failed_pairs == 0

    def test_centered_map(self, flat_triple, schw02_triple):
        for triple in (flat_triple, schw02_triple):
            p = np.asarray(triple.chart.base_point)
            assert np.max(np.abs(triple.u_map(p))) < 1e-10

    def test_u_bounded_by_distance(self, schw_charts, schw02_triple):
        # |u(x)| <= grad_sup d(p, x) for sampled x
        chart = schw_charts[0.2]
        pts = sample_geodesic_ball(chart, schw02_triple, 3.0, 25, seed=3)
        p = np.asarray(chart.base_point)
        d, _, _, _ = distance_batch(chart, np.broadcast_to(p, pts.shape), pts)
        u = schw02_triple.u_map(pts)
        assert np.all(np.linalg.norm(u, axis=1)
                      <= schw02_triple.grad_sup * d * 1.01 + 1e-8)

    def test_image_containment(self, schw_charts, schw02_triple, schw_ball_fields):
        chart = schw_charts[0.2]
        r = 3.0
        rep = gh_distortion(chart, schw02_triple, r, 40, seed=4,
                            dist_field=schw_ball_fields[0.2])
        pts = sample_geodesic_ball(chart, schw02_triple, r, 40, seed=4)
        u = schw02_triple.u_map(pts)
        assert np.all(np.linalg.norm(u, axis=1) <= r + rep.max_defect + 1e-8)

    def test_determinism(self, schw_charts, schw02_triple, schw_ball_fields):
        a, b = (gh_distortion(schw_charts[0.2], schw02_triple, 3.0, 20, seed=6,
                              dist_field=schw_ball_fields[0.2]) for _ in range(2))
        assert asdict(a) == asdict(b)


def _leg_u_error(triple, y, end, axis, t):
    """u(end) - u(y) - t e_axis: what the flow of u^axis over time t misses."""
    return triple.u_map(end) - triple.u_map(y) - t * np.eye(3)[axis]


class TestFlows:
    def test_flat_step_exact(self, flat_chart, flat_triple):
        y, end = gradient_flow_step(flat_chart, flat_triple, (0.0, 0.0, 0.0),
                                    0, 2.0, 1.25, seed=7, r_limit=10.0)
        assert np.allclose(end, (2.0, 0.0, 0.0), atol=1e-9)
        assert np.max(np.abs(_leg_u_error(flat_triple, y, end, 0, 2.0))) < 1e-9

    def test_negative_time_flow(self, flat_chart, flat_triple):
        y, end = gradient_flow_step(flat_chart, flat_triple, (0.0, 0.0, 0.0),
                                    1, -1.5, 1.25, seed=7, r_limit=10.0)
        assert np.allclose(end, (0.0, -1.5, 0.0), atol=1e-9)
        assert np.max(np.abs(_leg_u_error(flat_triple, y, end, 1, -1.5))) < 1e-9

    def test_budget_precondition(self, flat_chart, flat_triple):
        with pytest.raises(ValueError):
            gradient_flow_step(flat_chart, flat_triple, (0.0, 0.0, 0.0), 0,
                               5.0, 1.0, seed=7, r_limit=3.0)

    def test_flat_reach_point(self, flat_chart, flat_triple):
        trace = reach_point(flat_chart, flat_triple, (1.0, -0.5, 2.0), 1.25, seed=8)
        assert trace.u_error < 1e-6
        offset = np.asarray(trace.end) - np.asarray(flat_chart.base_point)
        assert np.allclose(offset, (1.0, -0.5, 2.0), atol=1e-6)

    def test_displacement_bound(self, schw_charts, schw_triples):
        triple = schw_triples[0.1]
        trace = reach_point(schw_charts[0.1], triple, (1.2, 0.8, -0.6), 1.25,
                            seed=9)
        for leg in range(3):
            bound = triple.grad_sup * abs(trace.times[leg]) * 1.001 + 1e-12
            assert trace.displacements[leg] <= bound

    def test_lockstep_coverage_equals_reach_point(self, schw_charts, schw_triples,
                                                  monkeypatch):
        import afstab.gh as gh

        chart, triple = schw_charts[0.1], schw_triples[0.1]
        calls = []
        monkeypatch.setattr(gh, "distance_batch",
                            lambda *a, **k: calls.append(1) or distance_batch(*a, **k))
        traces, _ = flow_coverage(chart, triple, 1.5, 3, seed=13)
        # every leg budget certifies on its chord: the displacements of all
        # legs are the one batch
        assert len(calls) == 1
        rho = 2.0 * triple.grid.h
        for k, trace in enumerate(traces):
            alone = reach_point(chart, triple, trace.times, rho, seed=13 + 1000 + k)
            assert alone == trace, k

    def test_shot_budgets_equal_certified(self, schw_charts, schw_triples, monkeypatch):
        # shooting d(p, end) for every budget check instead of certifying it
        # on the chord changes the number of distance batches, not the traces
        chart, triple = schw_charts[0.1], schw_triples[0.1]
        certified, _ = flow_coverage(chart, triple, 1.5, 3, seed=13)
        calls = []
        monkeypatch.setattr(afstab.gh, "_chord_certified",
                            lambda chart, p, xs, r: np.zeros(len(xs), bool))
        monkeypatch.setattr(afstab.gh, "distance_batch",
                            lambda *a, **k: calls.append(1) or distance_batch(*a, **k))
        shot, _ = flow_coverage(chart, triple, 1.5, 3, seed=13)
        assert len(calls) == 3        # legs 1 and 2, then the displacements
        assert shot == certified

    def test_flow_error_tracks_mass(self, schw_charts, schw_triples):
        errs = {}
        for m in (0.2, 0.05):
            _, haus = flow_coverage(schw_charts[m], schw_triples[m], 2.0, 5,
                                    seed=10)
            errs[m] = haus
        assert errs[0.05] < errs[0.2]

    def test_end_stays_in_target_ball(self, schw_charts, schw_triples):
        # d(w, p) stays below the flow radius for small mass
        chart, triple = schw_charts[0.05], schw_triples[0.05]
        traces, _ = flow_coverage(chart, triple, 2.0, 5, seed=11)
        p = np.asarray(chart.base_point)
        ends = np.array([t.end for t in traces])
        d, _, _, conv = distance_batch(chart, np.broadcast_to(p, ends.shape), ends)
        assert np.all(d[conv] <= 2.0 + 0.5)

    def test_measure_preservation_proxy(self, schw_charts, schw02_triple):
        # the literally assertable form: the discrete divergence of grad u^j
        # (the operator residual) has weighted L1 norm at solver tolerance
        chart = schw_charts[0.2]
        op = LaplaceBeltrami(chart, schw02_triple.grid)
        w = schw02_triple.volume_weights()
        ok = ~schw02_triple.excluded
        for u in schw02_triple.u:
            resid = op.apply(u.values)
            l1 = float(np.sum(np.abs(resid[ok]) * w[ok]))
            scale = float(np.sum(w[ok])) * 20.0 / schw02_triple.grid.h**2
            assert l1 / scale < 1e-9


class TestHypothesisViolationControl:
    def test_fixed_bump_distortion_floor(self):
        # a compactly supported bump of fixed amplitude violates R >= 0
        # independently of the monopole, so shrinking A (hence the mass)
        # must NOT drive the distortion to zero
        from afstab.grid import Grid
        from afstab.harmonic import build_harmonic_triple

        grid = Grid(halfwidth=20.0, nodes=33)
        p50 = []
        for A in (0.2, 0.05):
            chart = MetricChart(
                "perturbed",
                {"A": A, "bumps": [{"amplitude": 0.15, "center": (1.0, 0.0, 0.0),
                                    "width": 2.0}]},
                box_halfwidth=100.0, decay_tau=0.9)
            triple = build_harmonic_triple(chart, grid)
            rep = gh_distortion(chart, triple, 3.0, 30, seed=12,
                                dist_field=ball_distance_field(chart, 3.0, 81))
            p50.append(rep.defect_p50)
        assert min(p50) > 1e-3          # far above the flat noise floor
        assert p50[1] > 0.3 * p50[0]    # no decay toward zero


class TestReports:
    def test_master_csv(self, tmp_path, monkeypatch):
        # the sweep writes sweep.csv from its points' reports; an integer
        # parameter or R_out still prints as a float
        rep = StabilityReport(family="flat", parameter=0, N=17, R_out=5,
                              mass=0.0, hessian_l2=0.0, grad_sup=1.0,
                              ortho_l1=0.0, defect_p50=0.0, defect_p90=0.0,
                              defect_max=0.0, image_hausdorff=0.0)
        monkeypatch.setattr(afstab.cli, "_sweep_point", lambda cfg, out_dir, tag: rep)
        cfg = config_from_dict({"family": {"tag": "schwarzschild", "params": {"m": 0.1}},
                                "sampling": {"seed": 1},
                                "sweep": {"parameter": "m", "values": [0.1, 0.05, 0.025]}})
        afstab.cli.stage_sweep(cfg, tmp_path)
        path = tmp_path / "sweep.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("family,m,N,R_out,mass,hessian_l2,grad_sup,ortho_l1,"
                            "defect_p50,defect_p90,defect_max,image_hausdorff")
        assert lines[1].startswith("flat,0.0,17,5.0,")
