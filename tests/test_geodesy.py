"""Geodesics, distances, level-set projections, volume comparison."""

import json
import logging
import pathlib

import numpy as np
import pytest

from afstab.cli import run
from afstab.config import config_from_dict
from afstab.errors import OutOfDomain
from afstab.geodesy import (COARSE_REL_TARGET, COARSE_STEP_DIVISOR,
                            DistanceField, GeodesicGraph, _bvp_batch, _rk4_batch,
                            distance_batch, level_set_projection,
                            local_distance, mean_value_candidates,
                            mean_value_pick, metric_speed, pythagorean_check,
                            pythagorean_records, segment_functional)
from afstab.geometry import MetricChart
from afstab.gh import sample_geodesic_ball
from afstab.grid import interpolator
from afstab.seeding import rng_for

from oracles import (bishop_gromov_check, chord_seeded_distance_batch, full_grid_eikonal,
                     graph_distance, hyperbolic_ball_volume, rk4_reference,
                     schwarzschild_radial_arclength)

BUMP_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "bump_control.json"

RADIAL_D_2_5 = 3.186258146374831   # 3 + 0.2 ln(5/2) + 0.01 (1/2 - 1/5), m = 0.2


@pytest.fixture(scope="module")
def schw():
    return MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=100.0)


def sampled_geodesic(chart, x, y):
    """The distance_batch geodesic from x to y, sampled every second of its
    160 RK4 steps as (1, 81, 3), with its length as a (1,) array."""
    start = np.atleast_2d(np.asarray(x, float))
    d, w, _, conv = distance_batch(chart, start, np.atleast_2d(y))
    assert conv[0]
    _, _, samples = _rk4_batch(chart, start, w, 160, record_every=2)
    return samples, d


class TestShoot:
    """The fixed-step RK4 integrator that every distance shoots with,
    launched over unit affine time with velocity length * (unit vector)."""

    def test_flat_straight_line(self, flat_chart):
        x, v = _rk4_batch(flat_chart, [[0.5, -1.0, 2.0]], [[0.0, 4.0, 0.0]], 160)
        assert np.allclose(x[0], (0.5, 3.0, 2.0), atol=1e-10)
        assert abs(metric_speed(flat_chart, x, v)[0] - 4.0) < 4e-10

    def test_radial_launch_closed_form(self, schw):
        # endpoint radius solves the radial arclength antiderivative
        x0 = np.array([2.0, 0.0, 0.0])
        phi2 = float(schw.conformal_factor(x0)) ** 2
        L = 3.0
        x, _ = _rk4_batch(schw, x0[None], L * np.array([[1.0, 0.0, 0.0]]) / phi2, 160)
        assert schwarzschild_radial_arclength(0.2, 2.0, x[0, 0]) == pytest.approx(
            L, abs=1e-8)

    def test_speed_conservation_random_launch(self, schw):
        rng = rng_for(3, "launch")
        v = rng.normal(size=3)
        x0 = np.array([2.5, 1.0, -0.5])
        g = schw.metric(x0)
        v = v / np.sqrt(v @ g @ v)
        x, w = _rk4_batch(schw, x0[None], 5.0 * v[None], 160)
        assert abs(metric_speed(schw, x, w)[0] / 5.0 - 1.0) < 1e-8


def kernel_chart(name):
    if name == "bump_control":
        return config_from_dict(json.loads(BUMP_CONFIG.read_text())).chart()
    return {"flat": MetricChart("flat", box_halfwidth=100.0),
            "schwarzschild": MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=100.0),
            "conformal": MetricChart("conformal", {"A": 0.3, "gauss_amp": 0.1,
                                                   "gauss_width": 1.5},
                                     box_halfwidth=50.0)}[name]


class TestKernel:
    """The stacked RK4 state and the one-pass Christoffel term against the
    two-array integrator they replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("name", ["flat", "schwarzschild", "conformal", "bump_control"])
    def test_rk4_matches_two_array_reference(self, name):
        chart = kernel_chart(name)
        rng = rng_for(12, "rk4-reference", name)
        x0 = rng.uniform(-3.0, 3.0, size=(24, 3))
        x0[0] = 0.0                       # a start on the puncture
        w = rng.normal(size=(24, 3))
        for record_every in (0, 2):
            got = _rk4_batch(chart, x0, w, 160, record_every=record_every)
            ref = rk4_reference(chart, x0, w, 160, record_every=record_every)
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                assert a.shape == b.shape and np.array_equal(a, b)

    def test_puncture_nudged_along_x(self, schw):
        v = np.array([[0.3, -1.0, 0.2]])
        at_origin = schw.christoffel_quadratic(np.zeros((1, 3)), v)
        nudged = schw.christoffel_quadratic(np.array([[1e-9, 0.0, 0.0]]), v)
        assert np.all(np.isfinite(at_origin)) and np.array_equal(at_origin, nudged)

    def test_one_christoffel_call_per_stage(self, schw, monkeypatch):
        # the benchmark counts christoffel_quadratic calls and rows: one
        # call per RK4 stage over the whole batch
        calls = []
        original = MetricChart.christoffel_quadratic

        def counted(chart, x, v):
            calls.append(len(x))
            return original(chart, x, v)

        monkeypatch.setattr(MetricChart, "christoffel_quadratic", counted)
        rng = rng_for(13, "christoffel-calls")
        _rk4_batch(schw, rng.uniform(-3.0, 3.0, size=(7, 3)), rng.normal(size=(7, 3)), 160)
        assert calls == [7] * 640


class TestDistance:
    def test_flat_345(self, flat_chart):
        d, _, res, conv = distance_batch(flat_chart, [[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]])
        assert d[0] == pytest.approx(5.0, abs=1e-10)
        assert conv[0] and res[0] < 1e-6 * d[0]

    def test_schwarzschild_radial_closed_form(self, schw):
        d, _, _, conv = distance_batch(schw, [[2.0, 0.0, 0.0]], [[5.0, 0.0, 0.0]])
        assert schwarzschild_radial_arclength(0.2, 2.0, 5.0) == pytest.approx(
            RADIAL_D_2_5, abs=1e-12)
        assert conv[0] and d[0] == pytest.approx(RADIAL_D_2_5, abs=1e-8)

    def test_symmetry_on_random_pairs(self, schw):
        rng = rng_for(4, "sym")
        a = rng.uniform(-1.0, 4.0, size=(30, 3))
        b = rng.uniform(-1.0, 4.0, size=(30, 3))
        d1, _, _, c1 = distance_batch(schw, a, b)
        d2, _, _, c2 = distance_batch(schw, b, a)
        ok = c1 & c2
        assert np.max(np.abs(d1[ok] - d2[ok])) < 1e-8

    def test_triangle_inequality(self, schw, flat_chart):
        rng = rng_for(5, "triangle")
        for chart in (flat_chart, schw):
            p = np.array([2.0, 0.0, 0.0])
            pts = p + rng.uniform(-3.0, 3.0, size=(60, 3, 3))
            dxy, _, _, c1 = distance_batch(chart, pts[:, 0], pts[:, 1])
            dyz, _, _, c2 = distance_batch(chart, pts[:, 1], pts[:, 2])
            dxz, _, _, c3 = distance_batch(chart, pts[:, 0], pts[:, 2])
            ok = c1 & c2 & c3
            scale = np.maximum(dxz[ok], 1.0)
            assert np.all(dxz[ok] <= dxy[ok] + dyz[ok] + 1e-6 * scale)

    def test_batch_invariant_bit_for_bit(self, schw):
        # a pair's solve must not depend on its batch-mates: converged rows
        # are frozen, and graph-seeded retries use a graph sized by the pair;
        # the last pair's chord runs through the puncture, so its coarse
        # solve fails and its full solve starts from the chord
        rng = rng_for(21, "batch-invariance")
        p = np.array([2.0, 0.0, 0.0])
        xs = np.vstack([p + rng.uniform(-2.5, 2.5, size=(40, 3)), p])
        ys = np.vstack([p + rng.uniform(-2.5, 2.5, size=(40, 3)), -p])
        _, _, coarse = _bvp_batch(schw, xs[-1:], ys[-1:],
                                  n_steps=160 // COARSE_STEP_DIVISOR,
                                  rel_target=COARSE_REL_TARGET)
        assert not coarse[0]
        batch = distance_batch(schw, xs, ys)
        assert np.all(batch[3])
        for i in range(41):
            alone = distance_batch(schw, xs[i:i + 1], ys[i:i + 1])
            for whole, one in zip(batch, alone):
                assert np.array_equal(whole[i], one[0]), i

    @pytest.mark.parametrize("m, r", [(0.2, 1.5), (0.2, 3.0), (0.025, 1.5),
                                      (0.025, 3.0)])
    def test_coarse_seed_matches_chord_seed(self, schw_charts, schw_triples, m, r):
        # the desk pairs of the geodesic r-ball: starting the Newton solve
        # from the coarse-step velocity instead of the chord converges the
        # same pairs to the same distances, within the freeze tolerance
        chart = schw_charts[m]
        pts = sample_geodesic_ball(chart, schw_triples[m], r, 120, seed=15,
                                   label=f"distort-{r}")
        xs, ys = pts[:60], pts[60:]
        d, _, _, conv = distance_batch(chart, xs, ys)
        d_chord, _, _, conv_chord = chord_seeded_distance_batch(chart, xs, ys)
        assert np.array_equal(conv, conv_chord)
        assert np.all(np.abs(d - d_chord) <= 5e-9 * d_chord)

    def test_degenerate_pair(self, flat_chart):
        d, _, _, conv = distance_batch(flat_chart, [[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
        assert d[0] == 0.0 and conv[0]

    def test_path_invariants(self, schw):
        x, y = np.array([2.0, 1.0, 0.0]), np.array([-1.0, 0.5, 2.0])
        d, _, _, conv = distance_batch(schw, x[None], y[None])
        assert conv[0]
        # length dominates the Euclidean chord up to the metric distortion bound
        chord = np.linalg.norm(y - x)
        phi_min = 1.0   # phi >= 1 for this family, so g-length >= Euclidean
        assert d[0] >= chord * phi_min**2 * (1.0 - 1e-9)

    def test_graph_distance_upper_bounds_shooting(self, schw):
        graph = GeodesicGraph(schw, 8.0, nodes=17)
        rng = rng_for(6, "graph")
        idx = rng.integers(0, len(graph.pts), size=12)
        idy = rng.integers(0, len(graph.pts), size=12)
        for ix, iy in zip(idx, idy):
            x, y = graph.pts[ix], graph.pts[iy]
            if np.linalg.norm(x - y) < 1e-9:
                continue
            d, _, _, conv = distance_batch(schw, x[None], y[None])
            if conv[0]:
                assert d[0] <= graph_distance(graph, x, y) + 1e-8


class TestSegmentFunctional:
    def test_zero_field(self, flat_chart, flat_triple):
        samples, d = sampled_geodesic(flat_chart, (0.0, 0.0, 0.0), (2.0, 2.0, 1.0))
        grid = flat_triple.grid
        zero = interpolator(grid, np.zeros((grid.nodes,) * 3))
        assert segment_functional(samples, d, zero)[0] == 0.0

    def test_flat_hessian_integrand_vanishes(self, flat_chart, flat_triple):
        samples, d = sampled_geodesic(flat_chart, (0.0, 0.0, 0.0), (3.0, 0.0, 1.0))
        val = segment_functional(samples, d, flat_triple.hess_sum_interp)[0]
        assert abs(val) < 1e-8

    def test_schwarzschild_sweep_decreases(self, schw_charts, schw_triples):
        x, y = (1.0, 1.5, 0.0), (4.0, -0.5, 1.0)
        vals = []
        for m in (0.2, 0.1, 0.05):
            samples, d = sampled_geodesic(schw_charts[m], x, y)
            vals.append(segment_functional(samples, d,
                                           schw_triples[m].hess_sum_interp)[0])
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_constant_speed_quadrature(self, flat_chart, flat_triple):
        # u^1 = x - 2 after normalization at p = (2,0,0); the integral of
        # u^1 + 5 along the segment x in [0, 2] is 2*3 + 2 = 8 exactly
        samples, d = sampled_geodesic(flat_chart, (0.0, 0.0, 0.0), (2.0, 0.0, 0.0))
        interp = flat_triple.u_interp[0]
        val = segment_functional(samples, d, lambda pts: interp(pts) + 5.0)[0]
        assert val == pytest.approx(8.0, rel=1e-6)

    def test_negative_field_rejected(self, flat_chart):
        samples, d = sampled_geodesic(flat_chart, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            segment_functional(samples, d, lambda pts: -np.ones(len(pts)))


class TestMeanValuePick:
    def test_constant_score_returns_center(self, flat_chart):
        pt, val = mean_value_pick(flat_chart, (1.0, 0.0, 0.0), 0.5,
                                  lambda c: np.full(len(c), 7.0), 8, seed=0)
        assert np.allclose(pt, (1.0, 0.0, 0.0))
        assert val == 7.0

    def test_markov_bound(self, schw):
        rng_score = rng_for(8, "score")
        noise = rng_score.uniform(1.0, 2.0, size=64)

        def score(cands):
            return noise[:len(cands)]

        collected = {}

        def recording(cands):
            s = score(cands)
            collected["scores"] = s
            return s

        _, val = mean_value_pick(schw, (2.0, 0.5, 0.0), 0.8, recording, 16, seed=1)
        assert val <= 2.0 * np.mean(collected["scores"])

    def test_spiky_center_avoided(self, flat_chart):
        center = np.array([1.0, 0.0, 0.0])

        def score(cands):
            # center sits on a spike; everywhere else is cheap
            return np.where(np.linalg.norm(cands - center, axis=1) < 1e-12,
                            100.0, 1.0)

        pt, val = mean_value_pick(flat_chart, center, 0.5, score, 16, seed=2)
        assert val == 1.0 and np.linalg.norm(pt - center) > 0.0

    def test_deterministic(self, schw):
        def score(cands):
            return np.linalg.norm(cands, axis=1)

        a = mean_value_pick(schw, (2.0, 0.0, 0.0), 0.7, score, 12, seed=9)
        b = mean_value_pick(schw, (2.0, 0.0, 0.0), 0.7, score, 12, seed=9)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_candidate_filter_matches_per_candidate_loop(self, schw):
        # the batched geodesic-ball filter against the one-candidate form
        rng = rng_for(12, "mv-filter")
        for k in range(20):
            center = np.array([2.0, 0.0, 0.0]) + rng.uniform(-2.0, 2.0, size=3)
            cands, has_center = mean_value_candidates(schw, center, 0.9, 16, seed=k)
            draws = np.vstack([center, center + rng.normal(scale=0.6, size=(15, 3))])
            loop = np.array([local_distance(schw, center, c) for c in draws])
            batch = local_distance(schw, np.broadcast_to(center, draws.shape), draws)
            assert np.array_equal(loop, batch)
            assert has_center and np.array_equal(cands[0], center)
            assert np.all(local_distance(schw, np.broadcast_to(center, cands.shape),
                                         cands) <= 0.9 * (1.0 + 1e-9))

    def test_rho_must_be_positive(self, flat_chart):
        with pytest.raises(ValueError):
            mean_value_pick(flat_chart, (0.0, 0.0, 0.0), 0.0,
                            lambda c: np.zeros(len(c)), 4, seed=0)


class TestLevelSetProjection:
    def test_flat_exact_projection(self, flat_chart, flat_triple):
        z, x_star = level_set_projection(flat_chart, flat_triple,
                                         (1.0, 1.0, 0.0), (0.0, 0.0, 0.0), 0, seed=3)
        assert np.allclose(z, (0.0, 1.0, 0.0), atol=1e-8)
        assert np.allclose(x_star, (1.0, 1.0, 0.0))

    def test_level_value_hit(self, schw, schw02_triple):
        z, _ = level_set_projection(schw, schw02_triple, (1.0, 1.0, 0.5),
                                    (3.0, -0.5, 0.0), 0, seed=4)
        u0 = schw02_triple.u_interp[0]
        assert abs(float(u0(z)[0]) - float(u0(np.array([3.0, -0.5, 0.0]))[0])) < 1e-6

    def test_z_stays_bounded(self, schw, schw02_triple):
        # empirical boundedness of d(p, z) across seeded pairs
        rng = rng_for(10, "zbound")
        p = np.array([2.0, 0.0, 0.0])
        for k in range(6):
            x = p + rng.uniform(-2, 2, size=3)
            y = p + rng.uniform(-2, 2, size=3)
            z, _ = level_set_projection(schw, schw02_triple, x, y, k % 3,
                                        seed=20 + k)
            assert np.linalg.norm(z - p) < 12.0

    def test_trivial_when_already_on_level(self, flat_chart, flat_triple):
        x = np.array([1.0, 2.0, 0.0])
        y = np.array([1.0, -1.0, 0.5])   # same u^1 level for flat
        z, _ = level_set_projection(flat_chart, flat_triple, x, y, 0, seed=5)
        assert np.allclose(z, x)


class TestPythagorean:
    def test_flat_record(self, flat_chart, flat_triple):
        rec = pythagorean_check(flat_chart, flat_triple, (1.0, 1.0, 0.0),
                                (0.0, 0.0, 0.0), 0, seed=6)
        assert rec.defect < 1e-6
        assert rec.u_defect_same < 1e-6
        assert rec.u_defect_cross < 1e-6

    def test_degenerate_pair(self, flat_chart, flat_triple):
        rec = pythagorean_check(flat_chart, flat_triple, (1.0, 1.0, 0.0),
                                (1.0, 1.0, 0.0), 1, seed=6)
        assert rec.defect == rec.d_xy == 0.0

    def test_u_dominated_by_distance(self, schw, schw02_triple):
        # |u^i(x) - u^i(y)| <= grad_sup d(x, y) (1 + tol) on sampled pairs
        rng = rng_for(11, "dom")
        p = np.array([2.0, 0.0, 0.0])
        xs = p + rng.uniform(-2, 2, size=(12, 3))
        ys = p + rng.uniform(-2, 2, size=(12, 3))
        d, _, _, conv = distance_batch(schw, xs, ys)
        du = np.abs(schw02_triple.u_map(xs) - schw02_triple.u_map(ys))
        bound = schw02_triple.grad_sup * d * 1.01 + 1e-9
        assert np.all(du[conv] <= bound[conv, None])

    def test_cross_defect_sanity(self, schw, schw02_triple):
        rec = pythagorean_check(schw, schw02_triple, (1.0, 1.2, -0.4),
                                (3.2, -0.3, 0.6), 0, seed=12)
        scale = max(rec.d_xy, 1.0)
        assert rec.u_defect_cross <= rec.u_defect_same + rec.defect + 0.5 * scale

    def test_lockstep_records_equal_single_records(self, schw, schw02_triple):
        rng = rng_for(13, "lockstep-records")
        p = np.array([2.0, 0.0, 0.0])
        xs = p + rng.uniform(-2.0, 2.0, size=(5, 3))
        ys = p + rng.uniform(-2.0, 2.0, size=(5, 3))
        ys[4] = xs[4]                              # a degenerate pair rides along
        axes = [k % 3 for k in range(5)]
        seeds = [60 + k for k in range(5)]
        batch = pythagorean_records(schw, schw02_triple, xs, ys, axes, seeds)
        for k in range(5):
            single = pythagorean_check(schw, schw02_triple, xs[k], ys[k], axes[k],
                                       seed=seeds[k])
            assert batch[k] == single, k
        assert batch[4].defect == 0.0

    def test_csv_stream(self, tmp_path):
        # the pythagoras stage writes one row per record
        cfg = config_from_dict({"family": {"tag": "flat", "box_halfwidth": 100.0},
                                "grid": {"nodes": 17, "halfwidth": 10.0},
                                "sampling": {"seed": 6, "n_pythagoras_pairs": 1,
                                             "ball_radius": 2.0}})
        assert run("pythagoras", cfg, out_dir=tmp_path)[0] == 0
        lines = (tmp_path / "pythagoras.csv").read_text().strip().splitlines()
        assert lines[0].startswith("family,m,i,x,y,z,defect")
        assert len(lines) == 2


class TestDistanceField:
    """The active-set solve against the full-grid Jacobi loop, 41^3 fields
    around (2, 0, 0) with the desk-point halfwidth."""

    @staticmethod
    def _reference(field, max_sweeps=None):
        # the frozen source ball keeps its initial values; all else starts at inf
        return full_grid_eikonal(field, np.where(field.frozen, field.T, np.inf),
                                 1e-10, max_sweeps)

    @pytest.mark.parametrize("family, params", [
        ("flat", {}),
        ("schwarzschild", {"m": 0.2}),
        ("conformal", {"A": 0.0, "gauss_amp": 0.3, "gauss_center": (2.5, 0.5, 0.0),
                       "gauss_width": 1.0}),
    ])
    def test_matches_full_grid_loop(self, family, params):
        chart = MetricChart(family, params, box_halfwidth=100.0)
        field = DistanceField(chart, (2.0, 0.0, 0.0), 3.5, nodes=41)
        T, sweeps = self._reference(field)
        assert np.array_equal(field.T, T)
        assert field.converged is True
        assert field.sweeps == sweeps

    @pytest.mark.parametrize("max_sweeps", [3, 7])
    def test_truncated_iterates_match(self, schw, caplog, max_sweeps):
        with caplog.at_level(logging.WARNING, logger="afstab.geodesy"):
            field = DistanceField(schw, (2.0, 0.0, 0.0), 3.5, nodes=41,
                                  max_sweeps=max_sweeps)
        assert f"not converged after {max_sweeps} sweeps" in caplog.text
        T, sweeps = self._reference(field, max_sweeps=max_sweeps)
        assert np.array_equal(field.T, T)
        assert field.converged is False
        assert field.sweeps == sweeps == max_sweeps


class TestBishopGromov:
    def test_flat_kappa_zero_limit(self, flat_field_81):
        radii = [1.5, 2.0, 3.0, 4.0]
        ratios = bishop_gromov_check(flat_field_81, radii, 1e-12)
        assert np.max(np.abs(ratios - 1.0)) < 0.05

    def test_flat_kappa_positive_decreasing(self, flat_field_81):
        # analytic oracle: ratio = (4 pi r^3/3)/V_kappa(r), strictly decreasing
        radii = np.array([1.5, 2.0, 3.0, 4.0])
        ratios = bishop_gromov_check(flat_field_81, radii, 0.1)
        assert np.all(np.diff(ratios) < 0.0)
        oracle = (4 * np.pi / 3 * radii**3) / hyperbolic_ball_volume(radii, 0.1)
        assert np.allclose(ratios, oracle, rtol=0.05)

    def test_hyperbolic_volume_small_kappa_series(self):
        r = np.array([0.5, 1.0, 2.0])
        v_small = hyperbolic_ball_volume(r, 1e-10)
        assert np.allclose(v_small, 4 * np.pi / 3 * r**3, rtol=1e-9)
        # continuity across the series/sinh switch
        assert hyperbolic_ball_volume(1.0, 1.001e-8) == pytest.approx(
            hyperbolic_ball_volume(1.0, 0.999e-8), rel=1e-6)

    def test_kappa_negative_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic_ball_volume(1.0, -0.1)

    def test_out_of_domain_ball(self, flat_chart):
        field = DistanceField(flat_chart, (2.0, 0.0, 0.0), 4.0, nodes=49)
        with pytest.raises(OutOfDomain):
            bishop_gromov_check(field, [1.0, 20.0], 0.1)
