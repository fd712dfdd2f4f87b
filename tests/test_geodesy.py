"""Geodesics, distances, level-set projections, volume comparison."""

import json
import logging
import pathlib

import numpy as np
import pytest

from afstab.cli import run
from afstab.config import config_from_dict
from afstab import geodesy
from afstab.errors import OutOfDomain
from afstab.geodesy import (COARSE_REL_TARGET, COARSE_STEP_DIVISOR, DISTANCE_STEPS,
                            PROJECTION_STEPS, DistanceField, GeodesicGraph,
                            _bent_chord, _bvp_batch, _rk4_batch, distance_batch,
                            geodesic_lengths,
                            level_set_projection, level_set_projections,
                            local_distance, mean_value_candidates,
                            mean_value_pick, metric_speed, pythagorean_check,
                            pythagorean_records, segment_functional)
from afstab.geometry import MetricChart
from afstab.gh import sample_geodesic_ball
from afstab.grid import interpolator
from afstab.seeding import rng_for

from oracles import (_gamma_vv_reference, bishop_gromov_check, chord_seeded_distance_batch,
                     chord_seeded_projections, full_grid_eikonal, graph_distance,
                     hyperbolic_ball_volume, planar_geodesics, rk4_reference,
                     schwarzschild_radial_arclength)

BUMP_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "bump_control.json"

RADIAL_D_2_5 = 3.186258146374831   # 3 + 0.2 ln(5/2) + 0.01 (1/2 - 1/5), m = 0.2

# Pairs whose full distance solve fails, each chord passing within 0.21 of
# the puncture, and whose retry from the bent chord converges, by mass:
# at m = 0.2 the rows of test_triangle_inequality,
# test_batch_invariant_bit_for_bit (two), the r = 3 ball sampling of
# test_gh.py and test_image_containment; at m = 0.1 and 0.05 the desk
# sweep's rows and p -> -p, and at m = 0.1 a pair whose Dijkstra-seeded
# retry at twice the steps failed.
RETRIED = {
    0.2: [((3.975373084440675, -2.432947994771559, 1.5971334080951367),
           (-0.5813910503943815, 0.5368961510941181, -0.310986199848271)),
          ((-0.24085151311722974, -1.4592779595722578, 0.927187644347975),
           (-0.14965747636095772, 1.7002527489216472, -1.2350244455686883)),
          ((2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)),
          ((2.0, 0.0, 0.0), (-0.1963808284356574, 0.011525127435245665,
                             0.04309167910740616)),
          ((2.0, 0.0, 0.0), (-0.86166963749326, 0.06853469864538342,
                             -0.17234458324382965))],
    0.1: [((-0.25388731439958656, -0.46062029328825543, -0.5428822485496915),
           (1.9877046506639624, 2.1427904533076148, 1.8416602209118869)),
          ((2.0, 0.0, 0.0), (-0.9170729921077045, 0.07110153608961074,
                             -0.0656802480723099)),
          ((2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)),
          ((2.0, 0.0, 0.0), (-0.86167, 0.06853, -0.17234))],
    0.05: [((2.0, 0.0, 0.0), (-0.9170729921077045, 0.07110153608961074,
                              -0.0656802480723099)),
           ((2.0, 0.0, 0.0), (-2.0, 0.0, 0.0))],
}


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
    """The column-major RK4 stage buffers and the Christoffel term against
    the two-array integrator they replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("name", ["flat", "schwarzschild", "conformal", "bump_control"])
    def test_rk4_matches_two_array_reference(self, name):
        # the pure monopole chart takes the closed-form Gamma, which rounds
        # differently from phi and grad phi; the others are bit for bit
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
                assert a.shape == b.shape
                if name == "schwarzschild":
                    rel = (np.linalg.norm(a - b, axis=-1)
                           / np.maximum(np.linalg.norm(b, axis=-1), 1e-300))
                    assert np.max(rel) <= 1e-13
                else:
                    assert np.array_equal(a, b)

    def test_dt_column_equals_scalar_dt_per_row(self):
        # a (K, 1) dt column steps each row as its own scalar dt does
        rng = rng_for(16, "rk4-dt-column")
        y0 = rng.uniform(-2.0, 2.0, size=(9, 3))
        dt = rng.uniform(0.01, 0.2, size=(9, 1))

        def slope(q, out):
            np.multiply(np.sin(q[:, ::-1]), np.cos(q), out=out)

        end, samples = geodesy.rk4_steps(slope, y0, dt, 30, record_every=1)
        for k in range(len(y0)):
            end_k, samples_k = geodesy.rk4_steps(slope, y0[k:k + 1], float(dt[k, 0]), 30,
                                                 record_every=1)
            assert np.array_equal(end[k:k + 1], end_k), k
            assert np.array_equal(samples[k:k + 1], samples_k), k

    def test_closed_form_matches_conformal_gradient(self, schw):
        # Gamma(v, v) = -2a / (|x|^2 (|x| + a)) (2 (v.x) v - |v|^2 x), whose
        # norm is |c| |v|^2 |x|: no cancellation to hide an error in
        rng = rng_for(14, "closed-form")
        dirs = rng.normal(size=(20_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = dirs * np.exp(rng.uniform(np.log(1e-3), np.log(20.0), size=(20_000, 1)))
        x[0] = 0.0
        v = rng.normal(size=(20_000, 3))
        got = schw.christoffel_quadratic(x, v)
        ref = _gamma_vv_reference(schw, x, v)
        rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.all(np.isfinite(got)) and np.max(rel) <= 1e-14

    @pytest.mark.parametrize("name", ["flat", "schwarzschild", "conformal", "bump_control"])
    def test_rows_independent_of_batch_size(self, name):
        # np.einsum rounds a column-major (K, 3) array differently from a
        # row-major one, and a (1, 3) array is both; every row must take
        # the same bits at every K, recorded or not
        chart = kernel_chart(name)
        rng = rng_for(15, "rk4-layout", name)
        x0 = rng.uniform(-3.0, 3.0, size=(960, 3))
        x0[0] = 0.0
        w = rng.normal(size=(960, 3))
        for record_every in (0, 3):
            full = _rk4_batch(chart, x0, w, 40, record_every=record_every)
            for K in (1, 4, 7):
                for lo in (0, 5, 953):
                    part = _rk4_batch(chart, x0[lo:lo + K], w[lo:lo + K], 40,
                                      record_every=record_every)
                    for a, b in zip(part, full):
                        assert np.array_equal(a, b[lo:lo + K])

    def test_puncture_nudged_along_x(self, schw):
        v = np.array([[0.3, -1.0, 0.2]])
        at_origin = schw.christoffel_quadratic(np.zeros((1, 3)), v)
        nudged = schw.christoffel_quadratic(np.array([[1e-9, 0.0, 0.0]]), v)
        assert np.all(np.isfinite(at_origin)) and np.array_equal(at_origin, nudged)

    @pytest.mark.parametrize("name", ["schwarzschild", "conformal"])
    def test_puncture_nudge_keeps_its_side(self, name):
        # a row just inside |x| = 1e-9 on the negative side moves out to
        # about -2e-9, not across the origin to 1 ulp from it: |Gamma| there
        # is half that at -1e-9 (to 1e-8), where it was 5e15 times larger
        chart = kernel_chart(name)
        v = np.array([[0.3, -1.0, 0.2]])
        inside = np.array([[np.nextafter(-1e-9, 0.0), 0.0, 0.0]])
        edge = np.array([[-1e-9, 0.0, 0.0]])
        ratio = (np.linalg.norm(chart.christoffel_quadratic(inside, v))
                 / np.linalg.norm(chart.christoffel_quadratic(edge, v)))
        assert abs(np.log2(ratio)) <= 1.0 + 1e-6

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
        # are frozen, and every step of a solve is row-local; the last
        # pair's chord runs through the puncture, so its coarse solve fails,
        # its full solve from the chord fails too, and the retry from the
        # bent chord converges it
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

    @pytest.mark.parametrize("m", [0.2, 0.025])
    def test_one_full_resolution_pass(self, schw_charts, schw_triples, monkeypatch, m):
        # the desk pairs of the geodesic 1.5-ball: from the extrapolated seed
        # every pair freezes in the first 160-step pass, after the 20-step
        # passes and one pass at 40 steps
        chart = schw_charts[m]
        pts = sample_geodesic_ball(chart, schw_triples[m], 1.5, 120, seed=15,
                                   label="distort-1.5")
        steps = []
        real = geodesy._rk4_batch

        def counted(chart, x0, w, n_steps, record_every=0):
            steps.append(n_steps)
            return real(chart, x0, w, n_steps, record_every)

        monkeypatch.setattr(geodesy, "_rk4_batch", counted)
        _, _, _, conv = distance_batch(chart, pts[:60], pts[60:])
        assert np.all(conv)
        assert steps.count(160) == 1 and steps.count(40) == 1
        assert set(steps) == {20, 40, 160}

    @pytest.mark.parametrize("m", sorted(RETRIED))
    def test_bent_retry_converges_to_the_shortest_branch(self, schw_charts, monkeypatch, m):
        # each row's full solve fails and one retry from the bent chord, at
        # the same steps, converges it to the shortest planar geodesic; no
        # graph is built
        calls, solves = [], []
        christoffel, bvp_batch = MetricChart.christoffel_quadratic, geodesy._bvp_batch

        def counted(chart, x, v):
            calls.append(len(x))
            return christoffel(chart, x, v)

        def recorded(chart, starts, *args, **kwargs):
            solves.append(len(starts))
            return bvp_batch(chart, starts, *args, **kwargs)

        def no_graph(*args, **kwargs):
            raise AssertionError("a distance solve built a graph")

        monkeypatch.setattr(MetricChart, "christoffel_quadratic", counted)
        monkeypatch.setattr(geodesy, "_bvp_batch", recorded)
        monkeypatch.setattr(GeodesicGraph, "__init__", no_graph)
        xs, ys = (np.array(p, float) for p in zip(*RETRIED[m]))
        d, _, _, conv = distance_batch(schw_charts[m], xs, ys)
        # the coarse solve, the full solve and the retry, each of every row
        assert solves == [len(xs)] * 3 and np.all(conv)
        # each solve of a batch runs until its last row freezes, so the
        # batch costs at least what any of its rows costs alone
        assert len(calls) <= 16_000
        for x, y, dist in zip(xs, ys, d):
            assert dist == pytest.approx(planar_geodesics(m / 2, x, y)[0], rel=1e-8)

    def test_a_row_only_the_chord_converges(self, schw_charts):
        # an m = 0.2 pair of test_image_containment whose chord passes 0.019
        # from the puncture: its coarse solve fails, so its full solve starts
        # from the chord and converges to the shortest planar branch, while
        # a full solve from the bent chord does not converge; seeding every
        # such row bent would lose it
        chart = schw_charts[0.2]
        x = np.array([[-0.2215489825769863, -0.106779890827828, -0.7718134661909454]])
        y = np.array([[0.39245235097550357, 0.15548792966957467, 1.193653521451004]])
        c = y - x
        closest = x - (np.sum(x * c) / np.sum(c * c)) * c
        assert np.linalg.norm(closest) < 0.02
        _, _, coarse = _bvp_batch(chart, x, y, n_steps=DISTANCE_STEPS // COARSE_STEP_DIVISOR,
                                  rel_target=COARSE_REL_TARGET)
        assert not coarse[0]
        d, _, _, conv = distance_batch(chart, x, y)
        assert conv[0]
        assert d[0] == pytest.approx(planar_geodesics(0.1, x[0], y[0])[0], rel=1e-8)
        _, res, bent = _bvp_batch(chart, x, y, w0=_bent_chord(x, y), n_steps=DISTANCE_STEPS)
        assert not bent[0] and res[0] > 0.05

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


class TestPlanarGeodesics:
    def test_radial_closed_form(self):
        # the radial branch, and the one around the puncture, which crosses
        # the negative x axis and so is longer than 2 + 5
        radial, around = planar_geodesics(0.1, (2.0, 0.0, 0.0), (5.0, 0.0, 0.0))
        assert radial == pytest.approx(RADIAL_D_2_5, rel=1e-13)
        assert around > 2.0 + 5.0

    def test_antipodal_pair_reads_one_length(self):
        # p -> -p: a circle of equal branches, each sweeping pi
        assert len(planar_geodesics(0.1, (2.0, 0.0, 0.0), (-2.0, 0.0, 0.0))) == 1

    def test_distortion_pairs_are_shortest_branches(self, schw_charts, schw_triples):
        # the m = 0.2 desk pairs of the geodesic 3-ball: every converged
        # distance is the shortest planar geodesic's length
        pts = sample_geodesic_ball(schw_charts[0.2], schw_triples[0.2], 3.0, 120,
                                   seed=15, label="distort-3.0")
        d, _, _, conv = distance_batch(schw_charts[0.2], pts[:60], pts[60:])
        assert np.all(conv)
        shortest = [planar_geodesics(0.1, x, y)[0] for x, y in zip(pts[:60], pts[60:])]
        assert np.all(np.abs(d - shortest) <= 1e-8 * np.array(shortest))


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

    def test_seeded_projections_match_chord_seeded(self, schw_charts, schw_triples,
                                                   monkeypatch):
        # the extrapolated seed converges the same candidates as the chord
        # and picks the same ones; the first row's centre shoots along the
        # x-axis 0.01 past the puncture, where the 25-step solve fails, so
        # that shot keeps the chord and its projection is the chord's bit
        # for bit
        chart, triple = schw_charts[0.025], schw_triples[0.025]
        rng = rng_for(23, "seeded-projections")
        p = np.array([2.0, 0.0, 0.0])
        xs = np.vstack([[-1.5, 0.01, 0.0], p + rng.uniform(-2.0, 2.0, size=(3, 3))])
        ys = np.vstack([[2.5, 0.3, -0.2], p + rng.uniform(-2.0, 2.0, size=(3, 3))])
        axes, seeds = [0, 0, 1, 2], [7, 30, 31, 32]
        solves = []
        real = geodesy._bvp_batch

        def kept(*args, **kwargs):
            result = real(*args, **kwargs)
            if kwargs.get("record"):
                solves.append(result)
            return result

        monkeypatch.setattr(geodesy, "_bvp_batch", kept)
        seeded = level_set_projections(chart, triple, xs, ys, axes, seeds)
        chord, w_chord, conv_chord = chord_seeded_projections(chart, triple, xs, ys,
                                                              axes, seeds)
        (w, _, conv, _), = solves
        assert np.array_equal(conv, conv_chord)
        L = 0.6 * triple.grid.halfwidth
        for got, want in zip(seeded, chord):
            assert type(got) is type(want)
            assert np.array_equal(got[1], want[1])
            assert np.linalg.norm(got[0] - want[0]) <= 1e-8 * L
        x = xs[:1]
        _, _, coarse = _bvp_batch(chart, x, x + [L, 0.0, 0.0],
                                  n_steps=PROJECTION_STEPS // COARSE_STEP_DIVISOR,
                                  rel_target=COARSE_REL_TARGET)
        assert conv[0] and not coarse[0]
        assert np.array_equal(w[0], w_chord[0])
        assert np.array_equal(seeded[0][1], xs[0])
        assert np.array_equal(seeded[0][0], chord[0][0])

    def test_scores_are_exact_line_integrals(self, flat_chart, flat_triple, monkeypatch):
        # a flat shot is the straight segment from its candidate to its far
        # point, and the trapezoid rule on equally spaced samples integrates
        # a field linear along it exactly: |far - start| (f(start) + f(far)) / 2
        def field(pts):
            return 3.0 + pts @ np.array([0.2, -0.1, 0.05])

        scores, shots = [], []
        rule, bvp_batch = geodesy.mean_value_rule, geodesy._bvp_batch

        def scored(values, has_center):
            scores.append(np.array(values))
            return rule(values, has_center)

        def kept(chart, starts, targets, **kwargs):
            if kwargs.get("record"):
                shots.append((starts, targets))
            return bvp_batch(chart, starts, targets, **kwargs)

        monkeypatch.setattr(flat_triple, "hess_sum_interp", field)
        monkeypatch.setattr(geodesy, "mean_value_rule", scored)
        monkeypatch.setattr(geodesy, "_bvp_batch", kept)
        out = level_set_projections(flat_chart, flat_triple,
                                    [[1.0, 1.0, 0.0], [-1.0, 0.5, 2.0]],
                                    [[0.0, 0.0, 0.0], [0.5, 2.0, -1.0]], [0, 1], [3, 4])
        assert not any(isinstance(r, Exception) for r in out)
        (starts, fars), = shots
        exact = np.linalg.norm(fars - starts, axis=1) * (field(starts) + field(fars)) / 2.0
        assert np.allclose(np.concatenate(scores), exact, rtol=1e-10, atol=0.0)

    @pytest.mark.xfail(strict=True, reason="a far shot past the puncture converges to "
                       "the longer branch when its coarse solve fails (ROADMAP item 1(a))")
    def test_far_shot_past_the_puncture_is_the_shortest_branch(self, schw_charts,
                                                               schw_triples, monkeypatch):
        # the first row of test_seeded_projections_match_chord_seeded: the
        # centre's far shot (-1.5, 0.01, 0) -> (10.5, 0.01, 0) at m = 0.025
        # converges to the branch below the puncture, 12.2044960, not to the
        # shortest one, 12.2003504
        chart, triple = schw_charts[0.025], schw_triples[0.025]
        x = np.array([[-1.5, 0.01, 0.0]])
        solves = []
        real = geodesy._bvp_batch

        def kept(chart, starts, targets, **kwargs):
            result = real(chart, starts, targets, **kwargs)
            if kwargs.get("record"):
                solves.append((starts, targets, result))
            return result

        monkeypatch.setattr(geodesy, "_bvp_batch", kept)
        level_set_projections(chart, triple, x, [[2.5, 0.3, -0.2]], [0], [7])
        (starts, fars, (w, _, conv, _)), = solves
        assert np.array_equal(starts[0], x[0]) and conv[0]
        shortest = planar_geodesics(0.0125, starts[0], fars[0])[0]
        assert geodesic_lengths(chart, starts[:1], w[:1])[0] == pytest.approx(shortest,
                                                                              rel=1e-6)

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


    def test_at_reads_nodes_inf_outside_nan_for_nan(self, flat_field_81):
        field = flat_field_81
        idx = np.array([[0, 0, 0], [80, 80, 80], [40, 3, 77], [12, 40, 40]])
        nodes = np.stack([field.axes[a][idx[:, a]] for a in range(3)], axis=-1)
        assert np.array_equal(field.at(nodes), field.T[tuple(idx.T)])
        outside = nodes[1] + [1e-9, 0.0, 0.0]
        got = field.at([outside, [2.0, 7.5, 0.0], [2.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        assert np.isinf(got[:2]).all() and got[2] == 0.0 and np.isnan(got[3])


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
