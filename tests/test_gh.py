"""Distortion of the coordinate map, gradient flows, sweep reports."""

from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import afstab.cli
import afstab.geodesy
import afstab.gh
from afstab.config import config_from_dict
from afstab.errors import LeftDomain, NoConvergence, NoDistanceBound
from afstab.geodesy import distance_batch
from afstab.geometry import MetricChart
from afstab.gh import (StabilityReport, _ball_nodes, _chord_certified, _chord_lengths,
                       _flow_batch, _flow_legs, displacement_bound,
                       flow_coverage, gh_distortion, gradient_flow_step, reach_point,
                       reach_points, sample_geodesic_ball)
from afstab.grid import Grid
from afstab.harmonic import LaplaceBeltrami, build_harmonic_triple
import oracles
from oracles import (adaptive_flow_leg, ball_distance_field, flow_batch_reference,
                     planar_geodesics, sample_geodesic_ball_reference,
                     sequential_gh_distortion, sequential_pythagoras)


def _recording_batches(monkeypatch, module=afstab.gh):
    """Wrap the module's distance_batch; returns the list each call appends
    its (starts, targets) and its outputs to."""
    real = module.distance_batch
    calls = []

    def recording(chart, starts, targets, *args, **kwargs):
        out = real(chart, starts, targets, *args, **kwargs)
        calls.append(((np.array(starts), np.array(targets)), out))
        return out

    monkeypatch.setattr(module, "distance_batch", recording)
    return calls


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

    @pytest.mark.parametrize("m, r, n_points, seed", [
        (0.0, 3.0, 30, 1), (0.2, 1.5, 120, 3), (0.2, 3.0, 200, 11),
        (0.1, 3.0, 150, 2026), (0.025, 3.0, 150, 5)])
    def test_matches_loop_that_shoots_every_candidate(self, flat_chart, flat_triple,
                                                      schw_charts, schw_triples,
                                                      monkeypatch, m, r, n_points, seed):
        # candidates past the ones the certified candidates fill are cut
        # away whatever their shot says, so not shooting them keeps the
        # sample bit for bit and shoots a subset of the rows
        chart, triple = ((flat_chart, flat_triple) if m == 0.0
                         else (schw_charts[m], schw_triples[m]))
        calls = _recording_batches(monkeypatch)
        pts = sample_geodesic_ball(chart, triple, r, n_points, seed, label="ball")
        shot = sum(len(targets) for (_, targets), _ in calls)
        calls = _recording_batches(monkeypatch, oracles)
        want = sample_geodesic_ball_reference(chart, triple, r, n_points, seed,
                                              label="ball")
        assert np.array_equal(pts, want)
        assert shot <= sum(len(targets) for (_, targets), _ in calls)

    def test_chord_through_puncture_not_certified(self, schw_charts):
        # the true chord length through the puncture is infinite; the
        # 32-point rule alone would certify it (2.876 < 3)
        chart = schw_charts[0.025]
        p = np.asarray(chart.base_point)
        x = np.array([[-0.5, 0.0, 0.0]])
        assert _chord_lengths(chart, p, x, 32)[0] < 3.0 * (1.0 - 1e-6)
        assert not _chord_certified(chart, p, x, 3.0)[0]


def _sampling_ctx(chart, triple, r, n, seed):
    """A bare stage context for cli._pythagoras."""
    return SimpleNamespace(chart=chart, triple=triple, cfg=SimpleNamespace(
        sampling=SimpleNamespace(n_pythagoras_pairs=n, seed=seed, ball_radius=r)))


@pytest.fixture(scope="module")
def desk_point(schw_charts, small_grid):
    """The desk-point geometry: m = 0.2 on N = 33, halfwidth 20."""
    return schw_charts[0.2], build_harmonic_triple(schw_charts[0.2], small_grid)


class TestSampleConsumers:
    """The ball candidates shot in the batch of the rows that use the sample,
    against the sequential sampler that shot them in batches of their own."""

    @staticmethod
    def _candidate_rows(call, n_rows):
        """The targets, converged flags and distances of a recorded batch's
        rows after its first n_rows."""
        (_, targets), (d, _, _, conv) = call
        return targets[n_rows:], conv[n_rows:], d[n_rows:]

    def test_candidates_all_out(self, schw_charts, schw_triples, monkeypatch):
        # every shot candidate ends out, so the guess holds: the distortion
        # runs one distance batch [pairs | nodes | candidates], the records
        # one projection chain and one closing batch
        chart, triple, r = schw_charts[0.1], schw_triples[0.1], 3.0
        want = sequential_gh_distortion(chart, triple, r, 20, seed=5)
        calls = _recording_batches(monkeypatch)
        rep = gh_distortion(chart, triple, r, 20, seed=5)
        assert asdict(rep) == asdict(want)
        assert len(calls) == 1
        _, shoot = _ball_nodes(chart, triple.grid.points().reshape(-1, 3),
                               ~triple.excluded.ravel(), r)
        cands, conv, d = self._candidate_rows(calls[0], 20 + len(shoot))
        assert len(cands) > 0 and not np.any(conv & (d <= r))

        ctx = _sampling_ctx(chart, triple, r, 5, seed=5)
        want = sequential_pythagoras(ctx)
        closing = _recording_batches(monkeypatch, afstab.geodesy)
        projections = []
        real = afstab.geodesy.level_set_projections
        monkeypatch.setattr(afstab.geodesy, "level_set_projections",
                            lambda *a, **k: projections.append(1) or real(*a, **k))
        assert afstab.cli._pythagoras(ctx) == want
        assert len(projections) == 1 and len(closing) == 1
        cands, conv, d = self._candidate_rows(closing[0], 3 * 5)
        assert len(cands) > 0 and not np.any(conv & (d <= r))

    def test_candidate_in_draws_again(self, desk_point, monkeypatch):
        # desk-point input 7007: one shot candidate of the first batch lands
        # in, so the sample is drawn again on the real verdicts and its pairs
        # shot once more, alone (the nodes rode the first batch)
        chart, triple = desk_point
        want = sequential_gh_distortion(chart, triple, 1.5, 60, seed=7007)
        calls = _recording_batches(monkeypatch)
        rep = gh_distortion(chart, triple, 1.5, 60, seed=7007)
        assert asdict(rep) == asdict(want)
        assert len(calls) == 2
        _, shoot = _ball_nodes(chart, triple.grid.points().reshape(-1, 3),
                               ~triple.excluded.ravel(), 1.5)
        _, conv, d = self._candidate_rows(calls[0], 60 + len(shoot))
        assert np.sum(conv & (d <= 1.5)) == 1
        assert len(calls[1][0][1]) == 60

    def test_failed_candidate_shot_is_out(self, desk_point, monkeypatch):
        # the candidate of input 7007 that lands in, its shot failed: it is
        # out, as in the sequential sampler, and the first guess holds
        chart, triple = desk_point
        calls = _recording_batches(monkeypatch)
        gh_distortion(chart, triple, 1.5, 60, seed=7007)
        shot, conv, d = self._candidate_rows(calls[0], 60)
        lands = shot[conv & (d <= 1.5)]
        assert len(lands) == 1

        def failing(real):
            def batch(chart, starts, targets, *args, **kwargs):
                d, w, res, conv = real(chart, starts, targets, *args, **kwargs)
                return d, w, res, conv & ~np.all(np.asarray(targets) == lands[0], axis=1)
            return batch

        for module in (afstab.gh, oracles):
            monkeypatch.setattr(module, "distance_batch", failing(module.distance_batch))
        calls.clear()
        rep = gh_distortion(chart, triple, 1.5, 60, seed=7007)
        assert len(calls) == 1
        assert asdict(rep) == asdict(sequential_gh_distortion(chart, triple, 1.5, 60, 7007))

    def test_stalled_sample_raises_as_before(self, flat_chart, flat_triple, monkeypatch):
        # certify only the candidates within r / 2 of p and fail every shot:
        # 12 rounds keep too few points, and every consumer raises the
        # sequential sampler's NoConvergence
        def inner_half(chart, p, xs, r, hi=None):
            return np.linalg.norm(xs - p, axis=1) < 0.5 * r

        def all_failed(chart, starts, targets, *args, **kwargs):
            k = len(targets)
            return np.full(k, np.inf), np.zeros((k, 3)), np.full(k, np.inf), np.zeros(k, bool)

        for module in (afstab.gh, oracles):
            monkeypatch.setattr(module, "_chord_certified", inner_half)
            monkeypatch.setattr(module, "distance_batch", all_failed)
        chart, triple = flat_chart, flat_triple
        ctx = _sampling_ctx(chart, triple, 3.0, 20, seed=3)
        runs = [(lambda: sample_geodesic_ball(chart, triple, 3.0, 40, seed=3),
                 lambda: sample_geodesic_ball_reference(chart, triple, 3.0, 40, seed=3,
                                                        cut=True)),
                (lambda: gh_distortion(chart, triple, 3.0, 20, seed=3),
                 lambda: sequential_gh_distortion(chart, triple, 3.0, 20, seed=3)),
                (lambda: afstab.cli._pythagoras(ctx), lambda: sequential_pythagoras(ctx))]
        for new, old in runs:
            with pytest.raises(NoConvergence) as want:
                old()
            with pytest.raises(NoConvergence) as got:
                new()
            assert str(got.value) == str(want.value)
            assert "stalled at" in str(got.value) and not str(got.value).endswith(" 0/40")


class TestDistortion:
    def test_flat_exact(self, flat_chart, flat_triple):
        rep = gh_distortion(flat_chart, flat_triple, 3.0, 30, seed=2)
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

    def test_image_containment(self, schw_charts, schw02_triple):
        chart = schw_charts[0.2]
        r = 3.0
        rep = gh_distortion(chart, schw02_triple, r, 40, seed=4)
        pts = sample_geodesic_ball(chart, schw02_triple, r, 40, seed=4)
        u = schw02_triple.u_map(pts)
        assert np.all(np.linalg.norm(u, axis=1) <= r + rep.max_defect + 1e-8)

    def test_determinism(self, schw_charts, schw02_triple):
        a, b = (gh_distortion(schw_charts[0.2], schw02_triple, 3.0, 20, seed=6)
                for _ in range(2))
        assert asdict(a) == asdict(b)


class TestBallMask:
    """The grid nodes over which gh_distortion integrates ortho_l1."""

    @staticmethod
    def _mask(chart, triple, r):
        """The certified nodes, the mask (certified or shot with d <= r) and
        the failed count, with the undecided nodes shot in a batch of their
        own; each (N, N, N) but the count."""
        nodes = triple.grid.points().reshape(-1, 3)
        cert, shoot = _ball_nodes(chart, nodes, ~triple.excluded.ravel(), r)
        p = np.broadcast_to(np.asarray(chart.base_point, float), (len(shoot), 3))
        d, _, _, conv = distance_batch(chart, p, nodes[shoot])
        mask = cert.copy()
        mask[shoot] = conv & (d <= r)
        shape = triple.excluded.shape
        return cert.reshape(shape), mask.reshape(shape), int(np.sum(~conv))

    @staticmethod
    def _ortho_l1(triple, mask):
        return float(np.sum(triple.gram_defect[mask] * triple.volume_weights()[mask]))

    def test_chord_certified_nodes_in_mask(self, schw_charts, schw_triples):
        # the sweep's m = 0.1 point: every kept node whose chord certifies
        # d(p, x) < 3 is in the ball; the first-order eikonal field reads
        # 12 of them above 3
        chart, triple, r = schw_charts[0.1], schw_triples[0.1], 3.0
        nodes = triple.grid.points()
        kept = ~triple.excluded
        certified = np.zeros(kept.shape, bool)
        certified[kept] = _chord_certified(chart, np.asarray(chart.base_point),
                                           nodes[kept], r)
        _, mask, _ = self._mask(chart, triple, r)
        assert np.all(mask[certified])
        eikonal = (ball_distance_field(chart, r, 81).at(nodes) <= r) & kept
        assert np.sum(certified & ~eikonal) == 12
        rep = gh_distortion(chart, triple, r, 10, seed=3)
        assert rep.ortho_l1 == self._ortho_l1(triple, mask)

    @pytest.mark.parametrize("nodes, r, eikonal_nodes", [(33, 1.5, 41), (65, 3.0, 81)])
    def test_equals_eikonal_mask_at_large_mass(self, schw_charts, schw_triples, nodes,
                                               r, eikonal_nodes):
        # at m = 0.2 the eikonal field misplaces no node of the desk-point
        # (N = 33, r = 1.5) and the sweep (N = 65, r = 3) balls
        chart = schw_charts[0.2]
        triple = (schw_triples[0.2] if nodes == 65
                  else build_harmonic_triple(chart, Grid(halfwidth=20.0, nodes=33)))
        _, mask, _ = self._mask(chart, triple, r)
        field = ball_distance_field(chart, r, eikonal_nodes)
        eikonal = (field.at(triple.grid.points()) <= r) & ~triple.excluded
        assert np.array_equal(mask, eikonal)
        rep = gh_distortion(chart, triple, r, 10, seed=4)
        assert rep.ortho_l1 == self._ortho_l1(triple, eikonal)

    def test_pair_rows_as_in_a_pairs_only_batch(self, schw_charts, schw_triples,
                                                monkeypatch):
        chart, triple, r, n = schw_charts[0.1], schw_triples[0.1], 3.0, 20
        calls = _recording_batches(monkeypatch)
        rep = gh_distortion(chart, triple, r, n, seed=5)
        (starts, targets), merged = calls[-1]
        nodes = triple.grid.points().reshape(-1, 3)
        _, shoot = _ball_nodes(chart, nodes, ~triple.excluded.ravel(), r)
        assert len(shoot) > 0 and np.array_equal(targets[n:n + len(shoot)], nodes[shoot])
        _, mask, n_failed = self._mask(chart, triple, r)
        alone = distance_batch(chart, starts[:n], targets[:n])
        for got, want in zip(merged, alone):
            assert np.array_equal(got[:n], want)
        assert rep.n_failed_nodes == n_failed
        assert rep.ortho_l1 == self._ortho_l1(triple, mask)

    def test_antipodal_node_shot_in_the_pairs_batch(self, schw_charts, schw_triples,
                                                    monkeypatch):
        # (-0.625, 0, 0) lies 2.625 < 3 from p = (2, 0, 0) behind the
        # puncture, and its chord is not certified (the chord length is
        # infinite): it is shot in the pairs' batch, from the bent chord,
        # and converges to the shortest planar branch, inside the ball
        chart, triple, r = schw_charts[0.025], schw_triples[0.025], 3.0
        nodes = triple.grid.points().reshape(-1, 3)
        node = np.flatnonzero(np.all(nodes == (-0.625, 0.0, 0.0), axis=1))
        assert len(node) == 1 and not triple.excluded.ravel()[node[0]]
        cert, shoot = _ball_nodes(chart, nodes, ~triple.excluded.ravel(), r)
        assert not cert[node[0]] and node[0] in shoot
        calls = _recording_batches(monkeypatch)
        rep = gh_distortion(chart, triple, r, 10, seed=6)
        (_, targets), (d, _, _, conv) = calls[0]
        row = 10 + int(np.flatnonzero(shoot == node[0])[0])
        assert np.array_equal(targets[row], nodes[node[0]]) and conv[row]
        p = np.asarray(chart.base_point, float)
        # the shortest planar branch, 2.7932187
        assert d[row] == pytest.approx(planar_geodesics(0.0125, p, nodes[node[0]])[0],
                                       rel=1e-8)
        _, mask, _ = self._mask(chart, triple, r)
        assert mask.ravel()[node[0]]
        assert rep.n_failed_nodes == 0
        assert rep.ortho_l1 == self._ortho_l1(triple, mask)

    def test_phi_floor(self):
        assert MetricChart("schwarzschild", {"m": 0.1}).phi_floor == 1.0
        bumps = [{"amplitude": -0.3, "center": (1.0, 0.0, 0.0), "width": 2.0},
                 {"amplitude": 0.5, "center": (-1.0, 0.0, 0.0), "width": 2.0}]
        assert MetricChart("perturbed", {"A": 0.1, "bumps": bumps}).phi_floor == 0.7
        for chart in (MetricChart("schwarzschild", {"m": -0.1}),
                      MetricChart("conformal", {"gauss_amp": -1.5})):
            with pytest.raises(NoDistanceBound):
                chart.phi_floor

    def test_chart_without_phi_floor_fails_before_sampling(self, monkeypatch):
        # phi = 1 - exp(-|x|^2) vanishes at the origin; the flat triple only
        # lends its grid
        chart = MetricChart("conformal", {"gauss_amp": -1.0}, box_halfwidth=100.0)
        triple = build_harmonic_triple(MetricChart("flat", box_halfwidth=100.0),
                                       Grid(halfwidth=10.0, nodes=17))
        calls = _recording_batches(monkeypatch)
        with pytest.raises(NoDistanceBound):
            gh_distortion(chart, triple, 2.0, 5, seed=1)
        assert calls == []


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

    def test_leg_leaving_usable_box_raises(self, flat_chart, flat_triple):
        # the flat flow of u^1 moves along e_1: from x = 18 over time 2 it
        # crosses the usable box's edge at 20 - 2h = 18.75
        with pytest.raises(LeftDomain):
            gradient_flow_step(flat_chart, flat_triple, (18.0, 0.0, 0.0), 0, 2.0,
                               0.1, seed=7, r_limit=100.0)

    def test_leg_end_is_its_row_alone(self, schw_charts, schw02_triple):
        # the leg is the picked candidate's row of the scoring batch, and a
        # row does not depend on its batch-mates
        triple = schw02_triple
        for axis, t in ((0, 1.7), (2, -1.3)):
            y, end = gradient_flow_step(schw_charts[0.2], triple, (2.3, -0.4, 0.5), axis,
                                        t, 2.0 * triple.grid.h, seed=5, r_limit=100.0)
            n_steps = max(24, int(8 * abs(t) / triple.grid.h))
            alone, _ = _flow_batch(triple, axis, y[None], t, n_steps)
            assert np.array_equal(end, alone[0]), axis

    @pytest.mark.parametrize("t", [1.9, -1.4])
    def test_flow_batch_equals_reference_loop(self, schw02_triple, t):
        starts = 2.0 + np.random.default_rng(4).uniform(-1.5, 1.5, size=(9, 3))
        for axis in range(3):
            got = _flow_batch(schw02_triple, axis, starts, t, 37)
            ref = flow_batch_reference(schw02_triple, axis, starts, t, 37)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("nodes", [33, 65])
    def test_leg_ends_match_adaptive_oracle(self, schw_charts, schw02_triple, small_grid,
                                            nodes):
        # fixed-step RK4 against adaptive RK45 from the same y*: the largest
        # gap measured on these legs is 7.5e-6 (N=65), and 1.6e-5 (N=33)
        # on criterion 10's twenty m = 0.2 targets
        chart = schw_charts[0.2]
        triple = (schw02_triple if nodes == 65
                  else build_harmonic_triple(chart, small_grid))
        traces, _ = flow_coverage(chart, triple, 2.0, 5, seed=10)
        for trace in traces:
            for axis, t in enumerate(trace.times):
                ref = adaptive_flow_leg(triple, axis, np.array(trace.picked[axis]), t)
                assert np.max(np.abs(np.array(trace.segment_ends[axis]) - ref)) < 3e-5

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
        # every leg budget and every displacement certifies on its chord:
        # the flows shoot no geodesic
        assert len(calls) == 0
        rho = 2.0 * triple.grid.h
        for k, trace in enumerate(traces):
            alone = reach_point(chart, triple, trace.times, rho, seed=13 + 1000 + k)
            assert alone == trace, k

    def test_shot_budgets_equal_certified(self, schw_charts, schw_triples, monkeypatch):
        # shooting d(p, end) for every budget check and d(y*, end) for every
        # displacement instead of certifying them on the chord changes the
        # number of distance batches and the displacements, which the chord
        # bounds from above, and nothing else
        chart, triple = schw_charts[0.1], schw_triples[0.1]
        certified, _ = flow_coverage(chart, triple, 1.5, 3, seed=13)
        calls = []
        monkeypatch.setattr(afstab.gh, "_chord_certified",
                            lambda chart, p, xs, r, hi=None: np.zeros(len(xs), bool))
        monkeypatch.setattr(afstab.gh, "distance_batch",
                            lambda *a, **k: calls.append(1) or distance_batch(*a, **k))
        shot, _ = flow_coverage(chart, triple, 1.5, 3, seed=13)
        assert len(calls) == 3        # legs 1 and 2, then the displacements
        for a, b in zip(shot, certified):
            assert replace(a, displacements=b.displacements) == b
            assert all(d <= c for d, c in zip(a.displacements, b.displacements))

    def test_uncertified_leg_is_shot(self, schw_charts, schw_triples, monkeypatch):
        # a displacement whose chord does not certify is shot, alone, and
        # still keeps its bound
        chart, triple = schw_charts[0.1], schw_triples[0.1]
        certified, _ = flow_coverage(chart, triple, 1.5, 3, seed=13)
        real = afstab.gh._chord_certified

        def refuse_first_leg(chart, p, xs, r, hi=None):
            ok = real(chart, p, xs, r, hi=hi)
            if np.ndim(p) == 2:       # the displacements: one start per row
                ok[0] = False
            return ok

        monkeypatch.setattr(afstab.gh, "_chord_certified", refuse_first_leg)
        calls = _recording_batches(monkeypatch)
        shot, _ = flow_coverage(chart, triple, 1.5, 3, seed=13)
        assert len(calls) == 1
        (starts, ends), _ = calls[0]
        assert np.array_equal(starts, [certified[0].picked[0]])
        assert np.array_equal(ends, [certified[0].segment_ends[0]])
        assert shot[0].displacements[0] <= certified[0].displacements[0]
        assert shot[0].displacements[1:] == certified[0].displacements[1:]
        assert shot[1:] == certified[1:]
        # the flow stage's verdict: every leg keeps its displacement bound
        assert all(d <= displacement_bound(triple.grad_sup, t)
                   for trace in shot for d, t in zip(trace.displacements, trace.times))

    def test_traces_row_local_across_step_groups(self, schw_charts, schw_triples,
                                                 monkeypatch):
        # targets of both signs, a t = 0 leg, and |t| on both sides of 3h,
        # so each leg runs candidates of two step counts in two batches
        chart, triple = schw_charts[0.1], schw_triples[0.1]
        h = triple.grid.h
        targets = np.array([[0.9, -0.6, 0.0], [-3.4 * h, 0.4, 3.2 * h],
                            [0.3, 3.6 * h, -0.7]])
        steps = []
        real = afstab.gh._flow_batch

        def recording(triple, axis, starts, t, n_steps):
            steps.append((axis, n_steps))
            return real(triple, axis, starts, t, n_steps)

        monkeypatch.setattr(afstab.gh, "_flow_batch", recording)
        rho = 2.0 * h
        traces = reach_points(chart, triple, targets, rho, [21, 22, 23])
        assert all(len({n for a, n in steps if a == axis}) == 2 for axis in range(3))
        for k, trace in enumerate(traces):
            assert reach_point(chart, triple, targets[k], rho, seed=21 + k) == trace, k

    def test_first_failing_trace_raises(self, flat_chart, flat_triple):
        # trace 0 leaves the usable box, trace 1 breaks its ball budget: a
        # loop over the traces would raise trace 0's LeftDomain, and so do
        # the legs in lockstep, though trace 1 fails before any flow
        starts = [(18.0, 0.0, 0.0), (0.0, 0.0, 0.0)]
        with pytest.raises(LeftDomain):
            _flow_legs(flat_chart, flat_triple, starts, 0, [2.0, 5.0], 0.1, [7, 7],
                       [100.0, 3.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="ball budget"):
            _flow_legs(flat_chart, flat_triple, starts[::-1], 0, [5.0, 2.0], 0.1, [7, 7],
                       [3.0, 100.0], [0.0, 0.0])

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

        grid = Grid(halfwidth=20.0, nodes=33)
        p50 = []
        for A in (0.2, 0.05):
            chart = MetricChart(
                "perturbed",
                {"A": A, "bumps": [{"amplitude": 0.15, "center": (1.0, 0.0, 0.0),
                                    "width": 2.0}]},
                box_halfwidth=100.0, decay_tau=0.9)
            triple = build_harmonic_triple(chart, grid)
            rep = gh_distortion(chart, triple, 3.0, 30, seed=12)
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
