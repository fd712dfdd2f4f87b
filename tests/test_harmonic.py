"""Harmonic solver: operator structure, oracle agreement, field invariants."""

import dataclasses
import functools
import gc
import json
import pathlib
import weakref

import numpy as np
import pytest

import afstab.harmonic
from afstab.config import config_from_dict
from afstab.errors import MismatchedChart, SolverDiverged
from afstab.geometry import MetricChart
from afstab.grid import Grid, ScalarGridField, dot3
from afstab.harmonic import (HarmonicTriple, LaplaceBeltrami, build_harmonic_triple, cg,
                             cheng_yau_ratios, solve_harmonic_coordinate,
                             triple_from_solutions)

from oracles import (_covariant_hessian, assemble_interior_system, coupling_rhs,
                     flux_divergence_reference, gradient_reference,
                     harmonic_radial_profile, hessian_norm2_reference,
                     jacobi_cg_coordinate, schwarzschild_harmonic_closed_form, scipy_cg)

BUMP_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "bump_control.json"


@pytest.fixture(scope="module")
def schw_chart():
    return MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=100.0)


@pytest.fixture(scope="module")
def family_charts(schw_chart):
    """One chart per family: flat, Schwarzschild m = 0.2, conformal A = 0.2
    and the perturbed chart with the bump_control bump."""
    bump = config_from_dict(json.loads(BUMP_CONFIG.read_text())).chart()
    return {"flat": MetricChart("flat", box_halfwidth=100.0), "schwarzschild": schw_chart,
            "conformal": MetricChart("conformal", {"A": 0.2}, box_halfwidth=100.0),
            "perturbed": bump}


@pytest.fixture(scope="module")
def family_triples33(family_charts):
    """The solved triple of each family chart at N=33."""
    grid = Grid(halfwidth=20.0, nodes=33)
    return {name: build_harmonic_triple(chart, grid) for name, chart in family_charts.items()}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def interleaved(du):
    """A component-major gradient as the contiguous (N, N, N, 3) array the
    einsum-based references take: einsum sums a strided view of it in
    another order."""
    return np.ascontiguousarray(np.moveaxis(du, 0, -1))


class TestAssembly:
    def test_flat_gives_seven_point_laplacian(self):
        grid = Grid(halfwidth=5.0, nodes=17)
        op = LaplaceBeltrami(MetricChart("flat", box_halfwidth=10.0), grid)
        rng = np.random.default_rng(1)
        f = rng.normal(size=(17, 17, 17))
        lap = op.apply(f)
        ref = np.zeros_like(f)
        h2 = grid.h**2
        ref[1:-1, 1:-1, 1:-1] = (
            f[2:, 1:-1, 1:-1] + f[:-2, 1:-1, 1:-1] + f[1:-1, 2:, 1:-1]
            + f[1:-1, :-2, 1:-1] + f[1:-1, 1:-1, 2:] + f[1:-1, 1:-1, :-2]
            - 6.0 * f[1:-1, 1:-1, 1:-1]) / h2
        assert np.allclose(lap, ref, atol=1e-12)

    def test_constants_are_harmonic(self, schw_chart):
        grid = Grid(halfwidth=10.0, nodes=17)
        op = LaplaceBeltrami(schw_chart, grid)
        lap = op.apply(np.full((17, 17, 17), 3.7))
        assert np.max(np.abs(lap)) < 1e-12

    @pytest.mark.parametrize("family", ("flat", "schwarzschild", "conformal", "perturbed"))
    def test_interior_operator_matches_assembled(self, family_charts, family):
        # the matrix-free operator and lift against the node-by-node CSR
        # assembly and coupling triplets of the oracle, and A symmetric
        op = LaplaceBeltrami(family_charts[family], Grid(halfwidth=20.0, nodes=17))
        A, lift = op.interior_system()
        csr, couplings = assemble_interior_system(op)
        rng = np.random.default_rng(17)
        n = 17 - 2
        x, y = rng.normal(size=(2, n**3))
        ub = rng.normal(size=(17, 17, 17))

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        Ax, Ay = A(x), A(y)
        assert rel(Ax, csr @ x) <= 1e-13
        assert rel(lift(ub), coupling_rhs(couplings, ub)) <= 1e-13
        asym = abs(np.dot(Ax, y) - np.dot(x, Ay))
        assert asym <= 1e-13 * np.linalg.norm(Ax) * np.linalg.norm(y)

    @pytest.mark.parametrize("family", ("flat", "schwarzschild", "perturbed"))
    def test_stencil_matches_three_flux_arrays(self, family_charts, family):
        # the stencil on one face-flux buffer and one scratch array gives
        # the form with a flux array per direction bit for bit (the
        # interior system, its lift and apply() all go through it)
        op = LaplaceBeltrami(family_charts[family], Grid(halfwidth=20.0, nodes=17))
        values = np.random.default_rng(18).normal(size=(17, 17, 17))
        got = op._flux_divergence(op.kx, op.ky, op.kz, values)
        ref = flux_divergence_reference(op.kx, op.ky, op.kz, values)
        assert got.shape == (15, 15, 15)
        assert np.array_equal(bits(got), bits(ref))

    def test_operator_freed_by_reference_count(self, schw_chart):
        # the cached system and preconditioner hold no reference back to
        # the operator, so dropping it frees the face arrays at once rather
        # than at the next cyclic collection (which raised a stage's peak RSS)
        op = LaplaceBeltrami(schw_chart, Grid(halfwidth=20.0, nodes=17))
        op.interior_system()
        op.poisson_preconditioner()
        ref = weakref.ref(op)
        gc.disable()
        try:
            del op
            assert ref() is None
        finally:
            gc.enable()

    def test_inverse_conformal_factor_residual_order(self, schw_chart):
        # phi^-1 is g-harmonic (conformal-Laplacian oracle); the operator
        # residual on its nodal restriction converges at second order away
        # from the puncture
        errs = []
        for n in (33, 65):
            grid = Grid(halfwidth=20.0, nodes=n)
            op = LaplaceBeltrami(schw_chart, grid)
            w = 1.0 / schw_chart.conformal_factor(grid.points())
            resid = op.apply(w)
            r = np.linalg.norm(grid.points(), axis=-1)
            sample = (~grid.margin_mask(2)) & (r >= 1.0)
            errs.append(np.max(np.abs(resid[sample])))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.5

    def test_grid_must_fit_chart(self):
        with pytest.raises(MismatchedChart):
            LaplaceBeltrami(MetricChart("flat", box_halfwidth=5.0),
                            Grid(halfwidth=10.0, nodes=17))


class TestSolve:
    def test_flat_reproduces_linear(self):
        grid = Grid(halfwidth=20.0, nodes=33)
        chart = MetricChart("flat", box_halfwidth=50.0)
        for axis in range(3):
            u = solve_harmonic_coordinate(chart, grid, axis)
            assert np.max(np.abs(u.values - grid.points()[..., axis])) < 1e-8

    def test_conformal_zero_amplitude_matches_flat(self):
        grid = Grid(halfwidth=20.0, nodes=17)
        conf = MetricChart("conformal", {"A": 0.0}, box_halfwidth=50.0)
        u = solve_harmonic_coordinate(conf, grid, 0)
        assert np.max(np.abs(u.values - grid.points()[..., 0])) < 1e-8

    @pytest.mark.parametrize("chart", [
        MetricChart("flat", box_halfwidth=50.0),
        MetricChart("conformal", {"A": 0.0}, box_halfwidth=50.0),
        MetricChart("perturbed", {"A": 0.0, "bumps": [
            {"amplitude": 0.15, "center": [1.0, 0.0, 0.0], "width": 2.0}]},
            box_halfwidth=50.0),
    ], ids=["flat", "conformal", "perturbed"])
    def test_boundary_data_without_monopole_are_the_coordinates(self, chart):
        # a = 0: x^i (1 - a/|x|) is x^i bit for bit, the origin node included
        grid = Grid(halfwidth=20.0, nodes=17)
        op = LaplaceBeltrami(chart, grid)
        for axis in range(3):
            assert np.array_equal(op.boundary_values(axis), grid.points()[..., axis])

    def test_corrected_boundary_profile(self, schw_chart):
        # x^i (1 - (m/2)/|x|) on the boundary ring, in the same operation
        # order, with a = m/2 exactly the chart's
        grid = Grid(halfwidth=20.0, nodes=17)
        op = LaplaceBeltrami(schw_chart, grid)
        mask = grid.margin_mask(1)
        factor = 1.0 - (0.2 / 2) / grid.radii()[mask]
        shared = []
        for axis in range(3):
            assert np.array_equal(op.boundary_values(axis)[mask],
                                  grid.points()[..., axis][mask] * factor)
            shared.append(op._correction)
        # the factor is built once; the three axes share it
        assert shared[0] is shared[1] is shared[2]

    def test_axis_profile_matches_ode_oracle(self, schw_chart):
        # frozen oracle values: shooting solution of (r^2 phi^2 H')' = 2 phi^2 H,
        # cross-checked against the closed form H = r^2/(r + m/2)
        probes = np.array([2.5, 5.0, 7.5, 10.0])
        H = harmonic_radial_profile(0.2, probes)
        closed = schwarzschild_harmonic_closed_form(
            0.2, np.stack([probes, 0 * probes, 0 * probes], axis=1))
        assert np.max(np.abs(H - closed)) < 1e-8
        frozen = np.array([2.4038461538, 4.9019607843, 7.4013157895, 9.9009900990])
        assert np.max(np.abs(H - frozen)) < 1e-9

        grid = Grid(halfwidth=20.0, nodes=65)
        u = solve_harmonic_coordinate(schw_chart, grid, 0)
        c = 65 // 2
        for r, href in zip(probes, H):
            i = int(round((r + 20.0) / grid.h))
            assert u.values[i, c, c] == pytest.approx(href, rel=1e-3)

    def test_discrete_maximum_principle(self, schw_chart):
        grid = Grid(halfwidth=20.0, nodes=33)
        u = solve_harmonic_coordinate(schw_chart, grid, 0)
        boundary = grid.margin_mask(1)
        assert np.max(u.values[~boundary]) <= np.max(u.values[boundary]) + 1e-10
        assert np.min(u.values[~boundary]) >= np.min(u.values[boundary]) - 1e-10

    def test_truncation_consistency(self):
        # plain data x^i (the oracle's) vs the corrected data change the
        # solution on a fixed central region by an amount decaying like
        # R_out^-tau (the boundary-data difference ~ a x/R extends
        # harmonically inward)
        diffs = []
        for R in (10.0, 20.0):
            chart = MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=50.0)
            grid = Grid(halfwidth=R, nodes=33)
            up = jacobi_cg_coordinate(chart, grid, 0, plain=True)
            uc = solve_harmonic_coordinate(chart, grid, 0)
            inner = np.all(np.abs(grid.points()) <= 5.0, axis=-1)
            diffs.append(np.max(np.abs(up - uc.values)[inner]))
        assert diffs[1] < diffs[0]
        assert 1.3 < diffs[0] / diffs[1] < 3.2   # declared tau = 1, ratio ~ 2


class TestSolverContract:
    @pytest.mark.parametrize("nodes", (33, 65))
    @pytest.mark.parametrize("family", ("flat", "schwarzschild", "conformal", "perturbed"))
    def test_true_residual_within_tol_in_few_iterations(self, family_charts, family,
                                                        nodes, monkeypatch):
        solves = []
        real_cg = afstab.harmonic.cg

        def counting_cg(A, b, **kwargs):
            iters = []
            sol, info = real_cg(A, b, callback=iters.append, **kwargs)
            solves.append((A, b, sol, len(iters)))
            return sol, info

        monkeypatch.setattr(afstab.harmonic, "cg", counting_cg)
        chart, grid = family_charts[family], Grid(halfwidth=20.0, nodes=nodes)
        op = LaplaceBeltrami(chart, grid)
        if family == "schwarzschild":   # the puncture is an interior node
            assert op.singular_node == (nodes // 2,) * 3
        for axis in range(3):
            solve_harmonic_coordinate(chart, grid, axis, tol=1e-11, operator=op)
        assert len(solves) == 3
        for A, b, x, iters in solves:
            assert np.linalg.norm(A(x) - b) <= 1e-11 * np.linalg.norm(b)
            assert iters <= 15

    @pytest.mark.parametrize("family, nodes", [("schwarzschild", 33), ("perturbed", 33),
                                               ("perturbed", 65)])
    def test_agrees_with_jacobi_cg_oracle(self, family_charts, family, nodes):
        # both solves stop at relative residual 1e-11; u is O(20), and the
        # perturbed chart at N=65 differs the most (1.3e-9)
        chart, grid = family_charts[family], Grid(halfwidth=20.0, nodes=nodes)
        u = solve_harmonic_coordinate(chart, grid, 0)
        ref = jacobi_cg_coordinate(chart, grid, 0)
        assert np.max(np.abs(u.values - ref)) <= 1e-8

    def test_exhausted_budget_raises(self, family_charts):
        grid = Grid(halfwidth=20.0, nodes=33)
        with pytest.raises(SolverDiverged, match=r"axis 1, N=33"):
            solve_harmonic_coordinate(family_charts["perturbed"], grid, 1, max_iter=1)


class TestConjugateGradients:
    """afstab.harmonic.cg against scipy's cg on the same functions, bit for bit."""

    @staticmethod
    def _system(chart, nodes, axis):
        op = LaplaceBeltrami(chart, Grid(halfwidth=20.0, nodes=nodes))
        A, lift = op.interior_system()
        values = op.boundary_values(axis)
        return A, lift(values), values[1:-1, 1:-1, 1:-1].ravel(), op.poisson_preconditioner()

    @staticmethod
    def _both(A, b, x0, M, **kwargs):
        """(x, info, callback count) of the local cg, then of scipy's."""
        out = []
        for solver in (cg, scipy_cg):
            iters = []
            x, info = solver(A, b, x0=x0, M=M, callback=iters.append, **kwargs)
            out.append((x, info, len(iters)))
        return out

    @pytest.mark.parametrize("nodes", (17, 33))
    @pytest.mark.parametrize("family", ("flat", "schwarzschild", "conformal", "perturbed"))
    def test_matches_scipy_bit_for_bit(self, family_charts, family, nodes):
        for axis in range(3):
            A, b, x0, M = self._system(family_charts[family], nodes, axis)
            start = x0.copy()
            (x, info, iters), (ref, ref_info, ref_iters) = self._both(
                A, b, x0, M, rtol=1e-11, atol=0.0, maxiter=20000)
            assert (info, iters) == (ref_info, ref_iters)
            assert info == 0
            # the flat start (x^axis extended inward) solves the system already
            assert (iters == 0) == (family == "flat")
            assert np.array_equal(bits(x), bits(ref))
            assert np.array_equal(x0, start)        # the start is copied, not updated

    def test_interior_view_start_is_copied_once(self, family_charts):
        # the solve hands cg the interior view of the boundary profile: cg
        # reads it as the flat start it copies, bit for bit, and leaves the
        # profile as it was
        op = LaplaceBeltrami(family_charts["schwarzschild"], Grid(halfwidth=20.0, nodes=17))
        A, lift = op.interior_system()
        values = op.boundary_values(0)
        before = values.copy()
        kwargs = dict(rtol=1e-11, atol=0.0, maxiter=20000, M=op.poisson_preconditioner())
        x, info = cg(A, lift(values), x0=values[1:-1, 1:-1, 1:-1], **kwargs)
        ref, ref_info = cg(A, lift(values), x0=values[1:-1, 1:-1, 1:-1].ravel(), **kwargs)
        assert info == ref_info == 0
        assert x.shape == ref.shape == (15**3,)
        assert np.array_equal(bits(x), bits(ref))
        assert np.array_equal(bits(values), bits(before))

    def test_exhausted_budget_matches_scipy(self, family_charts):
        A, b, x0, M = self._system(family_charts["perturbed"], 17, 1)
        (x, info, iters), (ref, ref_info, ref_iters) = self._both(
            A, b, x0, M, rtol=1e-11, atol=0.0, maxiter=2)
        assert (info, iters) == (ref_info, ref_iters) == (2, 2)
        assert np.array_equal(bits(x), bits(ref))

    def test_absolute_tolerance_matches_scipy(self, family_charts):
        # atol above rtol |b| stops both after the same, fewer iterations
        A, b, x0, M = self._system(family_charts["schwarzschild"], 17, 0)
        (x, info, iters), (ref, ref_info, ref_iters) = self._both(
            A, b, x0, M, rtol=1e-11, atol=1e-4 * np.linalg.norm(b), maxiter=20000)
        full = self._both(A, b, x0, M, rtol=1e-11, atol=0.0, maxiter=20000)[0][2]
        assert (info, iters) == (ref_info, ref_iters)
        assert info == 0 and 0 < iters < full
        assert np.array_equal(bits(x), bits(ref))

    def test_zero_right_side_returns_it(self, family_charts):
        # |b| = 0: the zero right side is the solution, with no iteration
        # and no call of A or M, whatever the start
        A, _, x0, M = self._system(family_charts["schwarzschild"], 17, 0)
        calls = []

        def counted(f):
            def wrapper(v):
                calls.append(f)
                return f(v)
            return wrapper

        b = np.zeros_like(x0)
        (x, info, iters), (ref, ref_info, ref_iters) = self._both(
            counted(A), b, x0, counted(M), rtol=1e-11, atol=0.0, maxiter=20000)
        assert (info, iters) == (ref_info, ref_iters) == (0, 0)
        assert x is b
        assert np.array_equal(bits(x), bits(ref))
        assert calls == []


class TestTriple:
    def test_flat_triple_fields(self, flat_triple):
        grid = flat_triple.grid
        ok = ~flat_triple.excluded
        for i in range(3):
            e_i = np.zeros(3)
            e_i[i] = 1.0
            grad = flat_triple.partials(i) / flat_triple.phi ** 4
            assert np.max(np.abs(grad[:, ok] - e_i[:, None])) < 1e-8
            # |Hess u|_g bounds every component (phi = 1)
            assert np.max(np.sqrt(flat_triple.hess2[i][ok])) < 1e-8
        p = np.asarray(flat_triple.chart.base_point)
        assert np.max(np.abs(flat_triple.u_map(p))) < 1e-12
        assert flat_triple.grad_sup == pytest.approx(1.0, abs=1e-8)

    def test_hess2_matches_whole_tensor_reference(self, family_charts):
        # the six entries one at a time give |H|^2 / phi^8 of the whole
        # covariant-Hessian tensor up to the order of the sum of squares
        grid = Grid(halfwidth=20.0, nodes=33)
        for name, chart in family_charts.items():
            t = build_harmonic_triple(chart, grid)
            kept = ~t.excluded
            for i in range(3):
                H = _covariant_hessian(t.u[i].values, interleaved(t.partials(i)), t.phi,
                                       t.dphi, grid.h)
                ref = np.einsum("...ab,...ab->...", H, H)[kept] / t.phi[kept] ** 8
                err = np.abs(t.hess2[i][kept] - ref)
                assert np.all(err <= 1e-14 * ref), (name, i, np.max(err / ref))

    def test_fields_match_per_call_references(self, family_triples33):
        # du and |Hess u|_g^2, formed in place with w and phi^8 shared by
        # the axes, bit for bit the stacked partials and the per-call
        # expression they replaced, on every node: the two-cell margin and,
        # on the Schwarzschild chart, the imputed puncture node included
        assert family_triples33["schwarzschild"].excluded[16, 16, 16]
        for name, t in family_triples33.items():
            for i in range(3):
                u = t.u[i].values
                assert np.array_equal(bits(t.partials(i)),
                                      bits(gradient_reference(u, t.grid.h))), \
                    (name, i)
                ref = hessian_norm2_reference(u, interleaved(t.partials(i)), t.phi, t.dphi,
                                              t.grid.h)
                assert np.array_equal(bits(t.hess2[i]), bits(ref)), (name, i)

    def test_dot3_matches_einsum_on_triple(self, family_triples33):
        # du.w (the Hessian's Christoffel term) and du.du (|grad u|^2) of
        # the Schwarzschild triple bit for bit the einsum on the (N, N, N, 3)
        # layout the fields had, on every node
        t = family_triples33["schwarzschild"]
        w = t.dphi / t.phi[..., None]
        w_major = np.ascontiguousarray(np.moveaxis(w, -1, 0))
        for du in map(t.partials, range(3)):
            d = interleaved(du)
            assert np.array_equal(bits(dot3(du, w_major)),
                                  bits(np.einsum("...a,...a->...", d, w)))
            assert np.array_equal(bits(dot3(du, du)),
                                  bits(np.einsum("...a,...a->...", d, d)))

    def test_partials_are_contiguous(self, schw_chart, monkeypatch):
        # every partial of du and of the w = dphi / phi that |Hess u|^2
        # reads is one C-contiguous (N, N, N) array
        seen = []
        real = afstab.harmonic._hessian_norm2

        def recording(values, du, w, phi8, h):
            seen.append((du, w))
            return real(values, du, w, phi8, h)

        monkeypatch.setattr(afstab.harmonic, "_hessian_norm2", recording)
        t = build_harmonic_triple(schw_chart, Grid(halfwidth=20.0, nodes=17))
        t.hess2
        assert len(seen) == 3
        for i, (du, w) in enumerate(seen):
            assert np.array_equal(bits(du), bits(t.partials(i)))
            for field in (du, w):
                assert field.shape == (3, 17, 17, 17)
                assert all(field[a].flags.c_contiguous for a in range(3))

    def test_hess_sup_decreases_with_mass(self, schw_triples):
        sups = [np.max(np.sqrt(t.hess2[0])[~t.excluded])
                for t in (schw_triples[m] for m in (0.2, 0.1, 0.05))]
        assert sups[0] > sups[1] > sups[2]

    def test_gradient_decay_fit(self, schw02_triple):
        # |grad u - e_1| ~ C r^-tau on the mid-range shell
        grid = schw02_triple.grid
        r = np.linalg.norm(grid.points(), axis=-1)
        grad = np.moveaxis(schw02_triple.partials(0) / schw02_triple.phi ** 4, 0, -1)
        dev = np.linalg.norm(grad - np.array([1.0, 0.0, 0.0]), axis=-1)
        slopes = []
        radii = np.array([4.0, 6.0, 9.0])
        sups = []
        for rr in radii:
            shell = (np.abs(r - rr) < 0.5) & ~schw02_triple.excluded
            sups.append(np.max(dev[shell]))
        slope = np.polyfit(np.log(radii), np.log(sups), 1)[0]
        assert -1.6 < slope < -0.6    # declared tau = 1

    def test_residuals_below_tolerance(self, schw02_triple):
        # weighted-operator residual, relative to the operator scale u/h^2
        scale = 20.0 / schw02_triple.grid.h**2
        for rn in schw02_triple.residual_norms:
            assert rn < 1e-8 * scale

    def test_cheng_yau_finite(self, schw02_triple):
        for ratio in cheng_yau_ratios(schw02_triple, 3.0):
            assert np.isfinite(ratio) and ratio > 0.0

    def test_triple_from_solutions_round_trip(self, schw_chart):
        grid = Grid(halfwidth=20.0, nodes=17)
        t1 = build_harmonic_triple(schw_chart, grid)
        fields = [ScalarGridField(grid, u.values.copy()) for u in t1.u]
        t2 = triple_from_solutions(schw_chart, grid, fields)
        # the reload derives from the normalized values as the solve does
        for i in range(3):
            assert np.array_equal(t2.u[i].values, t1.u[i].values)
            assert np.array_equal(t2.partials(i), t1.partials(i))
            assert np.array_equal(t2.hess2[i], t1.hess2[i])
        for name in ("excluded", "phi", "dphi"):
            assert np.array_equal(getattr(t2, name), getattr(t1, name)), name
        assert t2.grad_sup == t1.grad_sup
        # solve diagnostics exist only on the solved triple
        assert t2.residual_norms is None and t2.u_at_p is None
        assert len(t1.residual_norms) == 3 and len(t1.u_at_p) == 3

    def test_axes_share_one_matrix(self, schw_chart, monkeypatch):
        matrices, preconditioners = [], []
        real_cg = afstab.harmonic.cg

        def recording_cg(A, *args, **kwargs):
            matrices.append(A)
            preconditioners.append(kwargs["M"])
            return real_cg(A, *args, **kwargs)

        monkeypatch.setattr(afstab.harmonic, "cg", recording_cg)
        build_harmonic_triple(schw_chart, Grid(halfwidth=20.0, nodes=17))
        for shared in (matrices, preconditioners):
            assert len(shared) == 3
            assert shared[1] is shared[0] and shared[2] is shared[0]

    def test_triple_keeps_reduced_fields(self, schw_chart):
        # u and |Hess u|^2 per axis plus phi and dphi: 10 float64 per node,
        # no tensor field (keeping the Hessians took 52) and no partials
        # (keeping u's nine partials too took 19); every derived
        # field is read first, so the walk over vars(t) sees the cached values
        grid = Grid(halfwidth=20.0, nodes=17)
        t = build_harmonic_triple(schw_chart, grid)

        def arrays():
            found = []

            def collect(obj):
                if isinstance(obj, np.ndarray):
                    found.append(obj)
                elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                    for f in dataclasses.fields(obj):
                        collect(getattr(obj, f.name))
                elif isinstance(obj, (tuple, list)):
                    for item in obj:
                        collect(item)
                elif isinstance(obj, dict):
                    for item in obj.values():
                        collect(item)

            collect(vars(t))
            return found

        def floats_per_node(found):
            return sum(a.size for a in found if a.dtype == np.float64) / grid.nodes**3

        for name in ("dphi", "hess2", "grad_sup"):   # with u and phi: the 10
            getattr(t, name)
        assert floats_per_node(arrays()) <= 10
        derived = [name for name, attr in vars(HarmonicTriple).items()
                   if isinstance(attr, functools.cached_property)]
        for name in derived:
            getattr(t, name)
        assert set(derived) <= set(vars(t))
        found = arrays()
        assert not any(a.ndim >= 2 and a.shape[-2:] == (3, 3) for a in found)
        assert not any(a.shape == (3,) + (grid.nodes,) * 3 for a in found)
        # R and the Gram defect are the only other nodal fields kept
        assert floats_per_node(found) <= 10 + 2

    def test_grid_convergence_order_against_oracle(self, schw_chart):
        # part of acceptance criterion 4 at reduced size: orders from the
        # axis profile against the shooting oracle
        probes = np.array([2.5, 5.0, 7.5, 10.0])
        H = harmonic_radial_profile(0.2, probes)
        errs = []
        for n in (33, 65):
            grid = Grid(halfwidth=20.0, nodes=n)
            u = solve_harmonic_coordinate(schw_chart, grid, 0)
            c = n // 2
            err = 0.0
            for r, href in zip(probes, H):
                i = int(round((r + 20.0) / grid.h))
                err = max(err, abs(u.values[i, c, c] - href) / abs(href))
            errs.append(err)
        assert np.log2(errs[0] / errs[1]) >= 1.8
