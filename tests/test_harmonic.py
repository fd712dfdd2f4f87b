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
from afstab.grid import Grid, ScalarGridField
from afstab.harmonic import (HarmonicTriple, LaplaceBeltrami, boundary_values,
                             build_harmonic_triple, cheng_yau_ratio, fit_monopole,
                             solve_harmonic_coordinate, triple_from_solutions)

from oracles import (_covariant_hessian, assemble_interior_system, coupling_rhs,
                     harmonic_radial_profile, jacobi_cg_coordinate,
                     schwarzschild_harmonic_closed_form)

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
        x, y = rng.normal(size=(2, A.shape[0]))
        ub = rng.normal(size=(17, 17, 17))

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        Ax, Ay = A @ x, A @ y
        assert rel(Ax, csr @ x) <= 1e-13
        assert rel(lift(ub), coupling_rhs(couplings, ub)) <= 1e-13
        asym = abs(np.dot(Ax, y) - np.dot(x, Ay))
        assert asym <= 1e-13 * np.linalg.norm(Ax) * np.linalg.norm(y)

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
            u = solve_harmonic_coordinate(chart, grid, axis, bc="plain")
            assert np.max(np.abs(u.values - grid.points()[..., axis])) < 1e-8

    def test_conformal_zero_amplitude_matches_flat(self):
        grid = Grid(halfwidth=20.0, nodes=17)
        conf = MetricChart("conformal", {"A": 0.0}, box_halfwidth=50.0)
        u = solve_harmonic_coordinate(conf, grid, 0, bc="plain")
        assert np.max(np.abs(u.values - grid.points()[..., 0])) < 1e-8

    def test_monopole_fit(self, schw_chart):
        assert fit_monopole(schw_chart, 20.0) == pytest.approx(0.1, abs=1e-12)

    def test_corrected_boundary_profile(self, schw_chart):
        grid = Grid(halfwidth=20.0, nodes=17)
        vals = boundary_values(schw_chart, grid, 0, "corrected")
        pts = grid.points()
        r = np.linalg.norm(grid.points(), axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = pts[..., 0] * (1.0 - 0.1 / r)
        mask = grid.margin_mask(1)
        assert np.allclose(vals[mask], expect[mask], atol=1e-12)

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
        u = solve_harmonic_coordinate(schw_chart, grid, 0, bc="corrected")
        c = 65 // 2
        for r, href in zip(probes, H):
            i = int(round((r + 20.0) / grid.h))
            assert u.values[i, c, c] == pytest.approx(href, rel=1e-3)

    def test_discrete_maximum_principle(self, schw_chart):
        grid = Grid(halfwidth=20.0, nodes=33)
        u = solve_harmonic_coordinate(schw_chart, grid, 0, bc="plain")
        boundary = grid.margin_mask(1)
        assert np.max(u.values[~boundary]) <= np.max(u.values[boundary]) + 1e-10
        assert np.min(u.values[~boundary]) >= np.min(u.values[boundary]) - 1e-10

    def test_truncation_consistency(self):
        # plain vs corrected boundary data change the solution on a fixed
        # central region by an amount decaying like R_out^-tau (the
        # boundary-data difference ~ a x/R extends harmonically inward)
        diffs = []
        for R in (10.0, 20.0):
            chart = MetricChart("schwarzschild", {"m": 0.2}, box_halfwidth=50.0)
            grid = Grid(halfwidth=R, nodes=33)
            up = solve_harmonic_coordinate(chart, grid, 0, bc="plain")
            uc = solve_harmonic_coordinate(chart, grid, 0, bc="corrected")
            inner = np.all(np.abs(grid.points()) <= 5.0, axis=-1)
            diffs.append(np.max(np.abs(up.values - uc.values)[inner]))
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
            assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)
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


class TestTriple:
    def test_flat_triple_fields(self, flat_triple):
        grid = flat_triple.grid
        ok = ~flat_triple.excluded
        for i in range(3):
            e_i = np.zeros(3)
            e_i[i] = 1.0
            grad = flat_triple.du[i] / flat_triple.phi[..., None] ** 4
            assert np.max(np.abs(grad[ok] - e_i)) < 1e-8
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
                H = _covariant_hessian(t.u[i].values, t.du[i], t.phi, t.dphi, grid.h)
                ref = np.einsum("...ab,...ab->...", H, H)[kept] / t.phi[kept] ** 8
                err = np.abs(t.hess2[i][kept] - ref)
                assert np.all(err <= 1e-14 * ref), (name, i, np.max(err / ref))

    def test_hess_sup_decreases_with_mass(self, schw_triples):
        sups = [np.max(np.sqrt(t.hess2[0])[~t.excluded])
                for t in (schw_triples[m] for m in (0.2, 0.1, 0.05))]
        assert sups[0] > sups[1] > sups[2]

    def test_gradient_decay_fit(self, schw02_triple):
        # |grad u - e_1| ~ C r^-tau on the mid-range shell
        grid = schw02_triple.grid
        r = np.linalg.norm(grid.points(), axis=-1)
        grad = schw02_triple.du[0] / schw02_triple.phi[..., None] ** 4
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
        for i in range(3):
            ratio = cheng_yau_ratio(schw02_triple, i, 3.0)
            assert np.isfinite(ratio) and ratio > 0.0

    def test_triple_from_solutions_round_trip(self, schw_chart):
        grid = Grid(halfwidth=20.0, nodes=17)
        t1 = build_harmonic_triple(schw_chart, grid)
        fields = [ScalarGridField(grid, u.values.copy()) for u in t1.u]
        t2 = triple_from_solutions(schw_chart, grid, fields)
        # the reload derives from the normalized values as the solve does
        for i in range(3):
            assert np.array_equal(t2.u[i].values, t1.u[i].values)
            assert np.array_equal(t2.du[i], t1.du[i])
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
        # u, du and |Hess u|^2 per axis plus phi and dphi: 19 float64 per node,
        # and no tensor field (keeping the Hessians took 52); every derived
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

        for name in ("du", "hess2", "grad_sup"):   # with u, phi, dphi: the 19
            getattr(t, name)
        assert floats_per_node(arrays()) <= 20
        derived = [name for name, attr in vars(HarmonicTriple).items()
                   if isinstance(attr, functools.cached_property)]
        for name in derived:
            getattr(t, name)
        assert set(derived) <= set(vars(t))
        found = arrays()
        assert not any(a.ndim >= 2 and a.shape[-2:] == (3, 3) for a in found)
        # R and the Gram defect are the only other nodal fields kept
        assert floats_per_node(found) <= 20 + 2

    def test_grid_convergence_order_against_oracle(self, schw_chart):
        # part of acceptance criterion 4 at reduced size: orders from the
        # axis profile against the shooting oracle
        probes = np.array([2.5, 5.0, 7.5, 10.0])
        H = harmonic_radial_profile(0.2, probes)
        errs = []
        for n in (33, 65):
            grid = Grid(halfwidth=20.0, nodes=n)
            u = solve_harmonic_coordinate(schw_chart, grid, 0, bc="corrected")
            c = n // 2
            err = 0.0
            for r, href in zip(probes, H):
                i = int(round((r + 20.0) / grid.h))
                err = max(err, abs(u.values[i, c, c] - href) / abs(href))
            errs.append(err)
        assert np.log2(errs[0] / errs[1]) >= 1.8
