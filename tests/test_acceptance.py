"""Acceptance suite: every stated criterion at its stated tolerance.

Desk scale: N = 65, R_out = 20; shared solves come from session fixtures,
the grid-refinement studies build their own levels.  Each test prints one
pass/fail line (bypassing capture) before asserting.
"""

import json
import os

import numpy as np
import pytest

from afstab.config import config_from_dict
from afstab.cli import run
from afstab.errors import AfstabError
from afstab.geodesy import DistanceField, distance_batch, pythagorean_records
from afstab.geometry import (MetricChart, VolumeSampling, certify_hypotheses,
                             ricci_batch)
from afstab.gh import flow_coverage, gh_distortion, sample_geodesic_ball
from afstab.grid import Grid
from afstab.harmonic import solve_harmonic_coordinate, triple_from_solutions
from afstab.inequality import VectorFieldSpec, mass_inequality_rhs, richardson_slack
from afstab.mass import adm_mass
from afstab.reporting import sha256_file
from afstab.seeding import rng_for

from conftest import SWEEP_MASSES, certificate
from oracles import (bishop_gromov_check, bump_positive_laplacian_integral,
                     harmonic_radial_profile, schwarzschild_radial_arclength,
                     sympy_conformal_scalar, sympy_gaussian_phi)

PROBE_RADII = np.array([2.5, 5.0, 7.5, 10.0])   # common nodes of all levels
LEVELS = (33, 65, 129)


def single_axis_triple(chart, grid):
    """Axis-1 solve wrapped as a triple (not normalized; the inequality
    integrals only read derivative fields)."""
    u = solve_harmonic_coordinate(chart, grid, 0, bc="corrected")
    return triple_from_solutions(chart, grid, [u, u, u])


def defects(records):
    """The defects of lockstep Pythagorean records; a failed record raises."""
    for rec in records:
        if isinstance(rec, AfstabError):
            raise rec
    return [rec.defect for rec in records]


@pytest.fixture(scope="module")
def masses(schw_charts):
    return {m: adm_mass(c, (20.0, 40.0, 80.0)).extrapolated
            for m, c in schw_charts.items()}


@pytest.fixture(scope="module")
def refinement_triples(schw_charts):
    """Axis-1 solves of the m = 0.2 family at three grid levels."""
    chart = schw_charts[0.2]
    return {n: single_axis_triple(chart, Grid(halfwidth=20.0, nodes=n))
            for n in LEVELS}


def test_criterion_01_flat_exactness(criterion, flat_chart, flat_triple, flat_ball_field):
    mass = adm_mass(flat_chart, (20.0, 40.0, 80.0)).extrapolated
    grid = flat_triple.grid
    u_err = 0.0
    for axis in range(3):
        u = solve_harmonic_coordinate(flat_chart, grid, axis, bc="plain")
        u_err = max(u_err, float(np.max(np.abs(u.values - grid.points()[..., axis]))))
    drep = gh_distortion(flat_chart, flat_triple, 3.0, 30, seed=101,
                         dist_field=flat_ball_field)
    xs = [(1.0, 1.0, 0.0), (2.5, -1.0, 0.5), (3.0, 1.0, 1.0)]
    ys = [(0.0, 0.0, 0.0), (1.0, 0.0, -1.0), (1.5, -0.5, 0.0)]
    pyth = max(defects(pythagorean_records(flat_chart, flat_triple, xs, ys,
                                           [k % 3 for k in range(3)],
                                           [300 + k for k in range(3)])))
    traces, _ = flow_coverage(flat_chart, flat_triple, 2.0, 5, seed=102)
    flow_err = max(t.u_error for t in traces)
    ok = (abs(mass) < 1e-10 and u_err < 1e-8 and drep.max_defect < 1e-6
          and drep.ortho_l1 < 1e-6 and pyth < 1e-6 and flow_err < 1e-6)
    assert criterion(1, ok,
                     f"flat exactness: |m|={abs(mass):.1e}, u err={u_err:.1e}, "
                     f"defects dist={drep.max_defect:.1e} pyth={pyth:.1e} "
                     f"flow={flow_err:.1e}")


def test_criterion_02_schwarzschild_mass(criterion, schw_charts):
    errs = {}
    for m in (0.05, 0.1, 0.2):
        rep = adm_mass(schw_charts[m], (20.0, 40.0, 80.0))
        errs[m] = abs(rep.extrapolated - m) / m
    ok = all(e < 0.005 for e in errs.values())
    assert criterion(2, ok, "ADM mass rel errors " +
                     ", ".join(f"m={m}: {e:.2e}" for m, e in errs.items()))


def test_criterion_03_curvature_oracles(criterion, schw_charts):
    rng = rng_for(33, "curvature-oracle")
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 0.4 + 17.0 * rng.uniform(size=1000) ** (1.0 / 3.0)
    pts = dirs * radii[:, None]
    _, _, scal = ricci_batch(schw_charts[0.2], pts)
    schw_max = float(np.max(np.abs(scal)))

    bump = MetricChart("conformal", {"A": 0.0, "gauss_amp": 0.1, "gauss_width": 1.0},
                       box_halfwidth=100.0)
    phi, syms = sympy_gaussian_phi(0.1, 1.0)
    oracle = sympy_conformal_scalar(phi, syms)
    sample = rng.uniform(-2.0, 2.0, size=(200, 3))
    _, _, scal_b = ricci_batch(bump, sample)
    conf_max = float(np.max(np.abs(scal_b - oracle(*sample.T))))
    ok = schw_max < 1e-8 and conf_max < 1e-9
    assert criterion(3, ok, f"curvature oracles: |R_schw|max={schw_max:.1e}, "
                            f"conformal identity dev={conf_max:.1e}")


def test_criterion_04_harmonic_ode_oracle(criterion, refinement_triples):
    H = harmonic_radial_profile(0.2, PROBE_RADII)
    errs = {}
    for n, triple in refinement_triples.items():
        grid = triple.grid
        c = n // 2
        u = triple.u[0].values
        err = 0.0
        for r, href in zip(PROBE_RADII, H):
            i = int(round((r + 20.0) / grid.h))
            err = max(err, abs(u[i, c, c] - href) / abs(href))
            j = int(round((-r + 20.0) / grid.h))
            err = max(err, abs(u[j, c, c] + href) / abs(href))
        errs[n] = err
    hs = np.array([2.0 * 20.0 / (n - 1) for n in LEVELS])
    evals = np.array([errs[n] for n in LEVELS])
    order = float(np.polyfit(np.log(hs), np.log(evals), 1)[0])
    ok = errs[129] < 1e-3 and order >= 1.8
    assert criterion(4, ok, f"ODE oracle: rel err N=129 {errs[129]:.2e} "
                            f"(x-axis probes), observed order {order:.2f}")


def test_criterion_05_mass_inequality_richardson(criterion, schw_charts,
                                                  schw_triples,
                                                  refinement_triples, masses):
    # three-level Richardson at m = 0.2, two-level support at smaller masses
    slacks = []
    for n in LEVELS:
        triple = refinement_triples[n]
        rep = mass_inequality_rhs(triple, 0, mass=masses[0.2],
                                  eps_grad=1e-6 * triple.grad_sup)
        slacks.append(rep.slack)
    hs = [2.0 * 20.0 / (n - 1) for n in LEVELS]
    extr, band = richardson_slack(slacks, hs)
    ok = extr >= -band
    details = [f"m=0.2: slack->{extr:.4f} band {band:.4f}"]
    for m in (0.1, 0.05):
        chart = schw_charts[m]
        t33, t65 = single_axis_triple(chart, Grid(20.0, 33)), schw_triples[m]
        s33 = mass_inequality_rhs(t33, 0, mass=masses[m],
                                  eps_grad=1e-6 * t33.grad_sup).slack
        s65 = mass_inequality_rhs(t65, 0, mass=masses[m],
                                  eps_grad=1e-6 * t65.grad_sup).slack
        e2, b2 = richardson_slack([s33, s65], [20.0 / 16, 20.0 / 32])
        ok = ok and e2 >= -b2
        details.append(f"m={m}: {e2:.4f}+-{b2:.4f}")
    assert criterion(5, ok, "Richardson slack >= 0: " + "; ".join(details))


def test_criterion_06_hessian_l2_bound(criterion, schw_triples, masses):
    worst = 0.0
    seq = []
    ok = True
    for m in SWEEP_MASSES:
        triple = schw_triples[m]
        hess = 0.0
        for axis in range(3):
            rep = mass_inequality_rhs(triple, axis, mass=masses[m],
                                      eps_grad=1e-6 * triple.grad_sup)
            bound = 16.0 * np.pi * rep.grad_sup * rep.mass * 1.1
            worst = max(worst, rep.hessian_l2 / bound)
            ok = ok and rep.hessian_l2 <= bound
            hess = max(hess, rep.hessian_l2)
        seq.append(hess)
    monotone = all(a > b for a, b in zip(seq, seq[1:]))
    ok = ok and monotone
    assert criterion(6, ok, f"hessian L2 bound: worst ratio {worst:.3f}, "
                            f"monotone over m-sweep: {monotone}")


def test_criterion_07_bishop_gromov(criterion, flat_field_81, schw_charts):
    radii = [1.5, 2.0, 2.5, 3.0, 4.0, 5.0]
    p = (2.0, 0.0, 0.0)
    r_flat = bishop_gromov_check(flat_field_81, radii, 0.1)
    flat_ok = bool(np.all(np.diff(r_flat) / r_flat[:-1] < 0.01))

    chart = schw_charts[0.2]
    cert = certify_hypotheses(chart, VolumeSampling(n_points=600, seed=77))
    field_s = DistanceField(chart, p, 7.0, nodes=81)
    r_schw = bishop_gromov_check(field_s, radii, cert.ricci_kappa)
    schw_ok = bool(np.all(np.diff(r_schw) / r_schw[:-1] < 0.01))
    ok = flat_ok and schw_ok
    assert criterion(7, ok, f"Bishop-Gromov nonincreasing: flat(k=0.1) {flat_ok}, "
                            f"schwarzschild(k={cert.ricci_kappa:.2f}) {schw_ok}")


def test_criterion_08_pythagorean_sweep(criterion, flat_chart, flat_triple,
                                        schw_charts, schw_triples):
    def median_defect(chart, triple, n_pairs=50):
        pts = sample_geodesic_ball(chart, triple, 3.0, 2 * n_pairs,
                                   seed=808, label="acc-pyth")
        recs = pythagorean_records(chart, triple, pts[:n_pairs],
                                   pts[n_pairs:2 * n_pairs],
                                   [k % 3 for k in range(n_pairs)],
                                   [9000 + k for k in range(n_pairs)])
        return float(np.median(defects(recs)))

    medians = [median_defect(schw_charts[m], schw_triples[m]) for m in SWEEP_MASSES]
    flat_med = median_defect(flat_chart, flat_triple, n_pairs=10)
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    ok = monotone and flat_med < 1e-6
    assert criterion(8, ok, "pythagorean medians " +
                     " > ".join(f"{v:.4f}" for v in medians)
                     + f" (monotone {monotone}), flat {flat_med:.1e}")


def test_criterion_09_gh_distortion_sweep(criterion, schw_charts, schw_triples,
                                          schw_ball_fields):
    p50s, p90s = [], []
    for m in SWEEP_MASSES:
        rep = gh_distortion(schw_charts[m], schw_triples[m], 3.0, 200, seed=909,
                            dist_field=schw_ball_fields[m])
        assert rep.n_failed_pairs <= 2
        p50s.append(rep.defect_p50)
        p90s.append(rep.defect_p90)
    mono = (all(a > b for a, b in zip(p50s, p50s[1:]))
            and all(a > b for a, b in zip(p90s, p90s[1:])))

    # radial pair on grid nodes against the closed-form radial distance
    chart, triple = schw_charts[0.1], schw_triples[0.1]
    x, y = np.array([2.5, 0.0, 0.0]), np.array([5.0, 0.0, 0.0])
    d, _, _, conv = distance_batch(chart, x[None], y[None])
    assert conv[0]
    d_bvp = float(d[0])
    d_closed = schwarzschild_radial_arclength(0.1, 2.5, 5.0)
    du = np.linalg.norm(triple.u_map(x) - triple.u_map(y))
    radial_dev = abs(abs(d_bvp - du) - abs(d_closed - du))
    ok = mono and radial_dev < 1e-3
    assert criterion(9, ok, "distortion p50 " +
                     " > ".join(f"{v:.4f}" for v in p50s)
                     + f"; radial defect dev {radial_dev:.1e}")


def test_criterion_10_surjectivity_flows(criterion, flat_chart, flat_triple,
                                         schw_charts, schw_triples):
    maxima = []
    bound_ok = True
    for m in SWEEP_MASSES:
        triple = schw_triples[m]
        traces, _ = flow_coverage(schw_charts[m], triple, 2.0, 20, seed=1010)
        maxima.append(max(t.u_error for t in traces))
        for t in traces:
            for leg in range(3):
                bound = triple.grad_sup * abs(t.times[leg]) * 1.001 + 1e-12
                bound_ok = bound_ok and t.displacements[leg] <= bound
    flat_traces, _ = flow_coverage(flat_chart, flat_triple, 2.0, 5, seed=1010)
    flat_err = max(t.u_error for t in flat_traces)
    mono = all(a > b for a, b in zip(maxima, maxima[1:]))
    ok = mono and flat_err < 1e-6 and bound_ok
    assert criterion(10, ok, "flow errors " + " > ".join(f"{v:.4f}" for v in maxima)
                     + f", flat {flat_err:.1e}, displacement bound {bound_ok}")


def test_criterion_11_relaxed_certificate(criterion, flat_chart, schw_charts,
                                          desk_grid):
    zero = VectorFieldSpec("zero")
    flat_psi = certificate(flat_chart, zero, desk_grid).psi_l1
    schw_psi = certificate(schw_charts[0.1], zero, desk_grid).psi_l1

    def bump_chart(c):
        return MetricChart("perturbed",
                           {"A": 0.0, "bumps": [{"amplitude": c,
                                                 "center": (0.0, 0.0, 0.0),
                                                 "width": 6.0}]},
                           box_halfwidth=100.0)

    amps = np.array([0.08, 0.04, 0.02, 0.01])
    psi = np.array([certificate(bump_chart(c), zero, desk_grid).psi_l1 for c in amps])
    slope = float(np.polyfit(amps, psi, 1)[0])
    oracle = 8.0 * bump_positive_laplacian_integral(6.0)
    slope_dev = abs(slope - oracle) / oracle
    ok = flat_psi < 1e-12 and schw_psi < 1e-12 and slope_dev < 0.1
    assert criterion(11, ok, f"psi: flat {flat_psi:.1e}, schw {schw_psi:.1e}, "
                             f"bump slope {slope:.2f} vs oracle {oracle:.2f} "
                             f"({slope_dev:.1%})")


def test_criterion_12_determinism(criterion, tmp_path):
    cfg = config_from_dict({
        "family": {"tag": "schwarzschild", "params": {"m": 0.2},
                   "box_halfwidth": 100.0},
        "grid": {"nodes": 33, "halfwidth": 20.0},
        "sampling": {"seed": 4242, "n_pairs": 12, "n_targets": 3,
                     "n_pythagoras_pairs": 4, "eikonal_nodes": 41,
                     "ball_radius": 2.5, "target_radius": 1.5},
        "sweep": {"parameter": "m", "values": [0.2, 0.1, 0.05]},
    })
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code, _ = run("sweep", cfg, out_dir=out)
        assert code == 0
        outs.append(out)
    mismatched = []
    names = sorted(f for f in os.listdir(outs[0]) if f != "manifest.json")
    for name in names:
        if sha256_file(outs[0] / name) != sha256_file(outs[1] / name):
            mismatched.append(name)
    m1 = json.loads((outs[0] / "manifest.json").read_text())
    m2 = json.loads((outs[1] / "manifest.json").read_text())
    ok = not mismatched and m1["artifacts"] == m2["artifacts"]
    assert criterion(12, ok, f"byte-identical sweep outputs: {len(names)} files"
                     + (f", mismatches {mismatched}" if mismatched else ""))
