"""Command-line harness: configuration, orchestration, persistence.

    afstab <subcommand> --config <path> [--out <dir>] [--threads <n>]
           [--seed <int override>]

Subcommands: check-af, mass, harmonic, inequality, pythagoras, distort,
flow, sweep.  Every run writes JSON/CSV reports plus a manifest (written
last) listing a content hash for each artifact; reruns with the same
config and seed reproduce every non-manifest artifact byte for byte.
"""

import argparse
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig, parse_config
from .errors import AfstabError, NoConvergence
from .geodesy import (DistanceField, bishop_gromov_check, pythagorean_records,
                      write_pythagorean_csv)
from .geometry import SphereSampling, VolumeSampling, certify_hypotheses, \
    verify_asymptotic_flatness
from .gh import (StabilityReport, flow_coverage, gh_distortion,
                 sample_geodesic_ball, write_master_csv, write_stability_json)
from .grid import read_field, write_axis_profiles, write_field
from .harmonic import build_harmonic_triple, cheng_yau_ratio, triple_from_solutions
from .inequality import (VectorFieldSpec, mass_inequality_rhs, refined_kato_check,
                         relaxed_scalar_certificate, write_inequality_csv)
from .mass import adm_mass, scalar_curvature_l1
from .reporting import RunManifest, config_hash, write_json


def _sphere_spec(cfg: ExperimentConfig) -> SphereSampling:
    lo = max(2.0, cfg.family.excision_radius + 1.0)
    hi = 0.9 * cfg.family.box_halfwidth
    return SphereSampling(radii=tuple(np.geomspace(lo, hi, 8)),
                          n_per_sphere=48, seed=cfg.sampling.seed)


def _volume_spec(cfg: ExperimentConfig) -> VolumeSampling:
    ct = cfg.certificate
    return VolumeSampling(n_points=ct.n_sample_points, r_min=ct.sample_r_min,
                          r_max=ct.sample_r_max, seed=cfg.sampling.seed)


def _x_spec(cfg: ExperimentConfig) -> VectorFieldSpec:
    xf = dict(cfg.certificate.x_field)
    kind = xf.get("kind", "zero")
    if kind == "zero":
        return VectorFieldSpec(kind="zero")
    return VectorFieldSpec(kind="gradient_bump",
                           amplitude=float(xf.get("amplitude", 0.0)),
                           center=tuple(xf.get("center", (0.0, 0.0, 0.0))),
                           width=float(xf.get("width", 1.0)))


def _chart_sidecar(cfg: ExperimentConfig, chart) -> dict:
    return {"family": chart.family, "params": chart.params,
            "box_halfwidth": chart.box_halfwidth,
            "excision_radius": chart.excision_radius,
            "decay_b": chart.decay_b, "decay_tau": chart.decay_tau,
            "base_point": list(chart.base_point),
            "grid_nodes": cfg.grid.nodes, "grid_halfwidth": cfg.grid.halfwidth,
            "bc": cfg.grid.bc, "normalization": cfg.solver.normalization,
            "config_hash": config_hash(cfg)}


def _solve_triple(cfg: ExperimentConfig, chart=None):
    chart = cfg.chart() if chart is None else chart
    return build_harmonic_triple(chart, cfg.make_grid(), bc=cfg.grid.bc,
                                 tol=cfg.solver.tol, method=cfg.solver.method,
                                 max_iter=cfg.solver.max_iter,
                                 normalization=cfg.solver.normalization)


def _load_or_solve_triple(cfg: ExperimentConfig, out_dir):
    """Reuse this run directory's field dumps when they match the config."""
    import json as _json

    chart = cfg.chart()
    paths = [os.path.join(out_dir, f"u{i + 1}.field") for i in range(3)]
    sidecars = [p + ".json" for p in paths]
    if all(os.path.exists(p) for p in paths + sidecars):
        expected = _chart_sidecar(cfg, chart)
        with open(sidecars[0]) as f:
            found = _json.load(f)
        if found == expected:
            fields = [read_field(p) for p in paths]
            return triple_from_solutions(chart, cfg.make_grid(), fields,
                                         bc=cfg.grid.bc,
                                         normalization=cfg.solver.normalization), True
    return _solve_triple(cfg, chart), False


# ---------------------------------------------------------------------------
# stage pipelines (each returns (ok, payload) and writes its artifacts)


def stage_check_af(cfg, out_dir):
    chart = cfg.chart()
    af_ok, fitted_tau, worst = verify_asymptotic_flatness(chart, _sphere_spec(cfg))
    cert = certify_hypotheses(chart, _volume_spec(cfg))
    payload = {"af_ok": bool(af_ok), "fitted_tau": fitted_tau, "worst_ratio": worst,
               "scalar_min": cert.scalar_min, "ricci_kappa": cert.ricci_kappa,
               "witness_points": [list(w) for w in cert.witness_points],
               "scalar_integrability": scalar_curvature_l1(chart)}
    write_json(os.path.join(out_dir, "af_report.json"), payload)
    return bool(af_ok), payload


def stage_mass(cfg, out_dir):
    chart = cfg.chart()
    rep = adm_mass(chart, cfg.mass.radii, fit_exponent=cfg.mass.fit_exponent,
                   n_polar=cfg.mass.quadrature_polar,
                   n_azimuth=cfg.mass.quadrature_azimuth,
                   residual_threshold=cfg.mass.residual_threshold)
    rep.write_json(os.path.join(out_dir, "mass_report.json"))
    rep.write_csv(os.path.join(out_dir, "mass.csv"))
    return True, {"extrapolated": rep.extrapolated}


def stage_harmonic(cfg, out_dir):
    chart = cfg.chart()
    triple = _solve_triple(cfg, chart)
    sidecar = _chart_sidecar(cfg, chart)
    for i, comp in enumerate(triple.components):
        write_field(os.path.join(out_dir, f"u{i + 1}.field"), comp.u, sidecar)
    write_axis_profiles(os.path.join(out_dir, "harmonic_profiles.csv"),
                        {f"u{i + 1}": triple.components[i].u.values for i in range(3)},
                        triple.grid)
    payload = {"residual_norms": list(triple.residual_norms),
               "grad_sup": triple.grad_sup,
               "u_at_p": list(triple.u_at_p),
               "bc": cfg.grid.bc,
               "cheng_yau": [cheng_yau_ratio(triple, i, cfg.sampling.ball_radius)
                             for i in range(3)]}
    write_json(os.path.join(out_dir, "harmonic_report.json"), payload)
    return True, payload


def stage_inequality(cfg, out_dir):
    triple, loaded = _load_or_solve_triple(cfg, out_dir)
    chart = triple.chart
    mass_rep = adm_mass(chart, cfg.mass.radii, fit_exponent=cfg.mass.fit_exponent,
                        n_polar=cfg.mass.quadrature_polar,
                        n_azimuth=cfg.mass.quadrature_azimuth,
                        residual_threshold=cfg.mass.residual_threshold)
    reports = []
    kato = []
    ok = True
    for axis in range(3):
        rep = mass_inequality_rhs(triple, chart, axis,
                                  eps_grad=cfg.solver.eps_grad_factor * triple.grad_sup,
                                  mass=mass_rep.extrapolated)
        lhs, rhs = refined_kato_check(triple, chart, axis)
        ok = ok and lhs <= rhs * (1.0 + 1e-6) + 1e-14
        reports.append(rep)
        kato.append({"lhs": lhs, "rhs": rhs})
    cert = relaxed_scalar_certificate(chart, _x_spec(cfg), triple.grid,
                                      c_coef=cfg.certificate.c_coef)
    payload = {"fields_loaded_from_dump": loaded,
               "mass": mass_rep.extrapolated,
               "axes": [r.to_json_dict() for r in reports],
               "kato": kato,
               "relaxed_certificate": cert.to_json_dict()}
    write_json(os.path.join(out_dir, "inequality_report.json"), payload)
    rows = [(chart.family, chart.params.get("m", chart.params.get("A", 0.0)),
             cfg.grid.nodes, cfg.grid.halfwidth, r.mass, r.rhs_integral,
             r.hessian_l2, r.grad_sup, r.slack, cert.psi_l1) for r in reports]
    write_inequality_csv(os.path.join(out_dir, "inequality.csv"), rows)
    return ok, payload


def _pythagoras_records(cfg, chart, triple):
    """The configured Pythagorean records, in lockstep; returns
    (records, n_failures, ok), ok when failures stay within the 1 % rule."""
    n = cfg.sampling.n_pythagoras_pairs
    pts, _ = sample_geodesic_ball(chart, triple, cfg.sampling.ball_radius, 2 * n,
                                  cfg.sampling.seed, label="pythagoras")
    results = pythagorean_records(chart, triple, pts[:n], pts[n:],
                                  [k % 3 for k in range(n)],
                                  [cfg.sampling.seed + k for k in range(n)],
                                  rho=cfg.rho(), n_mv_samples=cfg.sampling.n_mv_samples)
    records = [r for r in results if not isinstance(r, AfstabError)]
    failures = n - len(records)
    return records, failures, failures <= max(1, n // 100)


def stage_pythagoras(cfg, out_dir):
    triple, _ = _load_or_solve_triple(cfg, out_dir)
    chart = triple.chart
    records, failures, ok = _pythagoras_records(cfg, chart, triple)
    write_pythagorean_csv(os.path.join(out_dir, "pythagoras.csv"), records,
                          chart.family, chart.params.get("m", 0.0))
    defects = [r.defect for r in records]
    payload = {"n_records": len(records), "n_failures": failures,
               "median_defect": float(np.median(defects)) if defects else float("nan"),
               "max_defect": float(np.max(defects)) if defects else float("nan"),
               "median_u_defect_same": float(np.median([r.u_defect_same for r in records]))
               if records else float("nan")}
    write_json(os.path.join(out_dir, "pythagoras_report.json"), payload)
    return ok, payload


def _eikonal_field(cfg, chart):
    r = cfg.sampling.ball_radius
    hw = min(chart.box_halfwidth - float(np.max(np.abs(chart.base_point))),
             max(1.6 * r, r + 2.0))
    return DistanceField(chart, chart.base_point, hw, nodes=cfg.sampling.eikonal_nodes)


def stage_distort(cfg, out_dir):
    triple, _ = _load_or_solve_triple(cfg, out_dir)
    chart = triple.chart
    field = _eikonal_field(cfg, chart)
    rep = gh_distortion(chart, triple, cfg.sampling.ball_radius,
                        cfg.sampling.n_pairs, cfg.sampling.seed, dist_field=field)
    write_json(os.path.join(out_dir, "distortion_report.json"), rep.to_json_dict())
    ok = rep.n_failed_pairs <= max(1, cfg.sampling.n_pairs // 100)
    return ok, rep.to_json_dict()


def stage_flow(cfg, out_dir):
    triple, _ = _load_or_solve_triple(cfg, out_dir)
    chart = triple.chart
    traces, hausdorff = flow_coverage(chart, triple, cfg.sampling.target_radius,
                                      cfg.sampling.n_targets, cfg.sampling.seed,
                                      rho=cfg.rho())
    ok = True
    for tr in traces:
        for leg in range(3):
            bound = triple.grad_sup * abs(tr.times[leg]) * 1.001 + 1e-12
            ok = ok and tr.displacements[leg] <= bound
    payload = {"n_targets": len(traces),
               "image_hausdorff": hausdorff,
               "flow_err_max": max(tr.u_error for tr in traces) if traces else 0.0,
               "displacement_bound_ok": ok}
    write_json(os.path.join(out_dir, "flow_report.json"), payload)
    write_json(os.path.join(out_dir, "flow_traces.json"),
               {"traces": [tr.to_polyline_dict() for tr in traces]})
    return ok, payload


def _sweep_point(cfg_point: ExperimentConfig, out_dir, tag: str):
    """All stages for one sweep parameter value; failures tag the report."""
    chart = cfg_point.chart()
    rep = StabilityReport(family=chart.family, parameter=float(
        chart.params.get(cfg_point.sweep.parameter, 0.0)),
        N=cfg_point.grid.nodes, R_out=cfg_point.grid.halfwidth)

    def run_stage(name, fn):
        try:
            fn()
            rep.stages[name] = "ok"
        except Exception as exc:   # noqa: BLE001 - stage tag, sweep continues
            rep.stages[name] = f"failed: {type(exc).__name__}: {exc}"

    def s_certify():
        cert = certify_hypotheses(chart, _volume_spec(cfg_point))
        rep.ricci_kappa = cert.ricci_kappa
        rep.scalar_min = cert.scalar_min
        rep.af_ok = cert.af_ok

    def s_mass():
        rep.mass = adm_mass(chart, cfg_point.mass.radii,
                            fit_exponent=cfg_point.mass.fit_exponent,
                            n_polar=cfg_point.mass.quadrature_polar,
                            n_azimuth=cfg_point.mass.quadrature_azimuth,
                            residual_threshold=cfg_point.mass.residual_threshold
                            ).extrapolated

    state = {}

    def s_triple():
        state["triple"] = _solve_triple(cfg_point, chart)
        rep.grad_sup = state["triple"].grad_sup
        rep.residual_norms = state["triple"].residual_norms
        rep.cheng_yau = cheng_yau_ratio(state["triple"], 0,
                                        cfg_point.sampling.ball_radius)

    def s_inequality():
        triple = state["triple"]
        hess = grad = slack = rhs = -np.inf
        for axis in range(3):
            r = mass_inequality_rhs(
                triple, chart, axis,
                eps_grad=cfg_point.solver.eps_grad_factor * triple.grad_sup,
                mass=rep.mass)
            hess = max(hess, r.hessian_l2)
            rhs = max(rhs, r.rhs_integral)
            slack = rep.mass - rhs
        rep.hessian_l2 = hess
        rep.rhs_integral = rhs
        rep.slack = slack

    def s_certificate():
        rep.psi_l1 = relaxed_scalar_certificate(
            chart, _x_spec(cfg_point), state["triple"].grid,
            c_coef=cfg_point.certificate.c_coef).psi_l1

    def s_distort():
        field = _eikonal_field(cfg_point, chart)
        d = gh_distortion(chart, state["triple"], cfg_point.sampling.ball_radius,
                          cfg_point.sampling.n_pairs, cfg_point.sampling.seed,
                          dist_field=field)
        rep.ortho_l1 = d.ortho_l1
        rep.defect_p50 = d.defect_p50
        rep.defect_p90 = d.defect_p90
        rep.defect_max = d.max_defect

    def s_pythagoras():
        n = cfg_point.sampling.n_pythagoras_pairs
        records, failures, ok = _pythagoras_records(cfg_point, chart, state["triple"])
        if not ok:
            raise NoConvergence(f"{failures} of {n} Pythagorean records failed")
        defects = [r.defect for r in records]
        rep.pythagorean_median = float(np.median(defects)) if defects else float("nan")

    def s_flow():
        traces, hausdorff = flow_coverage(
            chart, state["triple"], cfg_point.sampling.target_radius,
            cfg_point.sampling.n_targets, cfg_point.sampling.seed,
            rho=cfg_point.rho())
        rep.image_hausdorff = hausdorff
        rep.flow_err_max = max(tr.u_error for tr in traces) if traces else 0.0

    run_stage("certify", s_certify)
    run_stage("mass", s_mass)
    run_stage("harmonic", s_triple)
    if "triple" in state:
        run_stage("inequality", s_inequality)
        run_stage("certificate", s_certificate)
        run_stage("distortion", s_distort)
        run_stage("pythagoras", s_pythagoras)
        run_stage("flow", s_flow)
    write_stability_json(os.path.join(out_dir, f"stability_{tag}.json"), rep)
    return rep


def stage_sweep(cfg, out_dir, threads: int = 1):
    values = cfg.sweep.values
    if len(values) < 3:
        raise AfstabError("sweep requires at least 3 parameter values")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise AfstabError("sweep values must be strictly decreasing")
    points = []
    for val in values:
        params = dict(cfg.family.params)
        params[cfg.sweep.parameter] = val
        points.append(replace(cfg, family=replace(cfg.family, params=params)))
    tags = [f"{cfg.sweep.parameter}{val:g}" for val in values]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(lambda pt: _sweep_point(pt[0], out_dir, pt[1]),
                                    zip(points, tags)))
    else:
        reports = [_sweep_point(pt, out_dir, tag) for pt, tag in zip(points, tags)]
    write_master_csv(os.path.join(out_dir, "sweep.csv"), reports)
    write_inequality_csv(os.path.join(out_dir, "inequality_sweep.csv"),
                         [(rep.family, rep.parameter, rep.N, rep.R_out, rep.mass,
                           rep.rhs_integral, rep.hessian_l2, rep.grad_sup,
                           rep.slack, rep.psi_l1) for rep in reports])
    ok = all(all(v == "ok" for v in rep.stages.values()) for rep in reports)
    trends = {}
    for col in ("mass", "hessian_l2", "ortho_l1", "defect_p50", "flow_err_max"):
        seq = [getattr(rep, col) for rep in reports]
        trends[col] = bool(np.all(np.diff(seq) < 0.0))
    payload = {"values": list(values), "monotone_decreasing": trends,
               "all_stages_ok": ok}
    write_json(os.path.join(out_dir, "sweep_summary.json"), payload)
    return ok and all(trends.values()), payload


# the sweep orchestration is the stability_sweep operation; it lives here
# because it composes every other module's pipeline
stability_sweep = stage_sweep

STAGES = {
    "check-af": stage_check_af,
    "mass": stage_mass,
    "harmonic": stage_harmonic,
    "inequality": stage_inequality,
    "pythagoras": stage_pythagoras,
    "distort": stage_distort,
    "flow": stage_flow,
}


def run(subcommand: str, cfg: ExperimentConfig, out_dir=None, threads: int = 1):
    """Execute one subcommand pipeline; returns (exit_code, manifest)."""
    out_dir = cfg.output.directory if out_dir is None else str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.json"), "w") as f:
        f.write(cfg.to_json())
    manifest = RunManifest(cfg, out_dir)
    ok = False
    try:
        if subcommand == "sweep":
            ok, payload = stage_sweep(cfg, out_dir, threads=threads)
        elif subcommand in STAGES:
            ok, payload = STAGES[subcommand](cfg, out_dir)
        else:
            raise AfstabError(f"unknown subcommand {subcommand!r}")
        manifest.stage(subcommand, "ok" if ok else "assertion-failed")
    except Exception as exc:   # noqa: BLE001 - any failure is a recorded stage
        if not isinstance(exc, AfstabError):
            logging.getLogger(__name__).exception("afstab %s raised", subcommand)
        manifest.stage(subcommand, f"failed: {type(exc).__name__}: {exc}")
        payload = {"error": str(exc)}
    summary = [f"afstab {subcommand}: {'ok' if ok else 'FAILED'}"]
    for k, v in sorted(payload.items()):
        summary.append(f"  {k}: {v}")
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(summary) + "\n")
    manifest.finish()
    return (0 if ok else 1), manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afstab",
        description="stability experiments for asymptotically flat 3-metrics")
    parser.add_argument("subcommand", choices=sorted(STAGES) + ["sweep"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except AfstabError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = replace(cfg, sampling=replace(cfg.sampling, seed=args.seed))
    code, manifest = run(args.subcommand, cfg, out_dir=args.out,
                         threads=args.threads)
    status = manifest.data["stages"].get(args.subcommand, "?")
    print(f"afstab {args.subcommand}: {status} "
          f"(artifacts: {len(manifest.data['artifacts'])})")
    return code


if __name__ == "__main__":
    sys.exit(main())
