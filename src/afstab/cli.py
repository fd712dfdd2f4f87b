"""Command-line harness: configuration, orchestration, persistence.

    afstab <subcommand> --config <path> [--out <dir>] [--seed <int override>]

Subcommands: check-af, mass, harmonic, inequality, pythagoras, distort,
flow, sweep.  Every run writes JSON/CSV reports plus a manifest (written
last) listing a content hash for each artifact; reruns with the same
config and seed reproduce every non-manifest artifact byte for byte.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .config import ExperimentConfig, parse_config
from .errors import AfstabError, BadFieldDump
from .geodesy import pythagorean_records
from .geometry import VolumeSampling, certify_hypotheses
from .gh import (StabilityReport, ball_distance_field, flow_coverage, gh_distortion,
                 sample_geodesic_ball)
from .grid import read_field, write_field
from .harmonic import build_harmonic_triple, cheng_yau_ratio, triple_from_solutions
from .inequality import (EPS_GRAD_FACTOR, VectorFieldSpec, mass_inequality_rhs,
                         refined_kato_check, relaxed_scalar_certificate)
from .mass import adm_mass, scalar_curvature_l1
from .reporting import RunManifest, config_hash, write_csv, write_json, write_summary


def _chart_sidecar(cfg: ExperimentConfig, chart) -> dict:
    return {"family": chart.family, "params": chart.params,
            "box_halfwidth": chart.box_halfwidth,
            "decay_b": chart.decay_b, "decay_tau": chart.decay_tau,
            "base_point": list(chart.base_point),
            "grid_nodes": cfg.grid.nodes, "grid_halfwidth": cfg.grid.halfwidth,
            "bc": cfg.grid.bc, "config_hash": config_hash(cfg)}


def _solve_triple(cfg: ExperimentConfig, chart):
    return build_harmonic_triple(chart, cfg.make_grid(), bc=cfg.grid.bc,
                                 tol=cfg.solver.tol, max_iter=cfg.solver.max_iter)


def _sidecar_matches(path, expected: dict) -> bool:
    """Whether a field-dump sidecar holds `expected`; raises BadFieldDump,
    naming the sidecar, when it is not JSON."""
    with open(path) as f:
        try:
            sidecar = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadFieldDump(f"{path}: sidecar is not valid JSON ({exc})") from None
    return sidecar == expected


def _load_or_solve_triple(cfg: ExperimentConfig, out_dir, chart):
    """Reuse this run directory's field dumps when they match the config.

    u1's sidecar decides whether the dumps belong to this config; u2's and
    u3's must then match it too, or BadFieldDump names the first that does
    not (a `harmonic` run stopped between dumps leaves a mixed triple).
    """
    paths = [os.path.join(out_dir, f"u{i + 1}.field") for i in range(3)]
    sidecars = [p + ".json" for p in paths]
    if all(os.path.exists(p) for p in paths + sidecars):
        expected = _chart_sidecar(cfg, chart)
        if _sidecar_matches(sidecars[0], expected):
            for path in sidecars[1:]:
                if not _sidecar_matches(path, expected):
                    raise BadFieldDump(f"{path}: sidecar differs from u1.field.json; "
                                       "the field dumps come from different runs")
            fields = [read_field(p) for p in paths]
            return triple_from_solutions(chart, cfg.make_grid(), fields), True
    return _solve_triple(cfg, chart), False


def _cached(fn):
    """A cached property that also keeps a raised exception and re-raises it
    on every read, so a failed input is never computed twice."""
    def get(ctx):
        if fn.__name__ not in ctx.results:
            try:
                ctx.results[fn.__name__] = fn(ctx), None
            except Exception as exc:   # noqa: BLE001 - re-raised on every read
                ctx.results[fn.__name__] = None, exc
        value, exc = ctx.results[fn.__name__]
        if exc is not None:
            raise exc
        return value
    return property(get, doc=fn.__doc__)


class RunContext:
    """One run's config and output directory, plus the values its stages
    share, each computed (or failed) on first use.

    With reuse_dumps (the single stages) the triple comes from matching
    field dumps in out_dir when there are any; without it (`harmonic` and
    sweep points) the triple is always solved.
    """

    def __init__(self, cfg: ExperimentConfig, out_dir, reuse_dumps: bool = True):
        self.cfg = cfg
        self.out_dir = out_dir
        self.reuse_dumps = reuse_dumps
        self.loaded_from_dump = False
        self.results = {}

    @_cached
    def chart(self):
        return self.cfg.chart()

    @_cached
    def triple(self):
        if not self.reuse_dumps:
            return _solve_triple(self.cfg, self.chart)
        triple, self.loaded_from_dump = _load_or_solve_triple(self.cfg, self.out_dir,
                                                              self.chart)
        return triple

    @_cached
    def mass_report(self):
        return adm_mass(self.chart, self.cfg.mass.radii)

    @_cached
    def eikonal_field(self):
        s = self.cfg.sampling
        return ball_distance_field(self.chart, s.ball_radius, s.eikonal_nodes)


# ---------------------------------------------------------------------------
# the quantities of the chain, each computed one way for the single stages
# and the sweep; each returns (result, ok), its verdict rule written once


def _hypotheses(ctx: RunContext):
    """The hypothesis certificate; ok when the metric decays as declared."""
    cert = certify_hypotheses(ctx.chart, VolumeSampling(seed=ctx.cfg.sampling.seed))
    return cert, cert.af_ok


def _harmonic(ctx: RunContext):
    """The triple and its Cheng-Yau ratio per axis."""
    triple, r = ctx.triple, ctx.cfg.sampling.ball_radius
    return (triple, [cheng_yau_ratio(triple, i, r) for i in range(3)]), True


def _inequality(ctx: RunContext):
    """The mass-inequality report against the fitted ADM mass and the refined
    Kato check (lhs, rhs), per axis, and the relaxed scalar-curvature
    certificate; ok when every axis passes the check."""
    triple, chart, mass = ctx.triple, ctx.chart, ctx.mass_report.extrapolated
    eps_grad = EPS_GRAD_FACTOR * triple.grad_sup
    reports = [mass_inequality_rhs(triple, axis, mass, eps_grad=eps_grad)
               for axis in range(3)]
    kato = [refined_kato_check(triple, axis, eps_grad=eps_grad) for axis in range(3)]
    cert = relaxed_scalar_certificate(chart, VectorFieldSpec(**ctx.cfg.certificate.x_field),
                                      triple.grid, triple.scalar_curvature,
                                      c_coef=ctx.cfg.certificate.c_coef)
    ok = all(lhs <= rhs * (1.0 + 1e-6) + 1e-14 for lhs, rhs in kato)
    return (reports, kato, cert), ok


def _distortion(ctx: RunContext):
    """The distortion report; ok when failed pairs stay within the 1 % rule."""
    s = ctx.cfg.sampling
    rep = gh_distortion(ctx.chart, ctx.triple, s.ball_radius, s.n_pairs, s.seed,
                        dist_field=ctx.eikonal_field)
    return rep, rep.n_failed_pairs <= max(1, s.n_pairs // 100)


def _pythagoras(ctx: RunContext):
    """The configured Pythagorean records, in lockstep, and the number that
    failed; ok when failures stay within the 1 % rule."""
    s = ctx.cfg.sampling
    n = s.n_pythagoras_pairs
    pts = sample_geodesic_ball(ctx.chart, ctx.triple, s.ball_radius, 2 * n, s.seed,
                               label="pythagoras")
    results = pythagorean_records(ctx.chart, ctx.triple, pts[:n], pts[n:],
                                  [k % 3 for k in range(n)],
                                  [s.seed + k for k in range(n)])
    records = [r for r in results if not isinstance(r, AfstabError)]
    failures = n - len(records)
    return (records, failures), failures <= max(1, n // 100)


def _flows(ctx: RunContext):
    """Flow traces to the configured targets and their image Hausdorff
    distance, the largest u error of a trace end; ok when no leg moves
    further than grad_sup * |t|."""
    s, grad_sup = ctx.cfg.sampling, ctx.triple.grad_sup
    traces, hausdorff = flow_coverage(ctx.chart, ctx.triple, s.target_radius,
                                      s.n_targets, s.seed)
    ok = all(tr.displacements[leg] <= grad_sup * abs(tr.times[leg]) * 1.001 + 1e-12
             for tr in traces for leg in range(3))
    return (traces, hausdorff), ok


def _median(values) -> float:
    return float(np.median(values)) if values else float("nan")


def _status(ok: bool) -> str:
    return "ok" if ok else "assertion-failed"


def _failure(name: str, exc: Exception) -> str:
    """The status of a stage that raised exc; a non-afstab error is logged."""
    if not isinstance(exc, AfstabError):
        logging.getLogger(__name__).error("afstab %s raised", name, exc_info=exc)
    return f"failed: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# stage pipelines (each returns (ok, payload) and writes its artifacts)


def stage_check_af(cfg, out_dir):
    ctx = RunContext(cfg, out_dir)
    cert, ok = _hypotheses(ctx)
    payload = {"af_ok": cert.af_ok, "fitted_tau": cert.fitted_tau,
               "worst_ratio": cert.worst_ratio, "scalar_min": cert.scalar_min,
               "ricci_kappa": cert.ricci_kappa,
               "witness_points": [list(w) for w in cert.witness_points],
               "scalar_integrability": scalar_curvature_l1(ctx.chart)}
    write_json(os.path.join(out_dir, "af_report.json"), payload)
    return ok, payload


def stage_mass(cfg, out_dir):
    rep = RunContext(cfg, out_dir).mass_report
    write_json(os.path.join(out_dir, "mass_report.json"), asdict(rep))
    write_csv(os.path.join(out_dir, "mass.csv"), ["r", "m_r", "abs_err_vs_extrapolated"],
              [(r, m_r, abs(m_r - rep.extrapolated))
               for r, m_r in zip(rep.radii, rep.raw_values)])
    return True, {"extrapolated": rep.extrapolated}


def stage_harmonic(cfg, out_dir):
    ctx = RunContext(cfg, out_dir, reuse_dumps=False)
    (triple, cheng_yau), ok = _harmonic(ctx)
    sidecar = _chart_sidecar(cfg, ctx.chart)
    for i, u in enumerate(triple.u):
        write_field(os.path.join(out_dir, f"u{i + 1}.field"), u, sidecar)
    # u1, u2, u3 along the three coordinate axes through the box center
    c = triple.grid.nodes // 2
    probes = {"x": np.s_[:, c, c], "y": np.s_[c, :, c], "z": np.s_[c, c, :]}
    write_csv(os.path.join(out_dir, "harmonic_profiles.csv"),
              ["axis", "coord", "u1", "u2", "u3"],
              [(name, float(coord), *(float(u.values[probe][i]) for u in triple.u))
               for name, probe in probes.items()
               for i, coord in enumerate(triple.grid.axis)])
    payload = {"residual_norms": list(triple.residual_norms),
               "grad_sup": triple.grad_sup,
               "u_at_p": list(triple.u_at_p),
               "bc": cfg.grid.bc,
               "cheng_yau": cheng_yau}
    write_json(os.path.join(out_dir, "harmonic_report.json"), payload)
    return ok, payload


def _family_parameter(chart) -> float:
    """The family's parameter in the CSVs' `m` column: m, else A, else 0."""
    return float(chart.params.get("m", chart.params.get("A", 0.0)))


_INEQUALITY_CSV_HEADER = ["family", "m", "N", "R_out", "mass", "rhs_integral",
                         "hessian_l2", "grad_sup", "slack", "psi_l1"]


def stage_inequality(cfg, out_dir):
    ctx = RunContext(cfg, out_dir)
    (reports, kato, cert), ok = _inequality(ctx)
    chart = ctx.chart
    payload = {"fields_loaded_from_dump": ctx.loaded_from_dump,
               "mass": ctx.mass_report.extrapolated,
               "axes": [asdict(r) for r in reports],
               "kato": [{"lhs": lhs, "rhs": rhs} for lhs, rhs in kato],
               "relaxed_certificate": asdict(cert)}
    write_json(os.path.join(out_dir, "inequality_report.json"), payload)
    write_csv(os.path.join(out_dir, "inequality.csv"), _INEQUALITY_CSV_HEADER,
              [(chart.family, _family_parameter(chart), cfg.grid.nodes,
                cfg.grid.halfwidth, r.mass, r.rhs_integral, r.hessian_l2, r.grad_sup,
                r.slack, cert.psi_l1) for r in reports])
    return ok, payload


def _point(x) -> str:
    return ";".join(repr(float(c)) for c in x)


def stage_pythagoras(cfg, out_dir):
    ctx = RunContext(cfg, out_dir)
    (records, failures), ok = _pythagoras(ctx)
    m = _family_parameter(ctx.chart)
    write_csv(os.path.join(out_dir, "pythagoras.csv"),
              ["family", "m", "i", "x", "y", "z", "defect", "u_defect_same",
               "u_defect_cross", "d_xy", "d_xz", "d_yz"],
              [(ctx.chart.family, m, r.axis, _point(r.x), _point(r.y), _point(r.z),
                r.defect, r.u_defect_same, r.u_defect_cross, r.d_xy, r.d_xz, r.d_yz)
               for r in records])
    defects = [r.defect for r in records]
    payload = {"n_records": len(records), "n_failures": failures,
               "median_defect": _median(defects),
               "max_defect": float(np.max(defects)) if defects else float("nan"),
               "median_u_defect_same": _median([r.u_defect_same for r in records])}
    write_json(os.path.join(out_dir, "pythagoras_report.json"), payload)
    return ok, payload


def stage_distort(cfg, out_dir):
    rep, ok = _distortion(RunContext(cfg, out_dir))
    payload = asdict(rep)
    write_json(os.path.join(out_dir, "distortion_report.json"), payload)
    return ok, payload


def stage_flow(cfg, out_dir):
    (traces, hausdorff), ok = _flows(RunContext(cfg, out_dir))
    payload = {"n_targets": len(traces),
               "image_hausdorff": hausdorff,
               "displacement_bound_ok": ok}
    write_json(os.path.join(out_dir, "flow_report.json"), payload)
    write_json(os.path.join(out_dir, "flow_traces.json"),
               {"traces": [tr.to_polyline_dict() for tr in traces]})
    return ok, payload


# sweep stage tag, its quantity, and the report fields it fills from the result
_SWEEP_STAGES = (
    ("certify", _hypotheses, lambda c: {
        "ricci_kappa": c.ricci_kappa, "scalar_min": c.scalar_min, "af_ok": c.af_ok}),
    ("mass", lambda ctx: (ctx.mass_report, True), lambda m: {"mass": m.extrapolated}),
    ("harmonic", _harmonic, lambda h: {"grad_sup": h[0].grad_sup, "cheng_yau": h[1][0],
                                       "residual_norms": h[0].residual_norms}),
    ("inequality", _inequality, lambda ineq: {
        "hessian_l2": max(r.hessian_l2 for r in ineq[0]),
        "rhs_integral": max(r.rhs_integral for r in ineq[0]),
        "slack": min(r.slack for r in ineq[0]), "psi_l1": ineq[2].psi_l1}),
    ("distortion", _distortion, lambda d: {
        "ortho_l1": d.ortho_l1, "defect_p50": d.defect_p50,
        "defect_p90": d.defect_p90, "defect_max": d.max_defect}),
    ("pythagoras", _pythagoras, lambda p: {
        "pythagorean_median": _median([r.defect for r in p[0]])}),
    ("flow", _flows, lambda f: {"image_hausdorff": f[1]}),
)


def _sweep_point(cfg_point: ExperimentConfig, out_dir, tag: str):
    """All stages for one sweep parameter value, always solving the triple.

    Each stage tag (`certify` for `check-af`, `distortion` for `distort`,
    the others by name) gets the status its subcommand writes to the
    manifest, from the same quantity and rule: `ok`, `assertion-failed` or
    `failed: Exc: msg`.  A stage whose input failed carries that input's
    failure.  The report holds the numbers of every stage that returned.
    """
    ctx = RunContext(cfg_point, out_dir, reuse_dumps=False)
    rep = StabilityReport(family=ctx.chart.family, parameter=float(
        ctx.chart.params.get(cfg_point.sweep.parameter, 0.0)),
        N=cfg_point.grid.nodes, R_out=cfg_point.grid.halfwidth)
    for name, quantity, fields in _SWEEP_STAGES:
        try:
            result, ok = quantity(ctx)
            vars(rep).update(fields(result))
            rep.stages[name] = _status(ok)
        except Exception as exc:   # noqa: BLE001 - stage tag, sweep continues
            rep.stages[name] = _failure(name, exc)
    write_json(os.path.join(out_dir, f"stability_{tag}.json"), asdict(rep))
    return rep


def stage_sweep(cfg, out_dir):
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
    reports = [_sweep_point(pt, out_dir, tag) for pt, tag in zip(points, tags)]
    cols = ("mass", "hessian_l2", "grad_sup", "ortho_l1", "defect_p50", "defect_p90",
            "defect_max", "image_hausdorff")
    write_csv(os.path.join(out_dir, "sweep.csv"), ["family", "m", "N", "R_out", *cols],
              [(rep.family, float(rep.parameter), rep.N, float(rep.R_out),
                *(getattr(rep, c) for c in cols)) for rep in reports])
    write_csv(os.path.join(out_dir, "inequality_sweep.csv"), _INEQUALITY_CSV_HEADER,
              [(rep.family, rep.parameter, rep.N, rep.R_out, rep.mass, rep.rhs_integral,
                rep.hessian_l2, rep.grad_sup, rep.slack, rep.psi_l1) for rep in reports])
    ok = all(all(v == "ok" for v in rep.stages.values()) for rep in reports)
    trends = {}
    for col in ("mass", "hessian_l2", "ortho_l1", "defect_p50", "image_hausdorff"):
        seq = [getattr(rep, col) for rep in reports]
        trends[col] = bool(np.all(np.diff(seq) < 0.0))
    payload = {"values": list(values), "monotone_decreasing": trends,
               "all_stages_ok": ok}
    write_json(os.path.join(out_dir, "sweep_summary.json"), payload)
    return ok and all(trends.values()), payload


STAGES = {
    "check-af": stage_check_af,
    "mass": stage_mass,
    "harmonic": stage_harmonic,
    "inequality": stage_inequality,
    "pythagoras": stage_pythagoras,
    "distort": stage_distort,
    "flow": stage_flow,
}


def run(subcommand: str, cfg: ExperimentConfig, out_dir=None):
    """Execute one subcommand pipeline; returns (exit_code, manifest)."""
    out_dir = cfg.output.directory if out_dir is None else str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.json"), "w") as f:
        f.write(cfg.to_json())
    manifest = RunManifest(cfg, out_dir)
    ok = False
    try:
        if subcommand == "sweep":
            ok, payload = stage_sweep(cfg, out_dir)
        elif subcommand in STAGES:
            ok, payload = STAGES[subcommand](cfg, out_dir)
        else:
            raise AfstabError(f"unknown subcommand {subcommand!r}")
        manifest.stage(subcommand, _status(ok))
    except Exception as exc:   # noqa: BLE001 - any failure is a recorded stage
        manifest.stage(subcommand, _failure(subcommand, exc))
        payload = {"error": str(exc)}
    write_summary(os.path.join(out_dir, "summary.txt"),
                  f"afstab {subcommand}: {'ok' if ok else 'FAILED'}", payload)
    manifest.finish()
    return (0 if ok else 1), manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afstab",
        description="stability experiments for asymptotically flat 3-metrics")
    parser.add_argument("subcommand", choices=sorted(STAGES) + ["sweep"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except AfstabError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = replace(cfg, sampling=replace(cfg.sampling, seed=args.seed))
    code, manifest = run(args.subcommand, cfg, out_dir=args.out)
    status = manifest.data["stages"].get(args.subcommand, "?")
    print(f"afstab {args.subcommand}: {status} "
          f"(artifacts: {len(manifest.data['artifacts'])})")
    return code


if __name__ == "__main__":
    sys.exit(main())
