"""CLI harness: pipelines, manifests, idempotence, stage decoupling."""

import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import afstab.cli
import afstab.gh
import afstab.harmonic
import afstab.mass
from afstab.cli import _sweep_point, main, run
from afstab.config import config_from_dict
from afstab.errors import FitFailure, SolverDiverged
from afstab.geometry import MetricChart
from afstab.grid import FORMAT_VERSION, HEADER, MAGIC
from afstab.inequality import (VectorFieldSpec, refined_kato_check,
                               relaxed_scalar_certificate)
from afstab.reporting import load_manifest, sha256_file

REPO = os.path.join(os.path.dirname(__file__), os.pardir)

def tiny_config(tag="flat", **extra):
    data = {
        "family": {"tag": tag, "box_halfwidth": 100.0},
        "grid": {"nodes": 17, "halfwidth": 10.0},
        "sampling": {"seed": 7, "n_pairs": 6, "n_targets": 2,
                     "n_pythagoras_pairs": 3, "eikonal_nodes": 33,
                     "ball_radius": 2.0, "target_radius": 1.0},
        "mass": {"radii": [20.0, 40.0, 80.0]},
    }
    data.update(extra)
    return data


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def flat_cfg():
    return config_from_dict(tiny_config())


@pytest.fixture()
def schw_cfg():
    return config_from_dict(tiny_config(
        tag="schwarzschild",
        family={"tag": "schwarzschild", "params": {"m": 0.1},
                "box_halfwidth": 100.0}))


class TestSubcommands:
    def test_mass_flat_zero(self, flat_cfg, tmp_path):
        code, manifest = run("mass", flat_cfg, out_dir=tmp_path)
        assert code == 0
        rep = json.loads((tmp_path / "mass_report.json").read_text())
        assert rep["extrapolated"] == 0.0
        assert manifest.data["stages"]["mass"] == "ok"

    def test_check_af(self, flat_cfg, schw_cfg, tmp_path):
        code, _ = run("check-af", schw_cfg, out_dir=tmp_path / "schw")
        assert code == 0
        rep = json.loads((tmp_path / "schw" / "af_report.json").read_text())
        assert rep["af_ok"] is True
        assert rep["fitted_tau"] == pytest.approx(1.0, abs=0.08)
        code, _ = run("check-af", flat_cfg, out_dir=tmp_path / "flat")
        assert code == 0
        rep = json.loads((tmp_path / "flat" / "af_report.json").read_text())
        assert rep["af_ok"] is True
        assert (rep["worst_ratio"], rep["scalar_min"], rep["ricci_kappa"]) == (0.0, 0.0, 0.0)

    def test_check_af_flat_report_is_strict_json(self, flat_cfg, tmp_path):
        # a flat chart has no decay to fit: its tau is infinite, written as null
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        assert run("check-af", flat_cfg, out_dir=tmp_path)[0] == 0
        rep = json.loads((tmp_path / "af_report.json").read_text(),
                         parse_constant=no_constant)
        assert rep["fitted_tau"] is None

    def test_harmonic_then_inequality_decoupled_processes(self, tmp_path):
        # stages in separate processes communicate only through the
        # declared serialized formats (field dumps + sidecars)
        cfg_path = write_config(tmp_path, tiny_config(
            tag="schwarzschild",
            family={"tag": "schwarzschild", "params": {"m": 0.1},
                    "box_halfwidth": 100.0}))
        out = tmp_path / "out"
        env = dict(os.environ)
        # the child imports the same afstab as this process, installed or not
        src = os.path.dirname(os.path.dirname(afstab.cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        for sub in ("harmonic", "inequality"):
            proc = subprocess.run(
                [sys.executable, "-m", "afstab.cli", sub, "--config",
                 str(cfg_path), "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        rep = json.loads((out / "inequality_report.json").read_text())
        assert rep["fields_loaded_from_dump"] is True
        assert rep["axes"][0]["slack"] == pytest.approx(0.1, abs=0.05)

    def test_flow_and_distort_and_pythagoras(self, flat_cfg, tmp_path):
        for sub in ("distort", "flow", "pythagoras"):
            code, _ = run(sub, flat_cfg, out_dir=tmp_path / sub)
            assert code == 0
        rep = json.loads((tmp_path / "distort" / "distortion_report.json").read_text())
        assert rep["max_defect"] < 1e-6
        rep = json.loads((tmp_path / "flow" / "flow_report.json").read_text())
        assert rep["displacement_bound_ok"] is True

    def test_csv_m_column_is_the_family_parameter(self, tmp_path):
        # bump_control's parameter is A = 0.2: both CSVs carry it as m
        with open(os.path.join(REPO, "configs", "bump_control.json")) as f:
            family = json.load(f)["family"]
        cfg = config_from_dict(tiny_config(tag="perturbed", family=family))
        for sub in ("inequality", "pythagoras"):
            run(sub, cfg, out_dir=tmp_path)
            rows = (tmp_path / f"{sub}.csv").read_text().splitlines()[1:]
            assert rows and all(row.startswith("perturbed,0.2,") for row in rows), sub

    def test_invalid_subcommand_rejected(self, flat_cfg, tmp_path):
        code, manifest = run("bogus", flat_cfg, out_dir=tmp_path)
        assert code == 1
        assert "failed" in manifest.data["stages"]["bogus"]

    def test_main_config_error_exit_2(self, tmp_path):
        bad = write_config(tmp_path, {"family": {"tag": "flat"}})   # no seed
        assert main(["mass", "--config", str(bad)]) == 2

    def test_main_mistyped_config_exit_2(self, tmp_path, capsys):
        bad = write_config(tmp_path, tiny_config(grid={"nodes": "17"},
                                                 solver={"tol": "1e-11"}))
        assert main(["mass", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "grid.nodes must be an integer" in err
        assert "solver.tol must be a number" in err

    def test_main_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "o"
        assert main(["mass", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "42"]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["sampling"]["seed"] == 42


class TestFailedStages:
    def test_non_afstab_exception_recorded(self, flat_cfg, tmp_path, monkeypatch):
        def broken(cfg, out_dir):
            raise ValueError("flow step violates its ball budget")

        monkeypatch.setitem(afstab.cli.STAGES, "flow", broken)
        code, manifest = run("flow", flat_cfg, out_dir=tmp_path)
        assert code == 1
        assert manifest.data["stages"]["flow"].startswith("failed: ValueError")
        assert "ball budget" in (tmp_path / "summary.txt").read_text()
        assert load_manifest(tmp_path).verify() == []

    def test_truncated_dump_fails_inequality(self, schw_cfg, tmp_path):
        assert run("harmonic", schw_cfg, out_dir=tmp_path)[0] == 0
        dump = tmp_path / "u2.field"
        dump.write_bytes(dump.read_bytes()[:-100])
        (tmp_path / "manifest.json").unlink()
        code, manifest = run("inequality", schw_cfg, out_dir=tmp_path)
        assert code == 1
        status = manifest.data["stages"]["inequality"]
        assert status.startswith("failed: BadFieldDump") and "u2.field" in status
        loaded = load_manifest(tmp_path)
        assert loaded.data["stages"] == {"inequality": status}
        assert loaded.verify() == []
        assert "FAILED" in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize("dump", [
        # a 3^3 grid, which Grid rejects (nodes must be odd and >= 17)
        struct.pack(HEADER, MAGIC, FORMAT_VERSION, 3, 20.0, b"xyz") + bytes(8 * 27),
        # a NaN halfwidth, which Grid rejects (it must be finite and positive)
        struct.pack(HEADER, MAGIC, FORMAT_VERSION, 17, float("nan"), b"xyz")
        + bytes(8 * 17**3),
        # a NaN in place of the first value
        "nan",
    ], ids=["grid", "halfwidth", "nonfinite"])
    def test_invalid_dump_fails_inequality(self, schw_cfg, tmp_path, dump):
        assert run("harmonic", schw_cfg, out_dir=tmp_path)[0] == 0
        path = tmp_path / "u2.field"
        if dump == "nan":
            data = bytearray(path.read_bytes())
            start = struct.calcsize(HEADER)
            data[start:start + 8] = struct.pack("<d", float("nan"))
            dump = bytes(data)
        path.write_bytes(dump)
        (tmp_path / "manifest.json").unlink()
        code, manifest = run("inequality", schw_cfg, out_dir=tmp_path)
        assert code == 1
        status = manifest.data["stages"]["inequality"]
        assert status.startswith("failed: BadFieldDump") and "u2.field" in status
        assert load_manifest(tmp_path).verify() == []

    def test_mixed_dumps_fail_inequality(self, schw_cfg, tmp_path):
        # a harmonic run stopped after u1 leaves u2, u3 of another config
        assert run("harmonic", schw_cfg, out_dir=tmp_path)[0] == 0
        sidecar = tmp_path / "u3.field.json"
        data = json.loads(sidecar.read_text())
        data["params"]["m"] = 0.3
        sidecar.write_text(json.dumps(data))
        (tmp_path / "manifest.json").unlink()
        code, manifest = run("inequality", schw_cfg, out_dir=tmp_path)
        assert code == 1
        status = manifest.data["stages"]["inequality"]
        assert status.startswith("failed: BadFieldDump") and "u3.field.json" in status
        loaded = load_manifest(tmp_path)
        assert loaded.data["stages"] == {"inequality": status}
        assert loaded.verify() == []

    def test_garbled_sidecar_fails_inequality(self, schw_cfg, tmp_path, caplog):
        # a sidecar cut in half is a bad dump named by its path, not a
        # JSONDecodeError with a logged traceback
        assert run("harmonic", schw_cfg, out_dir=tmp_path)[0] == 0
        sidecar = tmp_path / "u1.field.json"
        text = sidecar.read_text()
        sidecar.write_text(text[:len(text) // 2])
        (tmp_path / "manifest.json").unlink()
        code, manifest = run("inequality", schw_cfg, out_dir=tmp_path)
        assert code == 1
        status = manifest.data["stages"]["inequality"]
        assert status.startswith("failed: BadFieldDump") and "u1.field.json" in status
        assert not [r for r in caplog.records if r.exc_info]
        assert load_manifest(tmp_path).verify() == []


class TestGridEvaluations:
    """Evaluations on the whole node grid: phi and grad phi once per
    triple, R once per inequality stage (one x-slab of nodes at a time),
    |Hess u|^2 only in the stages that read it."""

    @staticmethod
    def _grid_calls(monkeypatch, cfg, name, slab=False):
        """The points of each MetricChart.<name> call on the whole node grid
        or, with slab, on one x-slab of it."""
        real = getattr(MetricChart, name)
        shape = cfg.make_grid().points().shape
        shape = shape[1:] if slab else shape
        calls = []

        def counting(self, x, **kwargs):
            if np.shape(x) == shape:
                calls.append(np.array(x))
            return real(self, x, **kwargs)

        monkeypatch.setattr(MetricChart, name, counting)
        return calls

    def test_harmonic_evaluates_phi_once(self, schw_cfg, tmp_path, monkeypatch):
        calls = self._grid_calls(monkeypatch, schw_cfg, "_conformal")
        code, _ = run("harmonic", schw_cfg, out_dir=tmp_path)
        assert code == 0
        assert len(calls) == 1

    def test_inequality_evaluates_scalar_once(self, schw_cfg, tmp_path, monkeypatch):
        assert run("harmonic", schw_cfg, out_dir=tmp_path)[0] == 0
        calls = self._grid_calls(monkeypatch, schw_cfg, "conformal_terms", slab=True)
        code, _ = run("inequality", schw_cfg, out_dir=tmp_path)
        assert code == 0
        # N slab calls that cover the grid exactly once
        assert np.array_equal(np.stack(calls), schw_cfg.make_grid().points())

    def test_hessians_derived_only_where_read(self, schw_cfg, tmp_path, monkeypatch):
        # inequality and pythagoras read |Hess u|^2 (one field per axis); the
        # solve, the distortion and the flows read only u and grad u
        real = afstab.harmonic._hessian_norm2
        calls = []

        def counting(values, du, phi, dphi, h):
            calls.append(h)
            return real(values, du, phi, dphi, h)

        monkeypatch.setattr(afstab.harmonic, "_hessian_norm2", counting)
        counts = {}
        for sub in ("harmonic", "inequality", "distort", "pythagoras", "flow"):
            calls.clear()
            assert run(sub, schw_cfg, out_dir=tmp_path)[0] == 0, sub
            counts[sub] = len(calls)
        assert counts == {"harmonic": 0, "inequality": 3, "distort": 0,
                          "pythagoras": 3, "flow": 0}


class TestShootingBudget:
    # christoffel_quadratic calls (one per RK4 stage whatever its rows, so
    # 640 per Newton pass of a distance) of the distort, pythagoras and flow
    # stages on the tiny Schwarzschild config; the count is deterministic.
    # With every distance solve started from the chord, a separate pass for
    # the projection trajectories and one flow distance batch per leg, the
    # chain made 21 760 (4 480 + 11 520 + 5 760); with the coarse-step seed,
    # the trajectories kept from the Newton passes and the flow budgets
    # certified by their chords it makes 13 360 (3 040 + 8 800 + 1 520).
    CALLS = 13_360

    def test_chain_christoffel_calls(self, schw_cfg, tmp_path, monkeypatch):
        real = MetricChart.christoffel_quadratic
        calls = []

        def counting(self, x, v):
            calls.append(len(x))
            return real(self, x, v)

        monkeypatch.setattr(MetricChart, "christoffel_quadratic", counting)
        for sub in ("distort", "pythagoras", "flow"):
            assert run(sub, schw_cfg, out_dir=tmp_path)[0] == 0, sub
        assert len(calls) <= self.CALLS


class TestManifest:
    def test_completeness_and_hashes(self, flat_cfg, tmp_path):
        _, manifest = run("mass", flat_cfg, out_dir=tmp_path)
        on_disk = {f for f in os.listdir(tmp_path) if f != "manifest.json"}
        assert set(manifest.data["artifacts"]) == on_disk
        assert manifest.verify() == []
        loaded = load_manifest(tmp_path)
        assert loaded.verify() == []
        assert loaded.data["config_hash"] == manifest.data["config_hash"]

    def test_tamper_detected(self, flat_cfg, tmp_path):
        _, manifest = run("mass", flat_cfg, out_dir=tmp_path)
        (tmp_path / "mass.csv").write_text("tampered\n")
        assert any("mismatch" in p for p in manifest.verify())

    def test_idempotent_outputs(self, schw_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("mass", schw_cfg, out_dir=out1)
        run("mass", schw_cfg, out_dir=out2)
        for name in os.listdir(out1):
            if name == "manifest.json":
                continue
            assert sha256_file(out1 / name) == sha256_file(out2 / name), name

    def test_rerun_overwrites_byte_identical(self, schw_cfg, tmp_path):
        run("mass", schw_cfg, out_dir=tmp_path)
        before = {f: sha256_file(tmp_path / f) for f in os.listdir(tmp_path)
                  if f != "manifest.json"}
        run("mass", schw_cfg, out_dir=tmp_path)
        after = {f: sha256_file(tmp_path / f) for f in os.listdir(tmp_path)
                 if f != "manifest.json"}
        assert before == after


class TestSweep:
    def test_sweep_requires_three_decreasing_values(self, tmp_path):
        cfg = config_from_dict(tiny_config(
            tag="schwarzschild",
            family={"tag": "schwarzschild", "params": {"m": 0.2},
                    "box_halfwidth": 100.0},
            sweep={"parameter": "m", "values": [0.2, 0.1]}))
        code, manifest = run("sweep", cfg, out_dir=tmp_path)
        assert code == 1
        assert "at least 3" in manifest.data["stages"]["sweep"]

    def test_small_sweep_monotone(self, tmp_path):
        cfg = config_from_dict(tiny_config(
            tag="schwarzschild",
            family={"tag": "schwarzschild", "params": {"m": 0.2},
                    "box_halfwidth": 100.0},
            sweep={"parameter": "m", "values": [0.2, 0.1, 0.05]}))
        code, _ = run("sweep", cfg, out_dir=tmp_path)
        assert code == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["all_stages_ok"]
        assert all(summary["monotone_decreasing"].values())
        csv_lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 4

    def test_sweep_point_applies_stage_knobs(self, tmp_path):
        # non-default knobs reach the sweep exactly as the single stages
        x_field = {"kind": "gradient_bump", "amplitude": 0.05,
                   "center": [0.5, 0.0, 0.0], "width": 1.5}
        data = tiny_config(
            tag="schwarzschild",
            family={"tag": "schwarzschild", "params": {"m": 0.1},
                    "box_halfwidth": 100.0},
            certificate={"x_field": x_field, "c_coef": 0.5},
            sweep={"parameter": "m", "values": [0.1, 0.05, 0.025]})
        cfg = config_from_dict(data)
        rep = _sweep_point(cfg, tmp_path, "m0.1")
        assert all(v == "ok" for v in rep.stages.values()), rep.stages
        assert run("inequality", cfg, out_dir=tmp_path / "ineq")[0] == 0
        ineq = json.loads((tmp_path / "ineq" / "inequality_report.json").read_text())
        assert rep.mass == ineq["mass"]
        assert rep.hessian_l2 == max(ax["hessian_l2"] for ax in ineq["axes"])
        assert rep.rhs_integral == max(ax["rhs_integral"] for ax in ineq["axes"])
        cert = ineq["relaxed_certificate"]
        assert (cert["x_field"], cert["quadratic_coefficient"]) == (x_field, 0.5)
        assert rep.psi_l1 == cert["psi_l1"]
        # the Kato check floors |grad u| where the inequality integrands do
        triple = afstab.cli._solve_triple(cfg, cfg.chart())
        default = relaxed_scalar_certificate(triple.chart, VectorFieldSpec(),
                                             triple.grid, triple.scalar_curvature)
        assert rep.psi_l1 != default.psi_l1
        eps_grad = 1e-6 * triple.grad_sup
        assert ineq["kato"] == [
            dict(zip(("lhs", "rhs"), refined_kato_check(triple, axis, eps_grad=eps_grad)))
            for axis in range(3)]
        # fresh single stages (no dumps, so each solves) give the sweep's numbers
        for sub in ("distort", "pythagoras", "flow"):
            assert run(sub, cfg, out_dir=tmp_path / sub)[0] == 0, sub
        dist = json.loads((tmp_path / "distort" / "distortion_report.json").read_text())
        pyth = json.loads((tmp_path / "pythagoras" / "pythagoras_report.json").read_text())
        flow = json.loads((tmp_path / "flow" / "flow_report.json").read_text())
        assert (rep.defect_p50, rep.defect_p90, rep.defect_max, rep.ortho_l1) == (
            dist["defect_p50"], dist["defect_p90"], dist["max_defect"], dist["ortho_l1"])
        assert rep.pythagorean_median == pyth["median_defect"]
        assert rep.image_hausdorff == flow["image_hausdorff"]

    def test_failed_mass_fails_inequality_alone_and_in_sweep(self, schw_cfg, tmp_path,
                                                             monkeypatch):
        # the inequality compares with the fitted mass, so a failed fit fails
        # it too, never an ok stage with a NaN slack
        def no_fit(chart, radii):
            raise FitFailure("fit residual over threshold")

        monkeypatch.setattr(afstab.cli, "adm_mass", no_fit)
        assert run("mass", schw_cfg, out_dir=tmp_path / "mass")[0] == 1
        assert run("inequality", schw_cfg, out_dir=tmp_path / "ineq")[0] == 1
        rep = _sweep_point(schw_cfg, tmp_path, "m0.1")
        for stage in ("mass", "inequality"):
            assert rep.stages[stage].startswith("failed: FitFailure"), rep.stages

    def test_chain_with_dumps_equals_sweep_point(self, schw_cfg, tmp_path):
        # the stages after `harmonic` reload its dumps and give the sweep's
        # numbers exactly
        rep = _sweep_point(schw_cfg, tmp_path, "m0.1")
        assert all(v == "ok" for v in rep.stages.values()), rep.stages
        chain = tmp_path / "chain"
        for sub in ("check-af", "mass", "harmonic", "inequality", "distort",
                    "pythagoras", "flow"):
            assert run(sub, schw_cfg, out_dir=chain)[0] == 0, sub

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        # every report is strict JSON: no NaN or Infinity
        for path in sorted(chain.glob("*.json")) + sorted(tmp_path.glob("*.json")):
            json.loads(path.read_text(), parse_constant=no_constant)

        def report(name):
            return json.loads((chain / name).read_text())

        harm, ineq = report("harmonic_report.json"), report("inequality_report.json")
        dist, pyth = report("distortion_report.json"), report("pythagoras_report.json")
        flow = report("flow_report.json")
        assert ineq["fields_loaded_from_dump"] is True
        assert (rep.grad_sup, list(rep.residual_norms), rep.cheng_yau) == (
            harm["grad_sup"], harm["residual_norms"], harm["cheng_yau"][0])
        assert (rep.mass, rep.psi_l1) == (ineq["mass"],
                                          ineq["relaxed_certificate"]["psi_l1"])
        assert rep.hessian_l2 == max(ax["hessian_l2"] for ax in ineq["axes"])
        assert rep.rhs_integral == max(ax["rhs_integral"] for ax in ineq["axes"])
        assert (rep.defect_p50, rep.defect_p90, rep.defect_max, rep.ortho_l1) == (
            dist["defect_p50"], dist["defect_p90"], dist["max_defect"], dist["ortho_l1"])
        assert rep.pythagorean_median == pyth["median_defect"]
        assert rep.image_hausdorff == flow["image_hausdorff"]


    def test_distortion_failures_fail_stage_and_sweep(self, tmp_path, monkeypatch):
        # 2 failed pairs of 20 exceed the max(1, n_pairs // 100) rule, so the
        # single stage and the sweep point must both report a failure
        data = tiny_config(
            tag="schwarzschild",
            family={"tag": "schwarzschild", "params": {"m": 0.1},
                    "box_halfwidth": 100.0},
            sweep={"parameter": "m", "values": [0.1, 0.05, 0.025]})
        data["sampling"]["n_pairs"] = 20
        cfg = config_from_dict(data)
        real_batch = afstab.gh.distance_batch

        def two_unconverged(chart, x, y, *args, **kwargs):
            d, w, res, conv = real_batch(chart, x, y, *args, **kwargs)
            # the x-y pair batch; ball sampling shoots from the base point
            if len(y) == 20 and np.any(np.asarray(x) != chart.base_point):
                conv = conv.copy()
                conv[:2] = False
            return d, w, res, conv

        monkeypatch.setattr(afstab.gh, "distance_batch", two_unconverged)
        code, manifest = run("distort", cfg, out_dir=tmp_path / "distort")
        assert code == 1
        assert manifest.data["stages"]["distort"] == "assertion-failed"
        dist = json.loads((tmp_path / "distort" / "distortion_report.json").read_text())
        assert dist["n_failed_pairs"] == 2
        rep = _sweep_point(cfg, tmp_path, "m0.1")
        assert rep.stages["distortion"] == "assertion-failed", rep.stages
        assert rep.defect_max == dist["max_defect"]

    def test_failed_certificate_fails_inequality_alone_and_in_sweep(self, schw_cfg,
                                                                    tmp_path, monkeypatch):
        # the relaxed certificate is part of `inequality`, with no tag of its own
        def no_fit(*args, **kwargs):
            raise FitFailure("certificate fit failed")

        monkeypatch.setattr(afstab.cli, "relaxed_scalar_certificate", no_fit)
        _, manifest = run("inequality", schw_cfg, out_dir=tmp_path / "ineq")
        status = manifest.data["stages"]["inequality"]
        assert status == "failed: FitFailure: certificate fit failed"
        rep = _sweep_point(schw_cfg, tmp_path, "m0.1")
        assert rep.stages["inequality"] == status, rep.stages
        assert "certificate" not in rep.stages

    def test_failed_kato_check_fails_inequality_alone_and_in_sweep(self, schw_cfg,
                                                                  tmp_path, monkeypatch):
        monkeypatch.setattr(afstab.cli, "refined_kato_check",
                            lambda triple, axis, eps_grad: (2.0, 1.0))
        _, manifest = run("inequality", schw_cfg, out_dir=tmp_path / "ineq")
        assert manifest.data["stages"]["inequality"] == "assertion-failed"
        rep = _sweep_point(schw_cfg, tmp_path, "m0.1")
        assert rep.stages["inequality"] == "assertion-failed", rep.stages

    def test_flow_displacement_bound_fails_flow_alone_and_in_sweep(self, schw_cfg,
                                                                  tmp_path, monkeypatch):
        real_coverage = afstab.cli.flow_coverage

        def one_leg_too_far(*args, **kwargs):
            traces, hausdorff = real_coverage(*args, **kwargs)
            moved = dataclasses.replace(traces[0],
                                        displacements=(1e6,) + traces[0].displacements[1:])
            return [moved] + traces[1:], hausdorff

        monkeypatch.setattr(afstab.cli, "flow_coverage", one_leg_too_far)
        _, manifest = run("flow", schw_cfg, out_dir=tmp_path / "flow")
        assert manifest.data["stages"]["flow"] == "assertion-failed"
        flow = json.loads((tmp_path / "flow" / "flow_report.json").read_text())
        assert flow["displacement_bound_ok"] is False
        rep = _sweep_point(schw_cfg, tmp_path, "m0.1")
        assert rep.stages["flow"] == "assertion-failed", rep.stages

    def test_af_rule_is_one_for_check_af_and_sweep(self, tmp_path):
        # bump_control's bump reaches the r = 2 sphere; asymptotic flatness is
        # decay outside a compact set, so both read the r >= 10 check
        with open(os.path.join(REPO, "configs", "bump_control.json")) as f:
            family = json.load(f)["family"]
        cfg = config_from_dict(tiny_config(tag="perturbed", family=family,
                                           sweep={"parameter": "A",
                                                  "values": [0.2, 0.1, 0.05]}))
        _, manifest = run("check-af", cfg, out_dir=tmp_path / "af")
        af = json.loads((tmp_path / "af" / "af_report.json").read_text())
        rep = _sweep_point(cfg, tmp_path, "A0.2")
        assert rep.stages["certify"] == manifest.data["stages"]["check-af"] == "ok"
        assert rep.af_ok is af["af_ok"] is True

    def test_failed_harmonic_fails_its_dependents_alone_and_in_sweep(
            self, schw_cfg, tmp_path, monkeypatch):
        calls = []

        def diverged(*args, **kwargs):
            calls.append(1)
            raise SolverDiverged("CG did not converge")

        monkeypatch.setattr(afstab.cli, "build_harmonic_triple", diverged)
        rep = _sweep_point(schw_cfg, tmp_path, "m0.1")
        assert len(calls) == 1
        status = "failed: SolverDiverged: CG did not converge"
        for stage in ("harmonic", "inequality", "distortion", "pythagoras", "flow"):
            assert rep.stages[stage] == status, rep.stages
        assert (rep.stages["certify"], rep.stages["mass"]) == ("ok", "ok")
        for sub in ("inequality", "distort", "flow"):
            _, manifest = run(sub, schw_cfg, out_dir=tmp_path / sub)
            assert manifest.data["stages"][sub] == status


class TestBenchHooks:
    def test_tracer_hooks_resolve(self, monkeypatch):
        # every name the benchmark's tracer wraps must exist, and uninstall
        # must leave the program as it was
        bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        monkeypatch.syspath_prepend(os.path.abspath(bench))
        import tracing

        stages = dict(afstab.cli.STAGES)
        tracer = tracing.Tracer()
        chart = MetricChart("flat", box_halfwidth=10.0)
        center = np.array([1.0, 0.0, 0.0])

        def centre_scores_high(cands):
            return np.where(np.all(cands == center, axis=1), 10.0, 0.0)

        try:
            tracer.install()
            # called as gradient_flow_step calls it: the hook reads the
            # centre argument and the picked point of the result
            afstab.gh.mean_value_pick(chart, center, 0.5, centre_scores_high, 8, 3,
                                      label="flow-0")
        finally:
            tracer.uninstall()
        assert [s[1] for s in tracer.spans] == ["geodesy.mv_pick"]
        assert tracer.counts["geodesy.mv_offcentre"] == 1
        assert afstab.cli.STAGES == stages
        assert afstab.cli.adm_mass is afstab.mass.adm_mass
        assert hasattr(afstab.harmonic, "pyamg")
