"""Config parsing, validation, and the round-trip invariant."""

import glob
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afstab.config import ExperimentConfig, config_from_dict, parse_config
from afstab.errors import ParseError, ValidationError
from afstab.grid import Grid
from afstab.inequality import EPS_GRAD_FACTOR

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
NAN = float("nan")
BUMP = {"amplitude": 0.15, "center": [1.0, 0.0, 0.0], "width": 2.0}


def minimal_config(**overrides):
    data = {"family": {"tag": "flat"}, "sampling": {"seed": 1}}
    for key, val in overrides.items():
        section, field = key.split(".")
        data.setdefault(section, {})[field] = val
    return data


class TestParsing:
    def test_minimal_flat_config_fills_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = parse_config(path)
        assert cfg.grid.nodes == 65
        assert cfg.solver.method == "auto"
        assert cfg.family.tag == "flat"
        assert cfg.sampling.seed == 1

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal_config(**{"grid.nodes": 33})))
        cfg = parse_config(path)
        path2 = tmp_path / "c2.json"
        path2.write_text(cfg.to_json())
        cfg2 = parse_config(path2)
        assert cfg2 == cfg
        assert cfg2.to_json() == cfg.to_json()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "absent.json")

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError, match=r":\d+:\d+:"):
            parse_config(path)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"sampling": {"seed": 1}, "plots": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field"):
            config_from_dict(minimal_config(**{"grid.mesh": 3}))
        # the gradient floor, the certificate sampling, the mass fit, rho and
        # the base point are constants of the program, and the excision is
        # gone: none of them is a config field
        fixed = ["family.excision_radius", "family.base_point",
                 "solver.eps_grad_factor", "sampling.rho", "mass.fit_exponent",
                 "mass.quadrature_polar", "mass.quadrature_azimuth",
                 "mass.residual_threshold", "certificate.n_sample_points",
                 "certificate.sample_r_min", "certificate.sample_r_max"]
        with pytest.raises(ValidationError) as err:
            config_from_dict(minimal_config(**{key: 1.0 for key in fixed}))
        assert err.value.violations == [
            "family: unknown field(s) ['base_point', 'excision_radius']",
            "solver: unknown field(s) ['eps_grad_factor']",
            "sampling: unknown field(s) ['rho']",
            "mass: unknown field(s) ['fit_exponent', 'quadrature_azimuth', "
            "'quadrature_polar', 'residual_threshold']",
            "certificate: unknown field(s) ['n_sample_points', 'sample_r_max', "
            "'sample_r_min']"]

    def test_repository_and_benchmark_configs_valid(self, monkeypatch):
        # the scripts run configs/*.json and the benchmark runs its workload
        # configs; a schema change must keep every one of them valid
        paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
        assert paths
        for path in paths:
            parse_config(path)
        monkeypatch.syspath_prepend(os.path.abspath(os.path.join(ROOT, "bench")))
        import workloads

        for name in workloads.WORKLOADS:
            config_from_dict(workloads.config_dict(ROOT, name, 0))


class TestValidation:
    def test_tau_must_exceed_half(self):
        with pytest.raises(ValidationError, match="tau must exceed 1/2"):
            config_from_dict(minimal_config(**{"family.decay_tau": 0.4}))

    def test_even_nodes_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            config_from_dict(minimal_config(**{"grid.nodes": 64}))

    def test_seed_mandatory(self):
        with pytest.raises(ValidationError, match="seed is mandatory"):
            config_from_dict({"family": {"tag": "flat"}})

    def test_eps_grad_positive(self):
        # the gradient floor factor is a positive constant; a config cannot
        # set it, so no run floors |grad u| at zero or below
        assert EPS_GRAD_FACTOR > 0.0
        with pytest.raises(ValidationError, match=r"unknown field.*'eps_grad_factor'"):
            config_from_dict(minimal_config(**{"solver.eps_grad_factor": -1.0}))

    def test_all_violations_collected(self):
        data = minimal_config(**{"family.decay_tau": 0.3, "grid.nodes": 10,
                                 "solver.method": "gauss"})
        with pytest.raises(ValidationError) as err:
            config_from_dict(data)
        assert len(err.value.violations) >= 3

    def test_grid_must_fit_chart(self):
        with pytest.raises(ValidationError, match="box_halfwidth"):
            config_from_dict(minimal_config(**{"grid.halfwidth": 50.0,
                                               "family.box_halfwidth": 30.0}))

    def test_halfwidths_must_be_finite(self):
        nan = float("nan")
        with pytest.raises(ValidationError) as err:
            config_from_dict(minimal_config(**{"grid.halfwidth": nan,
                                               "family.box_halfwidth": nan}))
        assert sorted(err.value.violations) == [
            "family.box_halfwidth must be finite and positive",
            "grid.halfwidth must be finite and positive"]
        with pytest.raises(ValidationError, match="grid.halfwidth"):
            config_from_dict(minimal_config(**{"grid.halfwidth": float("inf")}))
        for bad in (nan, float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                Grid(halfwidth=bad, nodes=17)
        # every other real-valued field: NaN or inf is one violation naming it
        for bad in (nan, float("inf")):
            real_fields = {
                "sampling.ball_radius": bad, "sampling.target_radius": bad,
                "family.decay_b": bad, "mass.radii": [20.0, 40.0, bad],
                "certificate.c_coef": bad}
            for key, value in real_fields.items():
                with pytest.raises(ValidationError) as err:
                    config_from_dict(minimal_config(**{key: value}))
                assert [m.startswith(key) for m in err.value.violations] == [True], \
                    (key, bad, err.value.violations)

    @pytest.mark.parametrize("overrides, message", [
        ({"family.tag": "schwarzschild", "family.params": {"m": NAN}},
         "family.params.m must be a finite number"),
        ({"family.tag": "schwarzschild", "family.params": {"A": 0.2}},
         r"family.params: unknown key\(s\) \['A'\]"),
        ({"family.tag": "perturbed",
          "family.params": {"A": 0.2, "bumps": [dict(BUMP, amplitude=NAN)]}},
         r"family.params.bumps\[0\].amplitude must be a finite number"),
        ({"family.tag": "perturbed",
          "family.params": {"bumps": [{"amplitude": 0.1, "center": [1.0, 0.0, 0.0]}]}},
         r"family.params.bumps\[0\]: missing key\(s\) \['width'\]"),
        ({"family.tag": "perturbed",
          "family.params": {"bumps": [dict(BUMP, center=[1.0, 0.0])]}},
         r"family.params.bumps\[0\].center must be a finite 3-vector"),
        ({"family.tag": "conformal", "family.params": {"gauss_amp": 0.1,
                                                       "gauss_width": 0.0}},
         "family.params.gauss_width must be finite and positive"),
        ({"certificate.x_field": {"kind": "gradient_bump", "amplitude": 0.1,
                                  "center": [0.0, 0.0, 0.0], "width": NAN}},
         "certificate.x_field.width must be finite and positive"),
        ({"certificate.x_field": {"kind": "gradient_bump", "radius": 1.0}},
         r"certificate.x_field: unknown key\(s\) \['radius'\]"),
        ({"family.tag": "schwarzschild", "family.params": {"m": 0.2},
          "sweep.values": [0.2, NAN, 0.05]},
         "sweep.values must be finite numbers"),
        ({"family.tag": "schwarzschild", "family.params": {"m": 0.2},
          "sweep.parameter": "A", "sweep.values": [0.2, 0.1, 0.05]},
         r"sweep.parameter must be one of \['m'\] for family 'schwarzschild'"),
        ({"solver.method": "amg"}, "solver.method must be 'auto' or 'cg'"),
        ({"grid.nodes": "65"}, "grid.nodes must be an integer"),
        ({"grid.nodes": 33.5}, "grid.nodes must be an integer"),
        ({"sampling.seed": True}, "sampling.seed must be an integer"),
        ({"sampling.eikonal_nodes": 41.0}, "sampling.eikonal_nodes must be an integer"),
        ({"solver.tol": "1e-11"}, "solver.tol must be a number"),
        ({"family.decay_tau": True}, "family.decay_tau must be a number"),
        ({"mass.radii": "abc"}, r"mass.radii must be a list of numbers"),
        ({"mass.radii": [20.0, 40.0, "80"]}, r"mass.radii must be a list of numbers"),
        ({"family.tag": ["flat"]}, "family.tag must be a string"),
    ], ids=["m-nan", "schwarzschild-A", "bump-amplitude-nan", "bump-missing-width",
            "bump-center-2d", "gauss-width-zero", "x-width-nan", "x-unknown-key",
            "sweep-value-nan", "sweep-parameter-unread", "solver-method-amg",
            "nodes-string", "nodes-fraction", "seed-bool", "eikonal-nodes-real",
            "tol-string", "tau-bool", "radii-string", "radii-entry-string", "tag-list"])
    def test_nested_values_checked(self, overrides, message):
        # family.params, certificate.x_field and sweep hold only known keys
        # with values of their kind, solver.method names the solver that
        # runs (there is no AMG solver), and a field of the wrong type is
        # one violation naming it, never a TypeError of a range test
        with pytest.raises(ValidationError) as err:
            config_from_dict(minimal_config(**overrides))
        assert len(err.value.violations) == 1, err.value.violations
        assert re.match(message, err.value.violations[0]), err.value.violations

    @pytest.mark.parametrize("name", ["n_pairs", "n_targets", "n_pythagoras_pairs"])
    def test_sample_counts_at_least_one(self, name):
        with pytest.raises(ValidationError, match=f"sampling.{name} must be at least 1"):
            config_from_dict(minimal_config(**{f"sampling.{name}": 0}))

    def test_mass_radii_checks(self):
        with pytest.raises(ValidationError, match="increasing"):
            config_from_dict(minimal_config(**{"mass.radii": [40.0, 20.0, 80.0]}))

    def test_chart_and_grid_builders(self):
        cfg = config_from_dict(minimal_config(**{"family.tag": "schwarzschild",
                                                 "family.params": {"m": 0.1}}))
        chart = cfg.chart()
        assert chart.monopole_amplitude == pytest.approx(0.05)
        assert cfg.make_grid().nodes == 65

    @given(nodes=st.integers(17, 129).filter(lambda n: n % 2 == 1),
           halfwidth=st.floats(5.0, 50.0),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, nodes, halfwidth, seed):
        data = minimal_config(**{"grid.nodes": nodes,
                                 "grid.halfwidth": halfwidth,
                                 "sampling.seed": seed})
        cfg = config_from_dict(data)
        again = config_from_dict(json.loads(cfg.to_json()))
        assert again == cfg
