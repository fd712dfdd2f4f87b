"""Config parsing, validation, and the round-trip invariant."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afstab.config import ExperimentConfig, config_from_dict, parse_config
from afstab.errors import ParseError, ValidationError
from afstab.grid import Grid


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
        with pytest.raises(ValidationError, match="eps_grad_factor"):
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
                "solver.eps_grad_factor": bad, "sampling.ball_radius": bad,
                "sampling.rho": bad, "sampling.target_radius": bad,
                "family.decay_b": bad, "family.excision_radius": bad,
                "family.base_point": [2.0, bad, 0.0],
                "mass.residual_threshold": bad, "mass.fit_exponent": bad,
                "mass.radii": [20.0, 40.0, bad], "certificate.c_coef": bad,
                "certificate.sample_r_max": bad}
            for key, value in real_fields.items():
                with pytest.raises(ValidationError) as err:
                    config_from_dict(minimal_config(**{key: value}))
                name = ("certificate sample radii" if key == "certificate.sample_r_max"
                        else key)
                assert [m.startswith(name) for m in err.value.violations] == [True], \
                    (key, bad, err.value.violations)

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
        assert cfg.rho() == pytest.approx(2.0 * cfg.make_grid().h)
        over = cfg.chart({"m": 0.2})
        assert over.monopole_amplitude == pytest.approx(0.1)

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
