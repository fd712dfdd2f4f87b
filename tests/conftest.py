"""Shared fixtures: desk-scale charts and solved harmonic triples.

The heavy solves are session-scoped so the acceptance criteria and the
module tests share one solve per (family, parameter, grid).
"""

import numpy as np
import pytest

from afstab.geodesy import DistanceField
from afstab.geometry import MetricChart, scalar_curvature
from afstab.gh import ball_distance_field
from afstab.grid import Grid
from afstab.harmonic import build_harmonic_triple
from afstab.inequality import relaxed_scalar_certificate

SWEEP_MASSES = (0.2, 0.1, 0.05, 0.025)


def certificate(chart, x_spec, grid, **kwargs):
    """The relaxed certificate on a grid, with R from the chart."""
    with np.errstate(invalid="ignore"):
        scal = scalar_curvature(chart, grid.points())
    return relaxed_scalar_certificate(chart, x_spec, grid, scal, **kwargs)


@pytest.fixture()
def criterion(capfd):
    """One pass/fail line per acceptance criterion, shown despite capture."""

    def _report(num: int, ok: bool, text: str) -> bool:
        with capfd.disabled():
            print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}  {text}",
                  flush=True)
        return ok

    return _report


@pytest.fixture(scope="session")
def desk_grid():
    return Grid(halfwidth=20.0, nodes=65)


@pytest.fixture(scope="session")
def small_grid():
    return Grid(halfwidth=20.0, nodes=33)


@pytest.fixture(scope="session")
def flat_chart():
    return MetricChart("flat", box_halfwidth=100.0)


@pytest.fixture(scope="session")
def flat_field_81(flat_chart):
    """The flat 81^3 eikonal field around (2, 0, 0), halfwidth 7, shared by
    the volume-comparison tests."""
    return DistanceField(flat_chart, (2.0, 0.0, 0.0), 7.0, nodes=81)


@pytest.fixture(scope="session")
def schw_charts():
    return {m: MetricChart("schwarzschild", {"m": m}, box_halfwidth=100.0)
            for m in SWEEP_MASSES}


@pytest.fixture(scope="session")
def flat_ball_field(flat_chart):
    """The eikonal field that measures the geodesic 3-ball, as the stages
    build it at the default 81 nodes."""
    return ball_distance_field(flat_chart, 3.0, 81)


@pytest.fixture(scope="session")
def schw_ball_fields(schw_charts):
    return {m: ball_distance_field(chart, 3.0, 81) for m, chart in schw_charts.items()}


@pytest.fixture(scope="session")
def flat_triple(flat_chart, desk_grid):
    return build_harmonic_triple(flat_chart, desk_grid)


@pytest.fixture(scope="session")
def schw_triples(schw_charts, desk_grid):
    return {m: build_harmonic_triple(chart, desk_grid)
            for m, chart in schw_charts.items()}


@pytest.fixture(scope="session")
def schw02_triple(schw_triples):
    return schw_triples[0.2]
