"""Shared fixtures: desk-scale charts and solved harmonic triples.

The heavy solves are session-scoped so the acceptance criteria and the
module tests share one solve per (family, parameter, grid).
"""

import pytest

from afstab.geodesy import DistanceField
from afstab.geometry import MetricChart
from afstab.grid import Grid, ScalarGridField
from afstab.harmonic import build_harmonic_triple, triple_from_solutions
from afstab.inequality import relaxed_scalar_certificate

SWEEP_MASSES = (0.2, 0.1, 0.05, 0.025)


def certificate(chart, x_spec, grid, **kwargs):
    """The relaxed certificate on a grid, from a triple of the coordinate
    fields (the certificate reads no u, so nothing is solved)."""
    coords = [ScalarGridField(grid, grid.points()[..., a].copy()) for a in range(3)]
    triple = triple_from_solutions(chart, grid, coords)
    return relaxed_scalar_certificate(triple, x_spec, **kwargs)


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
def flat_triple(flat_chart, desk_grid):
    return build_harmonic_triple(flat_chart, desk_grid)


@pytest.fixture(scope="session")
def schw_triples(schw_charts, desk_grid):
    return {m: build_harmonic_triple(chart, desk_grid)
            for m, chart in schw_charts.items()}


@pytest.fixture(scope="session")
def schw02_triple(schw_triples):
    return schw_triples[0.2]
