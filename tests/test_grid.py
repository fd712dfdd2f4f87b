"""Grid construction, stencils, and the binary field format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afstab.cli import run
from afstab.config import config_from_dict
from afstab.errors import BadFieldDump
from afstab.grid import (Grid, ScalarGridField, diff1, diff2, gradient, read_field,
                         write_field)


class TestGrid:
    def test_spacing_and_center_node(self):
        g = Grid(halfwidth=20.0, nodes=65)
        assert g.h == pytest.approx(0.625)
        assert g.axis[32] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("nodes", [16, 15, 8, 18])
    def test_invalid_nodes_rejected(self, nodes):
        with pytest.raises(ValueError):
            Grid(halfwidth=10.0, nodes=nodes)

    def test_masks(self):
        g = Grid(halfwidth=5.0, nodes=17)
        b = g.margin_mask(1)
        assert b.sum() == 17**3 - 15**3
        assert not b[1:-1, 1:-1, 1:-1].any()
        m = g.margin_mask(2)
        assert m.sum() == 17**3 - 13**3


class TestStencils:
    def test_exact_on_cubics(self):
        g = Grid(halfwidth=2.0, nodes=21)
        pts = g.points()
        f = pts[..., 0] ** 3 + 2.0 * pts[..., 1] ** 2 * pts[..., 2]
        inner = ~g.margin_mask(2)
        df = gradient(f, g.h)
        assert np.allclose(df[inner][:, 0], (3 * pts[..., 0] ** 2)[inner], atol=1e-10)
        dxx = diff2(f, g.h, 0)
        assert np.allclose(dxx[inner], (6 * pts[..., 0])[inner], atol=1e-9)
        dyz = diff1(df[..., 2], g.h, 1)   # a mixed entry: diff1 of a partial
        assert np.allclose(dyz[inner], (4 * pts[..., 1])[inner], atol=1e-9)

    def test_second_derivatives_symmetric_to_roundoff(self):
        # the one-dimensional stencils commute, so a mixed second derivative
        # taken in either order agrees to round-off
        g = Grid(halfwidth=3.0, nodes=17)
        rng = np.random.default_rng(0)
        f = rng.normal(size=(17, 17, 17))
        scale = np.max(np.abs(f)) / g.h**2
        for a in range(3):
            for b in range(a + 1, 3):
                ab = diff1(diff1(f, g.h, b), g.h, a)
                ba = diff1(diff1(f, g.h, a), g.h, b)
                assert np.max(np.abs(ab - ba)) <= 1e-14 * scale

    def test_fourth_order_interior(self):
        errs = []
        for n in (17, 33):
            g = Grid(halfwidth=1.0, nodes=n)
            f = np.sin(2.0 * g.points()[..., 0])
            exact = 2.0 * np.cos(2.0 * g.points()[..., 0])
            inner = ~g.margin_mask(2)
            errs.append(np.max(np.abs(diff1(f, g.h, 0) - exact)[inner]))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_one_sided_second_order_margins(self):
        errs = []
        for n in (17, 33):
            g = Grid(halfwidth=1.0, nodes=n)
            f = np.exp(g.points()[..., 2])
            err1 = np.abs(diff1(f, g.h, 2) - f)
            err2 = np.abs(diff2(f, g.h, 2) - f)
            errs.append(max(err1.max(), err2.max()))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.7


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        g = Grid(halfwidth=7.0, nodes=17)
        rng = np.random.default_rng(4)
        field = ScalarGridField(g, rng.normal(size=(17, 17, 17)))
        path = tmp_path / "u.field"
        write_field(path, field, sidecar={"family": "flat"})
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, field.values)
        assert (tmp_path / "u.field.json").exists()

    def test_payload_is_x_fastest(self, tmp_path):
        g = Grid(halfwidth=8.0, nodes=17)
        vals = np.zeros((17, 17, 17))
        vals[3, 0, 0] = 1.0   # x index 3 -> offset 3 in x-fastest order
        path = tmp_path / "u.field"
        write_field(path, ScalarGridField(g, vals))
        import struct
        header = struct.calcsize("<4sHI d 3s")
        raw = np.frombuffer(open(path, "rb").read()[header:], dtype="<f8")
        assert raw[3] == 1.0 and raw.sum() == 1.0

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.field"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_field(path)

    def test_rejects_wrong_payload_length(self, tmp_path):
        g = Grid(halfwidth=7.0, nodes=17)
        path = tmp_path / "u.field"
        write_field(path, ScalarGridField(g, np.zeros((17, 17, 17))))
        raw = path.read_bytes()
        for bad in (raw[:-8], raw + b"\x00" * 8):
            path.write_bytes(bad)
            with pytest.raises(BadFieldDump, match="u.field"):
                read_field(path)

    @given(nodes=st.integers(17, 23).filter(lambda n: n % 2 == 1),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_property(self, nodes, seed):
        import tempfile

        g = Grid(halfwidth=3.0, nodes=nodes)
        vals = np.random.default_rng(seed).normal(size=(nodes,) * 3)
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/f.field"
            write_field(path, ScalarGridField(g, vals))
            assert np.array_equal(read_field(path).values, vals)

    def test_axis_profiles(self, tmp_path):
        # the harmonic stage probes u1, u2, u3 along the three axes
        cfg = config_from_dict({"family": {"tag": "flat", "box_halfwidth": 100.0},
                                "grid": {"nodes": 17, "halfwidth": 10.0},
                                "sampling": {"seed": 1}})
        assert run("harmonic", cfg, out_dir=tmp_path)[0] == 0
        lines = (tmp_path / "harmonic_profiles.csv").read_text().strip().splitlines()
        assert lines[0] == "axis,coord,u1,u2,u3"
        assert len(lines) == 1 + 3 * 17
        assert lines[1].startswith("x,-10.0,")
