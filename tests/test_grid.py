"""Grid construction, stencils, and the binary field format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afstab.cli import run
from afstab.config import config_from_dict
from afstab.errors import BadFieldDump
from afstab.grid import (Grid, ScalarGridField, Trilinear, diff1, diff2, dot3, gradient,
                         interpolator, read_field, write_field)

from oracles import diff1_reference, diff2_reference, gradient_reference, rgi_reference


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


    def test_coordinates_without_meshgrid(self):
        # points, x-slabs and radii bit for bit the meshgrid/stack points and
        # np.linalg.norm of them, the forms they replaced
        for n, center in ((17, (0.0, 0.0, 0.0)), (33, (2.0, 0.0, 0.0)),
                          (33, (0.3, -1.7, 2.9))):
            g = Grid(halfwidth=20.0, nodes=n)
            ref = np.stack(np.meshgrid(g.axis, g.axis, g.axis, indexing="ij"), axis=-1)
            assert np.array_equal(bits(g.points()), bits(ref))
            for i in (0, n // 2, n - 1):
                assert np.array_equal(bits(g.x_slab(i)), bits(ref[i]))
            radii = np.linalg.norm(ref - np.asarray(center), axis=-1)
            assert np.array_equal(bits(g.radii(center)), bits(radii))
            assert np.array_equal(bits(g.radii()), bits(np.linalg.norm(ref, axis=-1)))


class TestStencils:
    def test_in_place_stencils_match_references(self):
        # diff1, diff2 and gradient bit for bit the one-expression stencils
        # and the stacked partials, on a field and on one partial of a
        # gradient (as |Hess u|^2 reads it)
        g = Grid(halfwidth=3.0, nodes=17)
        f = np.random.default_rng(3).normal(size=(17, 17, 17))
        df = gradient(f, g.h)
        assert np.array_equal(bits(df), bits(gradient_reference(f, g.h)))
        for values in (f, df[1]):
            for a in range(3):
                assert np.array_equal(bits(diff1(values, g.h, a)),
                                      bits(diff1_reference(values, g.h, a)))
                assert np.array_equal(bits(diff2(values, g.h, a)),
                                      bits(diff2_reference(values, g.h, a)))

    def test_exact_on_cubics(self):
        g = Grid(halfwidth=2.0, nodes=21)
        pts = g.points()
        f = pts[..., 0] ** 3 + 2.0 * pts[..., 1] ** 2 * pts[..., 2]
        inner = ~g.margin_mask(2)
        df = gradient(f, g.h)
        assert np.allclose(df[0][inner], (3 * pts[..., 0] ** 2)[inner], atol=1e-10)
        dxx = diff2(f, g.h, 0)
        assert np.allclose(dxx[inner], (6 * pts[..., 0])[inner], atol=1e-9)
        dyz = diff1(df[2], g.h, 1)   # a mixed entry: diff1 of a partial
        assert np.allclose(dyz[inner], (4 * pts[..., 1])[inner], atol=1e-9)

    def test_dot3_matches_einsum(self):
        # bit for bit np.einsum on the contiguous (..., 3) layout, whose
        # length-3 sum starts from +0.0: random fields, and every sign
        # pattern of zeros and ones (three -0.0 products sum to +0.0)
        rng = np.random.default_rng(11)
        signed = np.array([0.0, -0.0, 1.0, -1.0])
        combos = np.stack(np.meshgrid(*[signed] * 6, indexing="ij"), axis=-1).reshape(-1, 6)
        pairs = [(combos[:, :3].copy(), combos[:, 3:].copy())]
        for shape in ((17, 17, 17, 3), (33, 33, 33, 3), (5, 3), (1, 3)):
            a, b = rng.normal(size=shape), rng.normal(size=shape)
            pairs += [(a, b), (a, a)]
        for a, b in pairs:
            ref = np.einsum("...a,...a->...", a, b)
            got = dot3(np.ascontiguousarray(np.moveaxis(a, -1, 0)),
                       np.ascontiguousarray(np.moveaxis(b, -1, 0)))
            assert np.array_equal(bits(got), bits(ref)), a.shape

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


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestTrilinear:
    """Trilinear against scipy's interpolator, bit for bit, on a 17^3 grid."""

    GRID = Grid(halfwidth=4.0, nodes=17)

    @classmethod
    def probes(cls):
        """Random points, every node, points on the box faces and the corners."""
        hw = cls.GRID.halfwidth
        rng = np.random.default_rng(11)
        faces = rng.uniform(-hw, hw, size=(6, 40, 3))
        for k, (a, side) in enumerate((a, s) for a in range(3) for s in (-hw, hw)):
            faces[k, :, a] = side
        corners = np.array([[x, y, z] for x in (-hw, hw) for y in (-hw, hw)
                            for z in (-hw, hw)])
        return np.concatenate([rng.uniform(-hw, hw, size=(500, 3)),
                               cls.GRID.points().reshape(-1, 3),
                               faces.reshape(-1, 3), corners])

    @pytest.fixture(params=[(), (3,)], ids=["scalar", "vector"])
    def values(self, request):
        shape = (self.GRID.nodes,) * 3 + request.param
        return np.random.default_rng(5).normal(size=shape)

    def test_bounded_matches_reference(self, values):
        ax = self.GRID.axis
        mine = interpolator(self.GRID, values)
        ref = rgi_reference((ax, ax, ax), values)
        pts = self.probes()
        for shaped in (pts, pts[7], pts[:20].reshape(4, 5, 3), pts[:0]):
            got, want = mine(shaped), ref(shaped)
            assert got.shape == want.shape
            assert np.array_equal(bits(got), bits(want))

    def test_outside_value_on_offset_axes(self, values):
        # per-axis offset axes, as a DistanceField has, with an inf fill
        center = np.array([2.0, 0.3, -0.7])
        axes = tuple(c + 0.5 * self.GRID.axis for c in center)
        mine = Trilinear(axes, values, outside=np.inf)
        ref = rgi_reference(axes, values, outside=np.inf)
        inside = center + 0.5 * self.probes()      # its nodes, faces and corners
        pts = np.concatenate([inside, inside + 1.0])
        got, want = mine(pts), ref(pts)
        assert np.isinf(got).any() and np.isfinite(got).any()
        assert np.array_equal(bits(got), bits(want))

    def test_nan_points(self, values):
        ax = self.GRID.axis
        pts = np.array([[0.5, np.nan, 0.0], [0.5, 0.25, 0.0], [np.nan] * 3])
        for f in (interpolator(self.GRID, values), rgi_reference((ax, ax, ax), values)):
            with pytest.raises(ValueError):
                f(pts)
        mine = Trilinear((ax, ax, ax), values, outside=np.inf)
        got = mine(pts)
        want = rgi_reference((ax, ax, ax), values, outside=np.inf)(pts)
        assert np.isnan(got[[0, 2]]).all() and not np.isnan(got[1]).any()
        assert np.array_equal(bits(got), bits(want))

    def test_zero_sum_is_positive_zero(self):
        ax = self.GRID.axis
        zeros = np.full((self.GRID.nodes,) * 3, -0.0)
        pts = self.probes()[:50]
        got = interpolator(self.GRID, zeros)(pts)
        assert np.array_equal(bits(got), bits(rgi_reference((ax, ax, ax), zeros)(pts)))
        assert not np.signbit(got).any()

    def test_values_read_through_a_view(self, values):
        assert np.shares_memory(interpolator(self.GRID, values).flat, values)

    def test_outside_box_raises(self, values):
        f = interpolator(self.GRID, values)
        for bad in ([4.0 + 1e-9, 0.0, 0.0], [[0.0, -4.5, 0.0]], [[0.0, 0.0, 1e300]]):
            with pytest.raises(ValueError):
                f(np.array(bad))
        with pytest.raises(ValueError):
            f(np.zeros((2, 4)))

    def test_box_edge_short_of_last_node(self):
        # Grid(15, 23)'s last node is 3.6e-15 short of +15: a point clipped
        # to the box lies past it, and takes the last cell
        g = Grid(halfwidth=15.0, nodes=23)
        assert g.axis[-1] < 15.0
        f = interpolator(g, g.points()[..., 0] + 2.0 * g.points()[..., 1])
        edge = np.clip([[16.0, 0.5, 0.0], [-16.0, 16.0, 0.0]], -15.0, 15.0)
        assert np.allclose(f(edge), [16.0, 15.0], rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            f(np.array([15.0 + 1e-9, 0.0, 0.0]))


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
