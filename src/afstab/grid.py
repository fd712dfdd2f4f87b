"""Structured Cartesian grids, grid fields, and their flat binary format."""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadFieldDump
from .reporting import write_json

MAGIC = b"AFSF"
FORMAT_VERSION = 1
HEADER = "<4sHI d 3s"     # magic, version, nodes, halfwidth, axis order


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [-halfwidth, halfwidth]^3.

    nodes must be odd and >= 17 so a node sits at the box center; spacing
    h = 2 halfwidth / (nodes - 1).
    """

    halfwidth: float
    nodes: int

    def __post_init__(self):
        if self.nodes < 17 or self.nodes % 2 == 0:
            raise ValueError(f"grid nodes must be odd and >= 17, got {self.nodes}")
        if not 0 < self.halfwidth < np.inf:
            raise ValueError(f"grid halfwidth must be finite and positive, "
                             f"got {self.halfwidth}")

    @property
    def h(self) -> float:
        return 2.0 * self.halfwidth / (self.nodes - 1)

    @property
    def axis(self) -> np.ndarray:
        return -self.halfwidth + self.h * np.arange(self.nodes)

    def points(self) -> np.ndarray:
        """All node coordinates, shape (N, N, N, 3) indexed [ix, iy, iz]."""
        ax = self.axis
        return lattice(ax, ax, ax)

    def x_slab(self, i: int) -> np.ndarray:
        """The node coordinates of x-slab i, points()[i], shape (N, N, 3)."""
        ax = self.axis
        return lattice(ax[i:i + 1], ax, ax)[0]

    def radii(self, center=(0.0, 0.0, 0.0)) -> np.ndarray:
        """|x - center| at every node, shape (N, N, N), bit for bit
        np.linalg.norm(points() - center, axis=-1), without the points."""
        sq = [(self.axis - c) ** 2 for c in center]
        r = sq[0][:, None, None] + sq[1][:, None] + sq[2]
        return np.sqrt(r, out=r)

    def margin_mask(self, width: int = 2) -> np.ndarray:
        """Nodes within `width` cells of the box boundary."""
        m = np.ones((self.nodes,) * 3, dtype=bool)
        s = slice(width, self.nodes - width)
        m[s, s, s] = False
        return m


def lattice(x, y, z) -> np.ndarray:
    """The points of the tensor lattice of three coordinate arrays, shape
    (len(x), len(y), len(z), 3) indexed [ix, iy, iz], filled in place."""
    pts = np.empty((len(x), len(y), len(z), 3))
    pts[..., 0] = x[:, None, None]
    pts[..., 1] = y[:, None]
    pts[..., 2] = z
    return pts


@dataclass
class ScalarGridField:
    grid: Grid
    values: np.ndarray   # (N, N, N)

    def __post_init__(self):
        expected = (self.grid.nodes,) * 3
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != grid shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid field contains non-finite values")


# points per chunk of a Trilinear call
CHUNK = 4096


class Trilinear:
    """Trilinear interpolation of nodal values on N^3 nodes, bit for bit
    the "linear" method of scipy's regular-grid interpolator (the reference
    is tests/oracles.py::rgi_reference).

    axes: the node coordinates of each axis, three ascending arrays of
    length N; values: (N, N, N) or (N, N, N, 3), read through a flat view
    (a C-contiguous array is not copied).  Points (..., 3) give
    (...) + values.shape[3:], and one point (3,) gives
    (1,) + values.shape[3:].

    A point is inside when each coordinate lies between the end nodes of
    its axis, or within box = (lo, hi) when that is wider: a grid's last
    node can fall a rounding error short of its halfwidth, and a point
    clipped to the box then extrapolates the last cell.  With outside=None
    a point not inside, or with a NaN coordinate, raises ValueError;
    otherwise it reads `outside`, and a NaN point reads NaN.
    """

    def __init__(self, axes, values: np.ndarray, outside=None, box=None):
        nodes = np.array(axes, dtype=float)                  # (3, N)
        n = nodes.shape[1]
        if nodes.shape[0] != 3 or values.shape[:3] != (n, n, n):
            raise ValueError(f"values {values.shape} do not fit axes {nodes.shape}")
        self.inner = tuple(ax[1:-1] for ax in nodes)
        self.nodes = nodes.ravel()
        self.rows = n * np.arange(3)[:, None]                # axis a starts at a N
        self.lo, self.hi = nodes[:, :1], nodes[:, -1:]
        if box is not None:
            self.lo = np.minimum(self.lo, box[0])
            self.hi = np.maximum(self.hi, box[1])
        self.n = n
        self.tail = values.shape[3:]
        self.flat = values.reshape((-1,) + self.tail)
        # flat offsets of the 8 cell corners, x slowest and z fastest
        self.corners = np.array([[(dx * n + dy) * n + dz] for dx in (0, 1)
                                 for dy in (0, 1) for dz in (0, 1)])
        self.outside = outside

    def __call__(self, pts) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        if p.shape[-1:] != (3,):
            raise ValueError(f"points of shape {p.shape} are not 3-vectors")
        shape = p.shape[:-1] if p.ndim > 1 else (1,)
        pt = np.ascontiguousarray(p.reshape(-1, 3).T)
        if self.outside is None and not np.all((self.lo <= pt) & (pt <= self.hi)):
            raise ValueError("a point lies outside the interpolation box")
        # in chunks, so a call on every node of a grid keeps its transients
        # small (no points make one empty chunk)
        out = np.concatenate([self._cells(pt[:, s:s + CHUNK])
                              for s in range(0, max(pt.shape[1], 1), CHUNK)])
        if self.outside is not None:
            out[((pt < self.lo) | (pt > self.hi)).any(axis=0)] = self.outside
            out[np.isnan(pt).any(axis=0)] = np.nan
        return out.reshape(shape + self.tail)

    def _cells(self, pt):
        # cell i = clip(searchsorted(ax, p, "right") - 1, 0, N - 2), found
        # directly among the inner nodes; t = (p - ax[i]) / (ax[i+1] - ax[i])
        i = np.array([ax.searchsorted(q, "right") for ax, q in zip(self.inner, pt)])
        j = i + self.rows
        x0 = self.nodes.take(j)
        t = (pt - x0) / (self.nodes.take(j + 1) - x0)
        w = np.array([1.0 - t, t])                           # (2, 3, m)
        wxy = w[:, 0, None] * w[None, :, 1]                  # (2, 2, m)
        weights = (wxy[:, :, None] * w[:, 2]).reshape((8, -1) + (1,) * len(self.tail))
        base = (i[0] * self.n + i[1]) * self.n + i[2]
        terms = self.flat.take(self.corners + base, axis=0) * weights
        # corner by corner, left to right from 0.0 (so -0.0 reads +0.0)
        return sum(terms, 0.0)


def interpolator(grid: Grid, values: np.ndarray) -> Trilinear:
    """Trilinear interpolator of nodal values (N, N, N[, 3]) on the grid;
    points outside the box [-halfwidth, halfwidth]^3 raise ValueError."""
    ax = grid.axis
    return Trilinear((ax, ax, ax), values, box=(-grid.halfwidth, grid.halfwidth))


# ---------------------------------------------------------------------------
# finite-difference stencils for post-processing, one (N, N, N) derivative a
# call (a mixed second derivative is diff1 of a diff1 partial); the harmonic
# operator is its own face-flux stencil (harmonic.LaplaceBeltrami)


def diff1(values: np.ndarray, h: float, axis: int, out=None) -> np.ndarray:
    """First derivative: 4th-order centered, degrading to 2nd order in the
    two-cell margin (centered at depth 1, one-sided on the faces).  Written
    into `out` (any (N, N, N) view, e.g. one partial of a gradient) when
    given, else into a new array."""
    v = np.moveaxis(values, axis, 0)
    if out is None:
        out = np.empty_like(values)
    o = np.moveaxis(out, axis, 0)
    # (v0 - 8 v1 + 8 v3 - v4) / 12h, left to right, on two scratch arrays
    t = np.multiply(v[1:-3], 8.0)
    np.subtract(v[:-4], t, out=t)
    t += np.multiply(v[3:-1], 8.0)
    t -= v[4:]
    np.divide(t, 12.0 * h, out=o[2:-2])
    o[1] = (v[2] - v[0]) / (2.0 * h)
    o[-2] = (v[-1] - v[-3]) / (2.0 * h)
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def diff2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Pure second derivative with the same interior/margin orders as diff1."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(values)
    o = np.moveaxis(out, axis, 0)
    # (-v0 + 16 v1 - 30 v2 + 16 v3 - v4) / 12h^2, left to right, in o
    inner = np.negative(v[:-4], out=o[2:-2])
    t = np.multiply(v[1:-3], 16.0)
    inner += t
    inner -= np.multiply(v[2:-2], 30.0, out=t)
    inner += np.multiply(v[3:-1], 16.0, out=t)
    inner -= v[4:]
    inner /= 12.0 * h**2
    o[1] = (v[0] - 2.0 * v[1] + v[2]) / h**2
    o[-2] = (v[-3] - 2.0 * v[-2] + v[-1]) / h**2
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return out


def gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Coordinate partials d_a u, component-major: shape (3, N, N, N), so
    each partial out[a] is one C-contiguous (N, N, N) array, written in
    place, and a product of two partials streams through memory (a partial
    of an interleaved (N, N, N, 3) array is a stride-3 view).  Contract two
    such fields with dot3."""
    out = np.empty((3,) + values.shape)
    for a in range(3):
        diff1(values, h, a, out=out[a])
    return out


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[k] b[k] of two component-major (3, ...) fields, bit for bit
    np.einsum("...a,...a->...") on the contiguous (..., 3) layout.

    The order is fixed here, not left to einsum, whose length-3 sum
    depends on the operand's memory layout: on contiguous (..., 3) data
    numpy sums from +0.0 as (a0 b0 + a2 b2) + a1 b1, which is the order
    written out below (the +0.0 turns a sum of three -0.0 into +0.0)."""
    out = np.multiply(a[0], b[0])
    out += 0.0
    t = np.multiply(a[2], b[2])
    out += t
    out += np.multiply(a[1], b[1], out=t)
    return out


# ---------------------------------------------------------------------------
# flat binary field format: header (magic, version, N, halfwidth, axis order)
# then nodes^3 8-byte little-endian reals in x-fastest order


def write_field(path, field: ScalarGridField, sidecar: dict | None = None):
    header = struct.pack(HEADER, MAGIC, FORMAT_VERSION, field.grid.nodes,
                         field.grid.halfwidth, b"xyz")
    payload = np.ascontiguousarray(field.values.astype("<f8").T).tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    if sidecar is not None:
        write_json(str(path) + ".json", sidecar)


def read_field(path) -> ScalarGridField:
    """Read a field dump; raises BadFieldDump, naming the file, when the
    header is wrong, the payload is not exactly nodes^3 reals, or the
    grid or the values are invalid."""
    head_size = struct.calcsize(HEADER)
    with open(path, "rb") as f:
        head = f.read(head_size)
        payload = f.read()
    if len(head) != head_size:
        raise BadFieldDump(f"{path}: truncated header ({len(head)} bytes)")
    magic, version, n, halfwidth, order = struct.unpack(HEADER, head)
    if magic != MAGIC:
        raise BadFieldDump(f"{path}: not a field dump (magic {magic!r})")
    if version != FORMAT_VERSION or order != b"xyz":
        raise BadFieldDump(f"{path}: unsupported version/layout")
    if len(payload) != 8 * n**3:
        raise BadFieldDump(f"{path}: payload holds {len(payload)} bytes, "
                           f"expected {8 * n**3} for {n}^3 nodes")
    # stored z-slow, x-fast
    values = np.frombuffer(payload, dtype="<f8").reshape((n, n, n)).T.copy()
    try:
        return ScalarGridField(Grid(halfwidth=halfwidth, nodes=n), values)
    except ValueError as exc:
        raise BadFieldDump(f"{path}: {exc}") from None

