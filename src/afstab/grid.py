"""Structured Cartesian grids, grid fields, and their flat binary format."""

import struct
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

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
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        return np.stack([X, Y, Z], axis=-1)

    def margin_mask(self, width: int = 2) -> np.ndarray:
        """Nodes within `width` cells of the box boundary."""
        m = np.ones((self.nodes,) * 3, dtype=bool)
        s = slice(width, self.nodes - width)
        m[s, s, s] = False
        return m


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


def interpolator(grid: Grid, values: np.ndarray):
    """Trilinear interpolator of nodal values (N, N, N, ...) on the grid;
    points outside the box raise ValueError."""
    ax = grid.axis
    return RegularGridInterpolator((ax, ax, ax), values, method="linear",
                                   bounds_error=True)


# ---------------------------------------------------------------------------
# finite-difference stencils for post-processing, one (N, N, N) derivative a
# call (a mixed second derivative is diff1 of a diff1 partial); the harmonic
# operator is its own face-flux stencil (harmonic.LaplaceBeltrami)


def diff1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative: 4th-order centered, degrading to 2nd order in the
    two-cell margin (centered at depth 1, one-sided on the faces)."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[1] = (v[2] - v[0]) / (2.0 * h)
    out[-2] = (v[-1] - v[-3]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def diff2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Pure second derivative with the same interior/margin orders as diff1."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2]
                 + 16.0 * v[3:-1] - v[4:]) / (12.0 * h**2)
    out[1] = (v[0] - 2.0 * v[1] + v[2]) / h**2
    out[-2] = (v[-3] - 2.0 * v[-2] + v[-1]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Coordinate partials d_a u, shape (N, N, N, 3)."""
    return np.stack([diff1(values, h, a) for a in range(3)], axis=-1)


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

