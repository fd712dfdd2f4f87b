"""Counter-based random streams.

Every random draw in the package flows from the single experiment seed
through a Philox key derived from a stage label, so that the order in
which independent stages execute (or whether they run in parallel)
cannot change any result.
"""

import hashlib

import numpy as np


def derive_key(seed: int, *labels) -> int:
    """128-bit Philox key from the master seed and a label path."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest(), "little")


def rng_for(seed: int, *labels) -> np.random.Generator:
    """Independent generator for the stage identified by `labels`."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *labels)))


def unit_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    """n directions uniform on the unit sphere: normal draws, normalised."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ball_offsets(rng: np.random.Generator, n: int, r: float) -> np.ndarray:
    """n offsets uniform in the Euclidean r-ball: unit_directions, then the
    radii r U^(1/3), drawn in that order."""
    dirs = unit_directions(rng, n)
    return dirs * (r * rng.uniform(size=n) ** (1.0 / 3.0))[:, None]
