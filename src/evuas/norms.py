"""The one vector norm, seeded directions and the three sampled spheres.

Every norm of a state, a W value or a running integral is
:func:`point_norms`, "euclidean" or "inf".  verify and classify sample
their balls by :func:`sphere_samples`, on spheres at r, r/2 and r/4.
"""

import numpy as np

NORM_IDS = ("euclidean", "inf")


def check_norm_id(norm):
    if norm not in NORM_IDS:
        raise ValueError(f"unknown norm {norm!r}, expected one of {NORM_IDS}")
    return norm


def unit_directions(dim, count, rng):
    """(count, dim) seeded directions, uniform on the unit sphere: each row
    a standard normal draw of ``rng`` divided by its Euclidean norm."""
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def sphere_samples(radius, dirs):
    """The radii (r, r/2, r/4) and the rows ``radius * dirs`` of each,
    sphere-major: row i lies on the sphere of ``radii[i // len(dirs)]``."""
    radii = (radius, radius / 2.0, radius / 4.0)
    return radii, np.concatenate([r * dirs for r in radii])


def point_norms(v, norm="euclidean"):
    """Norm over the last axis: a row of a stack has the norm of that
    vector alone, whatever the stack's shape (the Euclidean norm is the
    square root of the row's dot product with itself)."""
    v = np.asarray(v, dtype=float)
    if check_norm_id(norm) == "inf":
        return np.max(np.abs(v), axis=-1)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])
