"""Vector norms selectable by identifier ("euclidean" or "inf")."""

import numpy as np

NORM_IDS = ("euclidean", "inf")


def check_norm_id(norm):
    if norm not in NORM_IDS:
        raise ValueError(f"unknown norm {norm!r}, expected one of {NORM_IDS}")
    return norm


def vector_norm(v, norm="euclidean"):
    """Norm of a vector (or of each row of a 2-d array of stacked vectors)."""
    v = np.asarray(v, dtype=float)
    if norm == "euclidean":
        return np.linalg.norm(v, axis=-1) if v.ndim > 1 else float(np.linalg.norm(v))
    if norm == "inf":
        m = np.max(np.abs(v), axis=-1) if v.ndim > 1 else float(np.max(np.abs(v)))
        return m
    raise ValueError(f"unknown norm {norm!r}, expected one of {NORM_IDS}")


def unit_directions(dim, count, rng):
    """(count, dim) seeded directions, uniform on the unit sphere: each row
    a standard normal draw of ``rng`` divided by its Euclidean norm."""
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def point_norms(v, norm="euclidean"):
    """Norm over the last axis of an array, each value bit for bit as
    :func:`vector_norm` of that vector alone (a dot product for the
    Euclidean norm, which a reduction over an axis is not)."""
    v = np.asarray(v, dtype=float)
    if norm == "euclidean":
        return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])
    if norm == "inf":
        return np.max(np.abs(v), axis=-1)
    raise ValueError(f"unknown norm {norm!r}, expected one of {NORM_IDS}")
