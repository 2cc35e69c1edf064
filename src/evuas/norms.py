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


def max_row_norm(rows, norm="euclidean"):
    """Largest norm over the rows of a 2-d array, each row's bit for bit
    as :func:`vector_norm` of that row alone (a dot product, which the
    row-wise reduction of a 2-d array is not)."""
    rows = np.asarray(rows, dtype=float)
    if norm == "euclidean":
        return float(np.sqrt(np.max(rows[:, None] @ rows[:, :, None])))
    if norm == "inf":
        return float(np.max(np.abs(rows)))
    raise ValueError(f"unknown norm {norm!r}, expected one of {NORM_IDS}")
