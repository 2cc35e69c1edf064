"""Matrix exponential of a (..., k, k) stack, in numpy alone.

Scaling and squaring with the degree-13 Pade approximant, applied per
matrix: each matrix A is scaled by its own 2^-s, the approximant is
evaluated for the whole stack at once, and each result is squared s times.
Only the matrices that still need a squaring are squared: squaring a
finished result again, as masking a squared stack would, can overflow.

The number of squarings follows Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 31 (2009) 970-989: s is set by ||A^p||^(1/p) for p = 6, 8, 10
rather than by ||A|| (Higham, ibid. 26 (2005) 1179-1193), then raised
while a bound on the approximant's backward error exceeds the unit
roundoff.  For nonnormal matrices, such as the companion matrices of
stiff pole sets, ||A|| overstates what the approximant needs, and each
surplus squaring loses accuracy.  The matrices here are small, so the
norms of the powers are computed exactly.
"""

import numpy as np

_THETA_13 = 5.371920351148152
_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0,
      670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
      16380.0, 182.0, 1.0)
# log2 of 1 / |c_27| and of the unit roundoff, for the backward-error bound
_LOG2_C27 = np.log2(113250775606021113483283660800000000.0)
_LOG2_U = -53.0


def _norm1(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _squarings(a):
    """Number of squarings s for each matrix of the (N, k, k) stack."""
    # b = a 2^-s1 has ||b|| <= theta_13, so its powers cannot overflow
    s1 = np.ceil(np.log2(np.maximum(_norm1(a) / _THETA_13, 1.0)))
    b = a / np.exp2(s1)[:, None, None]
    b2 = b @ b
    b4 = b2 @ b2
    b8 = b4 @ b4
    d6, d8, d10 = (_norm1(x) ** (1.0 / p)
                   for p, x in ((6, b4 @ b2), (8, b8), (10, b8 @ b2)))
    eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    s = s1 + np.ceil(np.log2(np.maximum(eta / _THETA_13, np.exp2(-s1))))
    # add the squarings that bring |c_27| || |A 2^-s|^27 || / ||A 2^-s||,
    # the leading term of the backward error, down to u
    abs_b = np.abs(b)
    v = np.ones((b.shape[0], 1, b.shape[-1]))
    for _ in range(27):
        v = v @ abs_b
    top = v.max(axis=(-2, -1))
    live = top > 0.0         # else |b| is nilpotent and the bound is 0
    log2_alpha = (26.0 * (s1 - s) + np.log2(np.where(live, top, 1.0))
                  - np.log2(np.where(live, _norm1(b), 1.0)) - _LOG2_C27)
    ell = np.ceil((log2_alpha - _LOG2_U) / 26.0)
    return (s + np.where(live, np.maximum(ell, 0.0), 0.0)).astype(int)


def expm(a):
    """e^A for each square matrix of the stack ``a``."""
    a = np.asarray(a, dtype=float)
    shape = a.shape
    a = a.reshape(-1, shape[-2], shape[-1])
    s = _squarings(a)
    a = a / np.exp2(s)[:, None, None]
    eye = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (_B[13] * a6 + _B[11] * a4 + _B[9] * a2)
             + _B[7] * a6 + _B[5] * a4 + _B[3] * a2 + _B[1] * eye)
    v = (a6 @ (_B[12] * a6 + _B[10] * a4 + _B[8] * a2)
         + _B[6] * a6 + _B[4] * a4 + _B[2] * a2 + _B[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        idx = s > k
        r[idx] = r[idx] @ r[idx]
    return r.reshape(shape)
