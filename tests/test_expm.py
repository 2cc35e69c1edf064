"""The numpy-only matrix exponential against scipy's as the oracle.

Bound, for each matrix: |E - R|_max <= 1e-12 max(1, ||A||_1) |R|_max, with
E the package's e^A and R scipy's; for the companion matrices of spread
pole sets, whose norm overstates their scale, 1e-9 |R|_max.  The suite
turns every warning into an error, so an overflow inside the squarings
fails these tests too.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evuas._expm import _squarings, expm


def _assert_close(a, e):
    r = scipy.linalg.expm(a)
    scale = max(1.0, float(np.abs(a).sum(axis=0).max()))
    assert np.abs(e - r).max() <= 1e-12 * scale * np.abs(r).max()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 12), norm=st.floats(0.0, 200.0))
def test_random_matrices_match_the_oracle(data, k, norm):
    a = data.draw(arrays(float, (k, k), elements=st.floats(-1.0, 1.0)))
    size = np.abs(a).sum(axis=0).max()
    if size > 0.0:
        a *= norm / size
    _assert_close(a, expm(a))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), t=st.floats(0.0, 50.0))
def test_jordan_blocks_match_the_oracle(n, t):
    # t (-I + N): not diagonalizable, one eigenvalue of multiplicity n
    a = t * (np.eye(n, k=1) - np.eye(n))
    _assert_close(a, expm(a))


@settings(max_examples=100, deadline=None)
@given(exponents=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=7),
       frac=st.floats(0.0, 1.0))
def test_companion_matrices_of_spread_poles_match_the_oracle(exponents,
                                                             frac):
    # the companion block of the overshoot estimate over its time range;
    # scaling by ||A|| alone squares these nonnormal matrices too often and
    # misses this bound by up to 2e2 times on poles spread over 4 decades
    poles = -(10.0 ** np.array(exponents))
    n = poles.size
    a = np.eye(n, k=1)
    a[-1] = -np.poly(poles)[1:][::-1]
    a *= frac * 20.0 / -poles.max()
    r = scipy.linalg.expm(a)
    assert np.abs(expm(a) - r).max() <= 1e-9 * np.abs(r).max()


def test_the_zero_matrix_gives_the_identity():
    assert expm(np.zeros((1, 1))).tolist() == [[1.0]]


def test_a_mixed_norm_stack_squares_only_what_needs_it():
    # e^700 is within a factor 1e4 of the largest double, so one squaring
    # more than its own overflows, and the third matrix needs more
    stack = np.array([[[1e-3, 0.0], [0.0, 0.5]],
                      [[700.0, 1.0], [0.0, 690.0]],
                      [[-3000.0, 5.0], [0.0, -2990.0]],
                      [[0.5, -0.2], [0.1, 0.3]]])
    s = _squarings(stack)
    assert s[0] == 0 and s[3] == 0 and 0 < s[1] < s[2]
    e = expm(stack)
    assert e.shape == stack.shape
    for a, ea in zip(stack, e):
        _assert_close(a, ea)


def test_stacks_keep_their_shape():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4, 4)) * [[[[1.0]]], [[[40.0]]]]
    e = expm(a)
    assert e.shape == a.shape
    for idx in np.ndindex(a.shape[:2]):
        _assert_close(a[idx], e[idx])
    assert expm(np.zeros((0, 2, 2))).shape == (0, 2, 2)
