"""Property tests: solve and scan fail only through their own vocabulary.

On small random pairs with a scaled A, from finite starts and over
finite windows, rqi.solve ends in a Status or raises TwoDevpError, and
oracle.scan returns or raises TwoDevpError; no raw numpy exception
escapes either.  Every hit scan returns is a 2D-eigentriplet.  The
projected 2 x 2 closed form raises nothing on Python numbers, whatever
floats it is given.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twodevp import oracle, rqi
from twodevp.errors import TwoDevpError
from twodevp.harness import random_pair
from twodevp.model import HermitianPair, Triplet, residual
from twodevp.rqi import solve_2x2

from helpers import residual_scale

SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)


@st.composite
def pairs(draw):
    n = draw(st.integers(2, 6))
    pos = draw(st.integers(1, n - 1))
    base = random_pair(n, (pos, n - pos), draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return HermitianPair(scale * base.a, base.c)


@SETTINGS
@given(pairs(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(0, 2**16))
def test_solve_ends_in_a_status_or_raises_twodevp_error(pair, mu0, lam0, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n)
    try:
        trace = rqi.solve(pair, Triplet.normalized(mu0, lam0, x0))
    except TwoDevpError:
        return
    assert isinstance(trace.status, rqi.Status)


@SETTINGS
@given(pairs(), st.floats(-2.0, 0.0), st.floats(1e-3, 4.0), st.integers(8, 40))
def test_scan_returns_or_raises_twodevp_error(pair, lo, width, n_grid):
    # the window in units of |A|: sigma_min(C) = 1, so every 2D-eigenvalue has |mu| <= 2|A|
    try:
        hits, _ = oracle.scan(pair, lo * pair.norm_a, (lo + width) * pair.norm_a, n_grid)
    except TwoDevpError:
        return
    assert all(isinstance(h.kind, oracle.HitKind) for h in hits)
    for h in hits:
        assert np.linalg.norm(residual(pair, h.triplet)) <= 1e-10 * residual_scale(pair, h.triplet.mu, h.triplet.lam)


# floats from subnormal to 1e300 in magnitude, spread over their exponents, and inf and NaN
FLOATS = (st.floats(-1e300, 1e300)
          | st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((1.0, -1.0)), st.floats(-330.0, 300.0))
          | st.sampled_from((math.inf, -math.inf, math.nan)))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS)
def test_solve_2x2_on_python_numbers_raises_nothing_and_agrees_with_arrays(a11, re12, im12, a22, c1, c2):
    # a step from one start takes its 2 x 2 tail on Python numbers, which
    # raise where numpy warns; the closed form divides by nothing that can
    # be zero, and it flags and fills each problem as arrays of length one do
    form = (a11, complex(re12, im12), a22, c1, c2)
    one = solve_2x2(*form)
    assert type(one.indefinite) is bool
    with np.errstate(all="ignore"):
        stack = solve_2x2(*(np.array([v]) for v in form))
        pairs = [(one.nu, stack.nu[0]), (one.theta, stack.theta[0]), (one.z, stack.z[0])]
    assert stack.indefinite.tolist() == [one.indefinite]
    for got, want in pairs:
        got, want = got.astype(complex).view(float), want.astype(complex).view(float)
        assert np.array_equal(np.isnan(got), np.isnan(want)) and np.array_equal(np.isinf(got), np.isinf(want))
