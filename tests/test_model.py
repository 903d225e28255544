import math
import warnings

import numpy as np
import pytest

from twodevp import refpairs
from twodevp.classify import Target, classify
from twodevp.curves import eig_at
from twodevp.errors import TwoDevpError
from twodevp.harness import conditioning_study, random_pair, scaling_study
from twodevp.model import (
    HermitianPair,
    Triplet,
    TripletStack,
    jacobian,
    jacobian_hat,
    load_pair,
    load_triplet,
    residual,
    residual_norm,
    save_pair,
    save_triplet,
)
from twodevp.oracle import scan

SQ2 = np.sqrt(2.0)


def test_pair_requires_indefinite_c():
    with pytest.raises(TwoDevpError, match="both positive and negative"):
        HermitianPair(np.eye(2), np.eye(2))


def test_pair_rejects_asymmetric():
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(TwoDevpError, match="asymmetry .* exceeds tolerance"):
        HermitianPair(asym, np.diag([1.0, -1.0]))
    with pytest.raises(TwoDevpError, match="asymmetry .* exceeds tolerance"):
        HermitianPair(np.eye(2), asym)


def test_empty_pair_is_rejected():
    with pytest.raises(TwoDevpError, match="0x0, not square and nonempty"):
        HermitianPair(np.zeros((0, 0)), np.zeros((0, 0)))


def test_pair_past_the_float_range_fails_where_it_enters():
    # symmetrized as M/2 + M^H/2, entries near 1e308 do not overflow; a
    # pair whose |A| + |C| does is rejected, and one at 1e307 builds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TwoDevpError, match="past the float range"):
            HermitianPair(np.diag([1e308, -1e308, 1e308]), np.diag([1e308, -1e308, 1.0]))
        pair = HermitianPair(np.diag([1e307, -1e307, 1e307]), np.diag([1e307, -1e307, 1.0]))
    assert np.isfinite(pair.norm_a + pair.norm_c)


def test_pair_requires_matching_shapes():
    with pytest.raises(TwoDevpError, match="A is 3x3 but C is 2x2"):
        HermitianPair(np.eye(3), np.diag([1.0, -1.0]))


def test_pairs_compare_and_hash_by_identity():
    # a generated __eq__ would compare the ndarray fields and raise
    p, q = refpairs.simple_pair_desk()[0], refpairs.simple_pair_desk()[0]
    assert np.array_equal(p.a, q.a) and np.array_equal(p.c, q.c)
    assert p == p and p != q and not p == q
    assert len({p, q, p}) == 2


def test_pair_norms_match_svd():
    rng = np.random.default_rng(7)
    for n in (2, 5, 16):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = np.diag(np.where(np.arange(n) % 2 == 0, 3.0, -0.5))
        pair = HermitianPair(0.5 * (g + g.conj().T), d)
        for norm, m in ((pair.norm_a, pair.a), (pair.norm_c, pair.c)):
            assert type(norm) is float
            assert abs(norm - np.linalg.svd(m, compute_uv=False)[0]) <= 1e-14 * norm


def test_residual_zero_at_simple_solution():
    pair = refpairs.simple_pair_2x2()
    f = residual(pair, refpairs.simple_target_2x2())
    assert np.linalg.norm(f) <= 1e-15


def test_residual_zero_at_multiple_solution():
    pair = refpairs.multiple_pair_2x2()
    f = residual(pair, refpairs.multiple_target_2x2())
    assert np.linalg.norm(f) <= 1e-15


def test_residual_norm_constraint_entry():
    pair = refpairs.simple_pair_2x2()
    t = Triplet(0.3, -0.7, 2.0 * np.array([1.0, 0.0]))
    f = residual(pair, t)
    assert f.shape == (pair.n + 2,)
    assert np.isclose(f[-1].real, -1.5)
    assert f[-1].imag == 0.0
    assert f[-2].imag == 0.0


def test_residual_phase_invariance():
    pair = refpairs.simple_pair_2x2()
    t = Triplet(0.2, 0.4, np.array([0.6, 0.8j]))
    t2 = Triplet(0.2, 0.4, t.x * np.exp(1j * 1.3))
    f1, f2 = residual(pair, t), residual(pair, t2)
    assert np.isclose(np.linalg.norm(f1), np.linalg.norm(f2))
    assert f1[-1] == f2[-1]
    assert np.isclose(f1[-2].real, f2[-2].real)


def test_residual_norm_scales_with_the_pair():
    # the plain 2-norm inside the normal range; outside it, where its sum of
    # squares over- or underflows, the norm of F taken at a power of two,
    # against math.hypot, which scales as it sums
    pair, trip = refpairs.simple_pair_desk()
    t = Triplet.normalized(trip.mu + 0.01, trip.lam - 0.01, trip.x + 0.01)
    assert residual_norm(pair, t) == float(np.linalg.norm(residual(pair, t)))
    # at a unit basis vector, F's last entry is exactly 0 and every entry scales
    for x in (t.x, np.eye(pair.n)[0]):
        for s in (1e-300, 1e-200, 1e160, 1e300):
            scaled, ts = HermitianPair(s * pair.a, s * pair.c), Triplet(t.mu, s * t.lam, x)
            f = residual(scaled, ts)
            exact = math.hypot(*np.abs(f.real), *np.abs(f.imag))
            assert 0.0 < exact < np.inf
            assert abs(residual_norm(scaled, ts) - exact) <= 1e-14 * exact
    assert residual_norm(pair, trip) < 1e-14
    assert np.isnan(residual_norm(pair, Triplet(np.nan, trip.lam, trip.x)))


def test_residual_dimension_mismatch():
    pair = refpairs.simple_pair_2x2()
    with pytest.raises(TwoDevpError, match="triplet has length 3, pair has n=2"):
        residual(pair, Triplet(0.0, 0.0, np.ones(3)))


def test_jacobian_is_exactly_hermitian():
    pair = refpairs.simple_pair_2x2()
    j = jacobian(pair, Triplet(0.3, 0.1, np.array([0.8, 0.6j])))
    assert np.array_equal(j, j.conj().T)


def test_jacobian_nonsingular_at_simple_target():
    pair = refpairs.simple_pair_2x2()
    j = jacobian(pair, refpairs.simple_target_2x2())
    assert np.linalg.svd(j, compute_uv=False)[-1] > 0.1


def test_jacobian_singular_when_cx_vanishes():
    pair = HermitianPair(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, -1.0, 0.0]))
    j = jacobian(pair, Triplet(0.0, 3.0, np.array([0.0, 0.0, 1.0])))
    assert np.allclose(j[:, 3], 0.0)
    assert np.linalg.svd(j, compute_uv=False)[-1] == 0.0


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("n", [8, 64])
def test_weighted_jacobian_is_the_jacobian_with_its_x_border_scaled(n, k):
    # bitwise, signed zeros included: the weighted border is the product
    # that scaling the built J's border by the weight forms
    pair = random_pair(n, (n // 2, n // 2), n + k)
    rng = np.random.default_rng(k)
    x = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    x[0, :4] = (0.0, -0.0, 1j, -0.0 - 1j)
    t = TripletStack(rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, k), x / np.linalg.norm(x, axis=1)[:, None])
    weight = pair.norm_a + pair.norm_c
    ref = jacobian(pair, t)
    ref[:, :n, n + 1] *= weight
    ref[:, n + 1, :n] *= weight
    assert jacobian(pair, t, weight).tobytes() == ref.tobytes()
    assert jacobian(pair, t, 1.0).tobytes() == jacobian(pair, t).tobytes()


def test_jacobian_hat_is_leading_block():
    pair = refpairs.simple_pair_2x2()
    t = Triplet(0.4, -0.2, np.array([1.0, 1j]) / SQ2)
    assert np.array_equal(jacobian_hat(pair, t), jacobian(pair, t)[:2, :])


def test_jacobian_hat_full_row_rank_at_target():
    pair = refpairs.simple_pair_2x2()
    s = np.linalg.svd(jacobian_hat(pair, refpairs.simple_target_2x2()), compute_uv=False)
    assert s[-1] > 0.1


def test_jacobian_hat_phase_identity():
    pair = refpairs.simple_pair_2x2()
    t = Triplet(0.1, 0.7, np.array([0.6, 0.8]))
    gamma = np.exp(0.9j)
    jh = jacobian_hat(pair, t)
    jh2 = jacobian_hat(pair, Triplet(0.1, 0.7, gamma * t.x))
    d = np.diag([1.0, 1.0, gamma, gamma])
    assert np.allclose(jh2, jh @ d, atol=1e-14)


def test_pair_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = 0.5 * (g + g.conj().T)
    c = np.diag([1.0, -1.0] * 4)
    pair = HermitianPair(a, c)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    back = load_pair(path)
    assert np.array_equal(back.a, pair.a)
    assert np.array_equal(back.c, pair.c)


def test_load_pair_minimal_document(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        '{"n": 2, "a": [[[0,0],[1,0]],[[1,0],[0,0]]],'
        ' "c": [[[1,0],[0,0]],[[0,0],[-1,0]]]}'
    )
    pair = load_pair(path)
    assert pair.n == 2
    assert np.allclose(pair.c, np.diag([1.0, -1.0]))


def test_load_pair_rejects_definite_c(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"n": 2, "a": [[[0,0],[0,0]],[[0,0],[0,0]]],'
        ' "c": [[[1,0],[0,0]],[[0,0],[2,0]]]}'
    )
    with pytest.raises(TwoDevpError, match="both positive and negative"):
        load_pair(path)


def test_load_pair_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    for text, pair_msg, triplet_msg in [
        ('{"n": 2, "a": "nope"}', "missing field 'c'", "missing field 'mu'"),
        ("5", "does not hold a JSON object", "does not hold a JSON object"),
    ]:
        path.write_text(text)
        with pytest.raises(TwoDevpError, match=pair_msg):
            load_pair(path)
        with pytest.raises(TwoDevpError, match=triplet_msg):
            load_triplet(path)


def test_load_triplet_rejects_a_non_number_mu_or_lambda(tmp_path):
    path = tmp_path / "bad.json"
    huge = "1" + "0" * 400  # an int that no float holds
    for mu, lam in (("null", "0.5"), ("0.5", "[1]"), ('{"re": 1}', "0.5"), ("true", "0.5"),
                    (huge, "0.5"), ("0.5", huge)):
        path.write_text('{"mu": %s, "lambda": %s, "x": [[1, 0], [0, 0]]}' % (mu, lam))
        with pytest.raises(TwoDevpError, match="real numbers"):
            load_triplet(path)


def test_triplet_roundtrip(tmp_path):
    t = Triplet(0.25, -1.5, np.array([0.6, 0.8j]))
    path = tmp_path / "t.json"
    save_triplet(t, path)
    back = load_triplet(path)
    assert back.mu == t.mu and back.lam == t.lam
    assert np.array_equal(back.x, t.x)


def test_normalized_constructor():
    # the plain constructor converts too: float scalars, a read-only complex copy of x
    x = [1, 1]
    t = Triplet(0, 1, x)
    assert type(t.mu) is float and type(t.lam) is float
    assert t.x.dtype == complex and t.x.shape == (2,) and not t.x.flags.writeable
    x[0] = 5
    assert np.array_equal(t.x, [1.0, 1.0])
    t = Triplet.normalized(0.0, 0.0, np.array([3.0, 4.0]))
    assert np.isclose(np.linalg.norm(t.x), 1.0)
    with pytest.raises(ValueError):
        Triplet.normalized(0.0, 0.0, np.zeros(2))
    # a non-finite start is refused before the division, which would warn
    good = np.array([3.0, 4.0])
    for bad in (np.nan, np.inf, -np.inf):
        for start in ((bad, 0.0, good), (0.0, bad, good), (0.0, 0.0, np.array([bad, 4.0])),
                      (0.0, 0.0, np.array([3.0, complex(0.0, bad)]))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    Triplet.normalized(*start)


def test_value_records_refuse_assignment():
    pair, trip = refpairs.simple_pair_desk()
    target = Target.at(pair, trip, "simple")
    hit = scan(refpairs.simple_pair_2x2(), -1.0, 1.0, 16)[0][0]
    records = [
        (Triplet(0.0, 1.0, [1.0, 1.0]), "mu"),
        (eig_at(pair, 0.0), "values"),
        (hit, "triplet"),
        (classify(pair, trip.mu, trip.lam), "kind"),
        (scaling_study(target, [1e-2, 1e-3], 2, 0), "failed"),
        (conditioning_study(target, [1e-3], 2, 0), "trials"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
