import warnings

import numpy as np
import pytest
from helpers import svd_projection_basis

from twodevp import refpairs, rqi
from twodevp.angles import canonical_angles
from twodevp.classify import Target, eigvec_set
from twodevp.curves import eigvec_derivative, floor_unit
from twodevp.errors import TwoDevpError
from twodevp.harness import (
    perturbed_start,
    perturbed_starts,
    random_pair,
    random_pair_with_crossing,
    scaling_study,
)
from twodevp.kernels import orthonormalize
from twodevp.model import (
    HermitianPair,
    Triplet,
    TripletStack,
    jacobian_hat,
    power_of_two_near,
    residual,
    residual_norm,
)
from twodevp.rqi import (
    Status,
    form_rq,
    projection_basis,
    select_ritz,
    solve,
    solve_2x2,
    step,
)

SQ2 = np.sqrt(2.0)


def projector(v):
    return v @ v.conj().T


def basis_at(pair, t):
    """The projection basis v and its (c1, c2) at one triplet, as stacks of one."""
    v, c, failures = projection_basis(pair, TripletStack.of([t]))
    assert failures == [None]
    return v, c


def step_one(pair, t):
    """One step from t, as a stack of one that must not fail."""
    out = step(pair, TripletStack.of([t]))
    assert out.failures == (None,)
    return out


def test_projection_basis_spans_x_and_xprime():
    pair = refpairs.simple_pair_2x2()
    t = refpairs.simple_target_2x2()
    v, _ = basis_at(pair, t)
    xp = eigvec_derivative(pair, t.mu, t.lam, t.x)
    ideal = np.stack([t.x, xp / np.linalg.norm(xp)], axis=1)
    # the nullspace rows reproduce span{x, x'}
    assert np.linalg.norm(projector(v[0]) - projector(ideal), 2) < 1e-6


def test_projection_basis_n2_is_whole_space():
    pair = refpairs.simple_pair_2x2()
    v, c = basis_at(pair, Triplet(0.3, 0.8, np.array([0.6, 0.8])))
    v = v[0]
    assert np.linalg.norm(v.conj().T @ v - np.eye(2), 2) < 1e-12
    assert np.allclose(sorted([c[0, 0], c[0, 1]]), [-1.0, 1.0], atol=1e-12)
    assert c[0, 0] >= c[0, 1]


def test_projection_basis_phase_invariant():
    pair = refpairs.simple_pair_2x2()
    t = refpairs.simple_target_2x2()
    v1, c1 = basis_at(pair, t)
    v2, c2 = basis_at(pair, Triplet(t.mu, t.lam, t.x * np.exp(0.7j)))
    assert abs(c1[0, 0] - c2[0, 0]) + abs(c1[0, 1] - c2[0, 1]) < 1e-12
    assert np.linalg.norm(projector(v1[0]) - projector(v2[0]), 2) < 1e-10


def test_projection_basis_diagonalizes_c():
    pair, trip = refpairs.simple_pair_desk()
    v, c = basis_at(pair, trip)
    cv = v[0].conj().T @ pair.c @ v[0]
    assert abs(cv[0, 1]) < 1e-10
    assert np.isclose(cv[0, 0].real, c[0, 0]) and np.isclose(cv[1, 1].real, c[0, 1])


def _targets_for_basis_checks():
    pair, trip = refpairs.simple_pair_desk()
    yield Target.at(pair, trip, "simple")
    pair, trip = refpairs.multiple_pair_desk()
    yield Target.at(pair, trip, "multiple")
    for n in (12, 64):
        pair = random_pair_with_crossing(n, (n // 2, n // 2), 0.4, -0.3, 11)
        yield eigvec_set(pair, 0.4, -0.3)


def test_projection_basis_matches_svd_nullspace():
    # the leading rows of J^-1's last two columns span what the leading
    # rows of the SVD nullspace of the leading Jacobian block span, and the
    # closed form from the Grams gives the basis of the SVD reference: as
    # orthonormal, as C-diagonal, with its (c1, c2), at every scale; near
    # an eigenvector of C, the same starts fail at every scale
    for target in _targets_for_basis_checks():
        n, mu, lam = target.pair.n, target.mu, target.lam
        by_scale = {}
        for s in (1.0, 1e300, 1e-300):
            pair = HermitianPair(s * target.pair.a, s * target.pair.c)
            for eps in (1e-2, 1e-4, 1e-6, 1e-8):
                t = perturbed_start(target, eps, 5)
                t0 = Triplet(t.mu, s * t.lam, t.x)
                v, c = basis_at(pair, t0)
                v = v[0]
                if s == 1.0:
                    _, _, vh = np.linalg.svd(jacobian_hat(pair, t0))
                    ref = orthonormalize(vh.conj().T[:n, n:])
                    assert np.sin(canonical_angles(v, ref)[-1]) <= 1e-12, (n, eps)
                _, c_ref, failures_ref = svd_projection_basis(pair, TripletStack.of([t0]))
                assert failures_ref == [None]
                assert np.linalg.norm(v.conj().T @ v - np.eye(2), 2) <= 1e-14, (n, s, eps)
                cv = v.conj().T @ pair.c @ v
                assert abs(cv[0, 1]) <= 1e-14 * pair.norm_c, (n, s, eps)
                assert np.allclose(c[0], c_ref[0], rtol=1e-13, atol=0.0), (n, s, eps)
            # the rank decision of the reference where x is near an
            # eigenvector of C; from 1e-7 to 1e-11 from one, J is so near
            # singular that neither decision carries signal (at 1e-11 the
            # smallest singular value is within a factor 2.5 of 1e-10 on
            # the crossings, and the rounding of J decides)
            _, q = np.linalg.eigh(target.pair.c)
            rng = np.random.default_rng(n)
            starts = []
            for e in (2, 3, 4, 5, 6, 12, 13, 14):
                for col in (0, n - 1):
                    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    x = q[:, col] + 10.0 ** -e * w / np.linalg.norm(w)
                    starts.append(Triplet.normalized(mu + 0.01, s * (lam - 0.01), x))
            _, _, failures = projection_basis(pair, TripletStack.of(starts))
            assert failures == svd_projection_basis(pair, TripletStack.of(starts))[2], (n, s)
            assert [projection_basis(pair, TripletStack.of([t]))[2][0] for t in starts] == failures
            by_scale[s] = failures
        assert by_scale[1e300] == by_scale[1.0] == by_scale[1e-300], n


def test_projection_basis_of_a_pair_whose_a_dwarfs_its_c():
    # a desk pair in a block beside a 1 x 1 block pair of norm 1e70 to
    # 1e250: |A| / |C| is past 2^200, while the desk block's 2D-eigentriplets
    # keep their meaning.  Column 1 of N solves -x^H C y = e1, so an e1 in
    # units of |A| + |C| would put the Grams past 2^400; in units of |C|,
    # the basis is the reference's.  Past 2^400, C in units of |A| + |C|
    # would underflow the Grams P^H C P; in its own, steps go to the desk's
    # target
    for (desk, trip), regime in ((refpairs.simple_pair_desk(), "simple"),
                                 (refpairs.multiple_pair_desk(), "multiple")):
        n = desk.n
        starts = [Triplet(t.mu, t.lam, np.concatenate((t.x, [0.0, 0.0])))
                  for t in perturbed_starts(Target.at(desk, trip, regime), 1e-2, 0, range(10))]
        for big in (1e70, 1e100, 1e200, 1e250):
            a = np.zeros((n + 2, n + 2), dtype=complex)
            c = np.zeros((n + 2, n + 2), dtype=complex)
            a[:n, :n], c[:n, :n] = desk.a, desk.c
            a[n, n], a[n + 1, n + 1], c[n, n], c[n + 1, n + 1] = big, -big, 1.0, -1.0
            pair = HermitianPair(a, c)
            assert pair.norm_a / pair.norm_c >= big / 2.0
            stack = TripletStack.of(starts)
            _, c_ref, failures_ref = svd_projection_basis(pair, stack)
            assert failures_ref == [None] * len(starts)
            _, got, failures = projection_basis(pair, stack)
            assert failures == failures_ref, (regime, big)
            assert np.allclose(got, c_ref, rtol=1e-13, atol=0.0), (regime, big)
            for t, c_one in zip(starts, got):
                assert np.allclose(basis_at(pair, t)[1][0], c_one, rtol=1e-13, atol=0.0), (regime, big)
                for _ in range(6):
                    t = step_one(pair, t).triplets[0]
                assert abs(t.mu - trip.mu) <= 1e-14 and abs(t.lam - trip.lam) <= 1e-14, (regime, big)


def _gram_rotation_cases():
    """(name, G and K as the 2 x 4 P^H [P, CP], Z) for `gram_rotation`."""
    rng = np.random.default_rng(34)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def grams(p, c):
        return p.conj().T @ np.concatenate((p, c @ p), axis=1)

    h = cplx(6, 6)
    indefinite = h + h.conj().T
    for k in range(20):
        yield "random", grams(cplx(6, 2), indefinite), cplx(2, 2)
    pd = h @ h.conj().T + np.eye(6)
    yield "definite", grams(np.linalg.qr(cplx(6, 2))[0], pd), cplx(2, 2)
    p = cplx(6, 2)
    p[:, 1] = 0.3 * p[:, 0] + 1e-9 * cplx(6)
    yield "parallel", grams(p, indefinite), cplx(2, 2)  # again: its columns within 45 degrees
    yield "rank", grams(cplx(6, 2), indefinite), 1e12 * cplx(2, 2)  # Z R^-1 past 1e10
    yield "zero", grams(np.zeros((6, 2)), indefinite), np.eye(2, dtype=complex)
    for bad in (np.nan, np.inf, -np.inf):
        p = cplx(6, 2)
        p[2, 1] = bad
        yield "p=%r" % bad, grams(p, indefinite), cplx(2, 2)
        z = cplx(2, 2)
        z[1, 0] = bad
        yield "z=%r" % bad, grams(cplx(6, 2), indefinite), z


def test_gram_rotation_on_python_numbers_is_gram_rotation_on_arrays_of_length_one():
    # one start takes its basis on Python numbers, a stack on arrays; they
    # must round alike, since on the commuting desk pair the step's x turns
    # with the phase of a12, which is rounding noise there
    def bits(v):
        v = np.float64(v)
        return "nan" if np.isnan(v) else v.tobytes()

    names = set()
    with np.errstate(all="ignore"):
        cases = list(_gram_rotation_cases())
    for name, gk, z in cases:
        xs, c1, c2, ok, again = rqi.gram_rotation(gk.tolist(), z.tolist())
        with np.errstate(all="ignore"):
            axs, ac1, ac2, aok, aagain = rqi.gram_rotation(gk[..., None], z[..., None])
        assert type(ok) is type(again) is bool and [type(v) for v in (*xs, c1, c2)] == [float] * 10
        assert aok.tolist() == [ok] and aagain.tolist() == [again], name
        for got, want in zip((*xs, c1, c2), (*axs, ac1, ac2)):
            assert want.shape == (1,) and bits(got) == bits(want[0]), name
        names.add((name, ok, again))
    assert ("parallel", False, True) in names and ("rank", False, False) in names
    assert ("zero", False, False) in names and ("definite", True, False) in names


def test_projection_basis_takes_its_closed_form_once_and_again_only_where_asked(monkeypatch):
    # the solve's right-hand side carries the scale of the pair, so the
    # Grams are of order 1 at every scale: one gram_rotation per stack,
    # and one more where a member sets `again`, as starts near an
    # eigenvector of C do
    calls = []
    gram_rotation = rqi.gram_rotation

    def counted(gk, z):
        out = gram_rotation(gk, z)
        calls.append(int(np.sum(out[-1])))  # the members that set again
        return out

    monkeypatch.setattr(rqi, "gram_rotation", counted)
    crossing = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    seen = set()
    for target in (Target.at(*refpairs.simple_pair_desk(), "simple"),
                   Target.at(*refpairs.multiple_pair_desk(), "multiple"), eigvec_set(crossing, 0.4, -0.3)):
        n = target.pair.n
        base = list(perturbed_starts(target, 1e-2, 3, range(10)))
        _, q = np.linalg.eigh(target.pair.c)
        rng = np.random.default_rng(n)
        for e in (2, 6, 10):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            base.append(Triplet.normalized(target.mu + 0.01, target.lam - 0.01, q[:, 0] + 10.0 ** -e * w))
        for s in (1.0, 1e100, 1e-100, 1e300, 1e-300):
            pair = HermitianPair(s * target.pair.a, s * target.pair.c)
            starts = [Triplet(t.mu, s * t.lam, t.x) for t in base]
            for stack in [TripletStack.of(starts)] + [TripletStack.of([t]) for t in starts]:
                del calls[:]
                projection_basis(pair, stack)
                assert len(calls) == 1 + (calls[0] > 0), (target.regime, s, calls)
                seen.add(len(calls))
    assert seen == {1, 2}


def test_step_makes_one_solve_and_no_large_svd(count_linalg):
    # the LAPACK budget of one step: one LU solve per stack of starts (a
    # stack of one as solve steps, of five as the studies do) and no other
    # numpy.linalg call; the basis comes from its 2 x 2 Grams in closed form
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, 11)
    target = eigvec_set(pair, 0.4, -0.3)
    t0 = perturbed_start(target, 1e-3, 5)
    starts = perturbed_starts(target, 1e-3, 5, range(5))
    desk = Target.at(*refpairs.simple_pair_desk(), "simple")
    desk_start = perturbed_start(desk, 0.05, 11, trial=3)
    calls = count_linalg()
    for k, run in ((1, lambda: step(pair, TripletStack.of([t0]))), (5, lambda: step(pair, starts))):
        del calls[:]
        out = run()
        assert out.failures == (None,) * k
        assert calls == [("solve", (k, 66, 66))]
    # and of a whole run: a solve that takes k steps makes k LU solves of a
    # stack of one and no other numpy.linalg call, its residual norms included
    for run_pair, start in ((pair, t0), (desk.pair, desk_start)):
        del calls[:]
        trace = solve(run_pair, start)
        k, m = len(trace.iterates) - 1, run_pair.n + 2
        assert trace.status is Status.CONVERGED and k >= 2
        assert calls == [("solve", (1, m, m))] * k


def _desk_starts_and_failures(s):
    """(regime, (sA, sC), 53 starts) per desk pair: 50 perturbed starts with
    lam scaled by s, then three whose step fails at s = 1: a zero x, an
    eigenvector of C and a start near overflow."""
    for regime, desk, eps in (("simple", refpairs.simple_pair_desk, 1e-2),
                              ("multiple", refpairs.multiple_pair_desk, 3e-2)):
        pair, trip = desk()
        base = perturbed_starts(Target.at(pair, trip, regime), eps, 21, range(50))
        _, q = np.linalg.eigh(pair.c)
        starts = [Triplet(t.mu, s * t.lam, t.x) for t in base]
        starts += [Triplet(0.3, 0.1, np.zeros(pair.n)), Triplet(0.3, 0.1, q[:, 0]), Triplet(1e308, 0.0, trip.x)]
        yield regime, HermitianPair(s * pair.a, s * pair.c), starts


def test_step_stack_matches_single_steps():
    # a stack of one takes its 2 x 2 tail on Python numbers, the stack of 53
    # on arrays; at s = 1e+-300 both run it on the pair divided by a power of
    # two.  The bases of a stack and of one start round differently, so the
    # triplets agree to 1e-12, not bitwise
    for s in (1.0, 1e300, 1e-300):
        for regime, pair, starts in _desk_starts_and_failures(s):
            out = step(pair, TripletStack.of(starts))
            assert len(out.triplets) == len(out.failures) == 53
            assert out.failures[50:52] == (Status.JACOBIAN_NEAR_SINGULAR,) * 2
            assert out.failures.count(None) >= 50, regime
            for i, t in enumerate(starts):
                one = step(pair, TripletStack.of([t]))
                assert out.failures[i] is one.failures[0], (regime, s, i)
                if one.failures[0] is not None:
                    continue
                got, t1 = out.triplets[i], one.triplets[0]
                assert abs(got.mu - t1.mu) <= 1e-12 and abs(got.lam - t1.lam) <= 1e-12 * s
                assert np.linalg.norm(got.x - t1.x) <= 1e-10
                assert np.allclose([out.c1[i], out.c2[i], out.abs_a12[i]],
                                   [one.c1[0], one.c2[0], one.abs_a12[0]], rtol=1e-12, atol=1e-14 * s)


@pytest.mark.parametrize("s", [1.0, 1e300, 1e-300])
def test_one_start_tail_on_python_numbers_matches_the_tail_on_arrays(s):
    # a stack of one takes its 2 x 2 tail, solve_2x2 and select_ritz in the
    # step's units, on Python numbers, a stack on arrays; from the same
    # basis, the two may differ only where Python's abs rounds otherwise
    # than numpy's
    eps = np.finfo(float).eps
    for regime, pair, starts in _desk_starts_and_failures(s):
        for t in starts:
            stack = TripletStack.of([t])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                v, c1, c2, failures, p, q = rqi._basis(pair, stack, True)
                a11, a12, a22 = form_rq(pair, v)
                cands = solve_2x2(a11.item() / p, a12.item() / p, a22.item() / p, c1, c2)
                ok, one = cands.indefinite, select_ritz(t.mu, t.lam, cands, v, (p, q))
                cands = solve_2x2(a11 / p, a12 / p, a22 / p, np.array([c1]), np.array([c2]))
                oks, arrays = cands.indefinite, select_ritz(stack.mu, stack.lam, cands, v, (p, q))
            assert type(ok) is bool and oks.tolist() == [ok], regime
            if ok and failures == [None]:
                ta, tb = one[0], arrays[0]
                assert abs(ta.mu - tb.mu) <= 4 * eps * max(1.0, abs(tb.mu))
                assert abs(ta.lam - tb.lam) <= 4 * eps * max(s, abs(tb.lam))
                assert np.linalg.norm(ta.x - tb.x) <= 4 * eps


_NAN = float("nan")


@pytest.mark.parametrize("form", [
    (0.3, 0.2 - 0.7j, -0.4, 1.5, -0.5),
    (0.3, 0j, -0.4, 1.5, -0.5),
    (0.3, 0.2 - 0.7j, -0.4, 0.0, -0.5),
    (0.3, 0.2 - 0.7j, -0.4, 1.5, 0.0),
    (0.3, 0.2 - 0.7j, -0.4, 1.5, 0.5),
    (_NAN, 0.2 - 0.7j, -0.4, 1.5, -0.5),
    (0.3, complex(_NAN, _NAN), -0.4, 1.5, -0.5),
    (0.3, 0.2 - 0.7j, -0.4, _NAN, -0.5),
    (0.3, 0.2 - 0.7j, -0.4, 1.5, _NAN),
], ids=["indefinite", "a12=0", "c1=0", "c2=0", "definite", "a11-nan", "a12-nan", "c1-nan", "c2-nan"])
def test_solve_2x2_on_python_numbers_is_solve_2x2_on_arrays_of_length_one(form):
    one = solve_2x2(*form)
    stack = solve_2x2(*(np.array([e]) for e in form))
    assert type(one.indefinite) is bool and stack.indefinite.tolist() == [one.indefinite]
    assert one.indefinite == (form[3] > 0 > form[4])
    for field in ("nu0", "dnu", "theta0", "dtheta", "t", "w"):
        assert type(getattr(one, field)) in (float, complex), field
    for got, want in ((one.nu, stack.nu), (one.theta, stack.theta), (one.z, stack.z)):
        assert got.shape == want.shape[1:]
        assert np.array_equal(got, want[0], equal_nan=True)


def test_solve_2x2_is_not_indefinite_where_an_isotropic_weight_underflows():
    # -c2 / (c1 - c2) underflows, so t = 0 and g = t s d = 0, by which nu's
    # offset divides: the problem is not indefinite, on Python numbers as on
    # arrays, and neither raises nor warns
    form = (0.0, 1.0 + 0j, 0.0, 1e120, -1e-210)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = solve_2x2(*form)
        stack = solve_2x2(*(np.array([e]) for e in form))
    assert one.indefinite is False and stack.indefinite.tolist() == [False]


def test_step_stack_keeps_each_failure_to_its_member():
    # a zero x makes J exactly singular, which fails the stacked solve and
    # sends the stack through the member-by-member redo
    pair = random_pair(8, (4, 4), 3)
    rng = np.random.default_rng(5)
    starts = []
    for _ in range(9):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        starts.append(Triplet.normalized(rng.uniform(-1, 1), rng.uniform(-1, 1), x))
    lost = starts.pop(4)  # its projected C is not indefinite
    _, q = np.linalg.eigh(pair.c)
    bad = {2: Triplet(0.3, 0.1, np.zeros(8)), 5: Triplet(0.3, 0.1, q[:, 0]), 7: lost}
    mixed = list(starts)
    for i in sorted(bad):
        mixed.insert(i, bad[i])
    out = step(pair, TripletStack.of(mixed))
    clean = step(pair, TripletStack.of(starts))
    assert clean.failures == (None,) * 8
    near_singular, lost = Status.JACOBIAN_NEAR_SINGULAR, Status.INDEFINITENESS_LOST
    assert out.failures == (None, None, near_singular, None, None, near_singular,
                            None, lost, None, None, None)
    kept = [i for i in range(len(mixed)) if i not in bad]
    for k, i in enumerate(kept):
        a, b = out.triplets[i], clean.triplets[k]
        assert abs(a.mu - b.mu) <= 1e-12 and abs(a.lam - b.lam) <= 1e-12
        assert np.linalg.norm(a.x - b.x) <= 1e-10
    for i, t in bad.items():
        assert step(pair, TripletStack.of([t])).failures == (out.failures[i],)


def test_eigenvector_of_c_start_is_jacobian_near_singular():
    # x = an eigenvector of C makes the two border rows of J parallel, so
    # J^-1 is rounding noise; the rank test on the orthonormalized whole
    # basis must stop the run before the first step
    pair = random_pair(8, (4, 4), 3)
    _, q = np.linalg.eigh(pair.c)
    for x in q.T:
        trace = solve(pair, Triplet(0.3, 0.1, x))
        assert trace.status is Status.JACOBIAN_NEAR_SINGULAR
        assert len(trace.iterates) == 1


def test_sigma_n_jhat_of_a_stack_matches_each_member():
    for regime, desk in (("simple", refpairs.simple_pair_desk), ("multiple", refpairs.multiple_pair_desk)):
        target = Target.at(*desk(), regime)
        pair = target.pair
        starts = perturbed_starts(target, 1e-2, 0, range(20))
        got = rqi.sigma_n_jhat(pair, starts)
        assert got.shape == (20,)
        jh = jacobian_hat(pair, starts)
        for i in range(20):
            one = rqi.sigma_n_jhat(pair, starts[i])
            assert type(one) is float
            # exact per member of the stacked Jacobian; a member's own
            # Jacobian forms C x by a matrix-vector product, which may round
            # differently from the stack's matrix product
            assert got[i] == np.linalg.svd(jh[i], compute_uv=False)[-1]
            assert abs(got[i] - one) <= 1e-12 * one


def test_form_rq_identity_basis():
    pair = refpairs.simple_pair_2x2()
    t = Triplet(0.3, 0.8, np.array([0.6, 0.8]))
    v, _ = basis_at(pair, t)
    a11, a12, a22 = form_rq(pair, v)
    ak = v[0].conj().T @ pair.a @ v[0]
    assert np.isclose(a11[0], ak[0, 0].real) and np.isclose(a22[0], ak[1, 1].real)
    assert np.isclose(abs(a12[0]), abs(ak[0, 1]))


def test_form_rq_offdiagonal_vanishes_at_multiple_target():
    pair = refpairs.multiple_pair_2x2()
    v, _ = basis_at(pair, refpairs.multiple_target_2x2())
    _, a12, _ = form_rq(pair, v)
    assert abs(a12[0]) <= 1e-10


def test_solve_2x2_antisymmetric_example():
    cands = solve_2x2(0.0, 1.0 + 0j, 0.0, 1.0, -1.0)
    assert cands.nu.shape == cands.theta.shape == (2,) and cands.indefinite
    got = sorted(zip(np.round(cands.nu, 12).tolist(), np.round(cands.theta, 12).tolist()))
    assert got == [(0.0, -1.0), (0.0, 1.0)]
    for z in cands.z:
        assert abs(np.linalg.norm(z) - 1.0) < 1e-12
        assert abs(z.conj() @ (np.array([1.0, -1.0]) * z)) < 1e-12


def test_solve_2x2_zero_a12_gives_two_candidates_at_one_point():
    # at a12 = 0 both candidates sit at (nu, theta) = (1, 0)
    cands = solve_2x2(1.0, 0.0 + 0j, -1.0, 1.0, -1.0)
    assert cands.nu.shape == (2,)
    assert np.allclose(cands.nu, 1.0) and np.allclose(cands.theta, 0.0)


def test_solve_2x2_branch_continuity():
    eps = 1e-6
    single = solve_2x2(0.3, 0.0 + 0j, -0.2, 1.0, -1.0).theta[0]
    for theta in solve_2x2(0.3, eps + 0j, -0.2, 1.0, -1.0).theta:
        assert abs(theta - single) <= 2.0 * eps + 1e-12


def test_solve_2x2_requires_indefinite():
    # the failure is recorded per problem, so one stack can mix both
    assert not solve_2x2(0.0, 1.0 + 0j, 0.0, 1.0, 0.5).indefinite
    cands = solve_2x2(np.zeros(3), np.ones(3) + 0j, np.zeros(3),
                      np.array([1.0, 1.0, 0.0]), np.array([-1.0, 0.5, -1.0]))
    assert cands.indefinite.tolist() == [True, False, False]
    assert np.all(np.isfinite(cands.nu)) and np.all(np.isfinite(cands.z))


def test_solve_2x2_candidates_solve_projected_problem():
    # each candidate satisfies (A_k - nu C_k - theta I) z = 0, for a12 of
    # order one and for a tiny a12 at a random phase
    # all 21 problems are solved as one stack
    rng = np.random.default_rng(12)
    rows = []
    for k in range(21):
        a11, a22 = rng.standard_normal(2)
        a12 = rng.standard_normal() + 1j * rng.standard_normal()
        if k == 20:
            a12 = 1e-11 * a12 / abs(a12)
        c1, c2 = rng.uniform(0.2, 2.0), -rng.uniform(0.2, 2.0)
        rows.append((a11, a12, a22, c1, c2))
    cands = solve_2x2(*(np.array(col) for col in zip(*rows)))
    assert cands.indefinite.all()
    for (a11, a12, a22, c1, c2), nus, thetas, zs in zip(rows, cands.nu, cands.theta, cands.z):
        ak = np.array([[a11, a12], [np.conj(a12), a22]])
        ck = np.diag([c1, c2])
        for nu, theta, z in zip(nus, thetas, zs):
            res = (ak - nu * ck - theta * np.eye(2)) @ z
            assert np.linalg.norm(res) < 1e-12 * (abs(a11) + abs(a22) + abs(a12) + 1)


def test_select_ritz_picks_nearest():
    pair = refpairs.simple_pair_2x2()
    t_prev = Triplet.normalized(0.1, 0.9, np.array([1.0, 0.8]))
    v, c = basis_at(pair, t_prev)
    cands = solve_2x2(*form_rq(pair, v), c[:, 0], c[:, 1])
    chosen = select_ritz(np.array([t_prev.mu]), np.array([t_prev.lam]), cands, v, (1.0, 1.0))[0]
    assert abs(chosen.mu - 0.0) + abs(chosen.lam - 1.0) < 1e-12
    assert abs(np.vdot(chosen.x, pair.c @ chosen.x)) < 1e-10
    assert abs(np.linalg.norm(chosen.x) - 1.0) < 1e-12


def test_step_contracts_near_simple_target():
    pair = refpairs.simple_pair_2x2()
    x0 = np.array([1.0, 1.0]) / SQ2 + 0.05 * np.array([1.0, -1.0]) / SQ2
    t0 = Triplet.normalized(0.1, 0.9, x0)
    out = step_one(pair, t0)
    t1 = out.triplets[0]
    e0 = abs(t0.mu) + abs(t0.lam - 1.0)
    e1 = abs(t1.mu) + abs(t1.lam - 1.0)
    assert e1 <= e0 / 10.0
    assert out.abs_a12[0] > 0.0


def test_step_fixed_point_at_target():
    pair = refpairs.simple_pair_2x2()
    t1 = step_one(pair, refpairs.simple_target_2x2()).triplets[0]
    assert abs(t1.mu) + abs(t1.lam - 1.0) <= 1e-12


def test_step_phase_invariance():
    pair, trip = refpairs.simple_pair_desk()
    rng = np.random.default_rng(7)
    w = rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n)
    t0 = Triplet.normalized(trip.mu + 0.01, trip.lam - 0.02, trip.x + 0.05 * w)
    ta = step_one(pair, t0).triplets[0]
    tb = step_one(pair, Triplet(t0.mu, t0.lam, t0.x * np.exp(1.1j))).triplets[0]
    assert abs(ta.mu - tb.mu) + abs(ta.lam - tb.lam) < 1e-12


def test_step_iterates_stay_feasible():
    pair, trip = refpairs.simple_pair_desk()
    rng = np.random.default_rng(8)
    w = rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n)
    t = Triplet.normalized(trip.mu + 0.02, trip.lam + 0.02, trip.x + 0.05 * w)
    for _ in range(4):
        t = step_one(pair, t).triplets[0]
        assert abs(np.vdot(t.x, pair.c @ t.x)) < 1e-10
        assert abs(np.linalg.norm(t.x) - 1.0) < 1e-10


def test_solve_simple_pair_converges_quickly():
    pair = refpairs.simple_pair_2x2()
    x0 = np.array([1.0, 1.0]) / SQ2 + 0.05 * np.array([1.0, -1.0]) / SQ2
    trace = solve(pair, Triplet.normalized(0.1, 0.9, x0), tol_abs=1e-12)
    assert trace.status is Status.CONVERGED
    assert len(trace.iterates) - 1 <= 6
    assert trace.iterates[-1].res_norm <= 1e-12 + 1e-14 * pair.norm_a * 3


def test_solve_multiple_pair_converges_to_crossing():
    pair = refpairs.multiple_pair_2x2()
    x0 = np.array([1.0, 1.0]) / SQ2 + 0.01 * np.array([1.0, -1.0]) / SQ2
    trace = solve(pair, Triplet.normalized(0.9, 0.05, x0))
    assert trace.status is Status.CONVERGED
    assert abs(trace.final.mu - 1.0) + abs(trace.final.lam - 0.0) < 1e-10


def test_solve_max_iter_zero():
    pair = refpairs.simple_pair_2x2()
    t0 = Triplet(0.5, 0.5, np.array([1.0, 0.0]))
    trace = solve(pair, t0, max_iter=0)
    assert trace.status is Status.MAX_ITERATIONS
    assert len(trace.iterates) == 1


def test_solve_rejects_negative_max_iter():
    # a negative budget would leave the trace empty, and .final undefined
    pair = refpairs.simple_pair_2x2()
    with pytest.raises(ValueError):
        solve(pair, Triplet(0.5, 0.5, np.array([1.0, 0.0])), max_iter=-1)


def test_solve_rejects_a_tolerance_it_cannot_meet():
    pair = refpairs.simple_pair_2x2()
    for tol_abs in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol_abs"):
            solve(pair, Triplet(0.5, 0.5, np.array([1.0, 0.0])), tol_abs=tol_abs)


def test_solve_non_finite_start_is_a_status():
    # so is a start whose tolerance overflows, with no warning and no raw
    # numpy error; a huge start with a finite residual and tolerance fails
    # the rank test of its first step instead
    for pair, trip in (refpairs.simple_pair_desk(), refpairs.multiple_pair_desk()):
        x_inf = np.array(trip.x)
        x_inf[0] = np.inf
        for t0 in [
            Triplet(np.nan, trip.lam, trip.x),
            Triplet(trip.mu, np.nan, trip.x),
            Triplet(trip.mu, trip.lam, x_inf),
            Triplet(1e308, 1e308, trip.x),
            Triplet(-1e308, 1e308, trip.x),
        ]:
            trace = solve(pair, t0)
            assert trace.status is Status.NON_FINITE
            assert len(trace.iterates) == 1 and trace.final is t0
        huge = [Triplet(mu, lam, trip.x) for mu in (1e155, 1e200) for lam in (0.0, 1e308)]
        for t0 in huge + [Triplet(1e308, 0.0, trip.x), Triplet(-1e308, 0.0, trip.x)]:
            trace = solve(pair, t0)
            assert np.isfinite(trace.iterates[0].res_norm)
            assert trace.status is Status.JACOBIAN_NEAR_SINGULAR
            assert len(trace.iterates) == 1 and trace.final is t0


def test_step_from_an_overflowing_start_is_near_singular():
    # J has entries past overflow, and the SVD of its solve does not converge
    pair, trip = refpairs.simple_pair_desk()
    t = Triplet.normalized(trip.mu + 0.01, trip.lam - 0.01, trip.x + 0.01)
    out = step(pair, TripletStack.of([Triplet(1e308, 0.0, trip.x), t, Triplet(-1e308, 0.0, trip.x)]))
    assert out.failures == (Status.JACOBIAN_NEAR_SINGULAR, None, Status.JACOBIAN_NEAR_SINGULAR)
    # the member between them takes its own step, to rounding
    alone = step(pair, TripletStack.of([t])).triplets[0]
    assert abs(out.triplets.mu[1] - alone.mu) <= 1e-14 and abs(out.triplets.lam[1] - alone.lam) <= 1e-14
    assert np.linalg.norm(out.triplets.x[1] - alone.x) <= 1e-13
    # (mu, lam) in {+-1e308}^2 overflows J itself and the candidates' gaps,
    # with no warning
    for pair, trip in (refpairs.simple_pair_desk(), refpairs.multiple_pair_desk()):
        huge = [Triplet(mu, lam, trip.x) for mu in (1e308, -1e308) for lam in (1e308, -1e308)]
        assert step(pair, TripletStack.of(huge)).failures == (Status.JACOBIAN_NEAR_SINGULAR,) * 4
        for t0 in huge:
            assert step(pair, TripletStack.of([t0])).failures == (Status.JACOBIAN_NEAR_SINGULAR,)


def test_solve_does_not_depend_on_the_scale_of_the_pair():
    # (sA, sC) has the 2D-eigenvalues (mu, s lam) of (A, C); with J balanced,
    # the rank test of projection_basis reads the same basis at every s, and
    # with A and C in units of |A| + |C| and |C| the step picks the candidate
    # of s = 1.  The convergence test weighs F's last entry, (1 - x^H x)/2, by
    # floor_unit, as every other entry of F scales with s; unweighted,
    # that entry's rounding kept runs below s = 1 going for more steps
    for (pair, trip), regime in ((refpairs.simple_pair_desk(), "simple"),
                                 (refpairs.multiple_pair_desk(), "multiple")):
        starts = perturbed_starts(Target.at(pair, trip, regime), 1e-2, 0, range(20))

        def runs(s):
            scaled = HermitianPair(s * pair.a, s * pair.c)
            return [solve(scaled, Triplet(t.mu, s * t.lam, t.x), tol_abs=0.0) for t in starts]

        base = runs(1.0)
        assert all(one.status is Status.CONVERGED for one in base)
        for s in (1e-300, 1e-200, 1e-100, 1e-20, 1e-10, 1e-6, 1e-3,
                  1e10, 1e12, 1e14, 1e100, 1e160, 1e200, 1e300):
            for one, got in zip(base, runs(s)):
                assert got.status is one.status, (regime, s)
                assert len(got.iterates) == len(one.iterates), (regime, s)
                assert abs(got.final.mu - one.final.mu) <= 1e-12, (regime, s)
                assert abs(got.final.lam / s - one.final.lam) <= 1e-12, (regime, s)
        # the default tol_abs is in units of the pair, where an absolute
        # 1e-12 stopped a run at s = 1e-20 at its start; a given one is absolute
        s, t = 1e-20, starts[0]
        scaled, t0 = HermitianPair(s * pair.a, s * pair.c), Triplet(t.mu, s * t.lam, t.x)
        trace = solve(scaled, t0)
        assert trace.status is Status.CONVERGED and len(trace.iterates) >= 2, regime
        assert abs(trace.final.mu - base[0].final.mu) <= 1e-10, regime
        assert len(solve(scaled, t0, tol_abs=1e-12).iterates) == 1


def test_step_on_a_pair_near_overflow_is_finite():
    # the closed form's products of the projected pair would overflow at
    # s = 1e300; scaled by a power of two, the step is that of (A, C)
    pair, trip = refpairs.simple_pair_desk()
    s = 1e300
    t = Triplet.normalized(trip.mu + 0.01, trip.lam - 0.01, trip.x + 0.01)
    out = step(HermitianPair(s * pair.a, s * pair.c), TripletStack.of([Triplet(t.mu, s * t.lam, t.x)]))
    assert out.failures == (None,)
    one = step_one(pair, t).triplets[0]
    got = out.triplets[0]
    assert np.isfinite(got.lam) and abs(got.lam / s - one.lam) <= 1e-14
    assert abs(got.mu - one.mu) <= 1e-14


def test_solve_records_reference_errors():
    pair, trip = refpairs.simple_pair_desk()
    rng = np.random.default_rng(9)
    w = rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n)
    t0 = Triplet.normalized(trip.mu + 0.02, trip.lam - 0.02, trip.x + 0.03 * w)
    trace = solve(pair, t0, reference=Target.at(pair, trip, "simple"))
    errs = [r.err_mu + r.err_lambda + r.err_x for r in trace.iterates]
    assert all(e is not None and np.isfinite(e) for e in errs)
    # digit doubling: log-errors at least 1.7x per final iterations above floor
    usable = [e for e in errs if e > 1e-13]
    for e0, e1 in zip(usable[-3:], usable[-2:]):
        assert np.log(e1) <= 1.7 * np.log(e0) + 1.0


def test_solve_measures_err_x_to_the_eigenvector_set():
    # at a multiple 2D-eigenvalue the eigenvectors form a torus, so a run
    # may converge to a vector of the set far from the reference's x
    pair, trip = refpairs.multiple_pair_desk()
    target = Target.at(pair, trip, "multiple")
    converged = 0
    for k in range(20):
        trace = solve(pair, perturbed_start(target, 1e-2, 7, trial=k), reference=target)
        if trace.status is Status.CONVERGED:
            converged += 1
            assert trace.iterates[-1].err_x <= 1e-12
    assert converged > 0


def test_solve_calls_step_once_per_step(monkeypatch):
    # solve calls rqi.step by its module name, with quiet=True as it holds
    # the errstate for its whole run; the studies call it without
    target = Target.at(*refpairs.simple_pair_desk(), "simple")
    steps = []
    step_ = rqi.step

    def counted_step(pair, starts, **kwargs):
        steps.append(len(starts))
        return step_(pair, starts, **kwargs)

    monkeypatch.setattr(rqi, "step", counted_step)
    trace = solve(target.pair, perturbed_start(target, 0.05, 11, trial=3), tol_abs=1e-12)
    assert trace.status is Status.CONVERGED
    assert steps == [1] * (len(trace.iterates) - 1) and len(steps) >= 2
    # the studies step all trials of one eps as one stack
    del steps[:]
    scaling_study(target, [1e-2, 1e-3, 1e-4], 7, 0)
    assert steps == [7, 7, 7]


def test_solve_records_each_iterates_errors_from_one_stacked_call(monkeypatch):
    # the errors are taken when the run ends, in one call on the stack of
    # its iterates: err_mu and err_lambda are bitwise those of each triplet
    # alone, and err_x, whose phases and norms the stack sums in another
    # order, within 4 units of roundoff of the unit vectors it measures
    crossing = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    targets = (Target.at(*refpairs.simple_pair_desk(), "simple"),
               Target.at(*refpairs.multiple_pair_desk(), "multiple"), eigvec_set(crossing, 0.4, -0.3))
    calls = []
    errors = Target.errors
    monkeypatch.setattr(Target, "errors", lambda self, *t: calls.append(1) or errors(self, *t))
    for target in targets:
        for trial in range(20):
            del calls[:]
            trace = solve(target.pair, perturbed_start(target, 1e-2, 3, trial=trial), reference=target)
            assert calls == [1] and len(trace.iterates) >= 2
            for rec in trace.iterates:
                t = rec.triplet
                err_mu, err_lambda, err_x = errors(target, t.mu, t.lam, t.x)
                assert type(rec.err_mu) is float and rec.err_mu == err_mu
                assert type(rec.err_lambda) is float and rec.err_lambda == err_lambda
                assert abs(rec.err_x - err_x) <= 4 * np.finfo(float).eps
    # a max_iter=0 run records the errors of its one iterate
    target = targets[0]
    trace = solve(target.pair, perturbed_start(target, 1e-2, 3), max_iter=0, reference=target)
    assert len(trace.iterates) == 1 and trace.iterates[0].err_mu is not None
    # a run that ends NON_FINITE keeps None on its last record, and only
    # there; solve takes each iterate's norm from model's private body
    res_norm = rqi._residual_norm
    norms = []

    def third_is_nan(pair, mu, lam, x, weight):
        norms.append(1)
        return np.nan if len(norms) == 3 else res_norm(pair, mu, lam, x, weight)

    monkeypatch.setattr(rqi, "_residual_norm", third_is_nan)
    trace = solve(target.pair, perturbed_start(target, 1e-2, 3), tol_abs=0.0, reference=target)
    assert trace.status is Status.NON_FINITE and len(trace.iterates) == 3
    last = trace.iterates[-1]
    assert last.err_mu is last.err_lambda is last.err_x is None
    assert all(rec.err_x is not None for rec in trace.iterates[:-1])


def _loop_solve(pair, t0):
    """solve as a loop of public step and residual_norm calls on a stack and Triplets rebuilt each step.

    The norm weighs F's last entry by floor_unit(pair), as solve does:
    residual_norm where that is 1, else its arithmetic by numpy's norm.
    """
    weight = floor_unit(pair)

    def norm(t):
        if weight == 1.0:
            return residual_norm(pair, t)
        f = residual(pair, t)
        f[-1] *= weight
        with np.errstate(over="ignore", invalid="ignore"):
            nrm = float(np.linalg.norm(f))
            if not np.isfinite(nrm) or nrm < 1e-150 and f.any():
                big = float(np.abs(f).max())
                if np.isfinite(big):
                    unit = power_of_two_near(big)
                    nrm = float(np.linalg.norm(f / unit)) * unit
        return nrm

    res_norm = norm(t0)
    trace = rqi.RqiTrace()
    t, stack = t0, TripletStack.of([t0])
    for k in range(rqi.DEFAULT_OPTS["max_iter"] + 1):
        rec = rqi.IterateRecord(k, t, res_norm)
        trace.iterates.append(rec)
        tol = rqi.DEFAULT_OPTS["tol_abs"] * weight + rqi.DEFAULT_OPTS["tol_rel"] * (
            pair.norm_a + abs(t.mu) * pair.norm_c + abs(t.lam))
        if not (np.isfinite(res_norm) and np.isfinite(tol)):
            trace.status = Status.NON_FINITE
            break
        if res_norm <= tol:
            trace.status = Status.CONVERGED
            break
        if k == rqi.DEFAULT_OPTS["max_iter"]:
            break
        out = step(pair, stack)
        if out.failures[0] is not None:
            trace.status = out.failures[0]
            break
        stack = out.triplets
        t = stack[0]
        rec.c1, rec.c2, rec.abs_a12 = float(out.c1[0]), float(out.c2[0]), float(out.abs_a12[0])
        res_norm = norm(t)
    return trace


def test_solve_is_bitwise_a_loop_of_public_steps_and_residual_norms():
    # solve holds one errstate per run, carries its iterate as floats and a
    # row, and takes each norm from model's private body; none of it may move
    # a bit of the run that public calls give
    def bits(v):
        return None if v is None else "nan" if np.isnan(v) else np.float64(v).tobytes()

    crossing = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    targets = (Target.at(*refpairs.simple_pair_desk(), "simple"),
               Target.at(*refpairs.multiple_pair_desk(), "multiple"), eigvec_set(crossing, 0.4, -0.3))
    statuses = set()
    for target in targets:
        base = perturbed_starts(target, 1e-2, 3, range(5))
        _, q = np.linalg.eigh(target.pair.c)
        for s in (1.0, 1e300, 1e-300):
            pair = HermitianPair(s * target.pair.a, s * target.pair.c)
            starts = [Triplet(t.mu, s * t.lam, t.x) for t in base]
            starts += [Triplet(0.3, 0.1, np.zeros(pair.n)), Triplet(0.3, 0.1, q[:, 0]),
                       Triplet(1e308, 0.0, target.x), Triplet(np.nan, s * target.lam, target.x)]
            for t0 in starts:
                got, want = solve(pair, t0), _loop_solve(pair, t0)
                assert got.status is want.status and len(got.iterates) == len(want.iterates), s
                statuses.add(got.status)
                for g, w in zip(got.iterates, want.iterates):
                    assert type(g.triplet) is Triplet and not g.triplet.x.flags.writeable
                    assert type(g.triplet.mu) is type(g.triplet.lam) is float
                    assert bits(g.triplet.mu) == bits(w.triplet.mu) and bits(g.triplet.lam) == bits(w.triplet.lam)
                    assert g.triplet.x.tobytes() == w.triplet.x.tobytes(), s
                    for name in ("res_norm", "c1", "c2", "abs_a12"):
                        assert bits(getattr(g, name)) == bits(getattr(w, name)), (name, s)
    assert statuses == {Status.CONVERGED, Status.JACOBIAN_NEAR_SINGULAR, Status.NON_FINITE}


def test_ten_solves_against_one_target_make_no_n_by_n_eigh(count_linalg):
    # the reference was classified once, when its Target was made
    target = Target.at(*refpairs.simple_pair_desk(), "simple")
    starts = [perturbed_start(target, 0.05, 11, trial=k) for k in range(10)]
    pair = target.pair
    calls = count_linalg()
    traces = [solve(pair, t0, tol_abs=1e-12, reference=target) for t0 in starts]
    assert [shape for name, shape in calls if name == "eigh" and shape == (pair.n, pair.n)] == []
    assert all(trace.status is Status.CONVERGED for trace in traces)
    assert traces[0].iterates[-1].err_x <= 1e-10


def test_solve_rejects_a_reference_that_is_no_2d_eigenvalue():
    pair, trip = refpairs.simple_pair_desk()
    t0 = Triplet.normalized(trip.mu + 0.01, trip.lam + 0.01, trip.x)
    # A - 0*C has no eigenvalue near 0.5, so no Target is made there; a
    # failure is not kept
    for _ in range(2):
        with pytest.raises(TwoDevpError, match="no eigenvalue"):
            eigvec_set(pair, 0.0, 0.5)
    # solve takes only a Target of its own pair: not a bare triplet, nor
    # the Target of an equal pair
    twin = HermitianPair(pair.a, pair.c)
    for ref in (Triplet(0.0, 0.5, trip.x), trip, Target.at(twin, trip, "simple")):
        with pytest.raises(ValueError, match="Target of this pair"):
            solve(pair, t0, reference=ref)


def test_solve_reference_error_of_a_zero_start():
    # the zero vector is at distance 1 from every set of unit vectors
    pair, trip = refpairs.simple_pair_desk()
    target = Target.at(pair, trip, "simple")
    trace = solve(pair, Triplet(trip.mu, trip.lam, np.zeros(pair.n)), reference=target)
    assert trace.status is Status.JACOBIAN_NEAR_SINGULAR
    assert abs(trace.iterates[0].err_x - 1.0) <= 1e-14


def test_solve_final_residual_consistent():
    pair, trip = refpairs.simple_pair_desk()
    t0 = Triplet.normalized(trip.mu + 0.01, trip.lam + 0.01, trip.x)
    trace = solve(pair, t0)
    assert np.linalg.norm(residual(pair, trace.final)) == trace.iterates[-1].res_norm


def test_solve_records_the_c1_c2_and_abs_a12_of_each_step():
    # each record but the last carries the projected pair of the step taken
    # from it; no step is taken from the last
    target = Target.at(*refpairs.simple_pair_desk(), "simple")
    trace = solve(target.pair, perturbed_start(target, 0.05, 11, trial=3), tol_abs=1e-12)
    assert trace.status is Status.CONVERGED and len(trace.iterates) >= 3
    for rec in trace.iterates[:-1]:
        out = step_one(target.pair, rec.triplet)
        for got, want in ((rec.c1, out.c1[0]), (rec.c2, out.c2[0]), (rec.abs_a12, out.abs_a12[0])):
            assert type(got) is float and abs(got - want) <= 1e-14
    last = trace.iterates[-1]
    assert last.c1 is None and last.c2 is None and last.abs_a12 is None
