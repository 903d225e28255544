import numpy as np
import pytest

from twodevp import refpairs, rqi
from twodevp.angles import canonical_angles
from twodevp.classify import Target, eigvec_set
from twodevp.curves import eigvec_derivative
from twodevp.errors import TwoDevpError
from twodevp.harness import (
    perturbed_start,
    perturbed_starts,
    random_pair,
    random_pair_with_crossing,
    scaling_study,
)
from twodevp.kernels import orthonormalize
from twodevp.model import HermitianPair, Triplet, TripletStack, jacobian_hat, residual
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
    # rows of the SVD nullspace of the leading Jacobian block span
    for target in _targets_for_basis_checks():
        n = target.pair.n
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            t0 = perturbed_start(target, eps, 5)
            _, _, vh = np.linalg.svd(jacobian_hat(target.pair, t0))
            ref = orthonormalize(vh.conj().T[:n, n:])
            v, _ = basis_at(target.pair, t0)
            assert np.sin(canonical_angles(v[0], ref)[-1]) <= 1e-12, (n, eps)


def test_step_makes_one_solve_and_no_large_svd(count_linalg):
    # the LAPACK budget of one step: one LU solve per stack of starts (a
    # stack of one as solve steps, of five as the studies do), one eigh of the
    # stacked 2 x 2 forms, at most two SVDs of at most 2 columns, no QR
    # and nothing else
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, 11)
    target = eigvec_set(pair, 0.4, -0.3)
    t0 = perturbed_start(target, 1e-3, 5)
    starts = perturbed_starts(target, 1e-3, 5, range(5))
    calls = count_linalg()
    for k, run in ((1, lambda: step(pair, TripletStack.of([t0]))), (5, lambda: step(pair, starts))):
        del calls[:]
        run()
        svds = [shape for name, shape in calls if name == "svd"]
        assert [shape for name, shape in calls if name == "solve"] == [(k, 66, 66)]
        assert [shape for name, shape in calls if name == "eigh"] == [(k, 2, 2)]
        assert len(svds) <= 2 and all(shape[-1] <= 2 for shape in svds)
        assert len(calls) == 2 + len(svds)


def test_step_stack_matches_single_steps():
    for regime, desk, eps in (("simple", refpairs.simple_pair_desk, 1e-2),
                              ("multiple", refpairs.multiple_pair_desk, 3e-2)):
        target = Target.at(*desk(), regime)
        starts = perturbed_starts(target, eps, 21, range(50))
        out = step(target.pair, starts)
        assert len(out.triplets) == len(out.failures) == 50
        for i in range(50):
            one = step(target.pair, TripletStack.of([starts[i]]))
            assert out.failures[i] is one.failures[0]
            if one.failures[0] is not None:
                continue
            got, t1 = out.triplets[i], one.triplets[0]
            assert abs(got.mu - t1.mu) <= 1e-12 and abs(got.lam - t1.lam) <= 1e-12
            assert np.linalg.norm(got.x - t1.x) <= 1e-10
            assert np.allclose([out.c1[i], out.c2[i], out.abs_a12[i]],
                               [one.c1[0], one.c2[0], one.abs_a12[0]], rtol=1e-12, atol=1e-14)


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
    chosen = select_ritz(TripletStack.of([t_prev]), cands, v)[0]
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
    # so is a start whose residual norm overflows, from |mu| = 1e155 on,
    # with no warning and no raw numpy error
    for pair, trip in (refpairs.simple_pair_desk(), refpairs.multiple_pair_desk()):
        x_inf = np.array(trip.x)
        x_inf[0] = np.inf
        huge = [Triplet(mu, lam, trip.x) for mu in (1e155, 1e200, 1e308, -1e308) for lam in (0.0, 1e308)]
        for t0 in [
            Triplet(np.nan, trip.lam, trip.x),
            Triplet(trip.mu, np.nan, trip.x),
            Triplet(trip.mu, trip.lam, x_inf),
        ] + huge:
            trace = solve(pair, t0)
            assert trace.status is Status.NON_FINITE
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
    target = Target.at(*refpairs.simple_pair_desk(), "simple")
    steps = []
    step_ = rqi.step

    def counted_step(pair, starts):
        steps.append(len(starts))
        return step_(pair, starts)

    monkeypatch.setattr(rqi, "step", counted_step)
    trace = solve(target.pair, perturbed_start(target, 0.05, 11, trial=3), tol_abs=1e-12)
    assert trace.status is Status.CONVERGED
    assert steps == [1] * (len(trace.iterates) - 1) and len(steps) >= 2
    # the studies step all trials of one eps as one stack
    del steps[:]
    scaling_study(target, [1e-2, 1e-3, 1e-4], 7, 0)
    assert steps == [7, 7, 7]


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
