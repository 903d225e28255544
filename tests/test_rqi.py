import numpy as np
import pytest

from twodevp import refpairs
from twodevp.curves import eigvec_derivative
from twodevp.errors import NotIndefinite, TwoDevpError
from twodevp.harness import Target, perturbed_start
from twodevp.model import Triplet, residual
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


def test_projection_basis_spans_x_and_xprime():
    pair = refpairs.simple_pair_2x2()
    t = refpairs.simple_target_2x2()
    b = projection_basis(pair, t)
    xp = eigvec_derivative(pair, t.mu, t.lam, t.x)
    ideal = np.stack([t.x, xp / np.linalg.norm(xp)], axis=1)
    # the nullspace rows reproduce span{x, x'}
    assert np.linalg.norm(projector(b.v) - projector(ideal), 2) < 1e-6


def test_projection_basis_n2_is_whole_space():
    pair = refpairs.simple_pair_2x2()
    b = projection_basis(pair, Triplet(0.3, 0.8, np.array([0.6, 0.8])))
    assert np.linalg.norm(b.v.conj().T @ b.v - np.eye(2), 2) < 1e-12
    assert np.allclose(sorted([b.c1, b.c2]), [-1.0, 1.0], atol=1e-12)
    assert b.c1 >= b.c2


def test_projection_basis_phase_invariant():
    pair = refpairs.simple_pair_2x2()
    t = refpairs.simple_target_2x2()
    b1 = projection_basis(pair, t)
    b2 = projection_basis(pair, Triplet(t.mu, t.lam, t.x * np.exp(0.7j)))
    assert abs(b1.c1 - b2.c1) + abs(b1.c2 - b2.c2) < 1e-12
    assert np.linalg.norm(projector(b1.v) - projector(b2.v), 2) < 1e-10


def test_projection_basis_diagonalizes_c():
    pair, trip = refpairs.simple_pair_desk()
    b = projection_basis(pair, trip)
    cv = b.v.conj().T @ pair.c @ b.v
    assert abs(cv[0, 1]) < 1e-10
    assert np.isclose(cv[0, 0].real, b.c1) and np.isclose(cv[1, 1].real, b.c2)


def test_form_rq_identity_basis():
    pair = refpairs.simple_pair_2x2()
    t = Triplet(0.3, 0.8, np.array([0.6, 0.8]))
    b = projection_basis(pair, t)
    a11, a12, a22, c1, c2 = form_rq(pair, b)
    ak = b.v.conj().T @ pair.a @ b.v
    assert np.isclose(a11, ak[0, 0].real) and np.isclose(a22, ak[1, 1].real)
    assert np.isclose(abs(a12), abs(ak[0, 1]))


def test_form_rq_offdiagonal_vanishes_at_multiple_target():
    pair = refpairs.multiple_pair_2x2()
    b = projection_basis(pair, refpairs.multiple_target_2x2())
    _, a12, _, _, _ = form_rq(pair, b)
    assert abs(a12) <= 1e-10


def test_solve_2x2_antisymmetric_example():
    cands = solve_2x2(0.0, 1.0 + 0j, 0.0, 1.0, -1.0)
    assert len(cands) == 2
    got = sorted((round(c.nu, 12), round(c.theta, 12)) for c in cands)
    assert got == [(0.0, -1.0), (0.0, 1.0)]
    for c in cands:
        assert abs(np.linalg.norm(c.z) - 1.0) < 1e-12
        assert abs(c.z.conj() @ (np.array([1.0, -1.0]) * c.z)) < 1e-12


def test_solve_2x2_zero_a12_gives_two_candidates_at_one_point():
    # at a12 = 0 both candidates sit at (nu, theta) = (1, 0)
    cands = solve_2x2(1.0, 0.0 + 0j, -1.0, 1.0, -1.0)
    assert len(cands) == 2
    for c in cands:
        assert np.isclose(c.nu, 1.0) and np.isclose(c.theta, 0.0)


def test_solve_2x2_branch_continuity():
    eps = 1e-6
    single = solve_2x2(0.3, 0.0 + 0j, -0.2, 1.0, -1.0)[0]
    for c in solve_2x2(0.3, eps + 0j, -0.2, 1.0, -1.0):
        assert abs(c.theta - single.theta) <= 2.0 * eps + 1e-12


def test_solve_2x2_requires_indefinite():
    with pytest.raises(NotIndefinite):
        solve_2x2(0.0, 1.0 + 0j, 0.0, 1.0, 0.5)


def test_solve_2x2_candidates_solve_projected_problem():
    # each candidate satisfies (A_k - nu C_k - theta I) z = 0, for a12 of
    # order one and for a tiny a12 at a random phase
    rng = np.random.default_rng(12)
    for k in range(21):
        a11, a22 = rng.standard_normal(2)
        a12 = rng.standard_normal() + 1j * rng.standard_normal()
        if k == 20:
            a12 = 1e-11 * a12 / abs(a12)
        c1, c2 = rng.uniform(0.2, 2.0), -rng.uniform(0.2, 2.0)
        ak = np.array([[a11, a12], [np.conj(a12), a22]])
        ck = np.diag([c1, c2])
        for c in solve_2x2(a11, a12, a22, c1, c2):
            res = (ak - c.nu * ck - c.theta * np.eye(2)) @ c.z
            assert np.linalg.norm(res) < 1e-12 * (abs(a11) + abs(a22) + abs(a12) + 1)


def test_select_ritz_picks_nearest():
    pair = refpairs.simple_pair_2x2()
    t_prev = Triplet.normalized(0.1, 0.9, np.array([1.0, 0.8]))
    b = projection_basis(pair, t_prev)
    cands = solve_2x2(*form_rq(pair, b))
    chosen = select_ritz(t_prev, cands, b)
    assert abs(chosen.mu - 0.0) + abs(chosen.lam - 1.0) < 1e-12
    assert abs(np.vdot(chosen.x, pair.c @ chosen.x)) < 1e-10
    assert abs(np.linalg.norm(chosen.x) - 1.0) < 1e-12


def test_step_contracts_near_simple_target():
    pair = refpairs.simple_pair_2x2()
    x0 = np.array([1.0, 1.0]) / SQ2 + 0.05 * np.array([1.0, -1.0]) / SQ2
    t0 = Triplet.normalized(0.1, 0.9, x0)
    t1, diag = step(pair, t0)
    e0 = abs(t0.mu) + abs(t0.lam - 1.0)
    e1 = abs(t1.mu) + abs(t1.lam - 1.0)
    assert e1 <= e0 / 10.0
    assert diag.abs_a12 > 0.0


def test_step_fixed_point_at_target():
    pair = refpairs.simple_pair_2x2()
    t1, _ = step(pair, refpairs.simple_target_2x2())
    assert abs(t1.mu) + abs(t1.lam - 1.0) <= 1e-12


def test_step_phase_invariance():
    pair, trip = refpairs.simple_pair_desk()
    rng = np.random.default_rng(7)
    w = rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n)
    t0 = Triplet.normalized(trip.mu + 0.01, trip.lam - 0.02, trip.x + 0.05 * w)
    ta, _ = step(pair, t0)
    tb, _ = step(pair, Triplet(t0.mu, t0.lam, t0.x * np.exp(1.1j)))
    assert abs(ta.mu - tb.mu) + abs(ta.lam - tb.lam) < 1e-12


def test_step_iterates_stay_feasible():
    pair, trip = refpairs.simple_pair_desk()
    rng = np.random.default_rng(8)
    w = rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n)
    t = Triplet.normalized(trip.mu + 0.02, trip.lam + 0.02, trip.x + 0.05 * w)
    for _ in range(4):
        t, _ = step(pair, t)
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


def test_solve_non_finite_start_is_a_status():
    pair, trip = refpairs.simple_pair_desk()
    x_inf = np.array(trip.x)
    x_inf[0] = np.inf
    for t0 in (
        Triplet(np.nan, trip.lam, trip.x),
        Triplet(trip.mu, np.nan, trip.x),
        Triplet(trip.mu, trip.lam, x_inf),
    ):
        trace = solve(pair, t0)
        assert trace.status is Status.NON_FINITE
        assert len(trace.iterates) == 1 and trace.final is t0


def test_solve_records_reference_errors():
    pair, trip = refpairs.simple_pair_desk()
    rng = np.random.default_rng(9)
    w = rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n)
    t0 = Triplet.normalized(trip.mu + 0.02, trip.lam - 0.02, trip.x + 0.03 * w)
    trace = solve(pair, t0, reference=trip)
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
        trace = solve(pair, perturbed_start(target, 1e-2, 7, trial=k), reference=trip)
        if trace.status is Status.CONVERGED:
            converged += 1
            assert trace.iterates[-1].err_x <= 1e-12
    assert converged > 0


def test_solve_rejects_a_reference_that_is_no_2d_eigenvalue():
    pair, trip = refpairs.simple_pair_desk()
    t0 = Triplet.normalized(trip.mu + 0.01, trip.lam + 0.01, trip.x)
    # A - 0*C has no eigenvalue near 0.5
    with pytest.raises(TwoDevpError, match="no eigenvalue"):
        solve(pair, t0, reference=Triplet(0.0, 0.5, trip.x))


def test_solve_reference_error_of_a_zero_start():
    # the zero vector is at distance 1 from every set of unit vectors
    pair, trip = refpairs.simple_pair_desk()
    trace = solve(pair, Triplet(trip.mu, trip.lam, np.zeros(pair.n)), reference=trip)
    assert trace.status is Status.JACOBIAN_NEAR_SINGULAR
    assert abs(trace.iterates[0].err_x - 1.0) <= 1e-14


def test_solve_final_residual_consistent():
    pair, trip = refpairs.simple_pair_desk()
    t0 = Triplet.normalized(trip.mu + 0.01, trip.lam + 0.01, trip.x)
    trace = solve(pair, t0)
    assert residual(pair, trace.final).norm == trace.iterates[-1].res_norm
