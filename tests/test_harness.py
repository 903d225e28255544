import numpy as np
import pytest

from twodevp import refpairs
from twodevp.angles import dist_to_set
from twodevp.classify import Kind, Target, classify, eigvec_set
from twodevp.errors import TwoDevpError
from twodevp.harness import (
    COMMUTING_WINDOWS,
    MULTIPLE_WINDOWS,
    RITZ_WINDOWS,
    SIMPLE_WINDOWS,
    ConditioningReport,
    _trial_rng,
    _trial_rngs,
    conditioning_study,
    convergence_order,
    fit_slope,
    perturbed_start,
    perturbed_starts,
    random_pair,
    random_pair_with_crossing,
    ritz_approx_study,
    scaling_study,
    verdicts,
)
from twodevp.model import Triplet, TripletStack, residual
from twodevp.oracle import HitKind, scan
from twodevp.rqi import projection_basis, sigma_n_jhat


def simple_target():
    pair, trip = refpairs.simple_pair_desk()
    return Target.at(pair, trip, "simple")


def multiple_target():
    pair, trip = refpairs.multiple_pair_desk()
    return Target.at(pair, trip, "multiple")


def test_convergence_order_quadratic_sequence():
    est = convergence_order([1e-1, 1e-2, 1e-4, 1e-8])
    assert np.allclose(est.orders, [2.0, 2.0])


def test_convergence_order_linear_sequence():
    est = convergence_order([1e-1, 1e-2, 1e-3])
    assert np.allclose(est.orders, [1.0])


def test_convergence_order_excludes_noise_floor():
    est = convergence_order([1e-2, 1e-5, 1e-16])
    assert est.orders == []


def test_convergence_order_too_short():
    with pytest.raises(TwoDevpError, match="need at least 3 error values"):
        convergence_order([1.0, 0.1])


def test_perturbed_start_simple_scaling():
    tgt = simple_target()
    for trial in range(10):
        eps = 0.01
        t0 = perturbed_start(tgt, eps, 0, trial=trial)
        err = max(tgt.errors(t0.mu, t0.lam, t0.x))
        assert 0.1 * eps <= err <= 1.5 * eps


def test_perturbed_start_reproducible():
    tgt = simple_target()
    a = perturbed_start(tgt, 0.05, 42, trial=3)
    b = perturbed_start(tgt, 0.05, 42, trial=3)
    assert a.mu == b.mu and a.lam == b.lam
    assert np.array_equal(a.x, b.x)


def test_perturbed_start_zero_eps_is_exact():
    tgt = simple_target()
    t0 = perturbed_start(tgt, 0.0, 0)
    assert t0.mu == tgt.triplet.mu and t0.lam == tgt.triplet.lam
    assert dist_to_set(t0.x, tgt) < 1e-12


def test_perturbed_start_multiple_scales_scalars_quadratically():
    tgt = multiple_target()
    eps = 0.01
    t0 = perturbed_start(tgt, eps, 0, trial=1)
    assert abs(t0.mu - tgt.triplet.mu) <= eps * eps
    assert abs(t0.lam - tgt.triplet.lam) <= eps * eps
    assert dist_to_set(t0.x, tgt) <= 1.5 * eps


def test_simple_target_reads_no_caller_vector():
    pair, _ = refpairs.simple_pair_desk()
    tgt = Target.at(pair, Triplet(0.0, 1.0, np.eye(pair.n)[0]), "simple")
    assert dist_to_set(tgt.triplet.x, tgt) < 1e-14
    for trial in range(10):
        t0 = perturbed_start(tgt, 1e-3, 0, trial=trial)
        assert dist_to_set(t0.x, tgt) <= 1.5e-3


def test_perturbed_start_range_check():
    with pytest.raises(ValueError):
        perturbed_start(simple_target(), 0.5, 0)


def test_convergence_order_needs_a_sequence():
    with pytest.raises(TwoDevpError, match="1-d"):
        convergence_order([[1.0, 2.0], [3.0, 4.0]])


def test_conditioning_study_of_no_eps_is_an_input_error():
    # an empty report would have no verdicts, and pass
    with pytest.raises(ValueError, match="eps"):
        conditioning_study(simple_target(), [], 5, 0)


def test_scaling_study_needs_a_decade():
    with pytest.raises(ValueError):
        scaling_study(simple_target(), [1e-2], 5, 0)
    with pytest.raises(ValueError):
        scaling_study(simple_target(), [1e-2, 5e-3], 5, 0)


def test_studies_reject_a_non_positive_eps():
    for study in (scaling_study, ritz_approx_study):
        for eps_list in ([1e-2, 0.0], [1e-2, -1e-3], [np.inf, 1e-3]):
            with pytest.raises(ValueError, match="> 0"):
                study(simple_target(), eps_list, 5, 0)


def test_studies_read_the_eps_list_in_either_order():
    # each eps draws the same trials whichever order the list comes in
    for study in (scaling_study, ritz_approx_study):
        up = study(simple_target(), [1e-3, 1e-2], 5, 0)
        down = study(simple_target(), [1e-2, 1e-3], 5, 0)
        assert up.epsilons == down.epsilons == [1e-2, 1e-3]
        assert up.fitted_slopes == down.fitted_slopes
    # a critical point of a random pair where eps 0.3 has a sigma violation
    pair = random_pair(8, (4, 4), 5)
    hit = next(h for h in scan(pair, -3.0, 3.0, 96)[0] if h.kind is HitKind.CRITICAL_POINT)
    tgt = eigvec_set(pair, hit.triplet.mu, hit.triplet.lam)
    down = conditioning_study(tgt, [0.3, 0.1], 30, 1)
    assert down == conditioning_study(tgt, [0.1, 0.3], 30, 1)
    assert down.epsilons == [0.3, 0.1] and down.sigma_violations == [1, 0]


def test_perturbed_starts_are_the_single_starts_stacked():
    # mu and lambda are bitwise; x rounds apart by up to a unit, as the
    # projection coefficient w x^H is a dot product for one start and a
    # matrix-vector product for a stack
    for tgt in (simple_target(), multiple_target()):
        for eps in (0.0, 1e-3, 0.3):
            trials = [4, 0, 17, 3]
            stack = perturbed_starts(tgt, eps, 3, trials)
            assert len(stack) == len(trials) and stack.x.shape == (4, tgt.pair.n)
            ones = [perturbed_start(tgt, eps, 3, trial=trial) for trial in trials]
            assert stack.mu.tobytes() == np.array([one.mu for one in ones]).tobytes()
            assert stack.lam.tobytes() == np.array([one.lam for one in ones]).tobytes()
            assert np.max(np.abs(stack.x - [one.x for one in ones])) <= 1e-15


def test_trial_rngs_draw_as_the_list_of_seed_and_trial_seeds_them():
    # a uint32 array of (seed, trial) where both are below 2^32, the list
    # elsewhere: the same entropy words, so the same draws
    words = (0, 11, 2 ** 32 - 1, 2 ** 32, 2 ** 40)
    for seed in words:
        for trial in words:
            got = _trial_rng(seed, trial).standard_normal(16)
            assert got.tobytes() == np.random.default_rng([seed, trial]).standard_normal(16).tobytes()
    # a block hashed at once draws as each trial's own RNG, in both of the
    # harness's draw patterns; a block with a word past 2^32 falls back to
    # those RNGs, where hashing it as uint32 would wrap it
    n = 5
    patterns = (lambda rng: rng.random(2).tobytes() + rng.standard_normal(2 * n).tobytes(),
                lambda rng: rng.standard_normal((2, n, 2)).tobytes())
    blocks = (range(60), [7, 0, 2 ** 32 - 1, 3, 3], np.arange(90, 40, -1), np.array([5, 2 ** 31], dtype=np.uint32),
              [], [5, 2 ** 32, 0, 2 ** 40, 9])
    for seed in (0, 11, 2 ** 31, 2 ** 32 - 1, 2 ** 32):
        for trials in blocks:
            for draw in patterns:
                got = [draw(rng) for rng in _trial_rngs(seed, trials)]
                assert got == [draw(np.random.default_rng([seed, trial])) for trial in trials], (seed, trials)


def test_perturbed_starts_are_bitwise_a_loop_of_per_trial_draws():
    # both normal blocks of a trial in one draw take the stream's values in
    # the order two draws of n take them
    for tgt in (simple_target(), multiple_target()):
        trials = [4, 0, 17, 2 ** 32 + 3]
        n, x0 = tgt.pair.n, tgt.x
        u, w = np.empty((len(trials), 2)), np.empty((len(trials), n), dtype=complex)
        for row, trial in enumerate(trials):
            rng = np.random.default_rng([3, trial])
            u[row] = rng.uniform(-1.0, 1.0, size=2)
            w[row] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w -= np.outer(w @ x0.conj() / np.vdot(x0, x0), x0)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        x = x0 + 0.01 * w
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        scal = 1e-4 if tgt.regime == "multiple" else 0.01
        stack = perturbed_starts(tgt, 0.01, 3, trials)
        assert stack.mu.tobytes() == (tgt.mu + scal * u[:, 0]).tobytes()
        assert stack.lam.tobytes() == (tgt.lam + scal * u[:, 1]).tobytes()
        assert stack.x.tobytes() == x.tobytes()


def test_ritz_study_needs_a_decade():
    with pytest.raises(ValueError, match="decade"):
        ritz_approx_study(simple_target(), [1e-2, 5e-3], 5, 0)


def test_verdicts_judge_each_case_by_its_windows():
    crossing = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    cases = [
        ("scaling", simple_target(), SIMPLE_WINDOWS),
        ("scaling", multiple_target(), COMMUTING_WINDOWS),  # A and C both diagonal
        ("scaling", eigvec_set(crossing, 0.4, -0.3), MULTIPLE_WINDOWS),
        ("ritz", simple_target(), RITZ_WINDOWS),
    ]
    for kind, tgt, windows in cases:
        study = scaling_study if kind == "scaling" else ritz_approx_study
        rows = verdicts(kind, tgt, study(tgt, [1e-1, 1e-2], 2, 0))
        assert [r["check"] for r in rows] == ["slope_%s" % k for k in windows]
        assert [r["window"] for r in rows] == [list(w) for w in windows.values()]


def test_conditioning_verdicts_require_clean_counts_near_the_target():
    rep = ConditioningReport([1e-1, 1e-3, 1e-4], 5, [3, 0, 0], [2, 1, 0], 1.0, (1.0, -1.0))
    rows = verdicts("conditioning", simple_target(), rep)
    assert [r["check"] for r in rows] == ["conditioning_eps_0.1", "conditioning_eps_0.001",
                                          "conditioning_eps_0.0001"]
    assert [r["pass"] for r in rows] == [True, False, True]


def test_scaling_study_report_shape():
    st = scaling_study(simple_target(), [1e-2, 1e-3], 5, 0)
    assert len(st.errors_mu) == 2 and len(st.errors_lambda) == 2
    assert st.failed == 0 and st.total == 10
    assert set(st.fitted_slopes) == {"mu", "lambda", "x"}
    d = st._asdict()
    assert d["epsilons"] == [1e-2, 1e-3]


def test_fit_slope_leaves_out_medians_at_roundoff():
    eps = [1e-2, 3e-3, 1e-3, 3e-4]
    med = [e**4 for e in eps[:3]] + [1e-15]  # last point: a few ulps of 1
    slope, used = fit_slope(eps, med, scale=1.0)
    assert used == eps[:3]
    assert abs(slope - 4.0) < 1e-10
    # the cut grows with the target value: 1e-12 is signal around 1, not around 1e3
    assert fit_slope([1e-1, 1e-2], [1e-8, 1e-12], scale=1.0)[1] == [1e-1, 1e-2]
    assert fit_slope([1e-1, 1e-2], [1e-8, 1e-12], scale=-1e3)[1] == [1e-1]


def test_fit_slope_is_nan_without_a_decade_above_roundoff():
    slope, used = fit_slope([1e-2, 1e-3], [1e-8, 1e-16])
    assert np.isnan(slope) and used == [1e-2]
    slope, used = fit_slope([1e-2, 5e-3, 1e-3], [1e-8, 1e-9, 0.0])
    assert np.isnan(slope) and used == [1e-2, 5e-3]


def test_scaling_study_reports_fit_points():
    st = scaling_study(simple_target(), [1e-2, 1e-3, 1e-4], 10, 0)
    # the lambda error falls as eps^4 and reaches roundoff of lambda_* = 1
    # at eps = 1e-4; mu and x stay well above it
    assert st.fit_epsilons["lambda"] == [1e-2, 1e-3]
    assert st.fit_epsilons["mu"] == st.fit_epsilons["x"] == [1e-2, 1e-3, 1e-4]
    assert st._asdict()["fit_epsilons"] == st.fit_epsilons


def test_ritz_study_requires_simple_target():
    with pytest.raises(ValueError):
        ritz_approx_study(multiple_target(), [1e-2, 1e-3], 5, 0)


def test_a_study_that_loses_over_a_fifth_of_its_trials_raises():
    # at eps = 100 one of the 4 perturbed subspaces has a definite C-form
    with pytest.raises(TwoDevpError, match="more than 20% of trials failed"):
        ritz_approx_study(simple_target(), [100.0, 10.0], 2, 0)


@pytest.mark.parametrize("seed", [0, 9, 12, 14])
def test_an_eps_whose_trials_all_fail_has_nan_medians(seed):
    # one trial per eps; at these seeds the trial of one eps fails, and as
    # 1 of 5 is within a fifth, the study reports that eps with NaN medians
    eps = [100.0, 10.0, 1.0, 0.1, 0.01]
    st = ritz_approx_study(simple_target(), eps, 1, seed)
    assert (st.failed, st.total) == (1, 5)
    (k,) = np.flatnonzero(np.isnan(st.errors_mu))
    assert np.isnan(st.errors_lambda[k]) and np.isnan(st.errors_x[k])
    assert all(eps[k] not in used for used in st.fit_epsilons.values())


def test_ritz_study_near_exact_at_tiny_eps():
    st = ritz_approx_study(simple_target(), [1e-12, 1e-13], 5, 0)
    assert st.errors_mu[0] < 1e-10
    assert st.errors_lambda[0] < 1e-10


def test_conditioning_study_reports_reference_values():
    tgt = simple_target()
    rep = conditioning_study(tgt, [1e-3], 20, 0)
    _, c, _ = projection_basis(tgt.pair, TripletStack.of([tgt.triplet]))
    assert np.isclose(rep.sigma_star, sigma_n_jhat(tgt.pair, tgt.triplet))
    assert rep.c_star == (c[0, 0], c[0, 1])
    assert rep.sigma_violations == [0] and rep.c_violations == [0]


def test_studies_reject_zero_trials():
    # a study over no trials has no medians to fit and no violations to count
    for study in (scaling_study, ritz_approx_study, conditioning_study):
        with pytest.raises(ValueError, match="trials"):
            study(simple_target(), [1e-2, 1e-3], 0, 0)


def test_conditioning_study_counts_large_eps_violations():
    rep = conditioning_study(simple_target(), [0.3], 50, 0)
    # far outside the local regime violations may occur; these 50 starts
    # have none, as when the study took one start at a time
    assert (rep.sigma_violations, rep.c_violations) == ([0], [0])


def test_conditioning_counts_match_the_per_start_study():
    # counts that the study gave when it took one start at a time; the
    # crossings of random pairs give nonzero ones at large eps
    for tgt in (simple_target(), multiple_target()):
        rep = conditioning_study(tgt, [1e-2, 1e-3], 100, 0)
        assert (rep.sigma_violations, rep.c_violations) == ([0, 0], [0, 0])
    for n, seed, sigma, c in ((6, 10, [0, 5], [8, 5]), (4, 9, [5, 0], [15, 2])):
        pair = random_pair_with_crossing(n, (n // 2, n - n // 2), 0.4, -0.3, seed)
        rep = conditioning_study(eigvec_set(pair, 0.4, -0.3), [0.3, 0.1], 40, 0)
        assert (rep.sigma_violations, rep.c_violations) == (sigma, c)


def test_random_pair_signature_and_reproducibility():
    p1 = random_pair(2, (1, 1), 7)
    w = np.linalg.eigvalsh(p1.c)
    assert np.allclose(sorted(w), [-1.0, 1.0])
    p2 = random_pair(2, (1, 1), 7)
    assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.c, p2.c)


def test_random_pair_signature_validation():
    with pytest.raises(ValueError):
        random_pair(4, (4, 0), 0)
    with pytest.raises(ValueError):
        random_pair(4, (2, 3), 0)


def test_random_pair_with_crossing_plants_multiple_eigenvalue():
    pair = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    c = classify(pair, 0.4, -0.3)
    assert c.kind is Kind.NONSINGULAR_MULTIPLE
    assert c.multiplicity == 2


def test_target_at_builds_consistent_triplet():
    tgt = multiple_target()
    assert np.linalg.norm(residual(tgt.pair, tgt.triplet)) < 1e-12
    assert dist_to_set(tgt.triplet.x, tgt) < 1e-12


def test_target_regime_comes_from_its_eigenvector_set():
    assert simple_target().regime == "simple" and multiple_target().regime == "multiple"
    pair, trip = refpairs.simple_pair_desk()
    with pytest.raises(ValueError, match="is simple, not multiple"):
        Target.at(pair, trip, "multiple")
    pair, trip = refpairs.multiple_pair_desk()
    with pytest.raises(ValueError, match="is multiple, not simple"):
        Target.at(pair, trip, "simple")
