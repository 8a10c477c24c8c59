import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmselect import solvers
from pcmselect.errors import MaxIterationsExceeded, PcmSelectError, SingularDesign
from pcmselect.solvers import (
    coordinate_descent,
    kkt_residual,
    l1_path,
    ols_batch,
    ols_solve,
    ridge_grid,
    ridge_solve,
)

from oracles import SweepCapHit, descent_with_polish, l1_objective


def make_problem(seed, n=60, p=6, weight_scale=0.1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    a -= a.mean(axis=0)
    a /= a.std(axis=0)
    y = a @ rng.uniform(-1, 1, p) + rng.standard_normal(n)
    y -= y.mean()
    l1 = weight_scale * rng.uniform(0.0, 1.0, p)
    return a, y, l1


# (n, p) of the problems: n > p, and the p >= n regime of setting A's stage 1
SHAPES = st.sampled_from([(60, 6), (15, 18)])


def test_matches_the_descent_reference():
    # p >= n with near-zero penalties: rank-deficient designs where the
    # reference needs its polish; the path must reach the same solution
    rng = np.random.default_rng(4)
    converged = 0
    for _ in range(200):
        n, p = 15, int(rng.integers(16, 20))
        a = rng.standard_normal((n, p))
        a = (a - a.mean(axis=0)) / a.std(axis=0)
        y = a[:, :3] @ rng.standard_normal(3) + 0.5 * rng.standard_normal(n)
        l1 = rng.uniform(0.0, 0.01, p) * (rng.random(p) < 0.8)
        gram, cross = a.T @ a, a.T @ y
        beta = coordinate_descent(gram, cross, n, l1)
        assert kkt_residual(gram, cross, n, l1, beta) <= 1e-9
        try:
            reference = descent_with_polish(gram, cross, n, l1, max_sweeps=20_000)
        except SweepCapHit:
            continue
        converged += 1
        np.testing.assert_array_equal(beta != 0.0, reference != 0.0)
        np.testing.assert_allclose(beta, reference, rtol=0.0, atol=1e-9)
    assert converged >= 190


class TestCoordinateDescent:
    def test_zero_penalty_equals_least_squares(self):
        a, y, _ = make_problem(0)
        beta = coordinate_descent(a.T @ a, a.T @ y, a.shape[0], np.zeros(6))
        np.testing.assert_allclose(beta, np.linalg.solve(a.T @ a, a.T @ y), atol=1e-10)

    def test_huge_penalty_zeroes_everything(self):
        a, y, _ = make_problem(1)
        beta = coordinate_descent(a.T @ a, a.T @ y, a.shape[0], np.full(6, 1e6))
        np.testing.assert_array_equal(beta, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), SHAPES)
    def test_kkt_conditions_hold(self, seed, shape):
        a, y, l1 = make_problem(seed, *shape)
        beta = coordinate_descent(a.T @ a, a.T @ y, a.shape[0], l1)
        assert kkt_residual(a.T @ a, a.T @ y, a.shape[0], l1, beta) < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), SHAPES)
    def test_beats_random_perturbations(self, seed, shape):
        rng = np.random.default_rng(seed + 1)
        a, y, l1 = make_problem(seed, *shape)
        beta = coordinate_descent(a.T @ a, a.T @ y, a.shape[0], l1)
        base = l1_objective(a, y, l1, beta)
        for scale in (1e-4, 1e-2, 0.3):
            noise = rng.standard_normal((200, shape[1])) * scale
            values = [l1_objective(a, y, l1, beta + d) for d in noise]
            assert base <= min(values) + 1e-12

    def test_underdetermined_design_converges(self):
        rng = np.random.default_rng(3)
        n, p = 12, 20
        a = rng.standard_normal((n, p))
        a -= a.mean(axis=0)
        a /= a.std(axis=0)
        y = rng.standard_normal(n)
        l1 = np.full(p, 0.01)
        beta = coordinate_descent(a.T @ a, a.T @ y, n, l1)
        assert kkt_residual(a.T @ a, a.T @ y, n, l1, beta) < 1e-6

    def test_elastic_net_component(self):
        a, y, _ = make_problem(5)
        n = a.shape[0]
        l1 = np.full(6, 0.05)
        l2 = np.full(6, 0.4)
        beta = coordinate_descent(a.T @ a, a.T @ y, n, l1, l2)
        # stationarity with the quadratic term included
        assert kkt_residual(a.T @ a, a.T @ y, n, l1, beta, l2) < 1e-6

    def test_mixed_unpenalized_coordinates(self):
        a, y, l1 = make_problem(6)
        l1[0] = 0.0
        beta = coordinate_descent(a.T @ a, a.T @ y, a.shape[0], l1)
        grad = (a.T @ a @ beta - a.T @ y) / a.shape[0]
        assert abs(grad[0]) < 1e-8  # unpenalized coordinate is exactly stationary

    def test_singular_unpenalized_block_raises(self):
        a, y, l1 = make_problem(9)
        a[:, 1] = a[:, 0]  # two identical unpenalized columns
        l1[:2] = 0.0
        with pytest.raises(SingularDesign):
            coordinate_descent(a.T @ a, a.T @ y, a.shape[0], l1)


def solve_alone(gram, cross, n, l1):
    """``coordinate_descent``'s solution, or the exception it raises."""
    try:
        return coordinate_descent(gram, cross, n, l1)
    except PcmSelectError as exc:
        return exc


def one_lane(gram, cross, n, cands):
    """The fits of one lane: ``l1_path`` on a stack of one problem with one lane."""
    (((lane),),) = l1_path(np.asarray(gram)[None], [n], [1], np.asarray(cross)[None],
                           np.asarray(cands)[None])
    return lane


def assert_same_fit(fit, alone):
    """Bit-identical solutions, or failures of the same class."""
    if isinstance(alone, PcmSelectError):
        assert type(fit) is type(alone)
    else:
        assert isinstance(fit, np.ndarray) and fit.tobytes() == alone.tobytes()


class TestL1Path:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), SHAPES,
           st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.0, 5.0, 20.0]), min_size=1,
                    max_size=7))
    def test_equals_the_solver_at_each_candidate(self, seed, shape, scales):
        a, y, l1 = make_problem(seed, *shape)
        gram, cross, n = a.T @ a, a.T @ y, shape[0]
        cands = [s * l1 for s in sorted(scales, reverse=True)]
        for w, fit in zip(cands, one_lane(gram, cross, n, cands)):
            assert_same_fit(fit, solve_alone(gram, cross, n, w))
            if isinstance(fit, np.ndarray):
                assert kkt_residual(gram, cross, n, w, fit) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), SHAPES, st.integers(1, 5).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.0, 5.0, 20.0]), min_size=k, max_size=k),
        min_size=1, max_size=4)))
    def test_each_lane_equals_that_lane_alone(self, seed, shape, lane_scales):
        # lanes share the gram; each has its own cross vector and its own
        # candidates (zero, repeated and single candidates included)
        rng = np.random.default_rng(seed + 2)
        a, y, _ = make_problem(seed, *shape)
        gram, (n, p) = a.T @ a, shape
        crosses = [a.T @ (y + rng.standard_normal(n)) for _ in lane_scales]
        lists = []
        for scales in lane_scales:
            l1 = 0.1 * rng.uniform(0.0, 1.0, p) * (rng.random(p) < 0.8)
            lists.append([s * l1 for s in sorted(scales, reverse=True)])
        (fits,) = l1_path(gram[None], [n], [len(lists)], np.array(crosses), np.array(lists))
        assert [len(lane) for lane in fits] == [len(cands) for cands in lists]
        for cross, cands, lane in zip(crosses, lists, fits):
            for fit, alone in zip(lane, one_lane(gram, cross, n, cands)):
                assert_same_fit(fit, alone)

    def test_a_singular_lane_fails_alone(self):
        # columns 0 and 1 are equal: the middle lane leaves both unpenalized,
        # so its first active block is singular; the others keep column 1 out
        a, y, l1 = make_problem(13)
        a[:, 1] = a[:, 0]
        gram, n = a.T @ a, a.shape[0]
        singular, kept = l1.copy(), l1.copy()
        singular[:2] = 0.0
        kept[0], kept[1] = 0.0, 1e3
        crosses = np.array([a.T @ y, a.T @ y, a.T @ (y + a[:, 2])])
        lists = [[3 * kept, kept], [3 * singular, singular], [2 * kept, kept]]
        (fits,) = l1_path(gram[None], [n], [3], crosses, np.array(lists))
        # the batched solve raised; the lane's own solve named it singular
        assert all(isinstance(fit, SingularDesign) and "singular" in str(fit)
                   for fit in fits[1])
        for lane in (0, 2):
            for w, fit, alone in zip(lists[lane], fits[lane],
                                     one_lane(gram, crosses[lane], n, lists[lane])):
                assert isinstance(fit, np.ndarray)
                assert_same_fit(fit, alone)
                assert kkt_residual(gram, crosses[lane], n, w, fit) <= 1e-9

    def test_lanes_on_their_own_grams_equal_each_lane_alone(self, monkeypatch):
        # three problems with their own grams and row counts, two lanes each:
        # n > p; n < p with equal columns 0 and 1, left unpenalized by the first
        # lane, so that lane's first active block is singular; and a diagonal
        # gram whose lanes hit the event cap.  The last ones are a stand-in:
        # their systems are recognized by the MARK on the diagonal and solved
        # with the opposite signs, so every active coefficient reads as moving
        # toward zero and leaves at t = 2, where |lin_j| / w_j = 2 makes every
        # inactive one join again, and the path toggles one coordinate at t = 2
        # until the cap, above all of its candidates' scales
        mark, p = 0.8125, 6
        solve = np.linalg.solve

        def solve_flipped(blocks, rhs):
            out = solve(blocks, rhs)
            flip = (np.diagonal(blocks, axis1=-2, axis2=-1) == mark).any(axis=-1)
            return np.where(flip[..., None, None], -out, out)

        rng = np.random.default_rng(15)
        grams, crosses, ns, lists = [], [], [], []
        for n in (60, 5):
            a, y, l1 = make_problem(int(rng.integers(100)), n=n, p=p)
            if n < p:
                a[:, 1] = a[:, 0]
            grams.append(a.T @ a)
            crosses.append([a.T @ y, a.T @ (y + rng.standard_normal(n))])
            singular, kept = l1.copy(), l1.copy()
            singular[:2], kept[0], kept[1] = 0.0, 0.0, 1e3
            lists.append([[s * w for s in (5.0, 1.0, 0.3, 0.0)] for w in (singular, kept)])
        w = np.array([0.25, 0.5, 0.125, 0.375, 0.0625, 0.75])
        grams.append(np.diag(np.full(p, mark * 37)))
        crosses.append([2 * w * 37 * np.array([1, -1, 1, 1, -1, -1]), -2 * w * 37])
        lists.append([[s * w for s in (1.75, 1.5, 1.25, 1.0)]] * 2)
        grams, crosses, ns = np.array(grams), np.array(crosses), [60, 5, 37]
        monkeypatch.setattr(np.linalg, "solve", solve_flipped)
        fits = l1_path(grams, ns, [2, 2, 2], crosses.reshape(-1, p),
                       np.array(lists).reshape(6, 4, p))
        assert [len(problem) for problem in fits] == [2, 2, 2]
        for f, problem in enumerate(fits):
            for b, lane in enumerate(problem):
                for fit, alone in zip(lane, one_lane(grams[f], crosses[f, b], ns[f], lists[f][b])):
                    assert_same_fit(fit, alone)
        assert all(isinstance(fit, np.ndarray) for lane in fits[0] for fit in lane)
        assert all(isinstance(fit, SingularDesign) and "singular" in str(fit)
                   for fit in fits[1][0])
        assert all(isinstance(fit, MaxIterationsExceeded) for lane in fits[2] for fit in lane)
        # a one-problem stack, whose gram is broadcast over its lanes, gives the
        # fits of that problem in the stack of three
        for lane, stacked in zip(l1_path(grams[:1], ns[:1], [2], crosses[0],
                                         np.array(lists[0]))[0], fits[0]):
            for fit, same in zip(lane, stacked):
                assert_same_fit(fit, same)

    @pytest.mark.parametrize("p", [1, 7])
    @pytest.mark.parametrize("ridge", [False, True], ids=["lasso", "ridge"])
    def test_a_wide_call_with_zero_candidates_equals_each_lane_alone(self, p, ridge):
        # 24 problems of 3-6 lanes with their own grams and row counts.  Lanes have
        # only zero candidates, trailing or repeated zero ones (-0.0 included), or
        # none; a zero column leaves one coordinate of one problem unusable.  With
        # p = 7, problem 11 repeats a column, and neither the L1 nor the quadratic
        # weights penalize either copy, so its usable block is singular and each of
        # its zero candidates fails
        rng = np.random.default_rng(31 + p)
        kinds = [[0.0] * 4, [3.0, 1.0, 0.0, 0.0], [2.0, 1.0, 1.0, 0.0],
                 [5.0, 2.0, 1.0, 0.5], [1.0, 0.3, 0.0, -0.0], [0.0, 0.0, -0.0, 0.0]]
        l2 = np.where(np.arange(p) < 2, 0.0, 0.3) if ridge else None
        grams, ns, sizes, crosses, lists = [], [], [], [], []
        for f in range(24):
            n = int(rng.integers(12, 40))
            a, y, _ = make_problem(int(rng.integers(10_000)), n=n, p=p)
            if f == 5:
                a[:, -1] = 0.0
            if f == 11 and p > 1:
                a[:, 1] = a[:, 0]
            grams.append(a.T @ a)
            ns.append(n)
            sizes.append(int(rng.integers(3, 7)))
            for b in range(sizes[-1]):
                crosses.append(a.T @ (y + rng.standard_normal(n)))
                l1 = 0.1 * rng.uniform(0.0, 1.0, p) * (rng.random(p) < 0.8)
                if f == 11:
                    l1[:2] = 0.0
                lists.append([s * l1 for s in kinds[(f + b) % len(kinds)]])
        grams, crosses, lists = np.array(grams), np.array(crosses), np.array(lists)
        fits = l1_path(grams, ns, sizes, crosses, lists, l2)
        assert [len(problem) for problem in fits] == sizes
        lane, zeros = 0, []  # each zero candidate's problem, and whether it failed
        for f, problem in enumerate(fits):
            for fitted in problem:
                (((*alone,),),) = l1_path(grams[f][None], [ns[f]], [1], crosses[lane][None],
                                          lists[lane][None], l2)
                for fit, same, w in zip(fitted, alone, lists[lane]):
                    if isinstance(same, PcmSelectError):
                        assert (type(fit), str(fit)) == (type(same), str(same))
                    else:
                        assert fit.tobytes() == same.tobytes()
                    if not w.any():
                        zeros.append((f, isinstance(fit, SingularDesign)
                                      and "active block of the L1 path is singular" in str(fit)))
                lane += 1
        assert len(zeros) > 100
        assert all(failed == (f == 11 and p > 1) for f, failed in zeros)

    def test_no_lanes(self):
        a, y, l1 = make_problem(14)
        gram, cross = a.T @ a, a.T @ y
        assert l1_path(np.zeros((0, 6, 6)), [], [], np.zeros((0, 6)), np.zeros((0, 2, 6))) == []
        # a problem without lanes takes no part beside one with a lane
        fits = l1_path(np.array([gram, gram]), [60, 60], [0, 1], cross[None],
                       np.array([[2 * l1, l1]]))
        assert fits[0] == [] and len(fits[1]) == 1
        for fit, alone in zip(fits[1][0], one_lane(gram, cross, 60, [2 * l1, l1])):
            assert_same_fit(fit, alone)

    def test_nothing_to_follow_gives_zero_fits(self):
        # problems whose lanes are all empty, and problems without coordinates
        a, y, l1 = make_problem(19)
        gram = a.T @ a
        assert l1_path(np.array([gram, gram]), [60, 60], [0, 0], np.zeros((0, 6)),
                       np.zeros((0, 2, 6))) == [[], []]
        (lanes,) = l1_path(np.zeros((1, 0, 0)), [5], [2], np.zeros((2, 0)), np.zeros((2, 3, 0)))
        assert [[fit.shape for fit in lane] for lane in lanes] == [[(0,)] * 3] * 2

    def test_rejects_negative_penalty_weights(self):
        a, y, l1 = make_problem(18)
        gram, cross = a.T @ a, a.T @ y
        negative = l1.copy()
        negative[2] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            one_lane(gram, cross, 60, [negative])
        with pytest.raises(ValueError, match="nonnegative"):
            l1_path(gram[None], [60], [1], cross[None], np.array([[l1]]), np.full(6, -0.1))
        # NaN is not nonnegative either, as an L1 or a quadratic weight
        nan = l1.copy()
        nan[3] = np.nan
        with pytest.raises(ValueError, match="nonnegative"):
            one_lane(gram, cross, 60, [nan])
        with pytest.raises(ValueError, match="nonnegative"):
            l1_path(gram[None], [60], [1], cross[None], np.array([[l1]]), nan)

    def test_rejects_ascending_candidates(self):
        a, y, l1 = make_problem(10)
        with pytest.raises(ValueError):
            one_lane(a.T @ a, a.T @ y, 60, [l1, 2 * l1])
        with pytest.raises(ValueError):
            one_lane(a.T @ a, a.T @ y, 60, [0 * l1, l1])

    def test_rejects_mismatched_shapes(self):
        a, y, l1 = make_problem(16)
        grams, crosses = np.array([a.T @ a] * 2), np.array([a.T @ y] * 2)
        for ns, lanes, cross, weights in [
                ([60, 60], [1, 1], crosses, np.array([[l1]] * 3)),
                ([60, 60], [1, 1], crosses, np.array([[l1[:5]]] * 2)),
                ([60], [1, 1], crosses, np.array([[l1]] * 2)),
                ([60, 60], [1], crosses, np.array([[l1]] * 2)),
                ([60, 60], [2, 1], crosses, np.array([[l1]] * 2)),
                ([60, 60], [1, 1], crosses[:, :5], np.array([[l1]] * 2)),
                ([60, 60], [1, 1], crosses, np.array([l1] * 2)),
                ([60, 60], [3, -1], crosses, np.array([[l1]] * 2))]:
            with pytest.raises(ValueError, match="must match"):
                l1_path(grams, ns, lanes, cross, weights)
        # two grams with no problems' lanes
        with pytest.raises(ValueError, match="must match"):
            l1_path(grams, [], [], np.zeros((0, 6)), np.zeros((0, 1, 6)))

    def test_a_singular_block_fails_every_candidate_below_it(self, monkeypatch):
        # a stand-in for a singular active block: every system with 3 or more
        # active columns fails to factor; the path reaches 3 active between 10
        # and 3.  The path solves its active block as a p x p system with
        # identity rows on the inactive coordinates, so the active columns are
        # the rows that differ from the identity's; like numpy, a batch fails
        # when any of its systems does.
        a, y, l1 = make_problem(11)
        gram, cross = a.T @ a, a.T @ y
        cands = [s * l1 for s in (30.0, 10.0, 3.0, 1.0, 0.3)]
        solve = np.linalg.solve

        def solve_small(blocks, rhs):
            size = (blocks != np.eye(blocks.shape[-1])).any(axis=-1).sum(axis=-1)
            if (size >= 3).any():
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(blocks, rhs)

        monkeypatch.setattr(np.linalg, "solve", solve_small)
        fits = one_lane(gram, cross, 60, cands)
        assert [isinstance(f, SingularDesign) for f in fits] == [False, False, True, True, True]
        for w, fit in zip(cands, fits):
            assert_same_fit(fit, solve_alone(gram, cross, 60, w))

    def test_a_stationarity_failure_fails_its_candidate_alone(self, monkeypatch):
        a, y, l1 = make_problem(12)
        gram, cross = a.T @ a, a.T @ y
        cands = [s * l1 for s in (10.0, 3.0, 1.0, 0.3)]
        alone = [solve_alone(gram, cross, 60, w) for w in cands]
        kkt = solvers.kkt_residual

        def kkt_failing_third(gram, cross, n, l1_weights, beta, l2_weights=None):
            # the path checks every candidate in one stacked call
            worst = kkt(gram, cross, n, l1_weights, beta, l2_weights)
            return np.where((np.asarray(l1_weights) == cands[2]).all(axis=-1), np.inf, worst)

        monkeypatch.setattr(solvers, "kkt_residual", kkt_failing_third)
        fits = one_lane(gram, cross, 60, cands)
        assert isinstance(fits[2], SingularDesign)
        for k in (0, 1, 3):
            assert_same_fit(fits[k], alone[k])

    @pytest.mark.parametrize("counts, chosen", [((1, 2, 3), (2, 1, 1)), ((2, 2, 2), (2, 1, 1)),
                                                ((3,), (0, 1, 1))],
                             ids=["unequal", "equal", "one-problem"])
    def test_a_stationarity_failure_lands_on_its_lane(self, counts, chosen, monkeypatch):
        # problems with these lane counts on their own grams and row counts: the
        # stationarity pass checks every lane against its problem's gram in one
        # call (one problem's gram is broadcast over its lanes), and the failing
        # candidate (problem, lane, index) must come back at its own place
        rng = np.random.default_rng(17)
        grams, crosses, ns, lists = [], [], [], []
        for f, (n, lanes) in enumerate(zip((40, 15, 60), counts)):
            a, y, _ = make_problem(20 + f, n=n, p=6)
            grams.append(a.T @ a)
            crosses.append(np.array([a.T @ (y + rng.standard_normal(n)) for _ in range(lanes)]))
            ns.append(n)
            lists.append(np.multiply.outer(0.1 * rng.uniform(0.1, 1.0, (lanes, 6)),
                                           [5.0, 1.0, 0.3]).transpose(0, 2, 1))
        alone = [[one_lane(grams[f], crosses[f][b], ns[f], lists[f][b]) for b in range(len(c))]
                 for f, c in enumerate(crosses)]
        kkt = solvers.kkt_residual

        def kkt_failing_chosen(gram, cross, n, l1_weights, beta, l2_weights=None):
            worst = kkt(gram, cross, n, l1_weights, beta, l2_weights)
            target = lists[chosen[0]][chosen[1], chosen[2]]
            return np.where((np.asarray(l1_weights) == target).all(axis=-1), np.inf, worst)

        monkeypatch.setattr(solvers, "kkt_residual", kkt_failing_chosen)
        fits = l1_path(np.array(grams), ns, list(counts), np.concatenate(crosses),
                       np.concatenate(lists))
        assert [len(problem) for problem in fits] == list(counts)
        for f, problem in enumerate(fits):
            for b, lane in enumerate(problem):
                for c, fit in enumerate(lane):
                    if (f, b, c) == chosen:
                        assert isinstance(fit, SingularDesign) and "off the optimum" in str(fit)
                    else:
                        assert_same_fit(fit, alone[f][b][c])
                        assert isinstance(fit, np.ndarray)


class TestKktResidual:
    def test_stacked_rows_equal_the_one_vector_form(self):
        # the path's candidate fits, some moved off the optimum and some zeroed
        rng = np.random.default_rng(22)
        a, y, l1 = make_problem(22)
        gram, n = a.T @ a, a.shape[0]
        crosses = np.array([a.T @ (y + rng.standard_normal(n)) for _ in range(3)])
        lists = [[s * l1 for s in (5.0, 1.0, 0.2, 0.0)]] * 3
        (lanes,) = l1_path(gram[None], [n], [3], crosses, np.array(lists))
        betas = np.array([fit for lane in lanes for fit in lane])
        betas[::2] += 1e-3 * rng.standard_normal((6, 6))
        betas[1::4, :2] = 0.0
        rows = np.repeat(crosses, 4, axis=0)
        weights = np.array([w for ws in lists for w in ws])
        for l2 in (None, rng.uniform(0.0, 0.1, 6)):
            stacked = kkt_residual(gram, rows, n, weights, betas, l2)
            alone = np.concatenate([kkt_residual(gram, c[None], n, w[None], b[None], l2)
                                    for c, w, b in zip(rows, weights, betas)])
            assert stacked.shape == alone.shape == (12,)
            assert max(alone) > 1e-6
            np.testing.assert_allclose(stacked, alone, rtol=0.0, atol=1e-15)

    def test_a_gram_per_row_equals_the_one_vector_form(self):
        # fits of problems with their own grams and row counts, some moved off the optimum
        rng = np.random.default_rng(23)
        rows = []
        for n in (60, 41, 15):
            a, y, l1 = make_problem(int(rng.integers(100)), n=n)
            gram, cross = a.T @ a, a.T @ y
            for s in (3.0, 0.5, 0.0):
                beta = coordinate_descent(gram, cross, n, s * l1)
                rows.append((gram, cross, n, s * l1, beta + 1e-3 * rng.standard_normal(6) * (s > 1)))
        grams, crosses, ns, weights, betas = (np.array(x) for x in zip(*rows))
        for l2 in (None, rng.uniform(0.0, 0.1, 6)):
            stacked = kkt_residual(grams, crosses[:, None], ns[:, None, None], weights[:, None],
                                   betas[:, None], l2)
            alone = [kkt_residual(*row, l2) for row in rows]
            assert stacked.shape == (9, 1) and max(alone) > 1e-6
            np.testing.assert_allclose(stacked[:, 0], alone, rtol=0.0, atol=1e-15)

    def test_an_empty_design_has_no_violation(self):
        assert kkt_residual(np.zeros((0, 0)), np.zeros(0), 5, np.zeros(0), np.zeros(0)) == 0.0


class TestRidgeSolve:
    def test_matches_closed_form(self):
        a, y, _ = make_problem(7)
        n = a.shape[0]
        d = np.full(6, 0.3)
        beta = ridge_solve(a.T @ a, a.T @ y, n, d)
        np.testing.assert_allclose(
            beta, np.linalg.solve(a.T @ a + n * np.diag(d), a.T @ y), atol=1e-12
        )

    def test_singular_unpenalized_raises(self):
        a = np.ones((5, 2))  # identical columns, no penalty
        with pytest.raises(SingularDesign):
            ols_solve(a.T @ a, a.T @ np.ones(5))


class TestOlsSolve:
    def test_condition_guard(self):
        base = np.random.default_rng(8).standard_normal((10, 1))
        a = np.hstack([base, base * (1 + 1e-14)])
        with pytest.raises(SingularDesign):
            ols_solve(a.T @ a, a.T @ np.ones(10))


def mixed_conditioning_stack(columns: int):
    """Five (gram, cross) problems with ``columns`` right-hand sides (a vector for
    None): well conditioned, ill conditioned but accepted, rejected by the guard,
    exactly singular (LAPACK rejects it too) and all zero."""
    rng = np.random.default_rng(12)
    base = rng.standard_normal((10, 4))
    ill = base.copy()
    ill[:, 3] = ill[:, 2] + 1e-5 * rng.standard_normal(10)
    near = base.copy()
    near[:, 3] = near[:, 2] * (1 + 1e-14)
    designs = [base, ill, near, np.ones((10, 4)), np.zeros((10, 4))]
    y = rng.standard_normal((10, columns or 1))
    return (np.array([a.T @ a for a in designs]),
            np.array([a.T @ (y if columns else y[:, 0]) for a in designs]))


class TestOlsBatch:
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_each_problem_equals_the_one_problem_call(self, columns):
        grams, crosses = mixed_conditioning_stack(columns)
        fits = ols_batch(grams, crosses)
        assert len(fits) == len(grams)
        for gram, cross, fit in zip(grams, crosses, fits):
            sv = np.linalg.svd(gram, compute_uv=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                rejected = not sv[0] / sv[-1] <= solvers.COND_LIMIT
            try:
                alone = ols_solve(gram, cross)
            except SingularDesign as exc:
                alone = exc
            # the guard rejects exactly what the one-problem call rejects, and its
            # message names the same condition number
            assert isinstance(fit, SingularDesign) is rejected is isinstance(alone, SingularDesign)
            if rejected:
                assert str(fit) == str(alone) and "condition number" in str(fit)
            else:
                assert fit.tobytes() == alone.tobytes() == np.linalg.solve(gram, cross).tobytes()
        assert [isinstance(fit, SingularDesign) for fit in fits] == [False, False] + [True] * 3

    def test_a_singular_system_sends_the_batch_one_system_at_a_time(self, monkeypatch):
        # LAPACK rejects the exactly singular system, and its error does not say
        # which one failed: each is then solved alone, and the others keep the
        # one-problem results
        grams, crosses = mixed_conditioning_stack(2)
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        fits = ols_batch(grams[[0, 3, 1]], crosses[[0, 3, 1]])
        assert calls[0] == 3 and calls[1:4] == [1, 1, 1] and calls[4] == 2
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert isinstance(fits[1], SingularDesign)
        for fit, i in zip(fits[::2], [0, 1]):
            assert fit.tobytes() == ols_solve(grams[i], crosses[i]).tobytes()

    def test_an_empty_design(self):
        (fit,) = ols_batch(np.zeros((1, 0, 0)), np.zeros((1, 0, 2)))
        assert fit.shape == (0, 2)


class TestRidgeGrid:
    def test_a_singular_system_fails_alone(self):
        # the second problem's unpenalized columns are equal, so its zero scale is
        # rejected by the rank guard and its positive scale by LAPACK; the batched
        # solve falls back to one system at a time and the first problem keeps
        # its one-problem fits
        # integer entries keep the twin gram exactly singular
        rng = np.random.default_rng(9)
        a, y = rng.integers(-3, 4, (60, 3)).astype(float), rng.standard_normal(60)
        twin = a.copy()
        twin[:, 1] = twin[:, 0]
        grams = np.array([a.T @ a, twin.T @ twin])
        crosses = np.array([a.T @ y, twin.T @ y])
        pen = np.array([0.0, 0.0, 1.0])
        fits = ridge_grid(grams, crosses, [60, 60], pen, [0.5, 0.0])
        assert fits[0][0].tobytes() == ridge_solve(grams[0], crosses[0], 60,
                                                   0.5 * pen).tobytes()
        assert fits[0][1].tobytes() == ols_solve(grams[0], crosses[0]).tobytes()
        assert "penalized system is singular" in str(fits[1][0])
        assert "condition number" in str(fits[1][1])

    def test_an_overflowing_shift_is_the_limit_of_its_penalty(self):
        # n * scale overflows for the second problem at the first scale only: its
        # penalized coefficients are zero and the others the least-squares fit on their
        # own columns, without a warning; every finite shift keeps its one-problem fit
        rng = np.random.default_rng(3)
        a, y = rng.standard_normal((40, 4)), rng.standard_normal((40, 2))
        grams, crosses = np.array([a.T @ a] * 2), np.array([a.T @ y] * 2)
        pen, free = np.array([0.0, 1.0, 0.0, 1.0]), [0, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = ridge_grid(grams, crosses, [1, 40], pen, [1e307, 1.0])
        limit = fits[1][0]
        assert limit.shape == (4, 2) and not limit[[1, 3]].any()
        np.testing.assert_allclose(limit[free], ols_solve(grams[0][np.ix_(free, free)],
                                                          crosses[0][free]), rtol=1e-12)
        for (i, j), (n, scale) in {(0, 0): (1, 1e307), (0, 1): (1, 1.0),
                                   (1, 1): (40, 1.0)}.items():
            assert fits[i][j].tobytes() == ridge_solve(grams[i], crosses[i], n,
                                                       scale * pen).tobytes()

    def test_a_non_finite_solution_fails_alone(self):
        # a tiny gram and a huge cross product overflow the first problem's solution
        grams, crosses = np.array([[[1e-10]], [[1.0]]]), np.array([[1e308], [1.0]])
        fits = ridge_grid(grams, crosses, [1, 1], np.ones(1), [1e-10])
        assert isinstance(fits[0][0], SingularDesign) and "non-finite" in str(fits[0][0])
        assert fits[1][0].tobytes() == ridge_solve(grams[1], crosses[1], 1,
                                                   np.full(1, 1e-10)).tobytes()
