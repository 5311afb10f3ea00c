"""Penalized-likelihood solver and shrinkage estimators."""

import sys

import numpy as np
import pytest

from spodnet import baselines, core, datagen, linalg
from spodnet.baselines import (GlassoConfig, block_gista_step,
                               default_lambda_grid, empirical_covariance,
                               glasso_cv, glasso_objective, glasso_solve,
                               ledoit_wolf, ledoit_wolf_shrinkage, oas,
                               oas_shrinkage)

from oracles import glasso_kkt_residual, is_spd


def _traced_solve(monkeypatch, s, cfg):
    """glasso_solve's estimate and the objective values it computed."""
    trace, objective = [], baselines.glasso_objective
    monkeypatch.setattr(baselines, "glasso_objective",
                        lambda *a: trace.append(objective(*a)) or trace[-1])
    return glasso_solve(s, cfg), trace


def _entry(p, n, alpha, seed):
    rng = datagen.make_rng(seed)
    theta = datagen.make_sparse_spd(p, alpha, 0.1, rng)
    s, x = datagen.sample_covariance(theta, n, rng)
    return theta, s, x


class TestObjective:
    def test_identity(self):
        for p in (2, 5):
            assert glasso_objective(np.eye(p), np.eye(p), 3.0) == pytest.approx(p)

    def test_diagonal_hand_value(self):
        val = glasso_objective(np.diag([2.0, 2.0]), np.eye(2), 1.0)
        assert val == pytest.approx(-2.0 * np.log(2.0) + 4.0)

    def test_offdiag_hand_value(self):
        theta = np.array([[1.0, 0.5], [0.5, 1.0]])
        val = glasso_objective(theta, np.eye(2), 2.0)
        assert val == pytest.approx(-np.log(0.75) + 2.0 + 2.0)

    def test_requires_pd(self):
        with pytest.raises(linalg.NotPositiveDefinite):
            glasso_objective(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 0.1)


class TestBlockStep:
    def test_fixed_point_at_zero_gradient(self):
        out = block_gista_step(np.zeros(3), np.ones(3), np.ones(3), 0.5, 0.0)
        assert np.array_equal(out, np.zeros(3))

    def test_thresholded_away(self):
        out = block_gista_step(np.array([1.0]), np.array([0.0]),
                               np.array([0.0]), 1.0, 2.0)
        assert np.array_equal(out, [0.0])

    def test_hand_evaluation(self):
        out = block_gista_step(np.array([1.0]), np.array([-1.0]),
                               np.array([0.0]), 0.5, 0.2)
        assert np.allclose(out, [1.4], atol=1e-15)


class TestGlassoSolve:
    def test_huge_penalty_gives_diagonal_mle(self):
        _, s, _ = _entry(6, 80, 0.8, seed=1)
        theta = glasso_solve(s, GlassoConfig(lam=1e6, max_sweeps=50))
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(theta[off], np.zeros(30))
        assert np.allclose(np.diag(theta), 1.0 / np.diag(s), rtol=1e-10)

    def test_zero_penalty_recovers_inverse(self):
        _, s, _ = _entry(5, 200, 0.8, seed=2)
        theta = glasso_solve(s, GlassoConfig(lam=0.0, max_sweeps=400,
                                             tol=1e-13, inner_steps=8))
        oracle = np.linalg.inv(s)
        rel = np.linalg.norm(theta - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-4

    def test_kkt_residual_small(self):
        _, s, _ = _entry(5, 100, 0.8, seed=3)
        theta = glasso_solve(s, GlassoConfig(lam=0.1, max_sweeps=800,
                                             tol=1e-14, inner_steps=8))
        assert glasso_kkt_residual(theta, s, 0.1) <= 1e-6

    def test_objective_monotone_and_iterates_pd(self, monkeypatch):
        # the trace is computed through a Cholesky-backed objective, so a
        # non-PD sweep iterate would have raised instead of appending
        _, s, _ = _entry(8, 60, 0.85, seed=4)
        theta, trace = _traced_solve(monkeypatch, s,
                                     GlassoConfig(lam=0.05, max_sweeps=60))
        assert len(trace) >= 2
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-10)
        assert is_spd(theta)

    def test_one_factorization_per_sweep(self, monkeypatch):
        # initial_state's, the first objective's, then one per sweep that
        # the dense refresh and the sweep's objective share
        _, s, _ = _entry(8, 24, 0.8, seed=19)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a.shape) or cholesky(a))
        _, trace = _traced_solve(monkeypatch, s, GlassoConfig(lam=0.05))
        sweeps = len(trace) - 1
        assert sweeps >= 2
        assert calls == [(8, 8)] * (2 + sweeps)

    def test_one_symmetry_check_per_sweep(self, monkeypatch):
        # a sweep's Cholesky checks Theta; the objective that takes its
        # factor checks neither Theta nor S again
        _, s, _ = _entry(8, 24, 0.8, seed=19)
        calls = []
        as_sym_array = linalg.as_sym_array
        monkeypatch.setattr(linalg, "as_sym_array",
                            lambda a: calls.append(1) or as_sym_array(a))
        counts = []
        for cfg in (GlassoConfig(lam=0.05, max_sweeps=1), GlassoConfig(lam=0.05)):
            calls.clear()
            _, trace = _traced_solve(monkeypatch, s, cfg)
            counts.append((len(calls), len(trace) - 1))
        (once, one), (total, sweeps) = counts
        assert one == 1 and sweeps >= 2
        assert total - once == sweeps - 1

    def test_no_move_test_only_when_the_objective_did_not_rise(self, monkeypatch):
        # a candidate equal to x scores exactly x's objective, so a step
        # whose objective rose halves gamma without the exact no-move test;
        # run past stagnation, as the reference comparison does, so that
        # some steps take that test
        _, s, _ = _entry(8, 24, 0.8, seed=19)
        off = ~np.eye(8, dtype=bool)
        rose, tested_rising = [], []
        objective = baselines._block_objective

        def traced_objective(*a):
            h = objective(*a)
            h_cur = sys._getframe(1).f_locals.get("h_cur")  # _update_block's
            rose.append(h_cur is not None and h > h_cur)
            return h

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def count_nonzero(a):
                caller = sys._getframe(1).f_locals
                tested_rising.append(caller["h_new"] > caller["h_cur"])
                return np.count_nonzero(a)

        monkeypatch.setattr(baselines, "_block_objective", traced_objective)
        monkeypatch.setattr(baselines, "np", Numpy())
        glasso_solve(s, GlassoConfig(lam=0.3 * np.abs(s[off]).max(), max_sweeps=400,
                                     tol=1e-14, inner_steps=8))
        assert any(rose) and tested_rising
        assert not any(tested_rising)

    def test_estimates_are_sparse_with_moderate_penalty(self):
        _, s, _ = _entry(10, 50, 0.9, seed=5)
        theta = glasso_solve(s, GlassoConfig(lam=0.3, max_sweeps=100))
        off = ~np.eye(10, dtype=bool)
        assert (theta[off] == 0.0).mean() > 0.3

    def test_rejects_nonpositive_diagonal(self):
        s = np.eye(4)
        s[2, 2] = 0.0
        with pytest.raises(ValueError):
            glasso_solve(s, GlassoConfig(lam=0.1))

    def test_nan_diagonal_fails_before_any_block_update(self, monkeypatch):
        # a NaN S_ii passes the diagonal check; the margin 1/S_ii it implies
        # never reaches a block update, because the initial Cholesky fails
        s = np.eye(4)
        s[2, 2] = np.nan
        steps = []
        monkeypatch.setattr(baselines, "block_gista_step",
                            lambda *args: steps.append(args))
        with pytest.raises(linalg.NotPositiveDefinite):
            glasso_solve(s, GlassoConfig(lam=0.1))
        assert steps == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GlassoConfig(lam=-0.1)
        with pytest.raises(ValueError):
            GlassoConfig(tol=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam"):
                GlassoConfig(lam=bad)
            with pytest.raises(ValueError, match="tol"):
                GlassoConfig(tol=bad)


def _reference_block_objective(x, mx, s12, s22: float, lam: float) -> float:
    return (2.0 * float(s12 @ x) + s22 * float(x @ mx)
            + 2.0 * lam * float(np.abs(x).sum()))


def _reference_update_block(theta, w, sd, i, cfg):
    rest = linalg.rest_indices(sd.shape[0], i)
    m = core.theta11_inverse_np(w, i)
    s12 = sd[rest, i]
    s22 = float(sd[i, i])
    v_target = 1.0 / s22

    x = theta[rest, i].copy()
    mx = m @ x
    h_cur = _reference_block_objective(x, mx, s12, s22, cfg.lam)
    for _ in range(cfg.inner_steps):
        w12 = -s22 * mx
        gamma = 1.0
        moved = False
        for _ in range(baselines._MAX_BACKTRACKS):
            cand = baselines.block_gista_step(x, s12, w12, gamma, cfg.lam)
            if np.array_equal(cand, x):
                break
            mc = m @ cand
            h_new = _reference_block_objective(cand, mc, s12, s22, cfg.lam)
            if h_new <= h_cur:
                x, mx, h_cur = cand, mc, h_new
                moved = True
                break
            gamma *= 0.5
        if not moved:
            break

    # the product again, by np.matvec, where the solver reuses its mx
    mu = np.matvec(m, x)
    return (core.theta_plus_np(theta, i, x, v_target, mu),
            core.w_plus_np(m, mu, v_target, i))


def _reference_solve(s, cfg, objective_trace):
    """The straightforward per-block loop ``glasso_solve`` must reproduce
    bit for bit: fancy-index gathers, ``@`` products, ``np.array_equal``."""
    sd = linalg.as_sym_matrix(s)
    start = core.initial_state(sd)
    theta, w = start.theta.data, start.w.data
    obj = glasso_objective(theta, sd, cfg.lam)
    objective_trace.append(obj)
    for _ in range(cfg.max_sweeps):
        prev = obj
        for i in range(sd.shape[0]):
            theta, w = _reference_update_block(theta, w, sd, i, cfg)
        w = linalg.spd_inverse(theta)
        obj = glasso_objective(theta, sd, cfg.lam)
        objective_trace.append(obj)
        if prev - obj < cfg.tol:
            break
    return theta


def _solve_both(monkeypatch, s, cfg):
    """Solve by the reference loop and by ``glasso_solve``, require the same
    bits and the same steps, and return the estimate, the objective trace
    and the number of no-move steps: steps whose output equals their x."""
    no_moves = []
    step = baselines.block_gista_step

    def traced_step(*a):
        out = step(*a)
        no_moves.append(np.array_equal(out, a[0]))
        return out
    monkeypatch.setattr(baselines, "block_gista_step", traced_step)
    ref_trace = []
    ref = _reference_solve(s, cfg, ref_trace)
    ref_no_moves = no_moves.copy()
    no_moves.clear()
    got, trace = _traced_solve(monkeypatch, s, cfg)
    assert got.tobytes() == ref.tobytes()
    assert np.array(trace).tobytes() == np.array(ref_trace).tobytes()
    # the no-move test decides when a block stops taking steps
    assert no_moves == ref_no_moves
    return got, trace, sum(no_moves)


class TestSolverMatchesReferenceLoop:
    # at p=40 the solver's ndarray.dot products, which the reference
    # takes by np.matvec, have 39 terms: several of BLAS's unrolled blocks
    @pytest.mark.parametrize("p", [2, 8, 20, 40])
    @pytest.mark.parametrize("lam_of_top", [0.0, 0.3, 1.5],
                             ids=["zero", "mid", "above-max"])
    def test_bit_identical_estimate_trace_and_steps(self, monkeypatch, p,
                                                    lam_of_top):
        # lam above the largest |S_ij| (i != j) thresholds every column to
        # zero, after which each block exits on its first step
        _, s, _ = _entry(p, 3 * p, 0.8, seed=11 + p)
        off = ~np.eye(p, dtype=bool)
        cfg = GlassoConfig(lam=lam_of_top * np.abs(s[off]).max(),
                           max_sweeps=200, tol=1e-8)
        got, trace, _ = _solve_both(monkeypatch, s, cfg)
        assert len(trace) >= 2
        if lam_of_top > 1.0:
            assert not got[off].any()

    @pytest.mark.parametrize("p", [8, 20])
    def test_bit_identical_through_stagnation(self, monkeypatch, p):
        # run on past the point where steps stop moving, so the solver's
        # no-move exits, which it tests only after the objective did not
        # fall, are compared against the reference's test-first order
        _, s, _ = _entry(p, 3 * p, 0.8, seed=11 + p)
        off = ~np.eye(p, dtype=bool)
        cfg = GlassoConfig(lam=0.3 * np.abs(s[off]).max(), max_sweeps=400,
                           tol=1e-14, inner_steps=8)
        _, _, no_moves = _solve_both(monkeypatch, s, cfg)
        assert no_moves >= 1


class TestGlassoCv:
    def test_single_grid_value_is_forced(self):
        _, _, x = _entry(6, 60, 0.8, seed=6)
        lam, theta = glasso_cv(x, lambda_grid=[0.123], folds=3,
                               cfg=GlassoConfig(max_sweeps=30, tol=1e-6))
        assert lam == 0.123
        assert is_spd(theta)

    def test_duplicated_data_has_zero_fold_variance(self):
        _, _, x = _entry(4, 10, 0.7, seed=7)
        xx = np.vstack([x, x, x])
        cfg = GlassoConfig(max_sweeps=30, tol=1e-8)
        grid = [0.05, 0.2]
        n = xx.shape[0]
        bounds = np.linspace(0, n, 4).astype(int)
        per_fold = []
        for k in range(3):
            mask = np.ones(n, dtype=bool)
            mask[bounds[k]:bounds[k + 1]] = False
            s_fit = empirical_covariance(xx[mask])
            s_hold = empirical_covariance(xx[~mask])
            row = [baselines._holdout_nll(
                glasso_solve(s_fit, GlassoConfig(lam=l, max_sweeps=30,
                                                 tol=1e-8)), s_hold)
                for l in grid]
            per_fold.append(row)
        per_fold = np.asarray(per_fold)
        assert np.abs(per_fold - per_fold[0]).max() <= 1e-9

    def test_selected_lambda_beats_grid_extremes_on_f1(self):
        from spodnet.training import score_stack
        theta_true, _, x = _entry(10, 500, 0.9, seed=8)
        cfg = GlassoConfig(max_sweeps=40, tol=1e-8)
        grid = default_lambda_grid(x, size=6)
        lam, theta = glasso_cv(x, grid, folds=3, cfg=cfg)
        ends = [glasso_solve(empirical_covariance(x),
                             GlassoConfig(lam=l, max_sweeps=40, tol=1e-8))
                for l in (grid[0], grid[-1])]
        f1_sel, f1_lo, f1_hi = score_stack([theta, *ends], [theta_true] * 3)["f1"]
        assert f1_sel >= max(f1_lo, f1_hi) - 1e-12

    def test_degenerate_fold_rejected(self):
        _, _, x = _entry(4, 7, 0.7, seed=9)
        with pytest.raises(ValueError):
            glasso_cv(x, lambda_grid=[0.1], folds=4, cfg=GlassoConfig())

    def test_empty_grid_rejected(self):
        _, _, x = _entry(4, 20, 0.7, seed=10)
        with pytest.raises(ValueError):
            glasso_cv(x, lambda_grid=[], folds=2, cfg=GlassoConfig())

    def test_nan_grid_value_rejected(self):
        # unchecked, a NaN penalty runs each solve to its sweep budget, and
        # a NaN score, which no ``<=`` comparison beats, would win the pick
        _, _, x = _entry(4, 20, 0.7, seed=10)
        with pytest.raises(ValueError, match="NaN"):
            glasso_cv(x, lambda_grid=[float("nan"), 0.1, 0.5], folds=2,
                      cfg=GlassoConfig())


class TestLedoitWolf:
    def test_target_equals_sample_covariance(self):
        # rows scaled so S is exactly mu * I
        x = 2.0 * np.eye(6)
        cov, rho = ledoit_wolf_shrinkage(x)
        assert np.allclose(cov, empirical_covariance(x), atol=1e-15)
        precision = ledoit_wolf(x)
        assert np.allclose(precision, np.linalg.inv(empirical_covariance(x)))
        assert rho == 0.0

    def test_single_sample_full_shrinkage(self):
        x = np.array([[1.0, 2.0, 3.0]])
        cov, rho = ledoit_wolf_shrinkage(x)
        assert rho == 1.0
        mu = np.trace(empirical_covariance(x)) / 3
        assert np.allclose(cov, mu * np.eye(3))
        assert np.allclose(ledoit_wolf(x), np.eye(3) / mu)

    def test_monte_carlo_consistency(self):
        rng = datagen.make_rng(11)
        theta = datagen.make_sparse_spd(10, 0.8, 0.1, rng)
        sigma = linalg.spd_inverse(theta)
        _, x = datagen.sample_covariance(theta, 10_000, rng)
        cov, _ = ledoit_wolf_shrinkage(x)
        assert np.linalg.norm(cov - sigma) / np.linalg.norm(sigma) <= 0.05

    def test_precision_is_spd(self):
        for seed in range(5):
            _, _, x = _entry(8, 6, 0.8, seed=seed)  # n < p
            assert is_spd(ledoit_wolf(x))

    def test_rho_in_unit_interval(self):
        for seed in range(10):
            _, _, x = _entry(7, 30, 0.8, seed=seed)
            _, rho = ledoit_wolf_shrinkage(x)
            assert 0.0 <= rho <= 1.0


class TestOas:
    def test_identity_covariance_degenerate_guard(self):
        x = 3.0 * np.eye(5)
        cov, rho = oas_shrinkage(x)
        assert rho == 1.0
        mu = np.trace(empirical_covariance(x)) / 5
        assert np.allclose(cov, mu * np.eye(5))

    def test_rho_clipped_to_unit_interval(self):
        for seed in range(10):
            _, _, x = _entry(6, 25, 0.8, seed=seed)
            _, rho = oas_shrinkage(x)
            assert 0.0 <= rho <= 1.0

    def test_large_sample_limit(self):
        rng = datagen.make_rng(12)
        theta = datagen.make_sparse_spd(6, 0.8, 0.1, rng)
        _, x = datagen.sample_covariance(theta, 100_000, rng)
        cov, rho = oas_shrinkage(x)
        s = empirical_covariance(x)
        assert rho <= 1e-2
        assert np.linalg.norm(cov - s) / np.linalg.norm(s) <= 1e-2

    def test_precision_is_spd(self):
        for seed in range(5):
            _, _, x = _entry(9, 5, 0.8, seed=seed)  # n < p
            assert is_spd(oas(x))


def test_default_lambda_grid_spans_two_decades():
    _, _, x = _entry(6, 50, 0.8, seed=13)
    grid = default_lambda_grid(x, size=10)
    assert len(grid) == 10
    assert grid[-1] / grid[0] == pytest.approx(100.0)
    s = empirical_covariance(x)
    off = s.copy()
    np.fill_diagonal(off, 0.0)
    assert grid[-1] == pytest.approx(np.abs(off).max())


@pytest.mark.parametrize("size", [0, -1])
def test_default_lambda_grid_needs_a_value(size):
    _, _, x = _entry(6, 50, 0.8, seed=13)
    with pytest.raises(ValueError, match="grid size"):
        default_lambda_grid(x, size)
