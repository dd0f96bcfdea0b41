"""Tests for the trigger-chain analysis layer.

Covers the stacked error covariance oracle, per-age hold probabilities, the
renewal Markov chain, its stationary distribution, and the conditional
error covariance recursion.  Hand-computed scalar values come from the
all-ones model where every quantity collapses to golden-ratio algebra.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from etlqg import (
    ModelError,
    NumericalError,
    analysis_record,
    conditional_error_cov,
    control_steady_state,
    kf_steady_state,
    stationary_distribution,
    transition_matrix,
)
from etlqg.analysis import LAMBDA_MAX, _solve_grid, condition_step
from etlqg.model import psd_sqrt

from chain_oracle import (
    balance_solve,
    crosschecked_stationary,
    cumulative_cov,
    dense_transition_matrix,
    nontrigger_probability,
)
from conftest import (
    BENCH_P98_LAM1_T100,
    GOLDEN_P00,
    GOLDEN_P10,
    GOLDEN_RATE_T2,
    chains,
    random_valid_model,
)
from finite_horizon_oracle import chain_step, finite_horizon_cost
from sigma_table_oracle import sigma_table


class TestCumulativeCov:
    def test_order_zero_is_correction_covariance(self, bench_model, bench_filter):
        cov = cumulative_cov(bench_filter, bench_model.A, 0)
        assert cov.order == 0
        assert cov.dim == 2
        assert cov.matrix.shape == (2, 2)
        np.testing.assert_array_equal(cov.matrix, bench_filter.Pi_eta)

    def test_golden_order_one_matrix(self, golden_model, golden_filter):
        # Pi_eta = 1, A = 1: blocks are [[1, 1], [1, 2]].
        cov = cumulative_cov(golden_filter, golden_model.A, 1)
        expected = np.array([[1.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(cov.matrix, expected, atol=1e-9)

    def test_bench_blocks_match_direct_formula(self, bench_model, bench_filter):
        A = bench_model.A
        Pi = bench_filter.Pi_eta
        cov = cumulative_cov(bench_filter, A, 3)

        powers = [np.eye(2), A, A @ A, A @ A @ A]
        diag_3 = sum(p @ Pi @ p.T for p in powers)
        np.testing.assert_allclose(cov.block(0, 0), Pi, atol=1e-12)
        np.testing.assert_allclose(cov.block(3, 3), diag_3, atol=1e-10)

        diag_1 = Pi + A @ Pi @ A.T
        np.testing.assert_allclose(cov.block(1, 3), diag_1 @ powers[2].T, atol=1e-10)
        # upper triangle mirrors the lower one
        np.testing.assert_allclose(cov.block(3, 1), cov.block(1, 3).T, atol=1e-12)

    def test_blocks_view_agrees_with_block_accessor(self, bench_model, bench_filter):
        cov = cumulative_cov(bench_filter, bench_model.A, 2)
        for a in range(3):
            for b in range(3):
                np.testing.assert_array_equal(cov.blocks[a, b], cov.block(a, b))

    def test_matrix_is_symmetric_psd(self, bench_model, bench_filter):
        cov = cumulative_cov(bench_filter, bench_model.A, 7)
        np.testing.assert_allclose(cov.matrix, cov.matrix.T, atol=1e-10)
        assert np.linalg.eigvalsh(cov.matrix).min() >= -1e-8

    def test_monte_carlo_oracle_order_two(self, bench_model, bench_filter):
        """Sample the stacked vector from iid corrections and compare covariances.

        Block b of the stacked vector is sum_{j<=b} A^j eta_{b-j} with the
        corrections shared across blocks, so three iid draws per sample
        suffice to realize the full order-2 vector.
        """
        A = bench_model.A
        factor = psd_sqrt(bench_filter.Pi_eta)
        rng = np.random.default_rng(20240820)
        n_samples = 1_000_000

        g = rng.standard_normal((3, n_samples, 2)) @ factor.T
        s0 = g[0]
        s1 = g[1] + g[0] @ A.T
        s2 = g[2] + g[1] @ A.T + g[0] @ (A @ A).T
        stacked = np.hstack([s0, s1, s2])

        sample_cov = (stacked.T @ stacked) / n_samples
        expected = cumulative_cov(bench_filter, A, 2).matrix
        assert np.all(np.abs(expected) > 0.05)  # relative tol is meaningful
        rel = np.abs(sample_cov - expected) / np.abs(expected)
        assert rel.max() < 0.02

    def test_negative_order_rejected(self, bench_model, bench_filter):
        with pytest.raises(ValueError):
            cumulative_cov(bench_filter, bench_model.A, -1)

    def test_block_index_out_of_range(self, bench_model, bench_filter):
        cov = cumulative_cov(bench_filter, bench_model.A, 1)
        with pytest.raises(IndexError):
            cov.block(0, 2)
        with pytest.raises(IndexError):
            cov.block(-1, 0)


class TestNontriggerProbability:
    def test_golden_closed_forms(self, golden_model, golden_filter):
        # det(I + 2*0.5*[1]) = 2 and det(I + [[1,1],[1,2]]) = 5
        cov0 = cumulative_cov(golden_filter, golden_model.A, 0)
        cov1 = cumulative_cov(golden_filter, golden_model.A, 1)
        assert nontrigger_probability(cov0, 0.5) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )
        assert nontrigger_probability(cov1, 0.5) == pytest.approx(
            1.0 / math.sqrt(5.0), abs=1e-12
        )

    def test_vanishing_sensitivity_gives_probability_one(
        self, bench_model, bench_filter
    ):
        cov = cumulative_cov(bench_filter, bench_model.A, 4)
        p = nontrigger_probability(cov, 1e-300)
        assert 0.0 < p <= 1.0
        assert 1.0 - p < 1e-12

    def test_matches_determinant_route(self, bench_model, bench_filter):
        # independent evaluation through the plain determinant
        cov = cumulative_cov(bench_filter, bench_model.A, 5)
        lam = 1.0
        direct = 1.0 / math.sqrt(
            np.linalg.det(np.eye(cov.matrix.shape[0]) + 2.0 * lam * cov.matrix)
        )
        assert nontrigger_probability(cov, lam) == pytest.approx(direct, rel=1e-10)

    def test_extreme_sensitivity_stays_finite(self, bench_model, bench_filter):
        cov = cumulative_cov(bench_filter, bench_model.A, 49)
        p = nontrigger_probability(cov, 1e6)
        assert 0.0 <= p < 1e-3
        assert math.isfinite(p)

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_nonpositive_sensitivity_rejected(self, bench_model, bench_filter, lam):
        cov = cumulative_cov(bench_filter, bench_model.A, 0)
        with pytest.raises(ValueError):
            nontrigger_probability(cov, lam)


class TestTransitionMatrix:
    def test_golden_timeout_two(self, golden_model, golden_filter):
        ma = chains(golden_filter, golden_model.A, [0.5], 2)[0]
        assert ma.p_i0[0] == pytest.approx(GOLDEN_P00, abs=1e-12)
        assert ma.p_i0[1] == pytest.approx(GOLDEN_P10, abs=1e-12)
        assert ma.p_i0[2] == 1.0

        P = dense_transition_matrix(ma.p_i0)
        assert P.shape == (3, 3)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(P[:, 0], ma.p_i0, atol=1e-15)
        # only the reset column and the survival superdiagonal are populated
        mask = np.zeros((3, 3), dtype=bool)
        mask[:, 0] = True
        mask[0, 1] = mask[1, 2] = True
        assert np.all(P[~mask] == 0.0)

    def test_probabilities_within_unit_interval(self, bench_model, bench_filter):
        for lam in (0.01, 1.0, 100.0, 1e6):
            ma = chains(bench_filter, bench_model.A, [lam], 50)[0]
            assert np.all(ma.p_i0 >= 0.0)
            assert np.all(ma.p_i0 <= 1.0)
            assert ma.p_i0[-1] == 1.0

    def test_hold_probabilities_monotone_in_sensitivity(
        self, bench_model, bench_filter
    ):
        lo, hi = chains(bench_filter, bench_model.A, [0.5, 2.0], 20)
        assert np.all(hi.p_i0 >= lo.p_i0 - 1e-15)

    def test_vanishing_sensitivity_recovers_pure_timeout(
        self, golden_model, golden_filter
    ):
        ma = chains(golden_filter, golden_model.A, [1e-300], 3)[0]
        assert np.all(ma.p_i0[:3] <= 1e-12)
        # every fourth step transmits
        assert ma.rate == pytest.approx(0.25, abs=1e-12)

    def test_small_sensitivity_close_to_timeout_rate(self, golden_model, golden_filter):
        ma = chains(golden_filter, golden_model.A, [1e-6], 3)[0]
        assert ma.rate == pytest.approx(0.25, abs=1e-5)

    def test_bench_extreme_sensitivity_rate(self, bench_model, bench_filter):
        # frozen regression value; the closed-form path must survive lam=1e6
        ma = chains(bench_filter, bench_model.A, [1e6], 50)[0]
        assert ma.rate == pytest.approx(0.9996576, abs=1e-6)

    def test_rate_monotone_in_sensitivity(self, bench_model, bench_filter):
        rates = []
        for lam in np.logspace(-2, 2, 13):
            ma = chains(bench_filter, bench_model.A, [float(lam)], 50)[0]
            rates.append(ma.rate)
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


class TestLongTimeouts:
    """Timeouts far past the growth scale of the unstable benchmark plant."""

    @pytest.mark.parametrize("timeout", [150, 500, 1000])
    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
    def test_chain_valid_and_tail_converged(self, bench_model, bench_filter,
                                            lam, timeout):
        ma = chains(bench_filter, bench_model.A, [lam], timeout)[0]
        assert np.all((ma.p_i0 >= 0.0) & (ma.p_i0 <= 1.0))
        assert 0.0 < ma.rate <= 1.0
        # sigma(i) converges, so the per-age probabilities level off
        assert abs(ma.p_i0[timeout - 1] - ma.p_i0[timeout - 2]) <= 1e-12
        assert ma.sigma_trace.shape == ma.trigger_by_age.shape == (timeout + 1,)
        assert np.all(np.isfinite(ma.sigma_trace))

    def test_tail_probability_matches_reference(self, bench_model, bench_filter):
        ma = chains(bench_filter, bench_model.A, [1.0], 100)[0]
        assert ma.p_i0[98] == pytest.approx(BENCH_P98_LAM1_T100, abs=1e-12)


class TestStationaryDistribution:
    def test_golden_rate_frozen_value(self, golden_model, golden_filter):
        ma = chains(golden_filter, golden_model.A, [0.5], 2)[0]
        assert ma.rate == pytest.approx(GOLDEN_RATE_T2, abs=1e-12)

    def test_rate_equals_reset_mass_bitwise(self, bench_model, bench_filter):
        ma = chains(bench_filter, bench_model.A, [1.0], 50)[0]
        assert ma.rate == ma.pi[0]

    def test_stationarity_and_normalization(self, bench_model, bench_filter):
        ma = chains(bench_filter, bench_model.A, [1.0], 50)[0]
        pi = ma.pi
        assert np.abs(pi @ dense_transition_matrix(ma.p_i0) - pi).max() <= 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi > 0.0)

    def test_geometric_chain_closed_form(self):
        # constant hold survival 0.7 gives geometrically decaying occupancy
        timeout = 30
        p = np.full(timeout + 1, 0.3)
        p[timeout] = 1.0
        pi = stationary_distribution(p)
        ratios = pi[1:] / pi[:-1]
        np.testing.assert_allclose(ratios, 0.7, rtol=1e-12)
        expected_rate = 1.0 / np.cumprod(np.r_[1.0, np.full(timeout, 0.7)]).sum()
        assert pi[0] == pytest.approx(expected_rate, rel=1e-12)

    def test_certain_timeout_chain_is_uniform(self):
        p = np.array([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(stationary_distribution(p), 0.25, atol=1e-14)

    def test_inconsistent_chain_detected(self):
        # the dense oracle's reset column disagrees with the survival structure
        p = np.array([0.3, 0.3, 1.0])
        P = np.zeros((3, 3))
        P[:, 0] = [0.6, 0.6, 1.0]
        P[0, 1] = 0.4
        P[1, 2] = 0.4
        with pytest.raises(NumericalError):
            crosschecked_stationary(p, P)

    def test_singular_balance_system_detected(self):
        # two closed classes: the balance equations have no unique solution
        p = np.array([1.0, 0.0, 1.0])
        P = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NumericalError, match="cross-check"):
            crosschecked_stationary(p, P)

    @pytest.mark.parametrize("timeout", [2, 50, 1000])
    def test_matches_lu_balance_solve(self, bench_model, bench_filter, timeout):
        cases = [(bench_filter, bench_model.A, timeout)]
        rng = np.random.default_rng(20261019)
        for _ in range(10):
            model = random_valid_model(rng)
            cases.append((kf_steady_state(model), model.A, int(rng.integers(1, 21))))
        for filt, A, T in cases:
            for ma in chains(filt, A, [1e-6, 1.0, 1e6], T):
                P = dense_transition_matrix(ma.p_i0)
                np.testing.assert_allclose(ma.pi, balance_solve(P),
                                           rtol=0, atol=1e-14)
                np.testing.assert_allclose(chain_step(ma.pi, ma.p_i0), ma.pi @ P,
                                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("where", [0, 3, 5])
    def test_nan_probability_rejected(self, bench_model, bench_filter, where):
        ma, = chains(bench_filter, bench_model.A, [1.0], 5)
        p_i0 = ma.p_i0.copy()
        p_i0[where] = np.nan
        with pytest.raises(NumericalError, match=re.escape(
                "lambda=1.0: p_i0 must lie in [0, 1] with p_i0[T] = 1")):
            transition_matrix(ma.lam, p_i0, ma.sigma_trace,
                              ma.trigger_by_age)

    def test_chain_without_certain_timeout_rejected(self, bench_model,
                                                    bench_filter):
        # p_i0[T] < 1 leaks mass past the timeout: the chain is not stochastic
        ma, = chains(bench_filter, bench_model.A, [1.0], 5)
        p_i0 = ma.p_i0.copy()
        p_i0[-1] = 0.5
        with pytest.raises(NumericalError, match=re.escape(
                "lambda=1.0: p_i0 must lie in [0, 1] with p_i0[T] = 1, got ")):
            transition_matrix(ma.lam, p_i0, ma.sigma_trace,
                              ma.trigger_by_age)

    @pytest.mark.parametrize("lam, pi_T_max", [(1.0, 1e-27), (100.0, 1e-74)])
    def test_leak_past_timeout_rejected_however_small(
            self, bench_model, bench_filter, lam, pi_T_max):
        # at T = 50 the leaking state carries pi_T = 1.4e-28 (lam = 1) or
        # 2.8e-75 (lam = 100), so the leak is far below any balance residual
        # worth a tolerance; only the exact condition p_i0[T] = 1 sees it
        ma, = chains(bench_filter, bench_model.A, [lam], 50)
        assert 0.0 < ma.pi[-1] < pi_T_max
        p_i0 = ma.p_i0.copy()
        p_i0[-1] = 0.5
        with pytest.raises(NumericalError, match=re.escape(
                f"lambda={lam!r}: p_i0 must lie in [0, 1] with p_i0[T] = 1")):
            transition_matrix(lam, p_i0, ma.sigma_trace, ma.trigger_by_age)


class TestTelescoping:
    def test_survivals_match_joint_hold_probabilities(self, bench_model, bench_filter):
        """Products of per-age holds must telescope to the joint-hold values.

        The probability of holding for n consecutive steps after a reset has
        two independent expressions: the cumprod of the chain's per-age hold
        probabilities, and the single Gaussian integral over the stacked
        error vector of order n-1.
        """
        ma = chains(bench_filter, bench_model.A, [1.0], 50)[0]
        survivors = np.cumprod(1.0 - ma.p_i0[:50])
        for n in (1, 2, 5, 17, 33, 50):
            cov = cumulative_cov(bench_filter, bench_model.A, n - 1)
            joint = nontrigger_probability(cov, 1.0)
            assert survivors[n - 1] == pytest.approx(joint, rel=1e-10)


class TestStackedOracleOnRandomModels:
    """The conditioning pass against the stacked-covariance route.

    Criterion 8 draws lam from [1e-2, 1e2]; this covers both ends of the
    documented range on seeded random models. With S_k the stacked
    covariance of order k, the survivor product is exp(-LD_k/2) with
    LD_k = log det(I + 2 lam S_k), so p_k0 = -expm1(-(LD_k - LD_{k-1})/2);
    and the hold weight tilts the stacked Gaussian to covariance
    (I + 2 lam S_k)^{-1} S_k, whose last block is sigma(k+1). The oracle's
    own error sets the tolerances: recovering LD_k from nontrigger_probability
    costs about 1e-10 relative in p_k0 at lam = 1e-6, and at lam = 1e6 the
    tilted covariance inherits the conditioning of S_k (worst seen 1.4e-5).
    """

    @pytest.mark.parametrize("lam, sigma_rtol", [(1e-6, 1e-9), (1.0, 1e-9),
                                                 (1e6, 1e-4)])
    def test_pass_matches_stacked_oracle(self, lam, sigma_rtol):
        rng = np.random.default_rng(20261017)
        for _ in range(30):
            model = random_valid_model(rng)
            filt = kf_steady_state(model)
            T = int(rng.integers(1, 11))
            n = model.A.shape[0]
            (p_i0,), (sigmas,) = sigma_table(filt, model.A, [lam], T)
            ld_prev = 0.0
            for k in range(T):
                cov = cumulative_cov(filt, model.A, k)
                ld = -2.0 * math.log(nontrigger_probability(cov, lam))
                p = -math.expm1(-0.5 * (ld - ld_prev))
                ld_prev = ld
                assert p_i0[k] == pytest.approx(p, rel=1e-7)

                d, U = np.linalg.eigh(cov.matrix)
                d = np.clip(d, 0.0, None)
                sigma = ((U * (d / (1.0 + 2.0 * lam * d))) @ U.T)[-n:, -n:]
                err = np.abs(sigmas[k + 1] - sigma).max() / np.abs(sigma).max()
                assert err <= sigma_rtol


class TestLambdaGrid:
    """One pass over a grid equals the grid of one at each lambda, bitwise."""

    def test_grid_point_equals_grid_of_one(self, bench_model, bench_filter,
                                           bench_control):
        lams = np.logspace(-6, 6, 13)
        cases = [(bench_filter, bench_model.A, 50, bench_control.M_inf)]
        rng = np.random.default_rng(20261018)
        for _ in range(19):
            model = random_valid_model(rng)
            cases.append((kf_steady_state(model), model.A,
                          int(rng.integers(1, 21)),
                          control_steady_state(model).M_inf))
        for filt, A, T, M in cases:
            rows = conditional_error_cov(filt, A, lams, T, M)
            for arr in rows:
                assert arr.shape == (len(lams), T + 1)
            table = sigma_table(filt, A, lams, T)
            for g, lam in enumerate(lams):
                one = conditional_error_cov(filt, A, [lam], T, M)
                for arr, one_arr in zip(rows, one):
                    assert arr[g].tobytes() == one_arr[0].tobytes()
                # and the one lambda's chain is the grid row's
                one_ma = transition_matrix(lam, *(arr[0] for arr in one))
                ma = transition_matrix(lam, *(arr[g] for arr in rows))
                assert one_ma.pi.tobytes() == ma.pi.tobytes()
                # so is the oracle's table
                one_table = sigma_table(filt, A, [lam], T)
                for arr, one_arr in zip(table, one_table):
                    assert arr[g].tobytes() == one_arr[0].tobytes()

    def test_invalid_grid_point_rejected(self, bench_model, bench_filter):
        with pytest.raises(ModelError, match="lam"):
            conditional_error_cov(bench_filter, bench_model.A, [1.0, 0.0], 5,
                                  np.eye(2))

    @pytest.mark.parametrize("timeout", [1, 50])
    def test_overflowing_grid_point_named(self, bench_model, bench_filter,
                                          timeout):
        # 2 lam overflows at lam = 1e308: NaN must not pass the range check
        with pytest.raises(NumericalError, match=r"lambda=1e\+308"):
            conditional_error_cov(bench_filter, bench_model.A,
                                  [1.0, 1e308, 2.0], timeout, np.eye(2))

    def test_overflowing_sigma_named(self, bench_filter):
        # at lam = 1e-300, sigma(1) is Pi_eta / 3 = 3.3e299 I and A sigma A^T
        # overflows at age 1; at lam = 1 sigma stays below 1 / (2 lam) I. So
        # the error names the second lambda of the grid alone
        filt = dataclasses.replace(bench_filter, Pi_eta=1e300 * np.eye(2))
        with pytest.raises(NumericalError, match=re.escape(
                "lambda=1e-300: sigma is not finite")):
            conditional_error_cov(filt, 1e5 * np.eye(2), [1.0, 1e-300], 50,
                                  np.eye(2))

    @pytest.mark.parametrize("lam", [float(np.nextafter(LAMBDA_MAX, np.inf)), 1e14,
                                     1e100])
    def test_lambda_above_ceiling_named(self, bench_model, bench_filter, lam):
        # above LAMBDA_MAX sigma loses digits: lam tr sigma_1 should be 0.5
        # here, and at 1e100 the pass returned 0.124 with no error
        with pytest.raises(NumericalError, match=re.escape(f"lambda={lam!r}: above")):
            conditional_error_cov(bench_filter, bench_model.A,
                                  [1.0, lam, 2.0], 50, np.eye(2))
        with pytest.raises(NumericalError, match=re.escape(f"lambda={lam!r}: above")):
            finite_horizon_cost(bench_model, lam, 50, 5)
        _, (sigma_trace,), _ = conditional_error_cov(
            bench_filter, bench_model.A, [LAMBDA_MAX], 50, np.eye(2))
        assert LAMBDA_MAX * sigma_trace[1] == pytest.approx(0.5, rel=1e-6)

    def test_singular_solve_named(self):
        # below LAMBDA_MAX, I + 2 lam N is singular only at an exact zero
        # pivot, so the batch is built by hand: the batched solve fails as a
        # whole, and the retry names the lambda whose matrix is singular
        M = np.stack([np.eye(2), np.zeros((2, 2))])
        B = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(NumericalError, match=re.escape(
                "lambda=2.0: I + 2 lambda N is singular at age 3: ")):
            _solve_grid(M, B, [1.0, 2.0], 3)


def mpmath_pass(A, Pi_eta, lam, timeout, dps=60):
    """The conditioning recursion in mpmath on the same float inputs."""
    mp = MPContext()
    mp.dps = dps
    A, Pi_eta = mp.matrix(A.tolist()), mp.matrix(Pi_eta.tolist())
    eye = mp.eye(A.rows)
    sigma = mp.zeros(A.rows, A.rows)
    p_i0, sigmas = [], [sigma]
    for _ in range(timeout):
        N = A * sigma * A.T + Pi_eta
        shifted = eye + 2 * mp.mpf(lam) * N
        p_i0.append(-mp.expm1(-mp.log(mp.det(shifted)) / 2))
        sigma = mp.inverse(shifted) * N
        sigmas.append(sigma)
    return ([float(p) for p in p_i0],
            [np.array(s.tolist(), dtype=float) for s in sigmas])


class TestMpmathReference:
    """The pass against a 60-digit run of the same recursion.

    Both runs start from the same float A and Pi_eta, so the gap is the
    pass's own rounding. Bounds sit a few times above the worst measured
    relative error over the bundled and scalar models (T = 50) and 30
    seeded random models (T = 8): sigma 3.7e-15, 3.4e-14, 2.0e-8 and
    1.9e-7 and p_i0 2.7e-15, 1.8e-15, 2.6e-12 and 5.5e-12 at lam = 1e-6, 1,
    1e6 and LAMBDA_MAX = 1e7. At 1e6 the condition number of I + 2 lam N_k
    reaches about 4e8, so any backward-stable solve loses about 8 digits of
    sigma there. At LAMBDA_MAX the bound is the ceiling's own: 1e-6.
    """

    @pytest.mark.parametrize("lam, sigma_rtol, p_rtol",
                             [(1e-6, 1e-14, 1e-14), (1.0, 1e-13, 1e-14),
                              (1e6, 1e-7, 1e-11), (LAMBDA_MAX, 1e-6, 3e-11)])
    def test_pass_matches_mpmath(self, lam, sigma_rtol, p_rtol, bench_model,
                                 golden_model):
        cases = [(bench_model, 50), (golden_model, 50)]
        rng = np.random.default_rng(20261017)
        cases += [(random_valid_model(rng), 8) for _ in range(30)]
        for model, T in cases:
            filt = kf_steady_state(model)
            (p_i0,), (sigmas,) = sigma_table(filt, model.A, [lam], T)
            p_ref, sigmas_ref = mpmath_pass(model.A, filt.Pi_eta, lam, T)
            np.testing.assert_allclose(p_i0[:T], p_ref, rtol=p_rtol, atol=0)
            for sigma, ref in zip(sigmas[1:], sigmas_ref[1:]):
                err = np.abs(sigma - ref).max() / np.abs(ref).max()
                assert err <= sigma_rtol


class TestConditionalErrorCov:
    def test_age_zero_exactly_zero(self, bench_model, bench_filter,
                                   bench_control):
        p_i0, sigma_trace, trigger_by_age = conditional_error_cov(
            bench_filter, bench_model.A, [1.0], 50, bench_control.M_inf)
        assert p_i0.shape == sigma_trace.shape == trigger_by_age.shape == (1, 51)
        assert sigma_trace[0, 0] == trigger_by_age[0, 0] == 0.0
        _, sigmas = sigma_table(bench_filter, bench_model.A, [1.0], 50)
        assert sigmas.shape == (1, 51, 2, 2)
        assert np.all(sigmas[0, 0] == 0.0)

    def test_golden_scalar_recursion(self, golden_model, golden_filter):
        # N1 = 0 + 1 = 1 -> 1/(1+1) = 0.5; N2 = 0.5 + 1 -> 1.5/2.5 = 0.6
        _, (sigmas,) = sigma_table(golden_filter, golden_model.A, [0.5], 2)
        assert sigmas[1][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert sigmas[2][0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_matches_subtraction_form(self, bench_model, bench_filter):
        # independent route: (2 lam)^-1 I - (2 lam)^-2 (N + (2 lam)^-1 I)^-1
        lam = 1.0
        A = bench_model.A
        Pi = bench_filter.Pi_eta
        _, (sigmas,) = sigma_table(bench_filter, A, [lam], 50)
        eye = np.eye(2)
        for i in range(1, 51):
            N = A @ sigmas[i - 1] @ A.T + Pi
            alt = eye / (2.0 * lam) - np.linalg.inv(N + eye / (2.0 * lam)) / (
                2.0 * lam
            ) ** 2
            np.testing.assert_allclose(sigmas[i], alt, atol=1e-11)

    @pytest.mark.parametrize("lam", [1.0, 100.0])
    def test_eigenvalues_below_saturation_bound(self, bench_model, bench_filter, lam):
        _, (sigmas,) = sigma_table(bench_filter, bench_model.A, [lam], 50)
        bound = 1.0 / (2.0 * lam)
        for sigma in sigmas[1:]:
            np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
            assert np.linalg.eigvalsh(sigma).max() < bound

    def test_monotone_growth_in_age(self, bench_model, bench_filter):
        _, (sigmas,) = sigma_table(bench_filter, bench_model.A, [0.1], 10)
        for prev, cur in zip(sigmas, sigmas[1:]):
            assert np.linalg.eigvalsh(cur - prev).min() >= -1e-10


class TestSigmaTableOracle:
    """The pass keeps the oracle table's reductions: p_i0 and tr sigma(i)
    bit for bit (same steps, same trace), and tr(M sigma(i)) to 1e-14
    relative of an einsum over the table (its sum order is einsum's own)."""

    def test_reductions_match_table(self, bench_model, bench_filter,
                                    bench_control):
        cases = [(bench_filter, bench_model.A, 50, bench_control.M_inf)]
        rng = np.random.default_rng(20261020)
        for _ in range(6):
            model = random_valid_model(rng)
            cases.append((kf_steady_state(model), model.A,
                          int(rng.integers(1, 31)),
                          control_steady_state(model).M_inf))
        lams = [1e-6, 0.01, 1.0, 100.0, 1e6]
        for filt, A, T, M in cases:
            p_i0, sigma_trace, trigger_by_age = conditional_error_cov(
                filt, A, lams, T, M)
            table_p_i0, sigmas = sigma_table(filt, A, lams, T)
            assert p_i0.tobytes() == table_p_i0.tobytes()
            assert sigma_trace.tobytes() == np.trace(
                sigmas, axis1=-2, axis2=-1).tobytes()
            np.testing.assert_allclose(
                trigger_by_age, np.einsum("gaij,ji->ga", sigmas, M),
                rtol=1e-14, atol=0)


class TestConditionStepProperties:
    """Both passes' tables on random models, lam from 1e-6 to 1e6: every p in
    [0, 1], every sigma symmetric, PSD and below I/(2 lam). Each model draws
    its own X0, not P_inf, so the finite-horizon pass runs off its fixed
    point. Both bounds allow rounding: PSD to 1e-6 of |sigma| (worst seen
    9.8e-8 in 300 draws, a rank-deficient sigma's zero eigenvalue), the
    ceiling to 1e-9 of 1/(2 lam) (never passed in those draws)."""

    @staticmethod
    def assert_bounded(p, sigmas, lam):
        assert ((p >= 0.0) & (p <= 1.0)).all()
        assert np.array_equal(sigmas, np.swapaxes(sigmas, -1, -2))
        eigs = np.linalg.eigvalsh(sigmas)
        assert (eigs >= -1e-6 * np.abs(eigs).max(axis=-1, keepdims=True)).all()
        assert (eigs <= (0.5 + 1e-9) / lam).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), log_lam=st.floats(-6.0, 6.0),
           timeout=st.integers(1, 12), N=st.integers(1, 12))
    # the filter and the table repeat after 8 steps, so the pass stops early
    @example(seed=478, log_lam=0.0, timeout=1, N=9)
    def test_tables_bounded(self, seed, log_lam, timeout, N):
        model = random_valid_model(np.random.default_rng(seed))
        lam = 10.0 ** log_lam
        (p_i0,), (sigmas,) = sigma_table(kf_steady_state(model), model.A,
                                         [lam], timeout)
        self.assert_bounded(p_i0, sigmas, lam)

        steps = []

        def recorded(*args):
            steps.append(condition_step(*args))
            return steps[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("finite_horizon_oracle.condition_step", recorded)
            finite_horizon_cost(model, lam, timeout, N)
        # the pass stops stepping once the filter and the table repeat
        assert 1 <= len(steps) <= N
        for p, sigmas in steps:
            self.assert_bounded(p, sigmas, lam)


class TestAnalysisRecord:
    def test_record_is_json_native(self, bench_model, bench_filter):
        ma = chains(bench_filter, bench_model.A, [2.0], 12)[0]
        record = analysis_record(ma)
        assert record["lambda"] == 2.0
        assert record["timeout"] == 12
        assert record["rate"] == ma.pi[0]
        assert len(record["p_i0"]) == 13
        assert len(record["pi"]) == 13
        assert len(record["sigma_e_trace"]) == 13
        assert record["sigma_e_trace"][0] == 0.0
        round_trip = json.loads(json.dumps(record))
        assert round_trip == record

    def test_sigma_trace_equals_per_sigma_loop(self, bench_model, bench_filter):
        rng = np.random.default_rng(20261018)
        cases = [(bench_model, bench_filter)]
        while len(cases) < 13:
            model = random_valid_model(rng)
            if model.dims[0] > 2:
                cases.append((model, kf_steady_state(model)))
        for model, ss in cases:
            lams = [1e-6, 1.0, 1e6]
            _, table = sigma_table(ss, model.A, lams, 30)
            for ma, sigmas in zip(chains(ss, model.A, lams, 30), table):
                got = analysis_record(ma)["sigma_e_trace"]
                want = [float(np.trace(s)) for s in sigmas]
                assert json.dumps(got) == json.dumps(want)


def test_scalar_chain_against_brute_force_enumeration():
    """Enumerate hold patterns exactly for a tiny scalar chain.

    With timeout 2 the stationary distribution over counter values has a
    closed form in the two hold probabilities; build it by hand and compare
    against the chain solver.
    """
    from conftest import make_golden_model

    model = make_golden_model()
    filt = kf_steady_state(model)
    ma = chains(filt, model.A, [0.5], 2)[0]
    q0 = 1.0 - ma.p_i0[0]
    q1 = 1.0 - ma.p_i0[1]
    weights = np.array([1.0, q0, q0 * q1])
    np.testing.assert_allclose(ma.pi, weights / weights.sum(), rtol=1e-12)
