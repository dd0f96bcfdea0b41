"""Shared fixtures: the three reference models and frozen oracle constants.

The frozen matrices below were computed once with an independent solver
(scipy.linalg.solve_discrete_are) and pinned; the scalar golden values come
from closed-form algebra (the golden-ratio fixed point and hand-evaluated
2x2 determinants). Tests compare the package's fixed-point iterations
against these as an independent route.
"""

import numpy as np
import pytest

from etlqg import (SystemModel, conditional_error_cov, control_steady_state,
                   kf_steady_state, transition_matrix)
from etlqg.simulation import TraceBlock, run_closed_loop

PHI = 1.618033988749895          # positive root of p^2 = p + 1
GOLDEN_GAIN = 0.6180339887498949  # phi / (phi + 1) = phi - 1
GOLDEN_F = 0.6180339887498948     # phi * (2 - phi)

# golden scalar chain at lambda = 0.5, T = 2
GOLDEN_P00 = 0.29289321881345254  # 1 - 1/sqrt(2)
GOLDEN_P10 = 0.3675444679663241   # 1 - sqrt(2/5)
GOLDEN_RATE_T2 = 0.464183512731783  # 1 / (1 + 1/sqrt(2) + 1/sqrt(5))

# hand-enumerated two-step cost on the golden scalar model (lambda=0.5, T=2,
# X0=1), Kalman gains from X0
GOLDEN_J2 = 5.277339286893179

# benchmark steady-state solutions, frozen from scipy solve_discrete_are
BENCH_P_INF = np.array([[4.310550172498401, 2.0172849324981783],
                        [2.0172849324981783, 1.9963289786845602]])
BENCH_K_INF = np.array([[0.8116955932026266], [0.37986364255534877]])
BENCH_F_INF = np.array([[0.8116955932026267, 0.3798636425553488],
                        [0.379863642555349, 1.2300357761537812]])
BENCH_PI_ETA = np.array([[3.4988545792957737, 1.6374212899428295],
                         [1.6374212899428293, 0.7662932025307789]])
BENCH_S_INF = np.array([[7.163550181966052, 5.504876431396617],
                        [5.504876431396617, 7.470030686905003]])
BENCH_L_INF = np.array([[0.7799088293610134, 1.4436670304531407]])
BENCH_M_INF = np.array([[5.151962080065081, 9.536650332871002],
                        [9.536650332871003, 17.65302192796802]])

# high-lambda limit of the analytic cost on the benchmark model
BENCH_J_LIMIT = 53.27938421207352
# analytic cost at lambda = 1, T = 50 (six-figure regression pin)
BENCH_J_LAM1 = 55.334285
# p_i0[98] on the benchmark model at lambda = 1, T = 100: the 50-digit mpmath
# conditioning recursion of bench/reference.py, rounded to 20 digits
BENCH_P98_LAM1_T100 = 0.72167771665774926488

BENCH_TIMEOUT = 50


def make_benchmark_model() -> SystemModel:
    """Unstable two-state plant with scalar input and measurement."""
    return SystemModel(
        A=np.array([[1.2, 1.0], [0.0, 0.9]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        W=np.array([[1.0, 0.5], [0.5, 1.0]]),
        V=np.array([[1.0]]),
        Q=np.array([[2.0, 0.5], [0.5, 2.0]]),
        Qf=np.array([[2.0, 0.5], [0.5, 2.0]]),
        R=np.array([[1.0]]),
        x0_mean=np.zeros(2),
        X0=np.array([[1.0, 0.5], [0.5, 1.0]]),
    )


def make_golden_model() -> SystemModel:
    """All-ones scalar model whose steady-state quantities are golden-ratio
    expressions; its innovation covariance is exactly 1."""
    one = np.array([[1.0]])
    return SystemModel(A=one, B=one, C=one, W=one, V=one, Q=one, Qf=one,
                      R=one, x0_mean=np.zeros(1), X0=one)


def make_limit_model() -> SystemModel:
    """Fully observed, strongly contracting two-state model.

    Its innovation covariance is small and full rank, which keeps both
    trigger-sensitivity extremes (1e-6 and 1e6) inside the regime where the
    periodic-limit and always-send limits are met to tight tolerance.
    """
    eye = np.eye(2)
    return SystemModel(A=0.1 * eye, B=eye, C=eye, W=0.045 * eye, V=eye,
                      Q=eye, Qf=eye, R=eye, x0_mean=np.zeros(2),
                      X0=0.045 * eye)


@pytest.fixture(scope="session")
def bench_model():
    return make_benchmark_model()


@pytest.fixture(scope="session")
def golden_model():
    return make_golden_model()


@pytest.fixture(scope="session")
def limit_model():
    return make_limit_model()


@pytest.fixture(scope="session")
def bench_filter(bench_model):
    return kf_steady_state(bench_model)


@pytest.fixture(scope="session")
def bench_control(bench_model):
    return control_steady_state(bench_model)


@pytest.fixture(scope="session")
def golden_filter(golden_model):
    return kf_steady_state(golden_model)


@pytest.fixture(scope="session")
def golden_control(golden_model):
    return control_steady_state(golden_model)


def random_valid_model(rng: np.random.Generator, n_max: int = 4) -> SystemModel:
    """Random model that passes validation almost surely.

    A is scaled to a spectral radius in [0.5, 1.5]; noise and cost weights
    are shifted Wishart-style matrices, so the rank conditions hold with
    probability one.
    """
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    A = rng.standard_normal((n, n))
    radius = max(abs(np.linalg.eigvals(A)))
    target = rng.uniform(0.5, 1.5)
    A *= target / max(radius, 1e-12)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))

    def spd(k, scale=1.0):
        G = rng.standard_normal((k, k))
        return scale * (G @ G.T + 0.1 * np.eye(k))

    return SystemModel(A=A, B=B, C=C, W=spd(n), V=spd(p), Q=spd(n),
                      Qf=spd(n), R=spd(m), x0_mean=rng.standard_normal(n),
                      X0=spd(n))


def chains(ss, A, lams, timeout, M=None):
    """The timeout-counter chain (MarkovAnalysis) of each lambda in lams: the
    conditioning pass's rows given the cost matrix M, each through
    transition_matrix. Every test that needs a chain reaches it here. M
    defaults to the identity, whose trigger_by_age is tr sigma(i); a chain
    for infinite_horizon_cost needs the controller's M_inf."""
    lams = [float(lam) for lam in lams]
    M = np.eye(np.shape(A)[0]) if M is None else M
    return [transition_matrix(*row) for row in zip(
        lams, *conditional_error_cov(ss, A, lams, timeout, M))]


def traced_grid(cfg, filt, ctrl, lams, runs=None):
    """run_closed_loop with its TraceBlocks joined over the horizon.

    Returns (rates, costs, traces), traces the per_run() of one TraceBlock of
    every step: one tuple of one-run TraceBlocks per lambda.
    """
    columns = {name: [] for name in ("sigma", "tau", "x", "u", "e_filt")}

    def on_block(block):
        for name, parts in columns.items():
            parts.append(getattr(block, name))

    rates, costs = run_closed_loop(cfg, filt, ctrl, lams, runs,
                                   on_block=on_block)
    # one column at a time, so that a joined column's blocks are freed
    whole = TraceBlock(0, *(np.concatenate(columns.pop(name))
                            for name in list(columns)))
    return rates, costs, whole.per_run()
