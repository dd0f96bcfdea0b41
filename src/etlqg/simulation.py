"""Seeded closed-loop Monte Carlo engine for the event-triggered loop.

The engine propagates the loop in error coordinates: alongside the true
state it tracks the sensor-side prediction error and the sensor/controller
estimate gap directly. The transmission decisions depend only on those error
coordinates and the trigger uniforms, never on the state or input, so the
sigma sequence is bitwise independent of the control law. The plant state is
still simulated exactly (x' = Ax + Bu + w) for cost evaluation, and the
estimates handed back in traces are reconstructed as x minus the tracked
errors.

A lambda grid runs in lockstep through one step loop: the state carries a
leading lambda axis, shape (group, runs, n), and lambda enters only through
the hold probability exp(-lambda * |e|^2).

RNG layout: the master seed spawns one child sequence per run; each run
spawns four generators in a fixed order (process noise, measurement noise,
initial state, trigger uniforms). Each run's four streams are shared by
every lambda of a group: their draws are made once, for the runs, and
broadcast over the lambda axis, so a run at a given lambda sees the same
numbers in any group and a group equals separate single-lambda runs
bitwise. Draws are pregenerated in fixed-size step chunks per stream, which
leaves every stream's order identical to stepwise consumption.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .control import ControlSynthesis, control_steady_state, cost_tradeoff_curve
from .errors import DefinitenessError, DivergenceError, ModelError
from .estimation import SteadyStateFilter, kf_steady_state
from .model import PSD_EIG_FLOOR, SchedulerParams, SystemModel, psd_sqrt

DEFAULT_BURN_IN = 200
DIVERGENCE_LIMIT = 1e12
_CHUNK_STEPS = 4096
# Trace bytes one run_closed_loop_grid call may hold (see lambda_groups).
TRACE_BUDGET_BYTES = 64 * 2**20


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ModelError(f"covariance must be square, got shape {cov.shape}")
    if float(np.min(np.linalg.eigvalsh((cov + cov.T) / 2.0))) < PSD_EIG_FLOOR:
        raise DefinitenessError("sampling covariance is indefinite; cannot factor")
    return psd_sqrt(cov)


def gaussian_draw(rng: np.random.Generator, mean, cov) -> np.ndarray:
    """One sample of N(mean, cov) through the PSD square root of cov."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    factor = _cov_factor(cov)
    if factor.shape[0] != mean.shape[0]:
        raise ModelError("mean and covariance dimensions disagree")
    z = rng.standard_normal(mean.shape[0])
    return mean + factor @ z


@dataclass(frozen=True)
class SimConfig:
    model: SystemModel
    params: SchedulerParams
    horizon: int
    runs: int
    seed: int
    record_trace: bool = False
    burn_in: int = DEFAULT_BURN_IN
    divergence_limit: float | None = DIVERGENCE_LIMIT

    def __post_init__(self):
        for name in ("horizon", "runs", "seed", "burn_in"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ModelError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ModelError(f"horizon must be >= 1, got {self.horizon}")
        if self.runs < 1:
            raise ModelError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ModelError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.burn_in < self.horizon:
            raise ModelError(
                f"burn_in must lie in [0, horizon), got {self.burn_in}")
        if self.divergence_limit is not None and not self.divergence_limit > 0:
            raise ModelError("divergence_limit must be positive or None")


@dataclass(frozen=True)
class SimulationTrace:
    """Per-step records for one run; arrays indexed by step k."""

    x: np.ndarray        # (horizon, n) true state x_k
    y: np.ndarray        # (horizon, p) measurement y_k
    xhat_s: np.ndarray   # (horizon, n) sensor filtered estimate
    xhat_c: np.ndarray   # (horizon, n) controller estimate
    u: np.ndarray        # (horizon, m) applied input
    sigma: np.ndarray    # (horizon,) transmission indicator
    tau: np.ndarray      # (horizon,) steps since last transmission
    e_filt: np.ndarray   # (horizon, n) post-decision estimate gap


@dataclass(frozen=True)
class ExperimentResult:
    lam: float
    timeout: int
    analytic_rate: float
    analytic_cost: float
    empirical_rate: float | None
    rate_stderr: float | None
    empirical_cost: float | None
    cost_stderr: float | None
    runs: int
    horizon: int
    seed: int
    burn_in: int


def _spawn_run_streams(seed: int, runs: int):
    """Per-run generator quadruples (w, v, init, trigger), fixed order."""
    children = np.random.SeedSequence(seed).spawn(runs)
    quads = []
    for child in children:
        w_ss, v_ss, init_ss, trig_ss = child.spawn(4)
        quads.append((np.random.default_rng(w_ss), np.random.default_rng(v_ss),
                      np.random.default_rng(init_ss), np.random.default_rng(trig_ss)))
    return quads


def lambda_groups(cfg: SimConfig, lams) -> list[list[float]]:
    """Split a lambda grid into consecutive groups for run_closed_loop_grid.

    Without traces the group is the whole grid. With cfg.record_trace a group
    holds as many lambdas as fit their traces into TRACE_BUDGET_BYTES, and at
    least one.
    """
    lams = [float(lam) for lam in lams]
    size = len(lams)
    if cfg.record_trace:
        n, m, p = cfg.model.dims
        per_lam = cfg.runs * cfg.horizon * 8 * (4 * n + p + m + 2)
        size = TRACE_BUDGET_BYTES // per_lam
    size = max(1, size)
    return [lams[i:i + size] for i in range(0, len(lams), size)]


def run_closed_loop(cfg: SimConfig, filt: SteadyStateFilter,
                    ctrl: ControlSynthesis):
    """Simulate cfg.runs independent closed loops at cfg.params.lam.

    Returns (rates, costs, traces): per-run empirical transmission rate and
    running-average stage cost over the post-burn-in window, and a tuple of
    SimulationTrace (or None unless cfg.record_trace).
    """
    rates, costs, traces = run_closed_loop_grid(cfg, filt, ctrl,
                                                [cfg.params.lam])
    return rates[0], costs[0], None if traces is None else traces[0]


def run_closed_loop_grid(cfg: SimConfig, filt: SteadyStateFilter,
                         ctrl: ControlSynthesis, lams):
    """Simulate cfg.runs closed loops at each lambda of lams, in lockstep.

    lams replaces cfg.params.lam; every other setting comes from cfg. Each
    run's random streams are shared by all lambdas (common random numbers),
    so row g equals run_closed_loop at lams[g] bitwise. Returns (rates,
    costs, traces): (len(lams), runs) arrays and, with cfg.record_trace, one
    tuple of SimulationTrace per lambda (else None).
    """
    if ctrl.L_inf is None:
        raise ModelError("run_closed_loop needs a steady-state feedback gain")
    model = cfg.model
    n, m, p = model.dims
    A, B, C = model.A, model.B, model.C
    Q, R = model.Q, model.R
    K = filt.K_inf
    L = ctrl.L_inf
    timeout = cfg.params.timeout
    lams = [SchedulerParams(lam, timeout).lam for lam in lams]
    lam = np.array(lams)[:, None]
    group, runs, horizon = len(lams), cfg.runs, cfg.horizon

    w_factor = _cov_factor(model.W)
    v_factor = _cov_factor(model.V)
    x0_factor = _cov_factor(model.X0)
    streams = _spawn_run_streams(cfg.seed, runs)

    x0 = np.empty((runs, n))
    for r, (_, _, init_gen, _) in enumerate(streams):
        x0[r] = model.x0_mean + x0_factor @ init_gen.standard_normal(n)
    x = np.repeat(x0[None], group, axis=0)
    xt_pred = x - model.x0_mean          # sensor prediction error, prior mean
    e_filt = np.zeros((group, runs, n))  # estimate gap after step -1
    tau = np.zeros((group, runs), dtype=np.int64)

    sigma_count = np.zeros((group, runs), dtype=np.int64)
    cost_sum = np.zeros((group, runs))

    if cfg.record_trace:
        tr_x = np.empty((group, runs, horizon, n))
        tr_y = np.empty((group, runs, horizon, p))
        tr_xs = np.empty((group, runs, horizon, n))
        tr_xc = np.empty((group, runs, horizon, n))
        tr_u = np.empty((group, runs, horizon, m))
        tr_sig = np.empty((group, runs, horizon), dtype=np.int64)
        tr_tau = np.empty((group, runs, horizon), dtype=np.int64)
        tr_e = np.empty((group, runs, horizon, n))

    guard = cfg.divergence_limit
    errctx = (np.errstate(over="ignore", invalid="ignore")
              if guard is None else contextlib.nullcontext())

    with errctx:
        k = 0
        while k < horizon:
            span = min(_CHUNK_STEPS, horizon - k)
            w_z = np.empty((runs, span, n))
            v_z = np.empty((runs, span, p))
            zeta = np.empty((runs, span))
            for r, (w_gen, v_gen, _, trig_gen) in enumerate(streams):
                w_z[r] = w_gen.standard_normal((span, n))
                v_z[r] = v_gen.standard_normal((span, p))
                zeta[r] = trig_gen.random(span)
            w_block = w_z @ w_factor.T
            v_block = v_z @ v_factor.T

            # (runs, .) draws broadcast over the (group, runs, .) state
            for j in range(span):
                v = v_block[:, j]
                w = w_block[:, j]
                eta = (xt_pred @ C.T + v) @ K.T
                e_gap = e_filt @ A.T + eta
                xt_filt = xt_pred - eta
                hold = np.exp(-lam * np.einsum("...i,...i->...", e_gap, e_gap))
                sigma = (zeta[:, j] > hold) | (tau == timeout)
                tau = np.where(sigma, 0, tau + 1)
                e_filt = np.where(sigma[..., None], 0.0, e_gap)
                xhat_c = x - xt_filt - e_filt
                u = -(xhat_c @ L.T)
                if k >= cfg.burn_in:
                    sigma_count += sigma
                    cost_sum += (np.einsum("...i,ij,...j->...", x, Q, x)
                                 + np.einsum("...i,ij,...j->...", u, R, u))
                if cfg.record_trace:
                    tr_x[:, :, k] = x
                    tr_y[:, :, k] = x @ C.T + v
                    tr_xs[:, :, k] = x - xt_filt
                    tr_xc[:, :, k] = xhat_c
                    tr_u[:, :, k] = u
                    tr_sig[:, :, k] = sigma
                    tr_tau[:, :, k] = tau
                    tr_e[:, :, k] = e_filt
                x = x @ A.T + u @ B.T + w
                xt_pred = xt_filt @ A.T + w
                if guard is not None:
                    peak = np.abs(x)
                    worst = float(peak.max())
                    if worst > guard:
                        g, r, _ = np.unravel_index(peak.argmax(), peak.shape)
                        raise DivergenceError(step=k + 1, run=int(r),
                                              value=worst, lam=lams[g])
                k += 1

    window = horizon - cfg.burn_in
    rates = sigma_count / window
    costs = cost_sum / window
    traces = None
    if cfg.record_trace:
        traces = tuple(
            tuple(SimulationTrace(x=tr_x[g, r], y=tr_y[g, r], xhat_s=tr_xs[g, r],
                                  xhat_c=tr_xc[g, r], u=tr_u[g, r],
                                  sigma=tr_sig[g, r], tau=tr_tau[g, r],
                                  e_filt=tr_e[g, r])
                  for r in range(runs))
            for g in range(group))
    return rates, costs, traces


def aggregate_runs(values: np.ndarray):
    """Mean and across-run standard error; stderr is None for a single run."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, None
    stderr = float(values.std(ddof=1) / np.sqrt(values.size))
    return mean, stderr


def run_experiment(cfg: SimConfig,
                   filt: SteadyStateFilter | None = None,
                   ctrl: ControlSynthesis | None = None) -> ExperimentResult:
    """Analytic pipeline plus Monte Carlo aggregation for one lambda.

    Precomputed filter/controller syntheses may be passed in to share the
    model-level solves across a sweep; they must come from cfg.model.
    """
    model = cfg.model
    if filt is None:
        filt = kf_steady_state(model)
    if ctrl is None:
        ctrl = control_steady_state(model)
    point = cost_tradeoff_curve(model, [cfg.params.lam], cfg.params.timeout,
                                ss=filt, cs=ctrl)[0]

    rates, costs, _ = run_closed_loop(cfg, filt, ctrl)
    emp_rate, rate_se = aggregate_runs(rates)
    emp_cost, cost_se = aggregate_runs(costs)
    return ExperimentResult(
        lam=cfg.params.lam, timeout=cfg.params.timeout,
        analytic_rate=point.rate, analytic_cost=point.cost,
        empirical_rate=emp_rate, rate_stderr=rate_se,
        empirical_cost=emp_cost, cost_stderr=cost_se,
        runs=cfg.runs, horizon=cfg.horizon, seed=cfg.seed, burn_in=cfg.burn_in)
