"""Seeded closed-loop Monte Carlo engine for the event-triggered loop.

The engine propagates the loop in error coordinates: alongside the true
state it tracks the sensor-side prediction error and the sensor/controller
estimate gap directly. The transmission decisions depend only on those error
coordinates and the trigger uniforms, never on the state or input, so the
sigma sequence is bitwise independent of the control law. The plant state is
still simulated exactly (x' = Ax + Bu + w) for cost evaluation, and the
estimates handed back in traces are reconstructed as x minus the tracked
errors.

A lambda grid runs in lockstep through one step loop: the trigger and plant
state carry a leading lambda axis, shape (group, runs, n), and lambda enters
only through the hold probability exp(-lambda * |e|^2). The estimator (the
prediction error, its correction eta and the filtered error) depends on
neither lambda nor the trigger, so it is carried once per run, (runs, n),
and broadcast like the draws. A step runs only the estimator, trigger and
plant recurrences, writing x, u and sigma into time-major block buffers,
(steps, group, runs, .); the divergence guard, the transmission count and
the stage cost are reduced once per block, the cost in step order from the
running sum, so it has the bits of a per-step sum. A traced block's buffers
are its trace, with tau and e_filt recorded per step, plus the filtered
error and measurement noise when full SimulationTraces are returned. Their
y = x C^T + v, xhat_s = x - xtilde and xhat_c = xhat_s - e_filt are derived
after the loop, with the loop's own operations, so they keep its bits.

RNG layout: run r's seed is SeedSequence(seed, spawn_key=(r,)), the r-th
child that SeedSequence(seed).spawn would give; each run spawns four
generators in a fixed order (process noise, measurement noise, initial
state, trigger uniforms). A run's streams depend on its index alone, so a
slice of runs simulated on its own equals the same columns of the full run
bitwise, and slices may run in separate processes; that holds for slices of
at least 2 runs, as numpy rounds a one-row matmul on another kernel. Each
run's four streams are shared by every lambda of a group: their draws are
made once, for the runs, and broadcast over the lambda axis, so a run at a
given lambda sees the same numbers in any group and a group equals separate
single-lambda runs bitwise. Draws are pregenerated in fixed-size step chunks
per stream, which leaves every stream's order identical to stepwise
consumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlSynthesis, control_steady_state, cost_tradeoff_curve
from .errors import DefinitenessError, DivergenceError, ModelError
from .estimation import SteadyStateFilter, kf_steady_state
from .model import PSD_EIG_FLOOR, SchedulerParams, SystemModel, psd_sqrt

DEFAULT_BURN_IN = 200
DIVERGENCE_LIMIT = 1e12
_CHUNK_STEPS = 256
# Bytes of x, u and sigma per untraced block (1-2 MiB ran fastest, 4 MiB L2)
_BLOCK_BYTES = 2 * 2**20
# Steps per TraceBlock handed to run_closed_loop_grid's on_block.
_TRACE_BLOCK_STEPS = 2048
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
class TraceBlock:
    """Steps start .. start + len(sigma) - 1 of every run of a lambda group.

    The columns of a trace CSV, time-major: sigma and tau (steps, group,
    runs), x and e_filt (steps, group, runs, n), u (steps, group, runs, m).
    """

    start: int
    sigma: np.ndarray
    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray
    e_filt: np.ndarray


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


def _spawn_run_streams(seed: int, runs: range):
    """Generator quadruples (w, v, init, trigger) for each run index in runs."""
    quads = []
    for r in runs:
        child = np.random.SeedSequence(seed, spawn_key=(r,))
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


def _quad(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x'Mx over the last axis, sum_i sum_j (x_i M_ij) x_j in (i, j) order:
    the bits of np.einsum("...i,ij,...j->...", x, M, x), except that numpy
    sums n = 2 pairwise over at most two rows. So no cost bit depends on width.
    """
    n = len(M)
    return sum((x[..., i] * M[i, j]) * x[..., j]
               for i in range(n) for j in range(n))


def run_closed_loop_grid(cfg: SimConfig, filt: SteadyStateFilter,
                         ctrl: ControlSynthesis, lams, runs: range | None = None,
                         on_block=None):
    """Simulate closed loops at each lambda of lams, in lockstep.

    lams replaces cfg.params.lam; every other setting comes from cfg. runs,
    a range inside range(cfg.runs) (all of it by default), selects the run
    indices; column j is run runs[j], bitwise as in the full call for
    slices of at least 2 runs (see the module notes). Each run's random
    streams are shared by all lambdas (common random numbers), so row g
    equals run_closed_loop at lams[g] bitwise. Returns (rates, costs,
    traces): (len(lams), len(runs)) arrays and, with cfg.record_trace, one
    tuple of SimulationTrace per lambda (else None). With cfg.record_trace
    and on_block, the traces are not kept: each TraceBlock of
    _TRACE_BLOCK_STEPS steps (fewer in the last) goes to on_block(block)
    once simulated, and traces is None.

    A DivergenceError names the first step whose largest |x| passes
    cfg.divergence_limit, and the run by its index in range(cfg.runs); the
    loop runs on to the end of its block, which never reaches on_block.
    """
    if ctrl.L_inf is None:
        raise ModelError("run_closed_loop needs a steady-state feedback gain")
    run_ids = range(cfg.runs) if runs is None else runs
    if (not isinstance(run_ids, range) or run_ids.step != 1 or not run_ids
            or run_ids.start < 0 or run_ids.stop > cfg.runs):
        raise ModelError(
            f"runs must be a nonempty step-1 range inside range({cfg.runs}), "
            f"got {runs!r}")
    model = cfg.model
    n, m, p = model.dims
    At, Bt, Ct = model.A.T, model.B.T, model.C.T
    Kt = filt.K_inf.T
    Lt = ctrl.L_inf.T
    timeout = cfg.params.timeout
    lams = [SchedulerParams(lam, timeout).lam for lam in lams]
    neg_lam = -np.array(lams)[:, None]
    group, runs, horizon = len(lams), len(run_ids), cfg.horizon
    burn_in = cfg.burn_in

    w_factor = _cov_factor(model.W)
    v_factor = _cov_factor(model.V)
    x0_factor = _cov_factor(model.X0)
    streams = _spawn_run_streams(cfg.seed, run_ids)

    x = np.empty((runs, n))               # broadcast over lambda in xb[0]
    for r, (_, _, init_gen, _) in enumerate(streams):
        x[r] = model.x0_mean + x0_factor @ init_gen.standard_normal(n)
    # the estimator depends on neither lambda nor the trigger: one per run
    xt_pred = x - model.x0_mean           # sensor prediction error, prior mean
    e_filt = np.zeros((group, runs, n))   # estimate gap after step -1
    tau = np.zeros((group, runs), dtype=np.int64)

    sigma_count = np.zeros((group, runs), dtype=np.int64)
    cost_sum = np.zeros((group, runs))

    record = cfg.record_trace
    stream = record and on_block is not None
    full = record and not stream
    rows = (_TRACE_BLOCK_STEPS if stream else horizon if full
            else max(1, _BLOCK_BYTES // (8 * (n + m + 1) * group * runs)))

    chunk_end = 0
    # the loop runs on to the end of a diverging block, past overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, horizon, rows):
            steps = min(rows, horizon - first)
            # x_first .. x_first+steps; untraced blocks reuse the buffers
            if record or first == 0:
                xb = np.empty((steps + 1, group, runs, n))
                ub = np.empty((steps, group, runs, m))
                sb = np.empty((steps, group, runs), dtype=bool)
            if record:
                tr_tau = np.empty((steps, group, runs), dtype=np.int64)
                tr_e = np.empty((steps, group, runs, n))
                if full:
                    tr_xf = np.empty((horizon, runs, n))
                    tr_v = np.empty((horizon, runs, p))
            xb[0] = x
            x = xb[0]
            for i, k in enumerate(range(first, first + steps)):
                if k == chunk_end:
                    span = min(_CHUNK_STEPS, horizon - k)
                    w_z = np.empty((runs, span, n))
                    v_z = np.empty((runs, span, p))
                    zeta = np.empty((span, runs))
                    for r, (w_gen, v_gen, _, trig_gen) in enumerate(streams):
                        w_z[r] = w_gen.standard_normal((span, n))
                        v_z[r] = v_gen.standard_normal((span, p))
                        zeta[:, r] = trig_gen.random(span)
                    # per-run matmuls, then time-major: (span, runs, .)
                    w_block = (w_z @ w_factor.T).transpose(1, 0, 2).copy()
                    v_block = (v_z @ v_factor.T).transpose(1, 0, 2).copy()
                    chunk_start, chunk_end = k, k + span

                # (runs, .) estimator and draws broadcast over the
                # (group, runs, .) trigger and plant state
                j = k - chunk_start
                v = v_block[j]
                w = w_block[j]
                eta = (xt_pred @ Ct + v) @ Kt
                e_gap = e_filt @ At + eta
                xt_filt = xt_pred - eta
                hold = np.exp(neg_lam * np.einsum("...i,...i->...", e_gap, e_gap))
                sigma = np.logical_or(zeta[j] > hold, tau == timeout, out=sb[i])
                tau = np.where(sigma, 0, tau + 1)
                e_filt = np.where(sigma[..., None], 0.0, e_gap)
                xhat_c = x - xt_filt - e_filt
                u = np.negative(xhat_c @ Lt, out=ub[i])
                if record:
                    tr_tau[i] = tau
                    tr_e[i] = e_filt
                    if full:
                        tr_xf[k] = xt_filt
                        tr_v[k] = v
                x = np.add(x @ At + u @ Bt, w, out=xb[i + 1])
                xt_pred = xt_filt @ At + w

            if cfg.divergence_limit is not None:
                peak = np.abs(xb[1:steps + 1])
                worst = peak.reshape(steps, -1).max(axis=1)
                crossed = np.flatnonzero(worst > cfg.divergence_limit)
                if crossed.size:
                    i = crossed[0]
                    g, r, _ = np.unravel_index(peak[i].argmax(), peak[i].shape)
                    raise DivergenceError(step=first + i + 1, run=run_ids[r],
                                          value=float(worst[i]), lam=lams[g])
            lo = max(burn_in - first, 0)  # the first row after burn-in
            sigma_count += sb[lo:steps].sum(axis=0)
            stage = _quad(xb[lo:steps], model.Q) + _quad(ub[lo:steps], model.R)
            cost_sum = np.cumsum(np.concatenate([cost_sum[None], stage]), 0)[-1]
            if stream:
                on_block(TraceBlock(first, sb.astype(np.int64), tr_tau,
                                    xb[:-1], ub, tr_e))

    window = horizon - burn_in
    rates = sigma_count / window
    costs = cost_sum / window
    traces = None
    if full:
        # the fields the loop need not carry, derived as it would have
        tr_y = xb[:-1] @ Ct + tr_v[:, None]
        tr_xs = xb[:-1] - tr_xf[:, None]
        tr_xc = tr_xs - tr_e
        traces = tuple(
            tuple(SimulationTrace(x=xb[:-1, g, r], y=tr_y[:, g, r],
                                  xhat_s=tr_xs[:, g, r], xhat_c=tr_xc[:, g, r],
                                  u=ub[:, g, r],
                                  sigma=sb[:, g, r].astype(np.int64),
                                  tau=tr_tau[:, g, r], e_filt=tr_e[:, g, r])
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
