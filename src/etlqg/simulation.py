"""Seeded closed-loop Monte Carlo engine for the event-triggered loop.

The engine propagates the loop in error coordinates: alongside the true
state it tracks the sensor-side prediction error and the sensor/controller
estimate gap directly. The transmission decisions depend only on those error
coordinates and the trigger uniforms, never on the state or input, so the
sigma sequence is bitwise independent of the control law. The plant state is
still simulated exactly (x' = Ax + Bu + w) for cost evaluation.

A lambda grid runs in lockstep through one step loop: the trigger and plant
state carry a leading lambda axis, shape (lambdas, runs, n), and lambda enters
only through the hold probability exp(-lambda * |e|^2). The estimator (the
prediction error, its correction eta and the filtered error) depends on
neither lambda nor the trigger, so it is carried once per run, (runs, n),
and broadcast like the draws. A step runs only the estimator, trigger and
plant recurrences, writing x, u and sigma into time-major block buffers,
(steps, lambdas, runs, .); the divergence guard, the transmission count and
the stage cost are reduced once per block, the cost in step order from the
running sum, so it has the bits of a per-step sum. Only given an on_block
hook, the loop runs in blocks of _TRACE_BLOCK_STEPS steps and also records
tau and e_filt per step: each block's buffers are a TraceBlock, the columns
of a trace CSV, handed to on_block.

RNG layout: run r's seed is SeedSequence(seed, spawn_key=(r,)), the r-th
child that SeedSequence(seed).spawn would give; each run spawns four
generators in a fixed order (process noise, measurement noise, initial
state, trigger uniforms). A run's streams depend on its index alone, so a
slice of runs simulated on its own equals the same columns of the full run
bitwise, and slices may run in separate processes; that holds for slices of
at least 2 runs, as numpy rounds a one-row matmul on another kernel. Each
run's four streams are shared by every lambda of a grid: their draws are
made once, for the runs, and broadcast over the lambda axis, so a run at a
given lambda sees the same numbers in any grid and a grid equals separate
single-lambda runs bitwise. Draws are pregenerated in fixed-size step chunks
per stream, which leaves every stream's order identical to stepwise
consumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlSynthesis
from .errors import DivergenceError, ModelError
from .estimation import SteadyStateFilter
from .model import SystemModel, psd_sqrt, scheduler_lambdas

DEFAULT_BURN_IN = 200
DIVERGENCE_LIMIT = 1e12
_CHUNK_STEPS = 256
# Bytes of x, u and sigma per untraced block (1-2 MiB ran fastest, 4 MiB L2)
_BLOCK_BYTES = 2 * 2**20
# Steps per TraceBlock handed to run_closed_loop_grid's on_block.
_TRACE_BLOCK_STEPS = 2048
# Bytes of one TraceBlock, which the CLI cuts a traced sweep's runs to fit
# (see trace_chunk_runs).
TRACE_BUDGET_BYTES = 32 * 2**20


@dataclass(frozen=True)
class SimConfig:
    model: SystemModel
    timeout: int
    horizon: int
    runs: int
    seed: int
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        for name in ("timeout", "horizon", "runs", "seed", "burn_in"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            if name in ("timeout", "horizon", "runs") and value < 1:
                raise ModelError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ModelError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.burn_in < self.horizon:
            raise ModelError(
                f"burn_in must lie in [0, horizon), got {self.burn_in}")


@dataclass(frozen=True)
class TraceBlock:
    """Steps start .. start + len(sigma) - 1 of every run and lambda of a grid.

    The columns of a trace CSV, time-major: the transmission indicator sigma
    and the counter tau (steps, lambdas, runs), the state x and the estimate
    gap e_filt (steps, lambdas, runs, n), the input u
    (steps, lambdas, runs, m).
    """

    start: int
    sigma: np.ndarray
    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray
    e_filt: np.ndarray

    def per_run(self) -> tuple:
        """Each run as a TraceBlock of views, one tuple of runs per lambda:
        sigma and tau (steps,), x and e_filt (steps, n), u (steps, m)."""
        _, group, runs = self.sigma.shape
        return tuple(tuple(TraceBlock(self.start, self.sigma[:, g, r],
                                      self.tau[:, g, r], self.x[:, g, r],
                                      self.u[:, g, r], self.e_filt[:, g, r])
                           for r in range(runs))
                     for g in range(group))


def _spawn_run_streams(seed: int, runs: range):
    """Generator quadruples (w, v, init, trigger) for each run index in runs."""
    quads = []
    for r in runs:
        child = np.random.SeedSequence(seed, spawn_key=(r,))
        w_ss, v_ss, init_ss, trig_ss = child.spawn(4)
        quads.append((np.random.default_rng(w_ss), np.random.default_rng(v_ss),
                      np.random.default_rng(init_ss), np.random.default_rng(trig_ss)))
    return quads


def trace_chunk_runs(cfg: SimConfig, lams: int) -> int:
    """Runs whose TraceBlock at lams lambdas fits TRACE_BUDGET_BYTES (0 if
    not one run's does): per run-step and lambda a block holds
    8 * (2n + m + 2) bytes and the bool its sigma is cast from."""
    n, m, _ = cfg.model.dims
    steps = min(cfg.horizon, _TRACE_BLOCK_STEPS)
    return TRACE_BUDGET_BYTES // (lams * steps * (8 * (2 * n + m + 2) + 1))


def run_closed_loop(cfg: SimConfig, filt: SteadyStateFilter,
                    ctrl: ControlSynthesis, lam: float, on_block=None):
    """Simulate cfg.runs independent closed loops at lam.

    Returns (rates, costs): per-run empirical transmission rate and
    running-average stage cost over the post-burn-in window. on_block, if
    given, receives the TraceBlocks of run_closed_loop_grid.
    """
    rates, costs = run_closed_loop_grid(cfg, filt, ctrl, [lam],
                                        on_block=on_block)
    return rates[0], costs[0]


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

    runs, a range inside range(cfg.runs) (all of it by default), selects the
    run indices; column j is run runs[j], bitwise as in the full call for
    slices of at least 2 runs (see the module notes). Each run's random
    streams are shared by all lambdas (common random numbers), so row g
    equals run_closed_loop at lams[g] bitwise. Returns (rates, costs), two
    (len(lams), len(runs)) arrays. With on_block, each TraceBlock of
    _TRACE_BLOCK_STEPS steps (fewer in the last) goes to on_block(block)
    once simulated.

    A DivergenceError names the first step whose largest |x| passes
    DIVERGENCE_LIMIT, and the run by its index in range(cfg.runs); the
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
    timeout = cfg.timeout
    lams = scheduler_lambdas(lams, timeout)
    neg_lam = -np.array(lams)[:, None]
    group, runs, horizon = len(lams), len(run_ids), cfg.horizon
    burn_in = cfg.burn_in

    w_factor = psd_sqrt(model.W)
    v_factor = psd_sqrt(model.V)
    x0_factor = psd_sqrt(model.X0)
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

    record = on_block is not None
    rows = (_TRACE_BLOCK_STEPS if record
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
                # (lambdas, runs, .) trigger and plant state
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
                # the controller's estimate is x - xt_filt - e_filt
                u = np.negative((x - xt_filt - e_filt) @ Lt, out=ub[i])
                if record:
                    tr_tau[i] = tau
                    tr_e[i] = e_filt
                x = np.add(x @ At + u @ Bt, w, out=xb[i + 1])
                xt_pred = xt_filt @ At + w

            peak = np.abs(xb[1:steps + 1])
            worst = peak.reshape(steps, -1).max(axis=1)
            crossed = np.flatnonzero(worst > DIVERGENCE_LIMIT)
            if crossed.size:
                i = crossed[0]
                g, r, _ = np.unravel_index(peak[i].argmax(), peak[i].shape)
                raise DivergenceError(step=int(first + i + 1), run=run_ids[r],
                                      value=float(worst[i]), lam=lams[g])
            lo = max(burn_in - first, 0)  # the first row after burn-in
            sigma_count += sb[lo:steps].sum(axis=0)
            stage = _quad(xb[lo:steps], model.Q) + _quad(ub[lo:steps], model.R)
            cost_sum = np.cumsum(np.concatenate([cost_sum[None], stage]), 0)[-1]
            if record:
                on_block(TraceBlock(first, sb.astype(np.int64), tr_tau,
                                    xb[:-1], ub, tr_e))

    window = horizon - burn_in
    return sigma_count / window, cost_sum / window


def aggregate_runs(values: np.ndarray):
    """Mean and across-run standard error; stderr is None for a single run."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, None
    stderr = float(values.std(ddof=1) / np.sqrt(values.size))
    return mean, stderr
