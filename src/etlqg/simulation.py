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
plant recurrences, writing x, e_filt, tau, u and sigma once, traced or not,
into its block's time-major record, (steps, lambdas, runs, .), whose row 0 of
x, e_filt and tau is carried over from the last block. The divergence guard,
the transmission count and the stage cost are reduced once per block, the
cost in step order from the running sum, so it has the bits of a per-step
sum. Untraced blocks reuse one record of about _BLOCK_BYTES; on_block gets
each fresh record of TRACE_BLOCK_STEPS steps as a TraceBlock of its own
arrays, uncopied (sigma stays bool), so step_bytes is a TraceBlock's size.

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
single-lambda runs bitwise. Draws come in whole _CHUNK_STEPS-step chunks per
stream, in stepwise order, the last too: a run's numbers never depend on
its horizon.
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
# Bytes of an untraced block (1-2 MiB ran fastest, 4 MiB L2)
_BLOCK_BYTES = 2 * 2**20
# Steps per TraceBlock handed to run_closed_loop's on_block.
TRACE_BLOCK_STEPS = 2048


def step_bytes(model: SystemModel) -> int:
    """A block's bytes per lambda-run-step: float64 x, e_filt (n each) and u
    (m), int64 tau and bool sigma; a TraceBlock's too, being the block's."""
    return 8 * (2 * model.dims[0] + model.dims[1] + 1) + 1


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
    (bool) and the counter tau (steps, lambdas, runs), the state x and the
    estimate gap e_filt (steps, lambdas, runs, n), the input u (steps,
    lambdas, runs, m); x as each step finds it, the rest as it leaves them.
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


def _quad(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x'Mx over the last axis, sum_i sum_j (x_i M_ij) x_j in (i, j) order:
    the bits of np.einsum("...i,ij,...j->...", x, M, x), except that numpy
    sums n = 2 pairwise over at most two rows. So no cost bit depends on width.
    """
    n = len(M)
    return sum((x[..., i] * M[i, j]) * x[..., j]
               for i in range(n) for j in range(n))


def run_closed_loop(cfg: SimConfig, filt: SteadyStateFilter,
                    ctrl: ControlSynthesis, lams, runs: range | None = None,
                    on_block=None):
    """Simulate closed loops at each lambda of lams, in lockstep.

    runs, a range inside range(cfg.runs) (all of it by default), selects the
    run indices; column j is run runs[j], bitwise as in the full call for
    slices of at least 2 runs (see the module notes). Each run's random
    streams are shared by all lambdas (common random numbers), so row g
    equals the one-lambda grid [lams[g]] bitwise. Returns (rates, costs), two
    (len(lams), len(runs)) arrays: each run's empirical transmission rate
    and average stage cost over the post-burn-in window. With on_block, each
    block of TRACE_BLOCK_STEPS steps (fewer in the last) goes to on_block
    once simulated, as a TraceBlock of views of its fresh record.

    A DivergenceError names the first step whose largest |x| passes
    DIVERGENCE_LIMIT, and the run by its index in range(cfg.runs); the
    loop runs on to the end of its block, which never reaches on_block.
    """
    run_ids = range(cfg.runs) if runs is None else runs
    if (not isinstance(run_ids, range) or run_ids.step != 1 or not run_ids
            or run_ids.start < 0 or run_ids.stop > cfg.runs):
        raise ModelError(
            f"runs must be a nonempty step-1 range inside range({cfg.runs}), "
            f"got {runs!r}")
    model = cfg.model
    n, m, p = model.dims
    At, Bt, Ct = model.A.T, model.B.T, model.C.T
    Kt, Lt = filt.K_inf.T, ctrl.L_inf.T
    timeout = cfg.timeout
    lams = scheduler_lambdas(lams, timeout)
    neg_lam = -np.array(lams)[:, None]
    group, runs, horizon = len(lams), len(run_ids), cfg.horizon
    burn_in = cfg.burn_in

    w_factor, v_factor, x0_factor = map(psd_sqrt, (model.W, model.V, model.X0))
    streams = _spawn_run_streams(cfg.seed, run_ids)

    x = np.empty((runs, n))               # broadcast over lambda in xb[0]
    for r, (_, _, init_gen, _) in enumerate(streams):
        x[r] = model.x0_mean + x0_factor @ init_gen.standard_normal(n)
    # the estimator depends on neither lambda nor the trigger: one per run
    xt_pred = x - model.x0_mean           # sensor prediction error, prior mean

    sigma_count = np.zeros((group, runs), dtype=np.int64)
    cost_sum = np.zeros((group, runs))

    rows = (TRACE_BLOCK_STEPS if on_block is not None else max(
        1, _BLOCK_BYTES // (step_bytes(model) * group * runs)))

    # the loop runs on to the end of a diverging block, past overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, horizon, rows):
            steps = min(rows, horizon - first)
            # step first + i reads x, e_filt and tau from row i, writes row
            # i + 1; row 0 is the last block's last row (x_0, zeros at first)
            last = (x, 0.0, 0) if first == 0 else (xb[-1], eb[-1], tb[-1])
            if on_block is not None or first == 0:  # untraced, reused after
                xb = np.empty((steps + 1, group, runs, n))
                eb = np.empty((steps + 1, group, runs, n))
                tb = np.empty((steps + 1, group, runs), dtype=np.int64)
                ub = np.empty((steps, group, runs, m))
                sb = np.empty((steps, group, runs), dtype=bool)
            xb[0], eb[0], tb[0] = last
            for i, k in enumerate(range(first, first + steps)):
                j = k % _CHUNK_STEPS
                if j == 0:  # a whole chunk, even past the horizon
                    w_z = np.empty((runs, _CHUNK_STEPS, n))
                    v_z = np.empty((runs, _CHUNK_STEPS, p))
                    zeta = np.empty((_CHUNK_STEPS, runs))
                    for r, (w_gen, v_gen, _, trig_gen) in enumerate(streams):
                        w_z[r] = w_gen.standard_normal((_CHUNK_STEPS, n))
                        v_z[r] = v_gen.standard_normal((_CHUNK_STEPS, p))
                        zeta[:, r] = trig_gen.random(_CHUNK_STEPS)
                    # per-run matmuls, then time-major: (chunk, runs, .)
                    w_block = (w_z @ w_factor.T).transpose(1, 0, 2).copy()
                    v_block = (v_z @ v_factor.T).transpose(1, 0, 2).copy()

                # (runs, .) estimator and draws broadcast over the
                # (lambdas, runs, .) trigger and plant state
                v, w = v_block[j], w_block[j]
                eta = (xt_pred @ Ct + v) @ Kt
                e_gap = np.add(eb[i] @ At, eta, out=eb[i + 1])
                xt_filt = xt_pred - eta
                hold = np.exp(neg_lam * np.einsum("...i,...i->...", e_gap, e_gap))
                sigma = np.logical_or(zeta[j] > hold, tb[i] == timeout, sb[i])
                np.add(tb[i], 1, out=tb[i + 1])
                np.copyto(tb[i + 1], 0, where=sigma)
                np.copyto(e_gap, 0.0, where=sigma[..., None])  # now e_filt
                # the controller's estimate is x - xt_filt - e_filt
                u = np.negative((xb[i] - xt_filt - e_gap) @ Lt, out=ub[i])
                np.add(xb[i] @ At + u @ Bt, w, out=xb[i + 1])
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
            for row in stage:  # in step order, whatever the grid's width
                cost_sum += row
            if on_block is not None:
                on_block(TraceBlock(first, sb, tb[1:], xb[:-1], ub, eb[1:]))

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
