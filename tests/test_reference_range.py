"""The analytic pipeline against the independent 50-digit reference.

`bench/reference.py` recomputes the filter and control fixed points, the
conditioning recursion, the rate and the long-run cost in mpmath from the
model matrices alone. `cost_tradeoff_curve` must agree with it over the
documented lambda range, 1e-6 to LAMBDA_MAX, on the unstable bundled plant
and the scalar golden model (each at T = 50 and T = 1000) and four random
models (at T = 50).

Bounds: 2e-12 relative on the rate and the total cost, 5e-12 absolute on
every p_i0 and 2e-12 absolute on every entry of pi, against the
normalized survivor weights of the reference's p_i0. The worst errors seen
were 4.2e-13 on the rate and the cost, 7.3e-13 on p_i0 and 4.2e-13 on pi,
all on the random models. Scaling Pi_eta by 1 + 1e-10 moves the bundled
rate by 1e-11 to 2e-11 at lambda <= 1, past the rate bound, and pi by
3.6e-12 to 1.6e-11 at lambda = 1 in every case, past the pi bound.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from etlqg import cost_tradeoff_curve
from etlqg.analysis import LAMBDA_MAX

from conftest import (make_benchmark_model, make_golden_model,
                      random_valid_model)

RATE_COST_RTOL = 2e-12
P_I0_ATOL = 5e-12
PI_ATOL = 2e-12
LAMS = [1e-6, 1.0, 1e6, LAMBDA_MAX]


def _load_reference():
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("_mp_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def _reference_pi(p):
    """The reference's stationary distribution: the survivor weights of its
    p_i0, normalized, at 50 digits."""
    weights = [reference.mp.mpf(1)]
    for p_i0 in p[:-1]:
        weights.append(weights[-1] * (1 - p_i0))
    total = reference.mp.fsum(weights)
    return [float(w / total) for w in weights]


def _cases():
    rng = np.random.default_rng(7)
    return ([pytest.param(make_benchmark_model(), 50, id="bundled-T50"),
             pytest.param(make_benchmark_model(), 1000, id="bundled-T1000"),
             pytest.param(make_golden_model(), 50, id="golden-T50"),
             pytest.param(make_golden_model(), 1000, id="golden-T1000")]
            + [pytest.param(random_valid_model(rng, n_max=4), 50,
                            id=f"random{i}-T50") for i in range(4)])


@pytest.mark.parametrize("model,timeout", _cases())
def test_pipeline_matches_reference(model, timeout):
    ref = reference.build({k: getattr(model, k).tolist()
                           for k in ("A", "B", "C", "W", "V", "Q", "R", "X0")})
    for ma, bd in cost_tradeoff_curve(model, LAMS, timeout):
        p, sigmas = reference.chain(ref, ma.lam, timeout)
        rate, cost = reference.rate_and_cost(ref, p, sigmas)
        np.testing.assert_allclose(ma.p_i0, [float(v) for v in p],
                                   rtol=0, atol=P_I0_ATOL,
                                   err_msg=f"p_i0 at lambda={ma.lam!r}")
        np.testing.assert_allclose(ma.pi, _reference_pi(p), rtol=0,
                                   atol=PI_ATOL,
                                   err_msg=f"pi at lambda={ma.lam!r}")
        assert ma.rate == pytest.approx(float(rate), rel=RATE_COST_RTOL, abs=0)
        assert bd.total == pytest.approx(float(cost), rel=RATE_COST_RTOL,
                                         abs=0)
