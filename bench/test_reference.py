"""The 50-digit reference reproduces the suite's pins and a second route.

Run with: PYTHONPATH=src python -m pytest -q bench/test_reference.py
"""

import importlib.util
from pathlib import Path

import pytest
import yaml

import reference as refmod

ROOT = Path(__file__).resolve().parent.parent
ONE = [[1.0]]
GOLDEN_MODEL = {k: ONE for k in ("A", "B", "C", "W", "V", "Q", "R", "X0")}


def _pins():
    spec = importlib.util.spec_from_file_location(
        "_suite_pins", ROOT / "tests" / "conftest.py")
    pins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pins)
    return pins


def _bundled_model() -> dict:
    path = ROOT / "src" / "etlqg" / "data" / "default_config.yaml"
    return yaml.safe_load(path.read_text())["model"]


@pytest.fixture(scope="module")
def pins():
    return _pins()


@pytest.fixture(scope="module")
def bundled():
    return refmod.build(_bundled_model())


def test_golden_scalar_chain(pins):
    ref = refmod.build(GOLDEN_MODEL)
    p, sigmas = refmod.chain(ref, 0.5, 2)
    rate, _ = refmod.rate_and_cost(ref, p, sigmas)
    assert float(p[0]) == pytest.approx(pins.GOLDEN_P00, abs=1e-15)
    assert float(p[1]) == pytest.approx(pins.GOLDEN_P10, abs=1e-15)
    assert float(rate) == pytest.approx(pins.GOLDEN_RATE_T2, abs=1e-15)


def test_bundled_cost_pin(pins, bundled):
    p, sigmas = refmod.chain(bundled, 1.0, pins.BENCH_TIMEOUT)
    _, cost = refmod.rate_and_cost(bundled, p, sigmas)
    assert float(cost) == pytest.approx(pins.BENCH_J_LAM1, abs=5e-7)


def test_bundled_fixed_points_match_frozen_solutions(pins, bundled):
    for mine, frozen in ((bundled.Pi_eta, pins.BENCH_PI_ETA),
                         (bundled.F, pins.BENCH_F_INF),
                         (bundled.S, pins.BENCH_S_INF),
                         (bundled.M, pins.BENCH_M_INF)):
        got = [float(mine[i, j]) for i in range(2) for j in range(2)]
        assert got == pytest.approx(frozen.ravel().tolist(), rel=1e-12)


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("timeout", [1, 4, 8])
def test_recursion_matches_nested_determinants(bundled, lam, timeout):
    p, _ = refmod.chain(bundled, lam, timeout)
    nested = refmod.nested_p_i0(bundled, lam, timeout)
    assert len(nested) == timeout
    for i, expect in enumerate(nested):
        assert abs(p[i] - expect) < refmod.mp.mpf(10) ** -40
