"""Run the etlqg CLI in-process with a span around each layer's entry points.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...   (with src/ on PYTHONPATH)

Each entry point is replaced at the name its caller looks it up by, so the
package itself is untouched: `etlqg.cli.*` for what `main` and `_run_sweep`
call, and `etlqg.control.*` for the per-lambda analysis that
`cost_tradeoff_curve` calls. A span records name, start, end, parent index
and a few counts read from the call; spans stay in memory and are written to
SPANS_JSON, with the CLI's exit code, after `main` returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import etlqg.cli as cli
import etlqg.control as control


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str, counts=None):
        """Replace module.attr by a traced call; counts(args, result) -> dict."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        setattr(module, attr, traced)


def _solver_counts(args, result) -> dict:
    return {"iterations": result.iterations, "residual": result.residual}


def install(tracer: Tracer) -> None:
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "validate_model", "model.validate_model")
    tracer.wrap(cli, "kf_steady_state", "estimation.kf_steady_state",
                _solver_counts)
    tracer.wrap(cli, "control_steady_state", "control.control_steady_state",
                _solver_counts)
    tracer.wrap(cli, "cost_tradeoff_curve", "control.cost_tradeoff_curve",
                lambda args, res: {"points": len(res)})
    tracer.wrap(control, "transition_matrix", "analysis.transition_matrix")
    tracer.wrap(control, "conditional_error_cov", "analysis.conditional_error_cov")
    tracer.wrap(control, "infinite_horizon_cost", "control.infinite_horizon_cost")
    tracer.wrap(cli, "analysis_record", "analysis.analysis_record")
    tracer.wrap(cli, "run_closed_loop", "simulation.run_closed_loop",
                lambda args, res: {"run_steps": args[0].runs * args[0].horizon})
    tracer.wrap(cli, "aggregate_runs", "simulation.aggregate_runs")
    tracer.wrap(cli, "_trace_csv", "cli.trace_csv",
                lambda args, res: {"rows": int(args[0].sigma.shape[0])})
    tracer.wrap(cli, "_write_atomic", "cli.write_atomic",
                lambda args, res: {"bytes": os.stat(args[0]).st_size})


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
