"""Run one wqed CLI command in-process with a span around every call into
each module's public functions, then write the spans out.

    PYTHONPATH=src python3 bench/traced.py SPANS.json RUN_ID -- validate

The spans are recorded by wrapping functions at the module attributes their
callers resolve (`wqed.sweep.spectrum`, `wqed.cli.integrate_markovian`, the
entries of `wqed.cli.VALIDATION_CHECKS`, ...); nothing under `src/` changes.
A span is (name, start, end, parent index, thread id, count), kept in memory
and written as JSON when the command returns.  `layer_metrics` reduces the
spans of one run to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time

# (module, function, span name, count taken from the result)
TARGETS = (
    ("wqed.coupling", "evaluate_coupling", "coupling.evaluate_coupling", None),
    ("wqed.coupling", "coupling_oracle", "coupling.coupling_oracle", None),
    ("wqed.specfun", "si", "specfun.si_ci", None),
    ("wqed.specfun", "ci", "specfun.si_ci", None),
    ("wqed.dynamics", "default_grid", "dynamics.default_grid", lambda r: r.n),
    ("wqed.dynamics", "build_source", "dynamics.build_source", None),
    ("wqed.dynamics", "integrate_markovian", "dynamics.integrate_markovian",
     lambda r: r.grid.n - 1),
    ("wqed.dynamics", "oracle_modes", "dynamics.oracle_modes", None),
    ("wqed.fields", "reconstruct_fields", "fields.reconstruct_fields", None),
    ("wqed.fields", "spectrum", "fields.spectrum", lambda r: r.detuning.size),
    ("wqed.fields", "transfer_oracle", "fields.transfer_oracle", None),
    ("wqed.fields", "dip_width", "fields.dip_width", None),
    ("wqed.fields", "consistency_residuals", "fields.consistency_residuals", None),
    ("wqed.farfield", "i2_ratio", "farfield.i2_ratio", None),
    ("wqed.farfield", "i3_bound", "farfield.i3_bound", None),
    ("wqed.sweep", "run_cell", "sweep.run_cell", None),
    ("wqed.sweep", "write_trajectory_csv", "sweep.write", os.path.getsize),
    ("wqed.sweep", "write_envelope_csv", "sweep.write", os.path.getsize),
    ("wqed.sweep", "write_spectrum_csv", "sweep.write", os.path.getsize),
    ("wqed.sweep", "write_manifest", "sweep.write_manifest", None),
    ("wqed.serialize", "config_text", "serialize.config_text", None),
)

# spans whose summed duration is reported as `<name>.s`
TIMED = sorted({name for _, _, name, _ in TARGETS} - {"sweep.run_cell"})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def record(self, name, start, end, parent=-1, count=None) -> int:
        with self._lock:
            self.spans.append([name, start, end, parent, threading.get_ident(), count])
            return len(self.spans) - 1

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = self.record(name, None, None, stack[-1] if stack else -1)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index][1:3] = [start, end]
            if count is not None:
                self.spans[index][5] = count(result)
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Replace every wqed module attribute bound to a target by its wrapper."""
    modules = [m for n, m in sys.modules.items() if n == "wqed" or n.startswith("wqed.")]
    for module_name, attr, span, count in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    checks = sys.modules["wqed.cli"].VALIDATION_CHECKS
    for name, check in checks.items():
        checks[name] = tracer.wrap(f"cli.validate.{name}", check)


def largest_prime(n: int) -> int:
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n) if n > 1 else largest


def layer_metrics(spans: list, checks) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer the run never called
    reports 0.  A span nested in a span of the same name is not counted
    twice."""
    by_name: dict[str, list] = {}
    for span in spans:
        name, parent = span[0], span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            by_name.setdefault(name, []).append(span)

    def seconds(name):
        return sum(s[2] - s[1] for s in by_name.get(name, ()))

    def counts(name):
        return [s[5] for s in by_name.get(name, ()) if s[5] is not None]

    out = {f"{name}.s": seconds(name) for name in TIMED}
    fft = counts("fields.spectrum")
    out["fields.spectrum.calls"] = len(by_name.get("fields.spectrum", ()))
    out["fields.spectrum.fft_len"] = max(fft, default=0)
    out["fields.spectrum.fft_len_max_prime"] = max(map(largest_prime, fft), default=0)
    grids = counts("dynamics.default_grid")
    out["dynamics.default_grid.n_max"] = max(grids, default=0)
    out["dynamics.default_grid.n_sum"] = sum(grids)
    busy = seconds("dynamics.integrate_markovian")
    out["dynamics.integrate_markovian.steps_per_s"] = (
        sum(counts("dynamics.integrate_markovian")) / busy if busy else 0.0)
    written, busy = sum(counts("sweep.write")), seconds("sweep.write")
    out["sweep.write.bytes"] = written
    out["sweep.write.mb_per_s"] = written / 1e6 / busy if busy else 0.0
    cells = by_name.get("sweep.run_cell", [])
    durations = [s[2] - s[1] for s in cells]
    out["sweep.run_cell.p50_s"] = statistics.median(durations) if durations else 0.0
    out["sweep.run_cell.max_s"] = max(durations, default=0.0)
    out["sweep.run_cell.calls"] = len(cells)
    # threads that ran a cell: the pool's effective width
    out["sweep.run_sweep.workers"] = len({s[4] for s in cells})
    out["coupling.coupling_oracle.calls"] = len(by_name.get("coupling.coupling_oracle", ()))
    for check in checks:
        out[f"cli.validate.{check}.s"] = seconds(f"cli.validate.{check}")
    out["cli.import.s"] = seconds("cli.import")
    return out


def main(argv: list[str]) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced.py SPANS.json RUN_ID -- <wqed args>")
    tracer = Tracer()
    start = time.perf_counter()
    import wqed.cli
    tracer.record("cli.import", start, time.perf_counter())
    install(tracer)
    try:
        return wqed.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as handle:
            json.dump({"run_id": run_id, "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
