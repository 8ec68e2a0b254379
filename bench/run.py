"""wqed benchmark: times the real CLI from outside and verifies every output.

    python3 bench/run.py --workload validate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

Run it from the repository root.  Each call is `python -m wqed.cli ...` in a
fresh interpreter with `src` on the path and WQED_THREADS unset.  With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
mean wall time and highest peak RSS of the calls, and the median time a
fresh interpreter takes to `import wqed.cli`.  With `--trace 1` it alternates
untraced calls with calls through bench/traced.py and reports the per-layer
metrics.  The last stdout line is the JSON result; lines before it, starting
with `#`, give sample counts, quartiles, the run environment and any
verification problem.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from traced import largest_prime, layer_metrics
from workloads import CHECKS, WORKLOADS, Inputs, Outcome, verify

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0     # a run must end within 180 s
SETUP_PROBES = 11
MIN_CALLS = 2


@dataclass
class Call:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Runner:
    """Starts child processes one at a time, each killed at the run deadline."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("WQED_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, args: list[str]) -> Call:
        out_path, err_path = self.work_dir / "stdout", self.work_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode,
                    out_path.read_text(errors="replace"),
                    err_path.read_text(errors="replace"))

    def cli(self, argv: list[str]) -> Call:
        return self.run(["-m", "wqed.cli", *argv])

    def traced(self, argv: list[str], spans: Path, run_id: str) -> Call:
        return self.run([str(BENCH / "traced.py"), str(spans), run_id, "--", *argv])

    def setup_probe(self) -> Call:
        return self.run(["-c", "import wqed.cli"])


def computed_counts(workload) -> tuple[dict, dict[str, float]]:
    """Grid size of every cell from the program's public functions, and the
    work counts that follow from it (computed, not measured)."""
    sys.path.insert(0, str(ROOT / "src"))
    from wqed.coupling import CouplingModel, evaluate_coupling
    from wqed.dynamics import default_grid
    from wqed.fields import DEFAULT_ZERO_PAD
    from wqed.sweep import cell_params

    grid_n = {}
    for cell in workload.cells:
        gamma, k0l, span = cell
        params = cell_params(gamma, k0l)
        m_total = evaluate_coupling(params, CouplingModel.full()).m_total
        grid_n[cell] = default_grid(params, span, m_total=m_total).n
    fft = [n * DEFAULT_ZERO_PAD for n in grid_n.values()]
    counts = {
        "computed.grid_n_sum": sum(grid_n.values()),
        "computed.grid_n_max": max(grid_n.values()),
        "computed.fft_len_max": max(fft),
        "computed.fft_len_max_prime": max(map(largest_prime, fft)),
        "computed.fft_bytes": 16 * sum(fft),
        "computed.csv_rows": (4 * sum(grid_n.values())
                              if workload.kind == "simulate" else 0),
    }
    return grid_n, counts


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "WQED_THREADS": "unset in every call (default 1)",
        "commit": commit,
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median {statistics.median(values):.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"mean {statistics.fmean(values):.6g} (n={len(values)})")


class Tally:
    """Operations attempted and failed over every call of a run."""

    def __init__(self, workload, grid_n):
        self.workload = workload
        self.grid_n = grid_n
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, call: Call, out_dir: Path | None) -> Outcome:
        outcome = verify(self.workload, call.returncode, call.stdout, out_dir,
                         self.grid_n)
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.problems:
            tail = call.stderr.strip().splitlines()[-1:]
            self.problems.append("; ".join(outcome.problems + tail))
        return outcome


def measure_end_to_end(runner, inputs, tally, rng, seconds) -> dict[str, list]:
    """Untimed warm-up import, then setup probes and CLI calls in seeded order;
    calls continue while the next one is expected to fit in `seconds`."""
    if runner.setup_probe().returncode != 0:
        tally.problems.append("import wqed.cli failed")
    samples = {"wall_s": [], "peak_rss_mb": [], "setup_s": []}
    schedule = ["probe"] * SETUP_PROBES + ["call"] * MIN_CALLS
    rng.shuffle(schedule)
    start = time.monotonic()

    def call():
        argv, out_dir = inputs.argv()
        result = runner.cli(argv)
        tally.check(result, out_dir)
        samples["wall_s"].append(result.wall_s)
        samples["peak_rss_mb"].append(result.peak_rss_mb)

    for item in schedule:
        if item == "call":
            call()
        else:
            probe = runner.setup_probe()
            if probe.returncode != 0:
                tally.problems.append("import wqed.cli failed")
            samples["setup_s"].append(probe.wall_s)
    while True:
        expected = statistics.median(samples["wall_s"])
        if (time.monotonic() - start + expected > seconds
                or runner.remaining() < 2 * expected):
            return samples
        call()


def measure_layers(runner, inputs, tally, rng, seconds, workload, seed) -> dict:
    """Pairs of an untraced and a traced call, in seeded order, while the next
    pair is expected to fit in `seconds`; per-layer medians over the traced
    calls."""
    spans_path = WORK / f"spans-{workload.name}.json"
    traced_first = rng.random() < 0.5
    walls = {False: [], True: []}
    per_call: list[dict] = []
    margins: dict[str, float] = {}
    csv_bytes = 0
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        for traced in (traced_first, not traced_first):
            argv, out_dir = inputs.argv()
            if traced:
                run_id = f"{workload.name}-{seed}-{len(per_call)}"
                spans_path.unlink(missing_ok=True)
                result = runner.traced(argv, spans_path, run_id)
            else:
                result = runner.cli(argv)
            outcome = tally.check(result, out_dir)
            walls[traced].append(result.wall_s)
            if traced and spans_path.is_file():
                spans = json.loads(spans_path.read_text())["spans"]
                per_call.append(layer_metrics(spans, CHECKS))
                margins, csv_bytes = outcome.margins, outcome.csv_bytes
            elif traced:
                tally.problems.append("traced call wrote no spans")
        traced_first = not traced_first
        pair = time.monotonic() - pair_start
        if (time.monotonic() - start + pair > seconds
                or runner.remaining() < 2 * pair):
            break
    per_call = per_call or [layer_metrics([], CHECKS)]
    # median_low keeps each value one that was measured, and counts integral
    metrics = {key: statistics.median_low(m[key] for m in per_call) for key in per_call[0]}
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    for check in CHECKS:
        metrics[f"cli.validate.{check}.margin"] = margins.get(check, 0.0)
    metrics["computed.csv_bytes"] = csv_bytes
    print(f"# traced calls: {len(per_call)}; wall_s traced "
          f"{quartiles(walls[True])}; untraced {quartiles(walls[False])}")
    return metrics


def self_check(runner: Runner) -> int:
    """A known-bad run must be counted as failed, not as a fast success."""
    workload = WORKLOADS["validate"]
    call = runner.cli(["validate", "--mutate-coupling-sign"])
    outcome = verify(workload, call.returncode, call.stdout, None, {})
    print(f"# validate --mutate-coupling-sign: exit {call.returncode}, "
          f"{outcome.failed}/{outcome.attempted} checks counted as failed "
          f"in {call.wall_s:.1f} s; {'; '.join(outcome.problems)}")
    if call.returncode != 0 and outcome.failed >= 1:
        print("self-check passed: the mutated run is counted as failed")
        return 0
    print("self-check FAILED: the mutated run was not counted as failed")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check that a known-bad validate run counts as failed")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    config_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wqed" / "cli.py").is_file() or not config_path.is_file():
        print("error: run from a checkout that holds src/wqed and BENCHMARK.json",
              file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(work_dir)
        if args.self_check:
            return self_check(runner)
        workload = WORKLOADS[args.workload]
        rng = random.Random(args.seed)
        grid_n, counts = computed_counts(workload)
        inputs = Inputs(workload, rng, work_dir)
        tally = Tally(workload, grid_n)
        if args.trace:
            values = measure_layers(runner, inputs, tally, rng, args.seconds,
                                    workload, args.seed)
            values.update(counts)
            values["fail_ratio"] = tally.failed / tally.attempted
            wanted = config["per_layer"]
        else:
            samples = measure_end_to_end(runner, inputs, tally, rng, args.seconds)
            for name, series in samples.items():
                print(f"# {name}: {quartiles(series)}: "
                      + " ".join(f"{value:.4f}" for value in series))
            values = {
                # with 2-10 calls a run, their mean spreads less from run to
                # run than their median (bench/README.md)
                "wall_s": statistics.fmean(samples["wall_s"]),
                # a sweep's peak depends on its cell order; the run's highest
                # peak is the memory a user must have
                "peak_rss_mb": max(samples["peak_rss_mb"]),
                "setup_s": statistics.median(samples["setup_s"]),
            }
            wanted = config["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}; "
          f"grid n per cell {sorted(grid_n.values())}")
    print(f"# environment: {json.dumps(environment())}")
    for problem in tally.problems:
        print(f"# problem: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": tally.failed == 0 and not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
