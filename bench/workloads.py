"""The benchmark's workloads: how each one calls the wqed CLI, how many
operations one call attempts, and how its output is verified.

An operation is a cell for `simulate` and `sweep`, and a check for
`validate`.  A call whose exit code or summary line disagrees with its
per-operation lines counts every operation it did not verify as failed.
"""

from __future__ import annotations

import math
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

PI4 = math.pi / 4

# the 3x3 acceptance grid of the README and ROADMAP
GRID_GAMMAS = (0.02, 0.25, 4.0)
GRID_K0LS = (0.0, PI4, math.pi / 2)
WEAK_CELL = (0.02, PI4)
# the only affordable cell that reaches the default_grid decay cap; a
# Gamma/Delta = 0.02 near-dark cell (n ~ 1e7, ~10 GB) must never be added
DARK_CELL = (0.25, 1e-3)

CHECKS = (
    "coupling-identity", "coupling-oracle", "rwa-divergence",
    "negfreq-equivalence", "mode-oracle", "pulse-area", "resonance-dip",
    "local-consistency", "transfer-oracle", "transfer-resonance",
    "farfield-suppression", "farfield-bound", "farfield-quadrature",
    "specfun",
)

TIME_DOMAIN_CSVS = {
    "trajectory": "t,re_b1,im_b1,re_b2,im_b2",
    "incident": "tau,re,im,abs",
    "transmitted": "tau,re,im,abs",
    "reflected": "tau,re,im,abs",
}
SPECTRUM_CSVS = ("spectrum_incident", "spectrum_transmitted")
SPECTRUM_HEADER = "detuning,intensity"
SPECTRUM_WINDOW = 8.0

_CELL_LINE = re.compile(
    r"^cell(\d+) gamma_over_delta=(\S+) k0l=(\S+) model=(\S+) -> (.*)$")
_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+)\s+measured=(\S+) tol=(\S+)")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                                   # simulate | sweep | validate
    # (gamma/delta, k0l, span_factor) of every cell the call integrates;
    # the computed work counts are derived from these
    cells: tuple[tuple[float, float, float], ...]


WORKLOADS = {
    "simulate-weak": Workload("simulate-weak", "simulate",
                              ((*WEAK_CELL, 1.0),)),
    "sweep-grid": Workload("sweep-grid", "sweep",
                           tuple((g, k, 1.0) for g in GRID_GAMMAS
                                 for k in GRID_K0LS)),
    # validate integrates the 3x3 grid, then the three pi/4 cells again
    # with a doubled window (transfer-resonance)
    "validate": Workload("validate", "validate",
                         tuple((g, k, 1.0) for g in GRID_GAMMAS for k in GRID_K0LS)
                         + tuple((g, PI4, 2.0) for g in GRID_GAMMAS)),
    "dark-cell": Workload("dark-cell", "sweep", ((*DARK_CELL, 1.0),)),
}


@dataclass
class Outcome:
    """What verifying one call found."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    margins: dict[str, float] = field(default_factory=dict)
    csv_bytes: int = 0


class Inputs:
    """The inputs of one benchmark run, generated from its seed.

    The seed fixes the cell order of every sweep spec (a fresh order for
    each call, so a run's median covers several orders) and the flag order
    of `simulate`; the program only sees the generated files and arguments.
    """

    def __init__(self, workload: Workload, rng, work_dir: Path):
        self.workload = workload
        self.rng = rng
        self.work_dir = work_dir
        self.flags = []
        if workload.kind == "simulate":
            gamma, k0l, _ = workload.cells[0]
            self.flags = [["--gamma-over-delta", repr(gamma)], ["--k0l", repr(k0l)],
                          ["--out", None]]
            rng.shuffle(self.flags)

    def argv(self) -> tuple[list[str], Path | None]:
        """CLI arguments for one call, and the fresh directory it writes to."""
        if self.workload.kind == "validate":
            return ["validate"], None
        if self.workload.kind == "sweep":
            gammas = sorted({c[0] for c in self.workload.cells})
            k0ls = sorted({c[1] for c in self.workload.cells})
            self.rng.shuffle(gammas)
            self.rng.shuffle(k0ls)
            spec = self.work_dir / f"{self.workload.name}.ini"
            spec.write_text(
                "[sweep]\n"
                f"gamma_over_delta = {', '.join(map(repr, gammas))}\n"
                f"k0l = {', '.join(map(repr, k0ls))}\n"
                "models = full\n")
            return ["sweep", "--spec", str(spec)], None
        out_dir = Path(tempfile.mkdtemp(prefix="simulate-", dir=self.work_dir))
        argv = ["simulate"]
        for flag, value in self.flags:
            argv += [flag, str(out_dir) if value is None else value]
        return argv, out_dir


def verify(workload: Workload, returncode: int, stdout: str,
           out_dir: Path | None, grid_n: dict) -> Outcome:
    """Check one call's exit code, stdout and files; count failed operations."""
    if workload.kind == "validate":
        outcome = _verify_validate(stdout)
    elif workload.kind == "sweep":
        outcome = _verify_sweep(workload, stdout)
    else:
        outcome = _verify_simulate(workload, stdout, out_dir, grid_n)
    if returncode != 0:
        outcome.problems.append(f"exit code {returncode}")
    if outcome.problems and outcome.failed == 0:
        outcome.failed = outcome.attempted
    return outcome


def _verify_validate(stdout: str) -> Outcome:
    outcome = Outcome(attempted=len(CHECKS), failed=0)
    passed = set()
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if not match:
            continue
        status, name, measured, tol = match.groups()
        if status == "PASS":
            passed.add(name)
        try:
            outcome.margins[name] = float(measured) / float(tol)
        except (ValueError, ZeroDivisionError):
            outcome.margins[name] = math.nan
    missing = [name for name in CHECKS if name not in passed]
    outcome.failed = len(missing)
    if missing:
        outcome.problems.append(f"checks not passed: {', '.join(missing)}")
    total = len(CHECKS)
    if f"{total}/{total} checks passed" not in stdout.splitlines():
        outcome.problems.append(f"no '{total}/{total} checks passed' line")
    return outcome


def _verify_sweep(workload: Workload, stdout: str) -> Outcome:
    expected = {(f"{g:g}", f"{k:g}") for g, k, _ in workload.cells}
    outcome = Outcome(attempted=len(expected), failed=0)
    passed = set()
    for line in stdout.splitlines():
        match = _CELL_LINE.match(line)
        if match and match.group(4) == "full" and match.group(5) == "pass":
            passed.add((match.group(2), match.group(3)))
    missing = sorted(expected - passed)
    outcome.failed = len(missing)
    if missing:
        outcome.problems.append(f"cells not passed: {missing}")
    total = len(expected)
    if f"{total}/{total} cells passed" not in stdout.splitlines():
        outcome.problems.append(f"no '{total}/{total} cells passed' line")
    return outcome


def _verify_simulate(workload: Workload, stdout: str, out_dir: Path | None,
                     grid_n: dict) -> Outcome:
    outcome = Outcome(attempted=1, failed=0)
    summary = dict(line.split(" = ", 1) for line in stdout.splitlines()
                   if " = " in line)
    for key, want in (("ok", "true"), ("passed", "true"), ("area_check", "pass")):
        if summary.get(key) != want:
            outcome.problems.append(f"summary {key} = {summary.get(key)!r}")
    if out_dir is None or not (out_dir / "manifest.txt").is_file():
        outcome.problems.append("no manifest.txt")
    elif "all_ok = true" not in (out_dir / "manifest.txt").read_text().splitlines():
        outcome.problems.append("manifest does not record all_ok = true")
    rows = grid_n[workload.cells[0]] + 1
    for stem, header in TIME_DOMAIN_CSVS.items():
        _check_csv(outcome, out_dir, stem, header, rows)
    for stem in SPECTRUM_CSVS:
        _check_csv(outcome, out_dir, stem, SPECTRUM_HEADER, None)
    return outcome


def _check_csv(outcome: Outcome, out_dir: Path | None, stem: str, header: str,
               lines: int | None) -> None:
    """Header, line count (or spectrum window) and finite last row of one CSV."""
    path = None if out_dir is None else out_dir / f"cell000_{stem}.csv"
    if path is None or not path.is_file():
        outcome.problems.append(f"missing cell000_{stem}.csv")
        return
    outcome.csv_bytes += path.stat().st_size
    with path.open("rb") as handle:
        first = handle.readline().decode().rstrip("\n")
        count, last = 1, b""
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            count += chunk.count(b"\n")
            last = (last + chunk)[-4096:]
    tail = last.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()
    if first != header:
        outcome.problems.append(f"{path.name}: header {first!r}")
    if lines is not None and count != lines:
        outcome.problems.append(f"{path.name}: {count} lines, expected {lines}")
    try:
        values = [float(v) for v in tail.split(",")]
    except ValueError:
        values = []
    if len(values) != header.count(",") + 1 or not all(map(math.isfinite, values)):
        outcome.problems.append(f"{path.name}: bad last row {tail[:80]!r}")
    elif lines is None and (count < 2 or abs(values[0]) > SPECTRUM_WINDOW):
        outcome.problems.append(f"{path.name}: spectrum rows outside the window")
