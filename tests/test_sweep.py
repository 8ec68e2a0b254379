"""Sweep-layer tests: grid execution, manifest records, artifact files,
and the coupling-model comparison table."""

import cmath
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import read_csv, run_config_from_text, spec_text
import wqed.sweep
from wqed.coupling import CouplingModel, CouplingRow, compare_couplings, evaluate_coupling
from wqed.dynamics import build_source, default_grid, integrate_markovian, step_limit
from wqed.errors import ConfigurationError, DomainError
from wqed.fields import SPECTRUM_WINDOW, reconstruct_fields
from wqed.serialize import read_config
from wqed.sweep import (
    AREA_FAIL,
    AREA_PASS,
    AREA_SKIPPED,
    AREA_TRUNCATED,
    MANIFEST_VERSION,
    CellResult,
    SweepSpec,
    area_verdict,
    cell_params,
    model_from_label,
    run_cell,
    run_sweep,
    scatter,
)

PI4 = math.pi / 4

# the comparative triple: strong, moderate, weak coupling at k0l = pi/4
TRIPLE = (4.0, 0.25, 0.02)


def tail_area(values, dt, gap=0.0):
    """The trapezoid's continuation over a manifest tail, (re c, im c, re lam,
    im lam) per mode, from gap past the grid's end on."""
    values = [float(x) for x in str(values).split(",")] if isinstance(values, str) else values
    return sum(complex(*values[i:i + 2]) * cmath.exp(-complex(*values[i + 2:i + 4]) * gap)
               * dt * (0.5 + 1 / np.expm1(complex(*values[i + 2:i + 4]) * dt))
               for i in range(0, len(values), 4))


@pytest.fixture(scope="module")
def fig_sweep(tmp_path_factory):
    """One sweep over the comparative triple, artifacts on disk."""
    out = tmp_path_factory.mktemp("triple")
    spec = SweepSpec(gamma_over_delta=TRIPLE, k0l=(PI4,), out_dir=out)
    return out, run_sweep(spec)


class TestSweepSpec:
    """Grid validation and normalization."""

    def test_coerces_sequences_and_counts_cells(self):
        spec = SweepSpec(gamma_over_delta=[4, 1], k0l=[0.0, PI4, 1.0],
                         models=[CouplingModel.full(), CouplingModel.rwa_negfreq()])
        assert spec.gamma_over_delta == (4.0, 1.0)
        assert spec.k0l == (0.0, PI4, 1.0)
        assert spec.n_cells == 12

    def test_requires_at_least_one_value_per_axis(self):
        with pytest.raises(ConfigurationError, match="gamma_over_delta"):
            SweepSpec(gamma_over_delta=[], k0l=[PI4])
        with pytest.raises(ConfigurationError, match="k0l"):
            SweepSpec(gamma_over_delta=[1.0], k0l=[])
        with pytest.raises(ConfigurationError, match="model"):
            SweepSpec(gamma_over_delta=[1.0], k0l=[PI4], models=[])

    def test_rejects_bad_axis_values(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(gamma_over_delta=[-1.0], k0l=[PI4])
        with pytest.raises(ConfigurationError):
            SweepSpec(gamma_over_delta=[1.0], k0l=[math.nan])
        with pytest.raises(ConfigurationError):
            SweepSpec(gamma_over_delta=[1.0], k0l=[PI4], models=["full"])

    @pytest.mark.parametrize("knob", [
        {"omega0_over_gamma": 0.0},
        {"dt_factor": math.inf},
        {"dt_factor": -1.0},
        {"dt_factor": 0.0},
        {"omega0_over_gamma": math.nan},
    ])
    def test_rejects_bad_knobs(self, knob):
        with pytest.raises(ConfigurationError):
            SweepSpec(gamma_over_delta=[1.0], k0l=[PI4], **knob)


_finite = st.floats(min_value=0.0, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_model = st.one_of(
    st.sampled_from([CouplingModel.full(), CouplingModel.rwa_const_g(),
                     CouplingModel.rwa_negfreq()]),
    _positive.map(CouplingModel.rwa_cutoff))


class TestSpecRoundTrip:
    """A manifest's [sweep] block is a spec file for the same spec."""

    @given(gamma_over_delta=st.lists(_finite, min_size=1, max_size=4),
           k0l=st.lists(_finite, min_size=1, max_size=4),
           models=st.lists(_model, min_size=1, max_size=4),
           omega0_over_gamma=_positive, dt_factor=_positive)
    @settings(max_examples=200, deadline=None)
    def test_manifest_sweep_block_parses_back(self, **fields):
        spec = SweepSpec(**fields)
        assert run_config_from_text(spec_text(spec)) == spec


class TestModelLabels:
    """Surface spellings of the coupling models round-trip."""

    @pytest.mark.parametrize("model", [
        CouplingModel.full(),
        CouplingModel.rwa_cutoff(1e-6),
        CouplingModel.rwa_const_g(),
        CouplingModel.rwa_negfreq(),
    ])
    def test_label_round_trip(self, model):
        assert model_from_label(model.label) == model
        assert model.variant == model.label.partition(":")[0]

    def test_config_value_writes_a_model_as_its_label(self):
        # the model test comes before the tuple test, so a model is written
        # as its label, never as a comma list of its fields
        model = CouplingModel.rwa_cutoff(1e-7)
        assert wqed.sweep._config_value(model) == model.label

    def test_cutoff_without_epsilon_rejected(self):
        with pytest.raises(DomainError):
            model_from_label("rwa-cutoff")

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown coupling model"):
            model_from_label("rwa")
        with pytest.raises(ConfigurationError, match="epsilon"):
            model_from_label("rwa-cutoff:tiny")

    def test_internal_spellings_rejected(self):
        # a model has one spelling, the label every output writes
        for label in ("rwa_cutoff:1e-7", "rwa_const_g", "rwa_negfreq"):
            with pytest.raises(ConfigurationError, match="unknown coupling model"):
                model_from_label(label)


class TestRunSweep:
    """Per-cell pipeline execution and manifest assembly."""

    def test_comparative_triple_passes_area_checks(self, fig_sweep):
        _, manifest = fig_sweep
        assert len(manifest.cells) == 3
        assert manifest.all_ok
        for cell in manifest.cells:
            assert cell.ok and cell.error is None
            assert cell.area_check == AREA_PASS
            assert cell.area_trans_ratio <= 1e-3
            assert cell.area_refl_ratio <= 1e-3
            assert cell.markov_ok

    @pytest.mark.parametrize("k0l", [0.0, 0.3, PI4, math.pi])
    def test_budget_grid_is_every_models_grid(self, k0l):
        # run_sweep checks the budget on each model's own grid; at these
        # phases no model's |M| exceeds max(delta, gamma) = delta, so each
        # model's grid is the one of the step 1/(100 delta)
        params = cell_params(0.25, k0l)
        budget_grid = default_grid(params)
        for model in (CouplingModel.full(), CouplingModel.rwa_cutoff(1e-2 * params.omega0),
                      CouplingModel.rwa_const_g(), CouplingModel.rwa_negfreq()):
            if model.variant == "rwa-constg" and k0l == 0.0:
                continue  # singular there; run_cell reports the DomainError
            m_total = evaluate_coupling(params, model).m_total
            assert default_grid(params, m_total=m_total) == budget_grid

    def test_no_model_is_refused(self, monkeypatch):
        # the grid steps by the fastest rate, |M| included, so at the default
        # dt_factor no model is refused at any phase, and each cell's step is
        # within the integrators' step_limit up to dt_factor 2
        models = ("full, rwa-negfreq, rwa-constg, rwa-cutoff:1, rwa-cutoff:0.1, "
                  "rwa-cutoff:1e-3, rwa-cutoff:1e-8")

        def checked_cell(index, gamma_over_delta, k0l, model, spec):
            params = cell_params(gamma_over_delta, k0l, spec.omega0_over_gamma)
            m_total = evaluate_coupling(params, model).m_total
            grid = default_grid(params, dt_factor=2.0, m_total=m_total)
            assert grid.dt <= step_limit(params, m_total)
            return CellResult(index, gamma_over_delta, k0l, model, ok=True)

        monkeypatch.setattr(wqed.sweep, "run_cell", checked_cell)
        phases = [2 * math.pi * (i + 1) / 400 for i in range(400)]
        manifest = run_sweep(SweepSpec(gamma_over_delta=(0.25, 4.0), k0l=phases, models=models))
        assert len(manifest.cells) == 2 * 400 * 7

    def test_budget_is_checked_on_each_models_grid(self, monkeypatch):
        # rwa-cutoff:1e-8's |M| = 9.3 gamma steps 9.3 times finer than full
        # coupling: at gamma/delta = 600 full fits the point budget, the cutoff
        # does not, and the sweep stops before any cell runs
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(wqed.sweep, "run_cell", no_cell)
        assert default_grid(cell_params(600.0, PI4)).n == 1_200_001
        spec = SweepSpec(gamma_over_delta=600.0, k0l=PI4, models="full, rwa-cutoff:1e-8")
        with pytest.raises(ConfigurationError, match="needs n = 11,137,756 points, over the budget"):
            run_sweep(spec)

    def test_dip_width_strictly_increasing_in_coupling(self, fig_sweep):
        _, manifest = fig_sweep
        widths = {c.gamma_over_delta: c.dip_width for c in manifest.cells}
        assert widths[4.0] > widths[0.25] > widths[0.02] > 0

    def test_resonance_dip_depth_near_total(self, fig_sweep):
        _, manifest = fig_sweep
        for cell in manifest.cells:
            assert cell.dip_depth >= 0.999

    def test_strong_coupling_suppresses_peak(self, fig_sweep):
        _, manifest = fig_sweep
        by_ratio = {c.gamma_over_delta: c for c in manifest.cells}
        assert by_ratio[4.0].peak_ratio < 0.3
        assert by_ratio[0.02].peak_ratio > 0.8

    def test_cell_artifacts_on_disk(self, fig_sweep):
        out, manifest = fig_sweep
        for cell in manifest.cells:
            assert len(cell.files) == 6
            for name in cell.files:
                assert (out / name).is_file()
        headers = {
            "trajectory": "t,re_b1,im_b1,re_b2,im_b2",
            "incident": "tau,re,im,abs",
            "transmitted": "tau,re,im,abs",
            "reflected": "tau,re,im,abs",
            "spectrum_incident": "detuning,intensity",
            "spectrum_transmitted": "detuning,intensity",
        }
        for suffix, header in headers.items():
            with (out / f"cell000_{suffix}.csv").open() as fh:
                assert fh.readline().rstrip("\n") == header

    def test_spectrum_artifact_windowed(self, fig_sweep):
        out, _ = fig_sweep
        _, rows = read_csv(out / "cell000_spectrum_transmitted.csv")
        detunings = np.array([row[0] for row in rows], dtype=float)
        assert np.all(np.abs(detunings) <= SPECTRUM_WINDOW)
        assert detunings.size > 100  # still resolves the dip region

    def test_manifest_file_round_trips(self, fig_sweep):
        out, manifest = fig_sweep
        sections = read_config(out / "manifest.txt")
        assert sections["manifest"]["version"] == MANIFEST_VERSION
        assert sections["manifest"]["n_cells"] == 3
        assert sections["manifest"]["all_ok"] is True
        assert "area_tol" not in sections["sweep"]  # AREA_TOL is no key
        for index, ratio in enumerate(TRIPLE):
            entries = sections[f"cell{index:03d}"]
            params = cell_params(ratio, PI4)
            m_total = evaluate_coupling(params, CouplingModel.full()).m_total
            grid = default_grid(params, m_total=m_total)
            n = grid.n
            # the coarse DFT is the source's 24/delta support padded 16 times in
            # steps of dt (it was fft_length(8 x the resolved span in steps))
            assert entries["fft_len"] == round(16 * 24 / (params.delta * grid.dt))
            assert entries["n"] == n == manifest.cells[index].n
            assert entries["dt"] == grid.dt and entries["t_end"] == grid.t_end
            # the grid ends at the source's support, so the tails carry up to
            # 0.81 of the incident area at gamma/delta = 0.02 (it was < 1e-4
            # when the grid ran 12 decay lengths); the manifest's tails give it back
            assert 0.0 < entries["tail_fraction"] < 1
            areas = [abs(tail_area(entries[key], entries["dt"]))
                     for key in ("tail_transmitted", "tail_reflected")]
            assert max(areas) / entries["abs_area_inc"] == pytest.approx(
                entries["tail_fraction"], rel=1e-12)
            assert entries["area_check"] == AREA_PASS
            assert entries["passed"] is True
            for name in str(entries["files"]).split(","):
                assert (out / name).is_file()

    def test_manifest_tails_rebuild_a_longer_run(self, tmp_path):
        # a manifest's dt, t_end and (c, lam) tails give the samples that a
        # span-3 grid (scatter's span_factor) adds to each envelope CSV,
        # c e^{-lam (tau - t_end)} summed over the modes (atom 1 at z = 0,
        # so tau = t)
        run_sweep(SweepSpec(gamma_over_delta=[0.02], k0l=[PI4], out_dir=tmp_path))
        sections = read_config(tmp_path / "manifest.txt")
        cell = sections["cell000"]
        assert sections["manifest"]["version"] == MANIFEST_VERSION == 8
        params = cell_params(0.02, PI4)
        longer = scatter(params, evaluate_coupling(params, CouplingModel.full()),
                         span_factor=3.0)[1]
        for env in longer[1:]:
            short = np.array(read_csv(tmp_path / f"cell000_{env.kind}.csv")[1])
            n = len(short)
            assert short[-1, 0] == pytest.approx(cell["t_end"], abs=1e-12 * cell["t_end"])
            assert np.array_equal(env.tau[:n], short[:, 0])
            assert np.array_equal(env.samples[:n], short[:, 1] + 1j * short[:, 2])
            values = [float(x) for x in str(cell[f"tail_{env.kind}"]).split(",")]
            tau = env.tau[n:]
            rebuilt = sum(complex(*values[i:i + 2])
                          * np.exp(-complex(*values[i + 2:i + 4]) * (tau - cell["t_end"]))
                          for i in range(0, len(values), 4))
            assert tau.size == 800 and tau[1] - tau[0] == pytest.approx(cell["dt"])
            assert np.max(np.abs(rebuilt - env.samples[n:])) <= 1e-12 * env.peak()

    def test_identity_transmission_cell(self, tmp_path):
        spec = SweepSpec(gamma_over_delta=[0.0], k0l=[PI4], out_dir=tmp_path)
        manifest = run_sweep(spec)
        cell = manifest.cells[0]
        assert cell.area_check == AREA_SKIPPED
        assert cell.identity_transmission is True
        assert cell.dip_width is None
        assert cell.passed and manifest.all_ok
        incident = (tmp_path / "cell000_incident.csv").read_bytes()
        transmitted = (tmp_path / "cell000_transmitted.csv").read_bytes()
        assert incident == transmitted

    @pytest.mark.parametrize("with_files", [False, True])
    def test_one_spectrum_per_cell_without_files(self, monkeypatch, tmp_path, with_files):
        # dip_depth reads the areas, so only the incident spectrum's CSV needs it
        kinds = []
        measure = wqed.sweep.spectrum

        def counting(env):
            kinds.append(env.kind)
            return measure(env)

        monkeypatch.setattr(wqed.sweep, "spectrum", counting)
        run_sweep(SweepSpec(gamma_over_delta=[4.0, 0.25], k0l=[PI4],
                            out_dir=tmp_path if with_files else None))
        per_cell = ["transmitted", "incident"] if with_files else ["transmitted"]
        assert kinds == 2 * per_cell

    def test_dip_depth_is_the_area_ratio(self):
        # 1 - |S_trans/S_inc|^2, the zero-detuning bins' ratio by the one
        # trapezoid: total for the full coupling, partial for rwa-constg at
        # (0.25, pi/4), none with gamma = 0
        spec = SweepSpec(gamma_over_delta=[0.25, 0.0], k0l=[PI4],
                         models=[CouplingModel.full(), CouplingModel.rwa_const_g()])
        sections = run_sweep(spec).sections()
        depths = []
        for index in range(spec.n_cells):
            entries = sections[f"cell{index:03d}"]
            assert entries["dip_depth"] == 1.0 - entries["area_trans_ratio"] ** 2
            depths.append(entries["dip_depth"])
        full, constg, dark, dark_constg = depths
        assert full == 1.0 and 0.97 < constg < 0.98 and dark == dark_constg == 0.0

    def test_cell_failure_recorded_and_sweep_continues(self):
        # rwa-constg is singular at k0l = 0, which fails its cell; the
        # full-coupling cell of the same sweep must still run
        spec = SweepSpec(gamma_over_delta=[0.25], k0l=[0.0],
                         models=[CouplingModel.full(), CouplingModel.rwa_const_g()])
        manifest = run_sweep(spec)
        good, bad = manifest.cells
        assert good.ok and good.area_check == AREA_PASS
        assert not bad.ok and bad.area_check is None
        assert bad.error.startswith("DomainError: rwa-constg is singular at k0l = 0")
        assert not manifest.all_ok

    def test_truncated_grid_recorded(self):
        # scatter's span_factor 0.01 ends the grid at 8.04/delta, inside the
        # source's 12/delta support, so no mode is a tail and the envelopes
        # have not decayed at the grid's end
        params = cell_params(0.25, PI4)
        envelopes = scatter(params, evaluate_coupling(params, CouplingModel.full()),
                            span_factor=0.01)[1]
        assert area_verdict(envelopes, params.gamma)[0] == AREA_TRUNCATED

    def test_rwa_cell_fails_area_check(self):
        spec = SweepSpec(gamma_over_delta=[0.25], k0l=[PI4],
                         models=[CouplingModel.rwa_const_g()])
        manifest = run_sweep(spec)
        cell = manifest.cells[0]
        assert cell.ok and cell.area_check == AREA_FAIL
        assert cell.area_trans_ratio > 0.1
        assert not manifest.all_ok

    def test_cells_equal_independent_runs(self):
        spec = SweepSpec(gamma_over_delta=[4.0, 0.25], k0l=[PI4])
        combined = run_sweep(spec).cells
        for position, ratio in enumerate([4.0, 0.25]):
            single = run_sweep(SweepSpec(gamma_over_delta=[ratio],
                                         k0l=[PI4])).cells[0]
            assert combined[position]._replace(index=0) == single

    def test_bitwise_determinism_across_directories(self, tmp_path):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            run_sweep(SweepSpec(gamma_over_delta=[4.0], k0l=[PI4],
                                out_dir=out))
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


def full_cell(gamma_over_delta, k0l, **spec_fields):
    spec = SweepSpec(gamma_over_delta=[gamma_over_delta], k0l=[k0l], **spec_fields)
    return run_cell(0, gamma_over_delta, k0l, CouplingModel.full(), spec)


class TestCsvStride:
    """The time-domain CSVs keep rows 0, s, 2s, ... and the last, n - 1, with
    s = max(1, floor(1/(100 delta) / dt)): 100 rows a pulse width."""

    @pytest.mark.parametrize("gamma_over_delta", [4.0, 100.0])
    def test_rows_are_the_full_rate_writers_rows(self, tmp_path, gamma_over_delta):
        cell = run_sweep(SweepSpec(gamma_over_delta=[gamma_over_delta], k0l=[PI4],
                                   out_dir=tmp_path / "strided")).cells[0]
        s, n = cell.stride, cell.n
        assert s == gamma_over_delta and (n - 1) % s == 0
        params = cell_params(gamma_over_delta, PI4)
        traj, envelopes = scatter(params, evaluate_coupling(params, CouplingModel.full()))
        (tmp_path / "full").mkdir()
        full = [wqed.sweep.write_trajectory_csv(tmp_path / "full" / "cell000_trajectory.csv", traj)]
        full += [wqed.sweep.write_envelope_csv(tmp_path / "full" / f"cell000_{env.kind}.csv", env)
                 for env in envelopes]
        for path in full:
            lines = path.read_bytes().splitlines(keepends=True)
            assert len(lines) == 1 + n
            kept = lines[:1] + [lines[1 + i] for i in [*range(0, n - 1, s), n - 1]]
            assert (tmp_path / "strided" / path.name).read_bytes() == b"".join(kept)

    @pytest.mark.parametrize("gamma_over_delta, k0l, dt_factor, stride, rows", [
        (300.0, 0.0, 1.0, 300, 2001),     # a bare floor of the step ratio gives 299
        (0.0, PI4, 0.5001, 1, 4001),      # the most rows of any accepted cell
        (0.02, PI4, 1.0, 1, 2001),        # every row: n, as bench counts them
    ])
    def test_row_counts(self, tmp_path, gamma_over_delta, k0l, dt_factor, stride, rows):
        manifest = run_sweep(SweepSpec(gamma_over_delta=[gamma_over_delta], k0l=[k0l],
                                       dt_factor=dt_factor, out_dir=tmp_path))
        cell = read_config(tmp_path / "manifest.txt")["cell000"]
        assert cell["stride"] == manifest.cells[0].stride == stride
        assert stride > 1 or cell["n"] == rows
        for name in ("trajectory", "incident", "transmitted", "reflected"):
            _, table = read_csv(tmp_path / f"cell000_{name}.csv")
            assert len(table) == rows
            assert table[-1][0] == pytest.approx(cell["t_end"], rel=1e-15)


class TestClosedFormTails:
    """Cells near the dark phases k0l -> 0, pi, 2pi, whose slow mode is
    left to the envelopes' closed-form tails."""

    @pytest.mark.parametrize("gamma_over_delta", [0.02, 0.25, 4.0])
    @given(k0l=st.floats(min_value=0.0, max_value=2 * math.pi))
    @example(k0l=0.0)
    @example(k0l=1e-12)
    @example(k0l=1e-3)
    @example(k0l=0.01)
    @example(k0l=0.05)
    @example(k0l=math.pi - 0.05)
    @example(k0l=math.pi)
    @example(k0l=math.pi + 1e-9)
    @example(k0l=2 * math.pi - 1e-3)
    @settings(max_examples=10, deadline=None)
    def test_whole_phase_domain_passes(self, gamma_over_delta, k0l):
        cell = full_cell(gamma_over_delta, k0l)
        assert cell.ok and cell.area_check == AREA_PASS, cell
        assert cell.n <= 250_000
        for name, value in zip(cell._fields, cell):
            if isinstance(value, (float, complex)):
                assert cmath.isfinite(value), name
        entries = wqed.sweep.RunManifest(MANIFEST_VERSION, SweepSpec(
            gamma_over_delta=[gamma_over_delta], k0l=[k0l]), (cell,)).sections()["cell000"]
        for key, value in entries.items():
            if isinstance(value, float):
                assert math.isfinite(value), key

    def test_dark_cell(self):
        cell = full_cell(0.25, 1e-3)
        assert cell.n <= 10_000            # 801,601 under the old 2000/gamma cap
        assert cell.area_trans_ratio <= 1e-6 and cell.area_refl_ratio <= 1e-6
        # the grid ends at the source's support, 12/delta, where it ran to
        # 32/delta before: what the tails carry past 32/delta is under 1e-3
        # of the incident area, as all of the tail was
        # (0 < cell.tail_fraction < 1e-3; it reads 3.2e-3 now)
        assert 0 < cell.tail_fraction
        past = 20 / cell_params(0.25, 1e-3).delta
        for tail in (cell.tail_transmitted, cell.tail_reflected):
            assert abs(tail_area(tail, cell.dt, past)) < 1e-3 * abs(cell.area_inc)
        # the slow mode's transparency line at -2.5e-4 delta, 1.25e-7 delta
        # wide, sets the left half-depth crossing: the transfer oracle's width
        # (0.448731 when the bins were 0.019 delta apart)
        assert cell.dip_width == pytest.approx(0.224900, rel=1e-3)

    @pytest.mark.parametrize("gamma_over_delta, k0l", [
        (0.25, 0.01), (0.25, 0.03), (0.25, 0.05), (0.25, math.pi - 0.05), (0.02, 0.05)])
    def test_former_false_fail_band_passes(self, gamma_over_delta, k0l):
        cell = full_cell(gamma_over_delta, k0l)
        assert cell.area_check == AREA_PASS
        assert cell.area_trans_ratio <= 1e-5 and cell.area_refl_ratio <= 1e-5

    @pytest.mark.parametrize("gamma_over_delta, k0l", [(0.25, 0.05), (4.0, 1e-3)])
    def test_tail_continues_the_integration(self, gamma_over_delta, k0l):
        # a doubled window (at gamma/delta = 0.25; at 4 the grid is set by
        # the source's support either way) integrates the slow mode further
        # by RK4 before its tail starts; the tail-corrected areas agree, the
        # tail being 2.5e-2 and 5e-4 of the incident area
        params = cell_params(gamma_over_delta, k0l)
        coupling = evaluate_coupling(params, CouplingModel.full())
        one, two = (scatter(params, coupling, span_factor=span)[1] for span in (1.0, 2.0))
        area_inc = abs(one[0].pulse_area)
        assert max(abs(env.tail_area) for env in one[1:]) > 1e-4 * area_inc
        for short, long in zip(one[1:], two[1:]):
            assert abs(short.pulse_area - long.pulse_area) <= 1e-6 * area_inc

    def test_strong_coupling_is_not_truncated(self):
        # the transmitted peak shrinks as the atoms reflect more: its first
        # sample, e^-16 of the incident peak, is 3.2e-3 of its own peak here,
        # so the ends are judged against the incident peak as well
        cell = full_cell(100.0, PI4)
        assert cell.area_check == AREA_PASS and cell.passed
        assert cell.area_trans_ratio <= 1e-10


class TestScatter:
    """The one dynamics pipeline behind run_cell and the validation checks."""

    def test_matches_explicit_pipeline_bitwise(self):
        params = cell_params(4.0, PI4)
        coupling = evaluate_coupling(params, CouplingModel.full())
        grid = default_grid(params, 1.5, 0.75, m_total=coupling.m_total)
        source = build_source(params, grid)
        traj = integrate_markovian(source, coupling, params)
        envelopes = reconstruct_fields(traj, params)

        got_traj, got_envelopes = scatter(params, coupling, span_factor=1.5, dt_factor=0.75)
        assert np.array_equal(got_traj.beta1, traj.beta1)
        assert np.array_equal(got_traj.beta2, traj.beta2)
        for ours, theirs in zip(got_envelopes, envelopes, strict=True):
            assert ours.kind == theirs.kind
            assert np.array_equal(ours.samples, theirs.samples)

    def test_grid_factors_are_keywords(self):
        # scatter once took a normalization third: a positional call fails
        params = cell_params(4.0, PI4)
        with pytest.raises(TypeError):
            scatter(params, evaluate_coupling(params, CouplingModel.full()), 1.5, 0.75)

    @staticmethod
    def source_alive_at_spectra(monkeypatch, out_dir):
        """Whether run_cell's source is still referenced at each spectrum call."""
        refs, alive = [], []
        build, measure = wqed.sweep.build_source, wqed.sweep.spectrum

        def keeping(*args, **kwargs):
            source = build(*args, **kwargs)
            refs.append(weakref.ref(source.s1))
            return source

        def recording(*args, **kwargs):
            alive.append(refs[-1]() is not None)
            return measure(*args, **kwargs)

        monkeypatch.setattr(wqed.sweep, "build_source", keeping)
        monkeypatch.setattr(wqed.sweep, "spectrum", recording)
        cell = run_cell(0, 4.0, PI4, CouplingModel.full(),
                        SweepSpec(gamma_over_delta=[4.0], k0l=[PI4], out_dir=out_dir))
        assert cell.passed
        assert len(refs) == 1
        return alive

    def test_run_cell_frees_source_before_spectra(self, monkeypatch):
        # the transmitted spectrum alone: dip_depth reads the areas
        assert self.source_alive_at_spectra(monkeypatch, None) == [False]

    def test_run_cell_frees_source_before_spectra_with_files(self, monkeypatch, tmp_path):
        # and the incident one for its CSV
        assert self.source_alive_at_spectra(monkeypatch, tmp_path) == [False, False]


class TestCompareCouplings:
    """The model-comparison table against the exact closed form."""

    def test_negfreq_deviation_vanishes_everywhere(self):
        rows = compare_couplings(np.linspace(0.0, 8 * math.pi, 33),
                                 [CouplingModel.rwa_negfreq()])
        assert all(row.abs_dev_from_full <= 1e-12 for row in rows)

    def test_full_model_deviation_is_zero(self):
        rows = compare_couplings([PI4, 200.0], [CouplingModel.full()])
        assert all(row.abs_dev_from_full == 0.0 for row in rows)
        assert not any(row.diverged for row in rows)

    def test_cutoff_deviation_monotone_in_log_epsilon(self):
        models = [CouplingModel.rwa_cutoff(eps)
                  for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
        rows = compare_couplings([PI4], models)
        deviations = [row.abs_dev_from_full for row in rows]
        assert all(b > a for a, b in zip(deviations, deviations[1:]))

    def test_cutoff_divergence_flag_tracks_threshold(self):
        # at k0l = 200 the cutoff argument eps*l is O(1) for eps = 50
        rows = compare_couplings(
            [200.0],
            [CouplingModel.rwa_cutoff(50.0), CouplingModel.rwa_cutoff(1e-6)])
        assert rows[0].diverged is False
        assert rows[1].diverged is True

    def test_constg_deviation_small_far_large_near(self):
        rows = compare_couplings([200.0, PI4], [CouplingModel.rwa_const_g()])
        assert rows[0].abs_dev_from_full <= 0.03
        assert rows[1].abs_dev_from_full >= 0.05

    def test_row_ordering_k0l_major(self):
        models = [CouplingModel.full(), CouplingModel.rwa_const_g()]
        rows = compare_couplings([PI4, 1.0], models)
        assert len(rows) == 4
        assert [row.k0l for row in rows] == [PI4, PI4, 1.0, 1.0]
        assert [row.model for row in rows] == models + models
        assert isinstance(rows[0], CouplingRow)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_couplings([], [CouplingModel.full()])
        with pytest.raises(ConfigurationError):
            compare_couplings([PI4], [])
