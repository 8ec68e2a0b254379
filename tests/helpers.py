"""Readers and reference formulas that only the tests use."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wqed.cli
from wqed.errors import ConfigurationError
from wqed.coupling import SimParams
from wqed.dynamics import driven_modes
from wqed.fields import FieldEnvelope, Spectrum, _response, transfer_oracle
from wqed.serialize import config_text, parse_config_text, parse_value
from wqed.specfun import si
from wqed.sweep import MANIFEST_VERSION, RunManifest, SweepSpec


def run_fresh(argv, preexec_fn=None, entry=("-m", "wqed.cli")) -> subprocess.CompletedProcess:
    """`python <entry> <argv>` in a fresh interpreter with wqed importable;
    by default the CLI, `entry=()` with argv ["-c", code] runs a script."""
    src = str(Path(wqed.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *entry, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=preexec_fn)


def run_limited(argv, limit=1 << 30, entry=("-m", "wqed.cli")):
    """(exit code, stderr) of run_fresh in an interpreter whose address
    space is capped at `limit` bytes, so that an unchecked allocation dies
    with MemoryError instead of exhausting the machine."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = run_fresh(argv, cap, entry)
    return done.returncode, done.stderr


def read_csv(path) -> tuple[list[str], list[list]]:
    """Read a csv_text artifact back: (header, rows of parsed scalars)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ConfigurationError(f"{path} is empty")
    header = lines[0].split(",")
    rows = [[parse_value(cell) for cell in line.split(",")]
            for line in lines[1:]]
    return header, rows


def run_config_from_text(text: str) -> SweepSpec:
    """The spec of spec-file text, as `simulate --config` and `sweep --spec` read it."""
    return SweepSpec.from_sections(parse_config_text(text))


def spec_text(spec: SweepSpec) -> str:
    """The [sweep] block that a manifest records for spec: simulate's run_config.txt."""
    return config_text({"sweep": RunManifest(MANIFEST_VERSION, spec, ()).sections()["sweep"]})


def pv_band_asymptote(omega0: float, delta0: float, a: float) -> complex:
    """Far-field limit of pv_band_integral for a band centered on omega0:
    (2i/omega0) e^{-i omega0 a} * (-Si(delta0 a / 2)), approaching
    (2i/omega0) e^{-i omega0 a} (-pi/2) once delta0 a >> 1."""
    phase = complex(math.cos(omega0 * a), -math.sin(omega0 * a))
    return 2j / omega0 * phase * (-si(0.5 * delta0 * a))


def tail_samples(env: FieldEnvelope, decay: float = 40.0) -> tuple[np.ndarray, np.ndarray]:
    """(tau, samples) of env's tail past the grid, each sample summed directly
    over the modes, c e^{-lam k dtau} at tau_end + k dtau, for k = 1 .. K,
    K being where the slowest mode has decayed by e^-decay."""
    count = max((math.ceil(decay / (lam.real * env.dtau)) for _, lam in env.tail), default=0)
    k = np.arange(1, count + 1, dtype=float)
    samples = np.zeros(count, dtype=complex)
    for c, lam in env.tail:
        samples += c * np.exp(-lam * env.dtau * k)
    return float(env.tau[-1]) + env.dtau * k, samples


def padded_round_trip(samples: np.ndarray, transfer, size: int, dtau: float,
                      sigma: float) -> np.ndarray:
    """The transfer round trip as one padded DFT: the first n values of
    fft_N(transfer(2 pi fftfreq(N, dtau) + i sigma) * ifft_N(v samples, N)) / v,
    v_k = e^{-sigma k dtau}, holding N-point arrays, the reference for
    checks.pruned_round_trip."""
    window = np.exp(-sigma * dtau * np.arange(samples.size))
    spec = transfer(2.0 * math.pi * np.fft.fftfreq(size, dtau) + 1j * sigma)
    spec *= np.fft.ifft(samples * window, size)
    np.fft.fft(spec, out=spec)
    return spec[:samples.size] / window


def full_dft_spectrum(env: FieldEnvelope, n: int) -> Spectrum:
    """Every bin of an n-point DFT on the envelope's step, by a plain numpy
    FFT: dtau sum_j A_j e^{i omega tau_j} over the samples continued by
    tail_samples and zero-padded (or, when longer, folded) to n, at omega =
    2 pi m / (n dtau) for m = -(n // 2) .. n - n // 2 - 1, ascending: the
    reference for each zone of fields.spectrum, whose trapezoid weights the
    first sample by half."""
    samples = np.concatenate([env.samples, tail_samples(env)[1]])
    samples[0] *= 0.5
    # e^{i omega tau_j} repeats every n samples at these omegas
    folded = np.zeros(-(-samples.size // n) * n, dtype=complex)
    folded[:samples.size] = samples
    omega = np.arange(-(n // 2), n - n // 2, dtype=float)
    omega *= 2.0 * math.pi / (n * env.dtau)
    amplitude = np.fft.fftshift(np.fft.ifft(folded.reshape(-1, n).sum(axis=0), norm="forward"))
    amplitude *= env.dtau * np.exp(1j * float(env.tau[0]) * omega)
    return Spectrum(detuning=omega / env.delta, amplitude=amplitude, fft_len=n)


def reflection_oracle(params: SimParams, m_total: complex,
                      freq_grid: np.ndarray) -> np.ndarray:
    """Reflection amplitude r(d) = - gamma [(1 + f^2)(gamma - i d) - 2 M f] / D,
    f = e^{i k0 l}, on the detunings of fields.transfer_oracle: r(0) = -1 for
    the full coupling, so the resonant component is fully reflected."""
    gmd, d, singular = _response(params, m_total, freq_grid)
    f = params.phase
    r_vals = -params.gamma * ((1.0 + f * f) * gmd - 2.0 * m_total * f) / d
    return np.where(singular, -1.0, r_vals) if singular.any() else r_vals


def oracle_dip_width(params: SimParams, m_total: complex) -> float:
    """Full width at half depth (units of delta) of |t(d)|^2 e^{-2 (d/delta)^2},
    the transmitted intensity the transfer oracle gives the Gaussian pulse:
    the shoulders and depth as fields.dip_width takes them, but of the exact
    function on an axis of 2^16 steps over +-8 delta that also holds each
    driven mode's line, Im lam +- 8 Re lam; each half-depth crossing is
    bracketed there and bisected."""
    span = 8.0 * params.delta

    def intensity(d):
        t = transfer_oracle(params, m_total, np.concatenate([[-span, span], d]))[2:]
        return np.abs(t) ** 2 * np.exp(-2.0 * (d / params.delta) ** 2)

    lines = [np.linspace(lam.imag - 8 * lam.real, lam.imag + 8 * lam.real, 2049)
             for lam in driven_modes(params, m_total).values() if lam.real > 0]
    axis = np.concatenate([np.linspace(-span, span, (1 << 16) + 1), [0.0], *lines])
    axis = np.unique(axis[np.abs(axis) <= span])
    inten = intensity(axis)
    i0 = int(np.searchsorted(axis, 0.0))
    half = 0.5 * (min(inten[:i0].max(), inten[i0 + 1:].max()) + inten[i0])

    def crossing(direction: int) -> float:
        k = i0 + direction
        while inten[k] < half:
            k += direction
        inside, outside = axis[k - direction], axis[k]
        for _ in range(100):
            mid = 0.5 * (inside + outside)
            if mid in (inside, outside):
                break
            inside, outside = (mid, outside) if intensity(np.array([mid]))[0] < half else (
                inside, mid)
        return 0.5 * (inside + outside)

    return (crossing(+1) - crossing(-1)) / params.delta
