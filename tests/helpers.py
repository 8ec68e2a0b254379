"""Readers and reference formulas that only the tests use."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wqed.cli
from wqed.cli import RunConfig
from wqed.errors import ConfigurationError
from wqed.fields import DEFAULT_ZERO_PAD, FieldEnvelope, Spectrum, fft_length
from wqed.serialize import parse_config_text, parse_value
from wqed.specfun import si


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


def run_config_from_text(text: str) -> RunConfig:
    """The RunConfig of run-config text, as `simulate --config` reads it."""
    return RunConfig.from_sections(parse_config_text(text))


def pv_band_asymptote(omega0: float, delta0: float, a: float) -> complex:
    """Far-field limit of pv_band_integral for a band centered on omega0:
    (2i/omega0) e^{-i omega0 a} * (-Si(delta0 a / 2)), approaching
    (2i/omega0) e^{-i omega0 a} (-pi/2) once delta0 a >> 1."""
    phase = complex(math.cos(omega0 * a), -math.sin(omega0 * a))
    return 2j / omega0 * phase * (-si(0.5 * delta0 * a).value)


def full_dft_spectrum(env: FieldEnvelope,
                      zero_pad_factor: int = DEFAULT_ZERO_PAD) -> Spectrum:
    """Every bin of the DFT that fields.spectrum windows, by a plain numpy FFT:
    dtau sum_j A_j e^{i omega tau_j} over the samples of a tail-free envelope
    zero-padded to N = fft_length(n * zero_pad_factor), at omega = 2 pi m /
    (N dtau) for m = -(N // 2) .. N - N // 2 - 1, ascending."""
    assert not env.tail, "the reference drops a tail"
    n = fft_length(env.samples.size * zero_pad_factor)
    omega = np.arange(-(n // 2), n - n // 2, dtype=float)
    omega *= 2.0 * math.pi / (n * env.dtau)
    amplitude = np.fft.fftshift(np.fft.ifft(env.samples, n, norm="forward"))
    amplitude *= env.dtau * np.exp(1j * float(env.tau[0]) * omega)
    return Spectrum(detuning=omega / env.delta, amplitude=amplitude,
                    delta=env.delta, fft_len=n)
