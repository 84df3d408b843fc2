"""Single-photon pulse family: spectral amplitudes and time envelopes.

Four shapes are supported: gaussian, decaying_exp, rising_exp and delta
(flat spectrum, unnormalizable). Everything is expressed in the rotating
frame of the atom, so spectral amplitudes are functions of the detuning
delta and envelopes are slowly varying (the optical carrier is removed).
A pulse with carrier detuning delta0 has its spectrum centered at delta0
and its envelope multiplied by exp(-1j*delta0*(t - t_a)).

Conventions (unit-norm shapes, t_a = 0, delta0 = 0):

    gaussian:     xi(d) = (2 tau_f^2/pi)^(1/4) exp(-tau_f^2 d^2)
                  u(t)  = (1/(2 pi tau_f^2))^(1/4) exp(-t^2/(4 tau_f^2))
    decaying_exp: xi(d) = sqrt(2 tau_f/pi) / (1 - 2i d tau_f)
                  u(t)  = sqrt(1/tau_f) exp(-t/(2 tau_f)),  t >= 0
    rising_exp:   xi(d) = sqrt(2 tau_f/pi) / (1 + 2i d tau_f)
                  u(t)  = sqrt(1/tau_f) exp(+t/(2 tau_f)),  t <= 0
    delta:        xi(d) = xi0 (constant); no square-integrable envelope.

The unit rate is the Markov spontaneous decay rate of the atom, so tau_f
is measured in 1/gamma.

Every route places a pulse on one clock, the pulse time of `_pulse_clock`:
tau_k = (t0 - t_a) + k*dt, with t0 the grid start less the atom's delay t_d.
The pulse has arrived at the first sample with tau_k >= 0, and envelopes and
drives are evaluated at tau itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import MAGNITUDE_LIMIT, MIN_SCALE, ParameterError, check_range

GAUSSIAN = "gaussian"
DECAYING_EXP = "decaying_exp"
RISING_EXP = "rising_exp"
DELTA = "delta"

PULSE_SHAPES = (GAUSSIAN, DECAYING_EXP, RISING_EXP, DELTA)
NORMALIZABLE_SHAPES = (GAUSSIAN, DECAYING_EXP, RISING_EXP)


@dataclass(frozen=True)
class PulseSpec:
    """Immutable description of a single-photon pulse.

    Parameters
    ----------
    shape : str
        One of "gaussian", "decaying_exp", "rising_exp", "delta".
    tau_f : float
        Pulse length in 1/gamma (ignored for the delta shape).
    delta0 : float
        Carrier detuning from the atomic transition (default resonant).
    t_a : float
        Arrival/reference time: Gaussian peak, decaying-exp turn-on,
        rising-exp cut-off.
    xi0 : float
        Constant spectral amplitude of the delta shape. The delta pulse is
        unnormalizable; its envelope, the transform of xi0 in the convention
        of the other shapes, is the Dirac mass sqrt(2 pi) xi0 delta(t - t_a).
    """

    shape: str
    tau_f: float = 1.0
    delta0: float = 0.0
    t_a: float = 0.0
    xi0: float = 0.1

    def __post_init__(self):
        if self.shape not in PULSE_SHAPES:
            raise ParameterError("shape", f"unknown pulse shape {self.shape!r}; expected one of "
                                          f"{PULSE_SHAPES}")
        if self.shape != DELTA:
            check_range("tau_f", self.tau_f, MIN_SCALE)
        for name in ("delta0", "t_a", "xi0"):
            check_range(name, getattr(self, name))


@dataclass(frozen=True)
class CoherentPulseSpec:
    """Coherent-state pulse: sqrt(n_bar) times a unit-norm base spectrum."""

    base: PulseSpec
    n_bar: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.n_bar <= MAGNITUDE_LIMIT:
            raise ParameterError("n_bar", f"mean photon number must be >= 0 and at most "
                                          f"{MAGNITUDE_LIMIT:g}, got {self.n_bar}")
        if self.base.shape == DELTA:
            raise ParameterError("shape", "coherent pulse needs a normalizable base shape")


def spectral_amplitude(spec: PulseSpec, delta) -> np.ndarray | complex:
    """Spectral amplitude xi evaluated at detuning(s) delta.

    The arrival time t_a does not enter here; it is applied as the phase
    reference of the driving term (drives are evaluated at t - t_a).
    """
    delta = np.asarray(delta, dtype=float)
    d = delta - spec.delta0
    tf = spec.tau_f
    if spec.shape == GAUSSIAN:
        out = (2.0 * tf**2 / np.pi) ** 0.25 * np.exp(-(tf**2) * d**2) + 0j
    elif spec.shape == DECAYING_EXP:
        out = np.sqrt(2.0 * tf / np.pi) / (1.0 - 2j * d * tf)
    elif spec.shape == RISING_EXP:
        out = np.sqrt(2.0 * tf / np.pi) / (1.0 + 2j * d * tf)
    else:  # delta
        out = np.full(delta.shape, spec.xi0, dtype=complex)
    return out if out.ndim else complex(out)


def _pulse_clock(t_a: float, t0: float, dt: float, n: int) -> np.ndarray:
    """Pulse time tau_k = (t0 - t_a) + k*dt of the n samples t0 + k*dt."""
    return (t0 - t_a) + dt * np.arange(n)


def envelope(spec: PulseSpec, t) -> np.ndarray | complex:
    """Slowly-varying time envelope u(t - t_a), unit L2 norm.

    Raises for the delta shape, which has no square-integrable envelope.
    """
    if spec.shape == DELTA:
        raise ValueError("delta pulse has no square-integrable envelope")
    out = _envelope_at(spec, np.asarray(t, dtype=float) - spec.t_a)
    return out if out.ndim else complex(out)


def envelope_tail(spec: PulseSpec, tau: float) -> float:
    """U(tau) = int_tau^inf |u(s)| ds, the envelope's L1 mass after pulse time tau = t - t_a.

    In closed form: the Gaussian's (2 pi tau_f^2)^(-1/4) sqrt(pi) tau_f erfc(tau/(2 tau_f)),
    the decaying exp's 2 sqrt(tau_f) e^(-max(tau, 0)/(2 tau_f)) and the rising exp's
    2 sqrt(tau_f) (1 - e^(min(tau, 0)/(2 tau_f))); the delta's Dirac mass sqrt(2 pi) |xi0|
    counts while tau <= 0. The carrier does not change |u|.
    """
    tf = spec.tau_f
    if spec.shape == GAUSSIAN:
        amp = (2.0 * math.pi * tf**2) ** -0.25 * math.sqrt(math.pi) * tf
        return amp * math.erfc(0.5 * tau / tf)
    if spec.shape == DECAYING_EXP:
        return 2.0 * math.sqrt(tf) * math.exp(-0.5 * max(tau, 0.0) / tf)
    if spec.shape == RISING_EXP:
        return -2.0 * math.sqrt(tf) * math.expm1(0.5 * min(tau, 0.0) / tf)
    return math.sqrt(2.0 * math.pi) * abs(spec.xi0) if tau <= 0.0 else 0.0


def _envelope_at(spec: PulseSpec, x: np.ndarray) -> np.ndarray:
    """The envelope of a normalizable pulse at pulse time x = t - t_a, as a complex array."""
    tf = spec.tau_f
    if spec.shape == GAUSSIAN:
        mag = (1.0 / (2.0 * np.pi * tf**2)) ** 0.25 * np.exp(-(x**2) / (4.0 * tf**2))
    elif spec.shape == DECAYING_EXP:
        mag = np.where(x >= 0.0, np.sqrt(1.0 / tf) * np.exp(-np.abs(x) / (2.0 * tf)), 0.0)
    else:  # rising_exp
        mag = np.where(x <= 0.0, np.sqrt(1.0 / tf) * np.exp(-np.abs(x) / (2.0 * tf)), 0.0)
    return mag * np.exp(-1j * spec.delta0 * x) if spec.delta0 != 0.0 else mag + 0j
