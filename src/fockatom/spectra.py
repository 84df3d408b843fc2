"""Atom-field interaction spectra, memory kernels, and the pulse driving term.

The total interaction spectrum |g_tot(delta)|^2 fixes both decay channels of
the atom; its Fourier transform is the memory kernel G(t). The pulse modes
carry the fraction gamma_p/gamma of the total spectrum, and their coupling
amplitude g(delta) multiplies the pulse spectrum in the driving term

    D(t) = integral g(delta) xi(delta) exp(-1j*delta*(t - t_a)) d delta.

Three spectrum variants:

* lorentzian: |g_tot|^2 = (gamma/2pi) / ((delta/kappa)^2 + 1), normalized so
  the flat (Markov) spectrum is recovered as kappa -> infinity. The pulse
  coupling keeps the complex cavity phase, g = sqrt(gamma_p/2pi)/(delta/kappa + i),
  and the kernel is exactly (gamma*kappa/2) exp(-kappa|t|).
* flat: the Markov limit. The kernel degenerates to a Dirac mass of weight
  gamma (exposed as a symbolic marker) and the driving term short-circuits
  to sqrt(gamma_p) * u(t - t_a).
* tabulated: |g_tot|^2 sampled on a user grid (two-column CSV delta, g2),
  linearly interpolated; kernel and driving are computed numerically. The
  pulse coupling uses the uniform fraction sqrt(gamma_p/gamma * g2) with
  zero phase.

Driving-term evaluation: the lorentzian pulse coupling is a causal
first-order cavity filter, D(tau) = -1j sqrt(gamma_p) kappa F_kappa[u](tau)
with F_r[u](tau) = int_{-inf}^tau exp(-r (tau - s)) u(s) ds, and `exp_filter`
evaluates F_r in closed form for every pulse shape. Tabulated spectra use
composite-trapezoid quadrature on a uniform detuning grid, evaluated for all
requested times at once with a chirp-z transform.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import czt
from scipy.special import erfcx

from .pulses import (
    DECAYING_EXP,
    DELTA,
    RISING_EXP,
    PulseSpec,
    envelope,
    spectral_amplitude,
)

LORENTZIAN = "lorentzian"
FLAT = "flat"
TABULATED = "tabulated"

# Degenerate-pole guard for the decaying-exp filter: wide enough that the
# (e^{-a tau} - e^{-r tau})/(r - a) cancellation stays benign.
_POLE_TOL = 1e-7


@dataclass(frozen=True)
class InteractionSpectrum:
    """Total atom-field interaction spectrum plus the pulse-mode fraction.

    gamma is the total Markov decay rate (pulse + bath channels) and
    gamma_p the pulse-mode part, 0 < gamma_p <= gamma.
    """

    kind: str
    gamma_p: float = 1.0
    gamma: float = 1.0
    kappa: float | None = None
    table_delta: np.ndarray | None = field(default=None, repr=False)
    table_g2: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in (LORENTZIAN, FLAT, TABULATED):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if not 0.0 < self.gamma_p <= self.gamma:
            raise ValueError(
                f"need 0 < gamma_p <= gamma, got gamma_p={self.gamma_p}, gamma={self.gamma}"
            )
        if self.kind == LORENTZIAN:
            if self.kappa is None or not self.kappa > 0.0:
                raise ValueError("lorentzian spectrum needs kappa > 0")
        if self.kind == TABULATED:
            d = np.asarray(self.table_delta, dtype=float)
            g2 = np.asarray(self.table_g2, dtype=float)
            if d.ndim != 1 or d.shape != g2.shape or d.size < 2:
                raise ValueError("tabulated spectrum needs matching 1-d delta and g2 arrays")
            if np.any(np.diff(d) <= 0.0):
                raise ValueError("tabulated delta grid must be strictly increasing")
            if np.any(g2 < 0.0):
                raise ValueError("tabulated g2 must be non-negative")
            object.__setattr__(self, "table_delta", d)
            object.__setattr__(self, "table_g2", g2)

    @classmethod
    def lorentzian(cls, kappa: float, gamma_p: float = 1.0, gamma: float = 1.0):
        return cls(kind=LORENTZIAN, gamma_p=gamma_p, gamma=gamma, kappa=kappa)

    @classmethod
    def flat(cls, gamma_p: float = 1.0, gamma: float = 1.0):
        return cls(kind=FLAT, gamma_p=gamma_p, gamma=gamma)

    @classmethod
    def tabulated(cls, delta, g2, gamma_p: float = 1.0, gamma: float = 1.0):
        return cls(kind=TABULATED, gamma_p=gamma_p, gamma=gamma,
                   table_delta=np.asarray(delta, float), table_g2=np.asarray(g2, float))

    @classmethod
    def from_csv(cls, path, gamma_p: float = 1.0, gamma: float = 1.0):
        """Read a tabulated spectrum from two-column CSV (delta, g2) with header."""
        deltas, g2s = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)  # header row
            for row in reader:
                if not row:
                    continue
                deltas.append(float(row[0]))
                g2s.append(float(row[1]))
        return cls.tabulated(deltas, g2s, gamma_p=gamma_p, gamma=gamma)


def total_spectrum(spec: InteractionSpectrum, delta) -> np.ndarray | float:
    """|g_tot(delta)|^2: the full (pulse + bath) interaction spectrum."""
    delta = np.asarray(delta, dtype=float)
    if spec.kind == LORENTZIAN:
        out = (spec.gamma / (2.0 * np.pi)) / ((delta / spec.kappa) ** 2 + 1.0)
    elif spec.kind == FLAT:
        out = np.full(delta.shape, spec.gamma / (2.0 * np.pi))
    else:
        d, g2 = spec.table_delta, spec.table_g2
        if np.any(delta < d[0]) or np.any(delta > d[-1]):
            raise ValueError("detuning outside tabulated grid")
        out = np.interp(delta, d, g2)
    return out if out.ndim else float(out)


def coupling_amplitude(spec: InteractionSpectrum, delta) -> np.ndarray | complex:
    """Pulse-mode coupling amplitude g(delta).

    Lorentzian keeps the complex cavity phase; flat and tabulated couplings
    are real (tabulated data fixes magnitudes only). Only |g|^2 and the
    kernel affect P(t) for resonant pulses; the phase shows up as a small
    causal delay of the drive.
    """
    delta = np.asarray(delta, dtype=float)
    if spec.kind == LORENTZIAN:
        out = np.sqrt(spec.gamma_p / (2.0 * np.pi)) / (delta / spec.kappa + 1j)
    elif spec.kind == FLAT:
        out = np.full(delta.shape, np.sqrt(spec.gamma_p / (2.0 * np.pi))) + 0j
    else:
        frac = spec.gamma_p / spec.gamma
        out = np.sqrt(frac * total_spectrum(spec, delta)) + 0j
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class MemoryKernel:
    """Memory kernel G(t) of the amplitude equation.

    For the flat spectrum the kernel is a Dirac mass of weight gamma
    (`is_markov` marker); calling it pointwise is then an error. Lorentzian
    kernels are analytic exponentials, tabulated ones are Fourier transforms
    of the sampled spectrum.
    """

    gamma: float
    analytic: bool
    is_markov: bool = False
    markov_weight: float | None = None
    kappa: float | None = None
    _nodes: np.ndarray | None = field(default=None, repr=False)
    _weights: np.ndarray | None = field(default=None, repr=False)

    def __call__(self, t) -> np.ndarray | complex:
        if self.is_markov:
            raise ValueError(
                "memoryless (Markov) kernel: weight gamma concentrated at t=0; "
                "use markov_weight instead of pointwise evaluation"
            )
        t = np.asarray(t, dtype=float)
        if self.analytic:
            out = 0.5 * self.gamma * self.kappa * np.exp(-self.kappa * np.abs(t)) + 0j
        else:
            out = _phase_sum(self._weights, self._nodes, t)
        return out if out.ndim else complex(out)

    def uniform(self, t0: float, dt: float, n: int) -> np.ndarray:
        """G on the uniform grid t0 + k*dt (fast path for solver weights)."""
        if self.is_markov:
            raise ValueError("memoryless (Markov) kernel has no uniform samples")
        if self.analytic:
            t = t0 + dt * np.arange(n)
            return 0.5 * self.gamma * self.kappa * np.exp(-self.kappa * np.abs(t)) + 0j
        return _phase_sum_uniform(self._weights, self._nodes, t0, dt, n)


def memory_kernel(spec: InteractionSpectrum) -> MemoryKernel:
    """Memory kernel of the given spectrum: G(t) = FT of |g_tot|^2.

    Lorentzian: exact (gamma*kappa/2) exp(-kappa|t|). Flat: symbolic Markov
    marker of weight gamma. Tabulated: numeric transform on the user grid.
    """
    if spec.kind == LORENTZIAN:
        return MemoryKernel(gamma=spec.gamma, analytic=True, kappa=spec.kappa)
    if spec.kind == FLAT:
        return MemoryKernel(gamma=spec.gamma, analytic=False, is_markov=True,
                            markov_weight=spec.gamma)
    d = spec.table_delta
    w = np.empty_like(d)
    w[0] = 0.5 * (d[1] - d[0])
    w[-1] = 0.5 * (d[-1] - d[-2])
    w[1:-1] = 0.5 * (d[2:] - d[:-2])
    return MemoryKernel(gamma=spec.gamma, analytic=False,
                        _nodes=d, _weights=w * spec.table_g2)


# ---------------------------------------------------------------------------
# driving term
# ---------------------------------------------------------------------------

def driving_term(spec: InteractionSpectrum, pulse: PulseSpec, t) -> np.ndarray | complex:
    """Driving term D(t) of the amplitude equation at time(s) t.

    Times are absolute; the pulse reference enters through t - t_a.
    Lorentzian drives are the closed-form cavity filter (`exp_filter`);
    tabulated drives use composite-trapezoid quadrature over the detuning
    window.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    out = _driving_eval(spec, pulse, np.atleast_1d(t_arr) - pulse.t_a)
    return complex(out[0]) if scalar else out


def driving_term_uniform(spec: InteractionSpectrum, pulse: PulseSpec,
                         t0: float, dt: float, n: int) -> np.ndarray:
    """D on the uniform grid t0 + k*dt; tabulated spectra take the chirp-z path."""
    tau0 = t0 - pulse.t_a
    if spec.kind != TABULATED:
        return _driving_eval(spec, pulse, tau0 + dt * np.arange(n))
    nodes, vals = _driving_quadrature_nodes(spec, pulse, tau_span=(n - 1) * dt)
    return _phase_sum_uniform(vals, nodes, tau0, dt, n)


def _driving_eval(spec: InteractionSpectrum, pulse: PulseSpec, tau: np.ndarray) -> np.ndarray:
    if spec.kind == FLAT:
        if pulse.shape == DELTA:
            raise ValueError(
                "delta pulse on the flat spectrum drives through a Dirac impulse; "
                "use the analytic Markov delta response"
            )
        # Markov short-circuit: D = sqrt(gamma_p) * u(t - t_a)
        return np.sqrt(spec.gamma_p) * np.asarray(envelope(pulse, tau + pulse.t_a))
    if spec.kind == LORENTZIAN:
        return -1j * np.sqrt(spec.gamma_p) * spec.kappa * exp_filter(spec.kappa, pulse, tau)
    nodes, vals = _driving_quadrature_nodes(spec, pulse,
                                            tau_span=float(np.ptp(tau)) if tau.size else 0.0)
    return _phase_sum(vals, nodes, tau)


def exp_filter(rate: complex, pulse: PulseSpec, tau) -> np.ndarray:
    """F_r[u](tau) = int_{-inf}^tau exp(-r (tau - s)) u(s) ds in closed form, Re r > 0.

    u is the pulse envelope, tau counted from t_a; the delta pulse is
    sqrt(2 pi) xi0 times a Dirac mass at 0. The Gaussian form uses erfcx(z),
    z = (r - 1j delta0) tau_f - tau/(2 tau_f), and where Re z < 0 would make
    it overflow, the reflection erfcx(z) = 2 exp(z^2) - erfcx(-z).
    """
    tau = np.asarray(tau, dtype=float)
    after = tau >= 0.0
    tpos = np.clip(tau, 0.0, None)
    if pulse.shape == DELTA:
        return np.where(after, pulse.xi0 * np.sqrt(2.0 * np.pi) * np.exp(-rate * tpos), 0.0 + 0j)
    tf, d0 = pulse.tau_f, pulse.delta0
    if pulse.shape == DECAYING_EXP:
        a = 0.5 / tf + 1j * d0
        if abs(rate - a) < _POLE_TOL * abs(rate):
            body = tpos * np.exp(-rate * tpos)
        else:
            body = (np.exp(-a * tpos) - np.exp(-rate * tpos)) / (rate - a)
        return np.where(after, body / np.sqrt(tf), 0.0 + 0j)
    if pulse.shape == RISING_EXP:
        b = 0.5 / tf - 1j * d0  # the pulse tail before cut-off grows as e^{b tau}
        before = np.exp(b * np.clip(tau, None, 0.0))
        return np.where(after, np.exp(-rate * tpos), before) / ((rate + b) * np.sqrt(tf))
    # gaussian
    amp = (2.0 * np.pi * tf**2) ** -0.25 * tf * np.sqrt(np.pi)
    q = (rate - 1j * d0) * tf
    z = np.asarray(q - tau / (2.0 * tf))
    gauss = np.exp(-1j * d0 * tau - tau**2 / (4.0 * tf**2))
    out = np.empty(tau.shape, dtype=complex)
    head, tail = z.real >= 0.0, z.real < 0.0
    out[head] = amp * gauss[head] * erfcx(z[head])
    out[tail] = amp * (2.0 * np.exp(q * q - rate * tau[tail]) - gauss[tail] * erfcx(-z[tail]))
    return out


def _driving_quadrature_nodes(spec: InteractionSpectrum, pulse: PulseSpec,
                              tau_span: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform detuning nodes and weighted integrand g*xi for a tabulated drive.

    The spacing h obeys two constraints: resolving the pulse spectrum, and
    pushing the 2*pi/h aliasing images of the trapezoid sum beyond the
    evaluation span plus the drive's own decay tail.
    """
    if pulse.shape == DELTA:
        raise ValueError("delta pulse with tabulated spectrum has no closed form "
                         "(constant spectrum is not integrable on a finite table)")
    feature = 1.0 / pulse.tau_f
    half_width = abs(pulse.delta0) + 50.0 * feature
    pad = 25.0 * pulse.tau_f + 25.0 / feature
    h = min(feature / 40.0, 2.0 * np.pi / (1.3 * (tau_span + pad)))
    lo = max(-half_width, spec.table_delta[0])
    hi = min(half_width, spec.table_delta[-1])
    if not hi > lo:
        raise ValueError("tabulated grid does not overlap the pulse spectrum window")
    m = int(np.ceil((hi - lo) / h)) + 1
    nodes = np.linspace(lo, hi, m)
    w = np.full(m, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    vals = w * np.asarray(coupling_amplitude(spec, nodes)) * np.asarray(
        spectral_amplitude(pulse, nodes))
    return nodes, vals


def _phase_sum(vals: np.ndarray, nodes: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_j vals_j * exp(-1j*nodes_j*tau_k) for arbitrary tau, blocked.

    Block size is capped so the outer-product phase matrix stays ~64 MB.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    block = max(1, (1 << 22) // max(nodes.size, 1))
    out = np.empty(tau.shape, dtype=complex)
    for s in range(0, tau.size, block):
        chunk = tau[s:s + block]
        out[s:s + block] = np.exp(-1j * np.outer(chunk, nodes)) @ vals
    return out


def _phase_sum_uniform(vals: np.ndarray, nodes: np.ndarray,
                       tau0: float, dtau: float, n: int) -> np.ndarray:
    """Same sum on tau_k = tau0 + k*dtau via chirp-z transform (exact FFT path)."""
    h = nodes[1] - nodes[0]
    x = vals * np.exp(-1j * nodes[0] * tau0)
    out = czt(x, m=n, w=np.exp(-1j * h * dtau), a=np.exp(1j * h * tau0))
    # czt accumulates the phase relative to nodes[0]; restore the absolute offset
    k = np.arange(n)
    return out * np.exp(-1j * nodes[0] * (k * dtau))
