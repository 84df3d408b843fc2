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
  gamma, which `memory_kernel` refuses (the Markov solver needs no kernel),
  and the driving term short-circuits to sqrt(gamma_p) * u(t - t_a).
* tabulated: |g_tot|^2 sampled on a uniform user grid (two-column CSV delta,
  g2), linearly interpolated; kernel and driving are computed numerically. The
  pulse coupling uses the uniform fraction sqrt(gamma_p/gamma * g2) with
  zero phase.

Every solver samples D and G on a uniform time grid, and each has one
evaluator there: `driving_term_uniform` and `MemoryKernel.uniform`. The
lorentzian pulse coupling is a causal first-order cavity filter,
D(tau) = -1j sqrt(gamma_p) kappa F_kappa[u](tau) with
F_r[u](tau) = int_{-inf}^tau exp(-r (tau - s)) u(s) ds, and `exp_filter`
evaluates F_r in closed form for every pulse shape, in float64 when the rate
and the carrier are real. D is returned as its float64 real and imaginary
parts, a part that is zero by construction marked None: a resonant
(delta0 = 0) Lorentzian drive is (None, -sqrt(gamma_p) kappa F). Tabulated
drives and kernels are composite-trapezoid quadratures on a uniform detuning
grid, evaluated for all grid times at once as a chirp-z transform by
Bluestein's algorithm on numpy's FFT.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx

from .grids import MAX_GRID_SAMPLES, MIN_SCALE, ParameterError, check_range, check_rates
from .pulses import (
    DECAYING_EXP,
    DELTA,
    RISING_EXP,
    PulseSpec,
    _envelope_at,
    _pulse_clock,
    spectral_amplitude,
)

LORENTZIAN = "lorentzian"
FLAT = "flat"
TABULATED = "tabulated"

# Degenerate-pole guard for the decaying-exp filter: wide enough that the
# (e^{-a tau} - e^{-r tau})/(r - a) cancellation stays benign.
_POLE_TOL = 1e-7
# |x| past which the Gaussian factor exp(-x^2) of `exp_filter` is +0 in float64, with a
# margin: exp underflows to +0 below -745.14.
_GAUSS_UNDERFLOW = math.sqrt(746.0)
# Largest distance of a table node from delta_0 + j h, h the mean gap, relative to h, on
# top of 4 ulp of the largest |delta| (a uniform grid's rounding leaves at most 2). The
# chirp-z sums place node j there: a stray of e*h moves the phase at t <= 2*pi/h by <= 2*pi*e.
_SPACING_RTOL = 1e-11


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
        check_rates(self.gamma, self.gamma_p)
        if self.kind == LORENTZIAN:
            check_range("kappa", np.nan if self.kappa is None else self.kappa, MIN_SCALE)
        if self.kind == TABULATED:
            d = np.asarray(self.table_delta, dtype=float)
            g2 = np.asarray(self.table_g2, dtype=float)
            if d.ndim != 1 or d.shape != g2.shape or d.size < 2:
                raise ValueError("tabulated spectrum needs matching 1-d delta and g2 arrays")
            if not (np.all(np.isfinite(d)) and np.all(np.isfinite(g2))):
                raise ValueError("tabulated delta and g2 must be finite")
            gaps = np.diff(d)
            if np.any(gaps <= 0.0):
                raise ValueError("tabulated delta grid must be strictly increasing")
            h = (d[-1] - d[0]) / (d.size - 1)
            stray = np.abs(d - (d[0] + h * np.arange(d.size))).max()
            if stray > _SPACING_RTOL * h + 4.0 * np.spacing(np.abs(d).max()):
                raise ValueError(f"tabulated delta grid must be uniform: a node strays "
                                 f"{stray / h:.3g} h from delta_0 + j h, h = {h:g}; gaps span "
                                 f"[{gaps.min():g}, {gaps.max():g}]")
            if np.any(g2 < 0.0):
                raise ValueError("tabulated g2 must be non-negative")
            object.__setattr__(self, "table_delta", d)
            object.__setattr__(self, "table_g2", g2)

    @property
    def alias_horizon(self) -> float:
        """Period 2*pi/h of a tabulated kernel (h the node spacing); inf otherwise."""
        if self.kind != TABULATED:
            return np.inf
        return 2.0 * np.pi / np.diff(self.table_delta).max()

    @classmethod
    @functools.lru_cache(typed=True)
    def lorentzian(cls, kappa: float, gamma_p: float = 1.0, gamma: float = 1.0):
        """Memoised, as every cell of a sweep's kappa row builds the same spectrum (which
        holds no array); refused rates raise on every call."""
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
        """Read a tabulated spectrum from two-column CSV (delta, g2) with header.

        A non-empty row without exactly two finite numbers is refused by its
        row number, the header being row 1.
        """
        deltas, g2s = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # header row
            for row in reader:
                if not row:
                    continue
                try:
                    delta, g2 = map(float, row)
                except ValueError:
                    delta = g2 = np.nan
                if not (np.isfinite(delta) and np.isfinite(g2)):
                    raise ValueError(f"row {reader.line_num}: need two finite numbers "
                                     f"(delta, g2), got {row}")
                deltas.append(delta)
                g2s.append(g2)
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
    """Memory kernel G(t) of the amplitude equation, evaluated by `uniform` alone.

    Lorentzian kernels are analytic exponentials, tabulated ones are Fourier
    transforms of the sampled spectrum, summed by the Bluestein chirp-z
    transform.
    """

    gamma: float
    analytic: bool
    kappa: float | None = None
    _nodes: np.ndarray | None = field(default=None, repr=False)
    _weights: np.ndarray | None = field(default=None, repr=False)

    def uniform(self, t0: float, dt: float, n: int) -> np.ndarray:
        """G on the uniform grid t0 + k*dt, the samples every solver weight is built from."""
        if self.analytic:
            t = t0 + dt * np.arange(n)
            return 0.5 * self.gamma * self.kappa * np.exp(-self.kappa * np.abs(t)) + 0j
        return _phase_sum_uniform(self._weights, self._nodes, t0, dt, n)


def memory_kernel(spec: InteractionSpectrum) -> MemoryKernel:
    """Memory kernel of the given spectrum: G(t) = FT of |g_tot|^2.

    Lorentzian: exact (gamma*kappa/2) exp(-kappa|t|). Tabulated: numeric
    transform on the user grid. Flat: refused, as its kernel is a Dirac mass
    of weight gamma with no memory to sample (`solve_markov` is its solver).
    """
    if spec.kind == LORENTZIAN:
        return MemoryKernel(gamma=spec.gamma, analytic=True, kappa=spec.kappa)
    if spec.kind == FLAT:
        raise ParameterError("kind", "flat spectrum has a memoryless kernel (a Dirac mass of "
                                     "weight gamma): use solve_markov")
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

def driving_term_uniform(spec: InteractionSpectrum, pulse: PulseSpec,
                         t0: float, dt: float, n: int) -> tuple:
    """Driving term D(t) of the amplitude equation on the uniform grid t0 + k*dt,
    as its float64 parts (re, im), a part that is zero by construction given as None.

    Times are absolute, and the pulse sits on its clock (`pulses._pulse_clock`),
    tau_k = (t0 - t_a) + k*dt. Flat drives are the envelope at tau,
    Lorentzian drives the closed-form cavity filter (`exp_filter`), and
    tabulated drives the trapezoid quadrature over the detuning window,
    summed by the Bluestein chirp-z transform from tau_0. Without a
    carrier (delta0 = 0) the flat drive is (sqrt(gamma_p) u, None) and the
    real filter F gives D = -1j sqrt(gamma_p) kappa F = (None, -sqrt(gamma_p)
    kappa F), each part formed as in the complex product; every other drive
    is split off its complex samples.
    """
    if spec.kind == TABULATED:
        nodes, vals = _driving_quadrature_nodes(spec, pulse, tau_span=(n - 1) * dt)
        return _parts(_phase_sum_uniform(vals, nodes, t0 - pulse.t_a, dt, n))
    tau = _pulse_clock(pulse.t_a, t0, dt, n)
    if spec.kind == FLAT:
        if pulse.shape == DELTA:
            raise ValueError(
                "delta pulse on the flat spectrum drives through a Dirac impulse; "
                "use the analytic Markov delta response"
            )
        # Markov short-circuit: D = sqrt(gamma_p) * u(tau), real without a carrier
        u = _envelope_at(pulse, tau)
        if pulse.delta0 == 0.0:
            return math.sqrt(spec.gamma_p) * u.real, None
        return _parts(math.sqrt(spec.gamma_p) * u)
    f = exp_filter(spec.kappa, pulse, tau)
    if np.iscomplexobj(f):
        return _parts(-1j * math.sqrt(spec.gamma_p) * spec.kappa * f)
    # Im(-1j a f) = 0 * 0 + (-a) f for real a and f: a +0.0 turns the product's -0 into +0
    f *= -(math.sqrt(spec.gamma_p) * spec.kappa)
    f += 0.0
    return None, f


def _parts(x: np.ndarray) -> tuple:
    """Contiguous float64 copies (re, im) of the parts of a complex array."""
    return x.real.copy(), x.imag.copy()


def _real_if_exact(x: complex) -> complex | float:
    """x as a float when its imaginary part is exactly zero, else as a complex."""
    x = complex(x)
    return x.real if x.imag == 0.0 else x


def exp_filter(rate: complex, pulse: PulseSpec, tau) -> np.ndarray:
    """F_r[u](tau) = int_{-inf}^tau exp(-r (tau - s)) u(s) ds in closed form, Re r > 0.

    u is the pulse envelope, tau the pulse times, ascending (a pulse clock), counted
    from t_a; the delta pulse is sqrt(2 pi) xi0 times a Dirac mass at 0. Each piece of
    the form is evaluated only on its own samples, found by `np.searchsorted`: before and
    from tau = 0, and for the Gaussian, which uses erfcx(z), z = (r - 1j delta0) tau_f -
    tau/(2 tau_f), before and from the first sample with Re z < 0 (Re z descends), where
    erfcx(z) would overflow and the reflection erfcx(z) = 2 exp(z^2) - erfcx(-z) is used.
    A product with a temporary array is an `np.multiply`, which keeps its operands'
    order at any length (numpy may reuse a long temporary in place with the operands
    swapped, and a complex product rounds by their order).

    A rate with an exactly zero imaginary part (kappa, a real branch pole) and the
    carrier 1j delta0 at delta0 = 0 are carried as floats, so with both real, exp and
    erfcx run in real arithmetic and the result is a float64 array, the real part of
    the complex one; otherwise it is complex. Every Gaussian filter, real or complex,
    with or without a carrier, skips the samples where its Gaussian factor underflows
    (`_GAUSS_UNDERFLOW`): there the product with erfcx was +-0, and it is +0.
    """
    tau = np.asarray(tau, dtype=float)
    rate = _real_if_exact(rate)
    on = int(np.searchsorted(tau, 0.0))  # the first sample at tau >= 0
    if pulse.shape == DELTA:
        body = pulse.xi0 * math.sqrt(2.0 * np.pi) * np.exp(-rate * tau[on:])
        out = np.zeros(tau.shape, body.dtype)
        out[on:] = body
        return out
    tf, carrier = pulse.tau_f, _real_if_exact(1j * pulse.delta0)
    if pulse.shape == DECAYING_EXP:
        tpos = tau[on:]
        a = 0.5 / tf + carrier
        if abs(rate - a) < _POLE_TOL * abs(rate):
            body = np.multiply(tpos, np.exp(-rate * tpos))
        else:
            body = (np.exp(-a * tpos) - np.exp(-rate * tpos)) / (rate - a)
        out = np.zeros(tau.shape, body.dtype)
        out[on:] = body / math.sqrt(tf)
        return out
    if pulse.shape == RISING_EXP:
        b = 0.5 / tf - carrier  # the pulse tail before cut-off grows as e^{b tau}
        norm = (rate + b) * math.sqrt(tf)  # a float or a complex, as rate and b are
        out = np.empty(tau.shape, type(norm))
        out[:on] = np.exp(b * tau[:on])
        out[on:] = np.exp(-rate * tau[on:])
        out /= norm
        return out
    # gaussian: erfcx(z) at Re z >= 0, the reflection at the tail Re z < 0
    amp = (2.0 * np.pi * tf**2) ** -0.25 * tf * math.sqrt(np.pi)
    q = (rate - carrier) * tf
    x = tau / (2.0 * tf)
    tail = int(np.searchsorted(x, q.real, side="right"))  # Re z = q.real - x < 0 from here

    def gauss(t):  # e^{-carrier t - t^2/(4 tf^2)}; t^2/(-4 tf^2) is the same bits at carrier 0
        if carrier == 0.0:
            return np.exp(t**2 / (-4.0 * tf**2))
        return np.exp(-carrier * t - t**2 / (4.0 * tf**2))

    # past |tau| = 2 tf sqrt(746) the Gaussian factor underflows to +-0 (exp(x) is +0 below
    # x = -745.14, and |e^{-carrier t}| = 1), and so does its product with erfcx, |erfcx(z)| <= 1
    # at Re z >= 0, so neither is evaluated there: the head is +0 and the tail is
    # amp 2 e^{q^2 - r tau}, the same values
    cut = 2.0 * tf * _GAUSS_UNDERFLOW
    lo, hi = tau.searchsorted((-cut, cut))
    out = np.zeros(tau.shape, type(q))
    head = slice(lo, min(hi, tail))
    out[head] = np.multiply(amp * gauss(tau[head]), erfcx(q - x[head]))
    out[tail:] = 2.0 * np.exp(q * q - rate * tau[tail:])
    near = slice(tail, hi)  # the tail has tau > 2 q.real tf > 0 > -cut
    out[near] -= np.multiply(gauss(tau[near]), erfcx(x[near] - q))
    out[tail:] *= amp
    return out


def _driving_quadrature_nodes(spec: InteractionSpectrum, pulse: PulseSpec,
                              tau_span: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform detuning nodes and weighted integrand g*xi for a tabulated drive.

    The spacing h obeys two constraints: resolving the pulse spectrum, and
    pushing the 2*pi/h aliasing images of the trapezoid sum beyond the
    evaluation span plus the drive's own decay tail. A window needing more
    than MAX_GRID_SAMPLES nodes is refused before any node is allocated.
    """
    if pulse.shape == DELTA:
        raise ParameterError("shape", "delta pulse with tabulated spectrum has no closed form "
                                      "(constant spectrum is not integrable on a finite table)")
    feature = 1.0 / pulse.tau_f
    half_width = abs(pulse.delta0) + 50.0 * feature
    pad = 25.0 * pulse.tau_f + 25.0 / feature
    h = min(feature / 40.0, 2.0 * np.pi / (1.3 * (tau_span + pad)))
    lo = max(-half_width, spec.table_delta[0])
    hi = min(half_width, spec.table_delta[-1])
    if not hi > lo:
        raise ParameterError("csv", "tabulated grid does not overlap the pulse spectrum window")
    m = np.ceil((hi - lo) / h) + 1
    if m > MAX_GRID_SAMPLES:  # the carrier widens the window, tau_f refines its spacing
        name = "delta0" if abs(pulse.delta0) > 50.0 * feature else "tau_f"
        raise ParameterError(name, f"the tabulated drive needs {m:.3g} detuning nodes, over the "
                                   f"budget of {MAX_GRID_SAMPLES}: spacing {h:.3g} across "
                                   f"[{lo:g}, {hi:g}]")
    m = int(m)
    nodes = np.linspace(lo, hi, m)
    w = np.full(m, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    vals = w * np.asarray(coupling_amplitude(spec, nodes)) * np.asarray(
        spectral_amplitude(pulse, nodes))
    return nodes, vals


def _fft_size(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c >= n (numpy's FFT is fastest there)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _phase_sum_uniform(vals: np.ndarray, nodes: np.ndarray,
                       tau0: float, dtau: float, n: int) -> np.ndarray:
    """The phase sum sum_j vals_j exp(-1j nodes_j tau_k) on tau_k = tau0 + k*dtau,
    by Bluestein's chirp-z algorithm.

    With nodes_j = nodes_0 + j*h, h the mean gap (the nodes a uniform table
    or a linspace holds, to rounding), the sum is the chirp-z transform
    X_k = sum_j x_j a^{-j} w^{jk}, w = exp(-1j h dtau), a = exp(1j h tau0),
    and jk = (j^2 + k^2 - (k-j)^2)/2 makes it the convolution of
    x_j a^{-j} w^{j^2/2} with the chirp w^{-l^2/2}: one FFT product on
    numpy's FFT at a 5-smooth length (Rabiner, Schafer & Rader, IEEE Trans.
    Audio Electroacoust. 17, 1969).
    """
    m = vals.size
    h = (nodes[-1] - nodes[0]) / (m - 1)
    x = vals * np.exp(-1j * nodes[0] * tau0)
    k = np.arange(max(m, n), dtype=float)
    wk2 = np.exp(-0.5j * h * dtau * (k * k))
    ak = np.exp(-1j * h * tau0 * k[:m])
    size = _fft_size(m + n - 1)
    chirp = np.fft.fft(1.0 / np.concatenate((wk2[m - 1:0:-1], wk2[:n])), size)
    u = np.fft.fft(x * ak * wk2[:m], size)
    out = np.fft.ifft(chirp * u)[m - 1:m - 1 + n] * wk2[:n]
    # the transform counts the phase from nodes[0]; restore the absolute offset
    return out * np.exp(-1j * nodes[0] * (k[:n] * dtau))
