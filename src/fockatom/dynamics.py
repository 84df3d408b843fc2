"""Excitation amplitude C(t) of the atom by several independent routes.

For a Lorentzian interaction spectrum the amplitude equation

    dC/dt = -int_{t0}^t G(t-s) C(s) ds + D(t),   G(t) = (gamma*kappa/2) e^{-kappa|t|}

is solved three ways that share nothing but the driving term:

* `solve_closed_form_lorentzian`: the exact two-branch Laplace solution with
  decay rates p_j and weights s_j; the remaining time convolution is a
  cumulative trapezoid evaluated by a stable exponential recursion.
* `solve_ode_reduction`: the exponential kernel embedded exactly as the
  auxiliary variable M' = -kappa*M + C, integrated with fixed-step RK4.
* `solve_volterra`: generic product-trapezoid discretization of the memory
  integral (piecewise-linear amplitude, exact kernel moments) with an
  implicit-trapezoid step. Works for any evaluable kernel, O(n^2).

`solve_markov` is the flat-spectrum (Wigner-Weisskopf) reference, and the
remaining operations cover spontaneous decay, the delta-pulse rising edge
and the frequency-domain branch decomposition of the absorption amplitude.

All solvers accept an initial amplitude C(t0) = c0 along with the pulse;
the dynamics is linear, so the result is the superposition of the two
responses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .grids import TimeGrid
from .pulses import DELTA, PulseSpec
from .serialize import params_digest
from .spectra import (
    FLAT,
    TABULATED,
    InteractionSpectrum,
    driving_term_uniform,
    exp_filter,
    memory_kernel,
)

# Fraction gamma_p/gamma of pulse modes in the total field modes: perfect
# matching, dipole-aligned 3-d free space, thin 1-d waveguide.
MODE_FRACTION_PRESETS = {
    "matched": 1.0,
    "free_space": 3.0 / (8.0 * np.pi),
    "waveguide_1d": 0.5,
}

_DEGENERATE_RTOL = 1e-9   # |kappa - 2 gamma| below this (times gamma) is the double pole
# Guard against solver blowups. Exactly spectrally-matched pulses touch P = 1
# and second-order time quadrature can overshoot it by ~1e-7 at dt = 1e-3,
# so the guard sits above that; the 1e-9 physics bound is asserted in tests.
_PROB_TOL = 1e-6
_VOLTERRA_MAX_N = 1_000_000


@dataclass(frozen=True)
class AtomParams:
    """Two-level atom in the rotating frame: decay rates and pulse delay.

    gamma is the total Markov decay rate (the unit of all rates), gamma_p
    the decay back into the pulse modes, t_d the propagation delay z0/c
    added to the pulse arrival, and c0 the initial excitation amplitude.
    """

    gamma: float = 1.0
    gamma_p: float = 1.0
    t_d: float = 0.0
    c0: complex = 0.0 + 0j

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 < self.gamma_p <= self.gamma:
            raise ValueError(
                f"need 0 < gamma_p <= gamma, got gamma_p={self.gamma_p}, gamma={self.gamma}"
            )
        if abs(self.c0) > 1.0 + 1e-12:
            raise ValueError(f"|c0| must be <= 1, got {abs(self.c0)}")

    @classmethod
    def with_mode_fraction(cls, preset: str, gamma: float = 1.0, **kw) -> "AtomParams":
        frac = MODE_FRACTION_PRESETS[preset]
        return cls(gamma=gamma, gamma_p=frac * gamma, **kw)


@dataclass(frozen=True)
class LorentzBranches:
    """Laplace poles p_j and weights s_j of the Lorentzian-kernel response.

    p1 + p2 = kappa and p1*p2 = gamma*kappa/2 hold exactly; s1 + s2 = 1.
    For kappa < 2*gamma the branches are complex conjugates: Re p is the
    decay rate and Im p the frequency shift.
    """

    p1: complex
    p2: complex
    s1: complex
    s2: complex
    degenerate: bool

    @property
    def pairs(self):
        return ((self.p1, self.s1), (self.p2, self.s2))


def branch_params(gamma: float, kappa: float) -> LorentzBranches:
    """Branch decay rates and weights of the exact Lorentzian solution.

    p_j = (kappa + (-1)^j sqrt(kappa^2 - 2 kappa gamma))/2 and
    s_j = (1 - (-1)^j / sqrt(1 - 2 gamma/kappa))/2, principal square roots.
    p1 is computed from the product identity p1*p2 = gamma*kappa/2 in the
    real-branch regime to avoid cancellation at kappa >> gamma.
    """
    if not (gamma > 0.0 and kappa > 0.0):
        raise ValueError("gamma and kappa must be positive")
    degenerate = abs(kappa - 2.0 * gamma) < _DEGENERATE_RTOL * gamma
    disc = kappa * kappa - 2.0 * kappa * gamma
    if disc >= 0.0:
        w = np.sqrt(disc)
        p2 = complex(0.5 * (kappa + w))
        p1 = complex(0.5 * gamma * kappa) / p2
        r = 1.0 / np.sqrt(1.0 - 2.0 * gamma / kappa) if not degenerate else np.inf
        s1 = complex(0.5 * (1.0 + r))
        s2 = complex(0.5 * (1.0 - r))
    else:
        w = np.sqrt(-disc)
        p1 = 0.5 * (kappa - 1j * w)
        p2 = 0.5 * (kappa + 1j * w)
        v = np.sqrt(2.0 * gamma / kappa - 1.0)
        s1 = 0.5 * (1.0 - 1j / v)
        s2 = 0.5 * (1.0 + 1j / v)
    return LorentzBranches(p1=p1, p2=p2, s1=s1, s2=s2, degenerate=degenerate)


@dataclass(frozen=True)
class Trajectory:
    """Complex amplitude C and probability P = |C|^2 on a uniform grid."""

    t0: float
    dt: float
    c: np.ndarray
    p: np.ndarray
    solver_id: str
    params_digest: str

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.p))

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.t0, self.dt, len(self.p))

    @classmethod
    def from_amplitude(cls, grid: TimeGrid, c: np.ndarray, solver_id: str,
                       params: dict, check_bound: bool = True) -> "Trajectory":
        p = np.abs(c) ** 2
        if check_bound and p.max(initial=0.0) > 1.0 + _PROB_TOL:
            raise ValueError(
                f"probability bound violated: max P = {p.max():.6g} > 1 + {_PROB_TOL}"
            )
        return cls(t0=grid.t0, dt=grid.dt, c=np.asarray(c, complex), p=p,
                   solver_id=solver_id, params_digest=params_digest(params))


def _param_dict(solver: str, atom: AtomParams, grid: TimeGrid, pulse: PulseSpec | None,
                **extra) -> dict:
    d = {
        "solver": solver,
        "gamma": atom.gamma,
        "gamma_p": atom.gamma_p,
        "t_d": atom.t_d,
        "c0": [atom.c0.real, atom.c0.imag],
        "grid": {"t0": grid.t0, "dt": grid.dt, "n": grid.n},
    }
    if pulse is not None:
        d["pulse"] = {"shape": pulse.shape, "tau_f": pulse.tau_f, "delta0": pulse.delta0,
                      "t_a": pulse.t_a, "xi0": pulse.xi0}
    d.update(extra)
    return d


def _lorentz_spectrum(atom: AtomParams, kappa: float) -> InteractionSpectrum:
    return InteractionSpectrum.lorentzian(kappa, gamma_p=atom.gamma_p, gamma=atom.gamma)


def _drive_on_grid(atom: AtomParams, spectrum: InteractionSpectrum, pulse: PulseSpec | None,
                   grid: TimeGrid, half_step: bool = False) -> np.ndarray:
    """D sampled on the grid (or the dt/2 refinement), with t_d folded in."""
    if pulse is None:
        m = 2 * grid.n - 1 if half_step else grid.n
        return np.zeros(m, dtype=complex)
    dt = 0.5 * grid.dt if half_step else grid.dt
    m = 2 * grid.n - 1 if half_step else grid.n
    return driving_term_uniform(spectrum, pulse, grid.t0 - atom.t_d, dt, m)


def _exp_conv_trapezoid(p: complex, D: np.ndarray, dt: float) -> np.ndarray:
    """J_k = int_0^{t_k} e^{-p (t_k - s)} D(s) ds by cumulative trapezoid.

    Evaluated through the stable recursion J_k = e^{-p dt}(J_{k-1} +
    dt/2 D_{k-1}) + dt/2 D_k, identical to trapezoid in exact arithmetic.
    """
    e = np.exp(-p * dt)
    b = np.empty(len(D), dtype=complex)
    b[0] = 0.0
    b[1:] = 0.5 * dt * (e * D[:-1] + D[1:])
    return lfilter([1.0], [1.0, -e], b)


def solve_closed_form_lorentzian(atom: AtomParams, kappa: float, pulse: PulseSpec | None,
                                 grid: TimeGrid) -> Trajectory:
    """Exact two-branch solution for the Lorentzian spectrum.

    C(t) = sum_j s_j e^{-p_j (t-t0)} [C(t0) + int_0^{t-t0} e^{p_j s} D(t0+s) ds];
    at the double pole kappa = 2*gamma the impulse response degenerates to
    (1 + gamma t) e^{-gamma t} and the corresponding form is used instead.
    """
    spectrum = _lorentz_spectrum(atom, kappa)
    D = _drive_on_grid(atom, spectrum, pulse, grid)
    br = branch_params(atom.gamma, kappa)
    dtt = grid.dt * np.arange(grid.n)
    if br.degenerate:
        g = atom.gamma
        E = np.exp(-g * dtt)
        Ja = _exp_conv_trapezoid(g, D, grid.dt)
        # J_b = int (t-s) e^{-g(t-s)} D ds via the paired recursion
        e = np.exp(-g * grid.dt)
        b = np.empty(grid.n, dtype=complex)
        b[0] = 0.0
        b[1:] = e * (grid.dt * Ja[:-1] + 0.5 * grid.dt**2 * D[:-1])
        Jb = lfilter([1.0], [1.0, -e], b)
        C = (1.0 + g * dtt) * E * atom.c0 + Ja + g * Jb
    else:
        C = np.zeros(grid.n, dtype=complex)
        for p, s in br.pairs:
            C += s * (np.exp(-p * dtt) * atom.c0 + _exp_conv_trapezoid(p, D, grid.dt))
    params = _param_dict("closed_form", atom, grid, pulse, kappa=kappa)
    return Trajectory.from_amplitude(grid, C, "closed_form", params,
                                     check_bound=pulse is None or pulse.shape != DELTA)


def solve_ode_reduction(atom: AtomParams, kappa: float, pulse: PulseSpec | None,
                        grid: TimeGrid) -> Trajectory:
    """Exact ODE embedding of the exponential kernel, fixed-step RK4.

    Integrates C' = -(gamma kappa/2) M + D(t), M' = -kappa M + C with
    M(t0) = 0, which is identical to the Volterra equation for the
    Lorentzian kernel. The fixed step must resolve the stiffest rate.
    """
    stiff = max(kappa, atom.gamma)
    if grid.dt > 0.1 / stiff * (1.0 + 1e-9):
        raise ValueError(
            f"step too large for stiffness: dt={grid.dt:g} > 0.1/max(kappa, gamma)={0.1 / stiff:g}"
        )
    spectrum = _lorentz_spectrum(atom, kappa)
    Dh = _drive_on_grid(atom, spectrum, pulse, grid, half_step=True)
    gk = 0.5 * atom.gamma * kappa
    dt = grid.dt
    C = np.zeros(grid.n, dtype=complex)
    c = complex(atom.c0)
    m = 0.0 + 0j
    C[0] = c
    for i in range(grid.n - 1):
        d0 = Dh[2 * i]
        dm = Dh[2 * i + 1]
        d1 = Dh[2 * i + 2]
        k1c = -gk * m + d0
        k1m = c - kappa * m
        c2 = c + 0.5 * dt * k1c
        m2 = m + 0.5 * dt * k1m
        k2c = -gk * m2 + dm
        k2m = c2 - kappa * m2
        c3 = c + 0.5 * dt * k2c
        m3 = m + 0.5 * dt * k2m
        k3c = -gk * m3 + dm
        k3m = c3 - kappa * m3
        c4 = c + dt * k3c
        m4 = m + dt * k3m
        k4c = -gk * m4 + d1
        k4m = c4 - kappa * m4
        c += dt / 6.0 * (k1c + 2.0 * (k2c + k3c) + k4c)
        m += dt / 6.0 * (k1m + 2.0 * (k2m + k3m) + k4m)
        C[i + 1] = c
    params = _param_dict("ode_rk4", atom, grid, pulse, kappa=kappa)
    return Trajectory.from_amplitude(grid, C, "ode_rk4", params,
                                     check_bound=pulse is None or pulse.shape != DELTA)


def _product_trapezoid_weights(kernel, dt: float, n: int):
    """Per-lag product-integration weights A_j, B_j, j = 1..n-1.

    Interval [t_m, t_{m+1}] contributes A_j C_m + B_j C_{m+1} to the memory
    integral at t_{m+j}, with the kernel integrated exactly against the
    linear interpolant of C. Exponential kernels use closed-form moments;
    numeric kernels a per-interval Simpson rule.
    """
    j = np.arange(1, n)
    if kernel.analytic:
        kap = kernel.kappa
        g0 = 0.5 * kernel.gamma * kap
        x = kap * dt
        decay = np.exp(-kap * (j - 1) * dt)
        m1 = (1.0 - np.exp(-x) * (1.0 + x)) / (kap * kap * dt)  # int_0^dt e^{-k u} u/dt du
        m0 = (1.0 - np.exp(-x)) / kap                           # int_0^dt e^{-k u} du
        A = g0 * decay * m1
        B = g0 * decay * (m0 - m1)
    else:
        G = kernel.uniform(0.0, 0.5 * dt, 2 * n - 1)
        g_left = G[2 * (j - 1)]
        g_mid = G[2 * j - 1]
        g_right = G[2 * j]
        A = dt / 6.0 * (2.0 * g_mid + g_right)
        B = dt / 6.0 * (g_left + 2.0 * g_mid)
    return A.astype(complex), B.astype(complex)


def solve_volterra(atom: AtomParams, spectrum: InteractionSpectrum, pulse: PulseSpec | None,
                   grid: TimeGrid) -> Trajectory:
    """Generic Volterra integro-differential solver for any evaluable kernel.

    Product-trapezoid memory sum (O(n^2)) with an implicit trapezoid step;
    the step is linear in C_i, so the corrector is solved exactly. A flat
    spectrum has no memory to integrate and is redirected to `solve_markov`;
    a tabulated one is refused on grids reaching its kernel's period 2*pi/h.
    """
    if spectrum.kind == FLAT:
        warnings.warn("flat spectrum has a memoryless kernel; redirecting to solve_markov",
                      stacklevel=2)
        return solve_markov(atom, pulse, grid)
    if grid.n > _VOLTERRA_MAX_N:
        raise ValueError(f"memory budget exceeded: n={grid.n} > {_VOLTERRA_MAX_N}")
    if spectrum.kind == TABULATED:
        horizon = 2.0 * np.pi / np.diff(spectrum.table_delta).max()
        if (grid.n - 1) * grid.dt >= horizon:
            raise ValueError(f"grid span {(grid.n - 1) * grid.dt:g} reaches the tabulated "
                             f"kernel's alias horizon 2*pi/h = {horizon:g} (h = largest node gap)")
    if abs(spectrum.gamma - atom.gamma) > 1e-12 * atom.gamma or \
       abs(spectrum.gamma_p - atom.gamma_p) > 1e-12 * atom.gamma:
        raise ValueError("atom rates and spectrum rates disagree")
    D = _drive_on_grid(atom, spectrum, pulse, grid)
    kern = memory_kernel(spectrum)
    A, B = _product_trapezoid_weights(kern, grid.dt, grid.n)
    # I_fix(t_i) = A_i C_0 + sum_{m=1}^{i-1} (A_{i-m} + B_{i-m+1}) C_m
    S = A[:-1] + B[1:]
    dt = grid.dt
    n = grid.n
    C = np.zeros(n, dtype=complex)
    C[0] = atom.c0
    f_prev = D[0] + 0j  # memory integral vanishes at t0
    b1 = B[0]
    half = 0.5 * dt
    denom = 1.0 + half * b1
    for i in range(1, n):
        i_fix = A[i - 1] * C[0]
        if i >= 2:
            i_fix += np.dot(S[:i - 1], C[i - 1:0:-1])
        ci = (C[i - 1] + half * (f_prev - i_fix + D[i])) / denom
        C[i] = ci
        f_prev = D[i] - (i_fix + b1 * ci)
    params = _param_dict("volterra", atom, grid, pulse, spectrum_kind=spectrum.kind,
                         kappa=spectrum.kappa)
    return Trajectory.from_amplitude(grid, C, "volterra", params,
                                     check_bound=pulse is None or pulse.shape != DELTA)


def solve_markov(atom: AtomParams, pulse: PulseSpec | None, grid: TimeGrid) -> Trajectory:
    """Flat-spectrum (Wigner-Weisskopf) reference dynamics.

    C' = -(gamma/2) C + sqrt(gamma_p) u(t - t_d - t_a); the delta pulse is
    handled analytically, C jumping to xi0*sqrt(gamma_p) on arrival and
    decaying at gamma/2 afterwards.
    """
    g2 = 0.5 * atom.gamma
    dtt = grid.dt * np.arange(grid.n)
    C = np.exp(-g2 * dtt) * atom.c0
    if pulse is not None and pulse.shape == DELTA:
        t_arr = pulse.t_a + atom.t_d
        rel = grid.times - t_arr
        amp = pulse.xi0 * np.sqrt(atom.gamma_p)
        C = C + np.where(rel >= 0.0, amp * np.exp(-g2 * np.clip(rel, 0.0, None)), 0.0)
    elif pulse is not None:
        spectrum = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
        D = _drive_on_grid(atom, spectrum, pulse, grid)
        C = C + _exp_conv_trapezoid(g2, D, grid.dt)
    params = _param_dict("markov", atom, grid, pulse)
    return Trajectory.from_amplitude(grid, C, "markov", params,
                                     check_bound=pulse is None or pulse.shape != DELTA)


def spontaneous_decay(atom: AtomParams, kappa: float, grid: TimeGrid) -> Trajectory:
    """Decay of a fully excited atom (C(t0) = 1, no pulse), evaluated exactly.

    P(t) = |s1 e^{-p1 (t-t0)} + s2 e^{-p2 (t-t0)}|^2; at kappa = 2*gamma the
    degenerate form |(1 + gamma (t-t0)) e^{-gamma (t-t0)}|^2 applies. For
    kappa < 2*gamma the branches are complex and P oscillates.
    """
    if atom.c0 != 1.0:
        raise ValueError("spontaneous decay is defined for c0 = 1 (excited atom)")
    br = branch_params(atom.gamma, kappa)
    dtt = grid.dt * np.arange(grid.n)
    if br.degenerate:
        C = (1.0 + atom.gamma * dtt) * np.exp(-atom.gamma * dtt) + 0j
    else:
        C = br.s1 * np.exp(-br.p1 * dtt) + br.s2 * np.exp(-br.p2 * dtt)
    params = _param_dict("spontaneous_decay", atom, grid, None, kappa=kappa)
    return Trajectory.from_amplitude(grid, C, "closed_form", params)


def delta_pulse_rise(atom: AtomParams, kappa: float, grid: TimeGrid):
    """Rising edge C_R(t) of the delta-pulse response and its speed dC_R/dt.

    C_R(t) = int_0^{t-t0} H(s - t_d) kappa e^{-kappa (s - t_d)} e^{gamma s/2} ds,
    the monotone window whose width sets the fastest possible rise of the
    excitation probability; its derivative has 1/e width 1/(kappa - gamma/2).
    Weak coupling (gamma <= kappa) is required for the underlying form.
    """
    if atom.gamma > kappa:
        raise ValueError("delta-pulse rising edge assumes weak coupling (gamma <= kappa)")
    g, td = atom.gamma, atom.t_d
    rate = kappa - 0.5 * g
    dtt = grid.dt * np.arange(grid.n)
    rel = np.clip(dtt - td, 0.0, None)
    active = dtt >= td
    scale = kappa * np.exp(0.5 * g * td)
    c_r = np.where(active, scale * (1.0 - np.exp(-rate * rel)) / rate, 0.0)
    dc_r = np.where(active, scale * np.exp(-rate * rel), 0.0)
    return c_r, dc_r


def branch_decomposition(atom: AtomParams, kappa: float, pulse: PulseSpec | None,
                         grid: TimeGrid):
    """Frequency-domain split C = C1 + C2 over the two Lorentzian branches.

    C_j(t) = s_j int g(delta) xi(delta) / (p_j - 1j*delta) e^{-1j*delta*(t - t_a - t_d)}
    d delta, which partial fractions turn into the cavity filters (`exp_filter`)
    C_j = s_j (-1j sqrt(gamma_p) kappa) (F_kappa - F_{p_j}) / (p_j - kappa);
    p_j != kappa as p1*p2 = gamma*kappa/2 > 0. Valid once the pulse is fully
    inside the window (the t0 transient of the closed form is absent here).
    The degenerate kappa = 2*gamma point has no two-branch split.
    """
    br = branch_params(atom.gamma, kappa)
    if br.degenerate:
        raise ValueError("kappa = 2*gamma is degenerate: use closed-form degenerate path")
    if pulse is None:
        z = np.zeros(grid.n, dtype=complex)
        return z, z.copy()
    tau = grid.t0 - pulse.t_a - atom.t_d + grid.dt * np.arange(grid.n)
    amp = -1j * np.sqrt(atom.gamma_p) * kappa
    f_kappa = exp_filter(kappa, pulse, tau)
    return tuple(s * amp * (f_kappa - exp_filter(p, pulse, tau)) / (p - kappa)
                 for p, s in br.pairs)
