"""Excitation amplitude C(t) of the atom by several independent routes.

For a Lorentzian interaction spectrum the amplitude equation

    dC/dt = -int_{t0}^t G(t-s) C(s) ds + D(t),   G(t) = (gamma*kappa/2) e^{-kappa|t|}

is solved three ways that share nothing but the driving term:

* `solve_closed_form_lorentzian`: the exact two-branch Laplace solution with
  decay rates p_j and weights s_j; the remaining time convolution is a
  cumulative trapezoid evaluated by a stable exponential recursion, solved
  as one unit lower-bidiagonal banded system. The convolution is linear in
  the drive, so the real and imaginary parts of D run as real sequences:
  float64 recursions for real poles, and one complex recursion standing for
  both branches of a complex-conjugate pair. From the recursions' end
  states it bounds |C| past its grid (`Trajectory.tail_bound`), so a sweep
  cell stops at a certified prefix of its grid; RK4, Volterra and the
  double pole give no bound, and their cells solve the whole grid.
* `solve_ode_reduction`: the exponential kernel embedded exactly as the
  auxiliary variable M' = -kappa*M + C, integrated with fixed-step RK4
  (`_rk4_step`, the tableau the Bloch detector runs too). The step is a
  constant real affine 2x2 map of (C, M), marched for each part of the
  drive by one banded triangular solve.
* `solve_volterra`: generic product-trapezoid discretization of the memory
  integral (piecewise-linear amplitude, exact kernel moments) with an
  implicit-trapezoid step. Works for any evaluable kernel; the march is one
  lower-triangular Toeplitz system, solved by blocked FFT products in
  O(n log^2 n).

`solve_markov` is the flat-spectrum (Wigner-Weisskopf) reference, and the
remaining operations cover spontaneous decay, the delta-pulse rising edge
and the frequency-domain branch decomposition of the absorption amplitude.

All solvers accept an initial amplitude C(t0) = c0 along with the pulse;
the dynamics is linear, so the result is the superposition of the two
responses. The drive arrives as the float64 parts (re, im) of
`driving_term_uniform`, a part that is zero by construction marked None.
The closed form, RK4 and the Volterra solver on a real memory column keep
the parts through to the amplitude; the Markov reference and the double
pole join them into one complex array (`_joined`). Each solver returns
`Trajectory.from_amplitude(grid, c, solver, atom, pulse, **extra)`, which
carries the grid, keeps those inputs as the trajectory's `params` (which
`serialize.write_trajectory` digests) and guards P <= 1.

Every route places the pulse on the drive's clock, the pulse time
tau_k = ((t0 - t_d) - t_a) + k*dt of `pulses._pulse_clock` (k*dt/2 at the
RK4 half steps): the drive, the Markov delta response, the branch split and
the delta-pulse rising edge, whose delta arrives at the grid start t0. A
pulse has arrived at the first sample with tau_k >= 0 in each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dtbtrs, dtrtrs, ztbtrs, ztrtrs

from .grids import MIN_SCALE, ParameterError, TimeGrid, check_range, check_rates
from .pulses import DELTA, PulseSpec, _pulse_clock, envelope_tail
from .spectra import InteractionSpectrum, driving_term_uniform, exp_filter, memory_kernel

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
_TOEPLITZ_BLOCK = 128          # rows per dense solve of the Volterra Toeplitz system
_TOEPLITZ_BLOCK_REAL = 512     # the same in float64, where a dense row costs a quarter


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
        check_rates(self.gamma, self.gamma_p)
        check_range("t_d", self.t_d)
        c0 = complex(self.c0)
        if not math.hypot(c0.real, c0.imag) <= 1.0 + 1e-12:
            raise ParameterError("c0", f"|c0| must be <= 1, got {math.hypot(c0.real, c0.imag)}")


def check_rates_agree(atom: AtomParams, spectrum: InteractionSpectrum) -> None:
    """Refuse a spectrum whose decay rates are not the atom's (to 1e-12 of gamma)."""
    for name in ("gamma", "gamma_p"):
        mine, theirs = getattr(atom, name), getattr(spectrum, name)
        if abs(theirs - mine) > 1e-12 * atom.gamma:
            raise ParameterError(name, f"atom and spectrum rates disagree: atom {name}={mine}, "
                                       f"spectrum {name}={theirs}")


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
    check_range("gamma", gamma, MIN_SCALE)
    check_range("kappa", kappa, MIN_SCALE)
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
    """Complex amplitude C and probability P = |C|^2 on the grid it was computed on.

    `params` holds what the solver ran on: the solver, the atom, the pulse,
    the grid and the solver's own parameters. `tail_bound` bounds |C| from
    the last sample on, should the same solve run on a longer grid of the
    same t0 and dt; inf where the solver gives no bound.
    """

    grid: TimeGrid
    c: np.ndarray
    p: np.ndarray
    solver_id: str
    params: dict
    tail_bound: float = math.inf

    @classmethod
    def from_amplitude(cls, grid: TimeGrid, c, solver: str, atom: AtomParams,
                       pulse: PulseSpec | None, tail_bound: float = math.inf,
                       **extra) -> "Trajectory":
        """The trajectory a solver computed, with the solver, the atom, the
        pulse, the grid and the solver's own parameters `extra` as its params.

        c is the complex amplitude or its float64 parts (re, im), a part that
        is zero by construction given as None. With no real part P is im*im,
        bit for bit the |1j im|^2 of the complex amplitude; otherwise P is
        |C|^2 of the complex array.

        Refuses, as a step that does not resolve the dynamics, a non-finite
        amplitude and, unless the pulse is a delta (an unnormalizable drive),
        P above 1 + _PROB_TOL.
        """
        if isinstance(c, tuple):
            re, im = c
            c = _joined(c, grid.n)
            p = im * im if re is None and im is not None else np.abs(c) ** 2
        else:
            c = np.asarray(c, complex)
            p = np.abs(c) ** 2
        p_max = p.max(initial=0.0)  # NaN if any sample is NaN
        if not np.isfinite(p_max):
            raise ParameterError("dt", f"non-finite amplitude from {solver}: max P = {p_max}")
        if (pulse is None or pulse.shape != DELTA) and p_max > 1.0 + _PROB_TOL:
            raise ParameterError(
                "dt", f"probability bound violated: max P = {p_max:.6g} > 1 + {_PROB_TOL}"
            )
        params = {"solver": solver, "gamma": atom.gamma, "gamma_p": atom.gamma_p,
                  "t_d": atom.t_d, "c0": [atom.c0.real, atom.c0.imag],
                  "grid": {"t0": grid.t0, "dt": grid.dt, "n": grid.n}, **extra}
        if pulse is not None:
            params["pulse"] = {"shape": pulse.shape, "tau_f": pulse.tau_f,
                               "delta0": pulse.delta0, "t_a": pulse.t_a, "xi0": pulse.xi0}
        return cls(grid=grid, c=c, p=p, solver_id=solver, params=params, tail_bound=tail_bound)


def _joined(parts, n: int) -> np.ndarray:
    """The complex array of n samples with float64 parts (re, im), None a zero part."""
    out = np.zeros(n, dtype=complex)
    for part, view in zip(parts, (out.real, out.imag)):
        if part is not None:
            view[:] = part
    return out


def _lorentz_spectrum(atom: AtomParams, kappa: float) -> InteractionSpectrum:
    return InteractionSpectrum.lorentzian(kappa, gamma_p=atom.gamma_p, gamma=atom.gamma)


def _drive_on_grid(atom: AtomParams, spectrum: InteractionSpectrum, pulse: PulseSpec | None,
                   grid: TimeGrid, half_step: bool = False) -> tuple:
    """D sampled on the grid (or the dt/2 refinement), with t_d folded in, as
    the float64 parts (re, im) of `driving_term_uniform`; no pulse is (None, None).

    A step with |delta0| dt > pi aliases the carrier of a (non-delta) pulse
    and is refused.
    """
    m = 2 * grid.n - 1 if half_step else grid.n
    if pulse is None:
        return None, None
    if pulse.shape != DELTA and abs(pulse.delta0) * grid.dt > np.pi:
        raise ParameterError("dt", f"dt={grid.dt:g} aliases the carrier: |delta0| dt = "
                                   f"{abs(pulse.delta0) * grid.dt:.3g} > pi")
    dt = 0.5 * grid.dt if half_step else grid.dt
    return driving_term_uniform(spectrum, pulse, grid.t0 - atom.t_d, dt, m)


def _first_order_recursion(e, b: np.ndarray) -> np.ndarray:
    """y_k = e y_{k-1} + b_k with y_{-1} = 0, overwriting the array b.

    The recursion is the unit lower-bidiagonal system y_k - e y_{k-1} = b_k,
    solved by one LAPACK banded triangular solve: `dtbtrs` when e and b are
    both real, `ztbtrs` otherwise. The band is built in Fortran order so it
    reaches LAPACK without a copy; only its sub-diagonal row is filled, as
    the diagonal row is not referenced (diag="U").
    """
    n = len(b)
    dtype = np.result_type(e, b)
    tbtrs = dtbtrs if dtype == np.float64 else ztbtrs
    band = np.empty((2, n), dtype=dtype, order="F")
    band[1] = -e
    y, _ = tbtrs(band, b.reshape(n, 1), uplo="L", diag="U", overwrite_b=1)
    return y[:, 0]


def _exp_conv_trapezoid(p, D: np.ndarray, dt: float) -> np.ndarray:
    """J_k = int_0^{t_k} e^{-p (t_k - s)} D(s) ds by cumulative trapezoid.

    Evaluated through the stable recursion J_k = e^{-p dt}(J_{k-1} +
    dt/2 D_{k-1}) + dt/2 D_k, identical to trapezoid in exact arithmetic,
    as one banded solve (`_first_order_recursion`). A real p and a real D
    give a real J, computed in float64.
    """
    e = np.exp(-p * dt)
    b = np.empty(len(D), dtype=np.result_type(e, D))
    b[0] = 0.0
    rest = b[1:]  # dt/2 (e D_{k-1} + D_k), formed in place
    np.multiply(e, D[:-1], out=rest)
    rest += D[1:]
    np.multiply(0.5 * dt, rest, out=rest)
    return _first_order_recursion(e, b)


def _branch_sum(br: LorentzBranches, D: tuple, dt: float) -> tuple[tuple, float]:
    """sum_j s_j J_{p_j}[D], the two-branch response to the drive D, as parts, and
    sum_parts sum_j |s_j| |J_{p_j}| at the last sample.

    J is linear, so the float64 parts (re, im) of D are convolved as
    separate real sequences, and a part that is absent (None) stays absent.
    For real poles the weights are real too and each branch is a float64
    recursion. For a complex pair p2 = conj(p1) and s2 = conj(s1) exactly,
    so s2 J_{p2}[x] = conj(s1 J_{p1}[x]) for real x and the sum is
    2 Re(s1 J_{p1}[x]): one complex recursion for both branches.
    """
    (p1, s1), (p2, s2) = br.pairs
    ends = []

    def response(x):
        if p1.imag == 0.0:
            j1, j2 = (_exp_conv_trapezoid(p.real, x, dt) for p in (p1, p2))
            ends.append(abs(s1) * abs(j1[-1]) + abs(s2) * abs(j2[-1]))
            return s1.real * j1 + s2.real * j2
        j1 = _exp_conv_trapezoid(p1, x, dt)
        ends.append(2.0 * abs(s1) * abs(j1[-1]))
        return 2.0 * (s1 * j1).real

    return tuple(None if x is None else response(x) for x in D), sum(ends)


def _tail_bound(atom: AtomParams, kappa: float, pulse: PulseSpec | None, grid: TimeGrid,
                br: LorentzBranches, D: tuple, ends: float) -> float:
    """A bound on |C_k| at every sample k >= q = n - 1 of the closed form on a longer grid
    of the same t0 and dt, from the branch end states `ends` of `_branch_sum`.

    Past q, each recursion of `_exp_conv_trapezoid` (e = e^{-p dt}, |e| <= 1) gives
    |J_k| <= |J_q| + (dt/2)(1 + |e|) S with S >= sum_{i>=q} |x_i| for each part x of
    the drive, and the free decay of c0 is at most |e|^q |c0|, so
    |C_k| <= sum_parts sum_j |s_j| (|J_{j,q}| + (dt/2)(1 + |e_j|) S) + sum_j |s_j| |e_j|^q |c0|.
    S is bounded without evaluating the drive past the grid: |D| = sqrt(gamma_p) kappa
    |F_kappa[u]|, and F_kappa at tau >= tau_q is F_kappa(tau_q) decayed plus the filtered
    envelope after tau_q, so S = (|D_q| + sqrt(gamma_p) kappa U(tau_q)) / (1 - e^{-kappa dt}),
    U = `pulses.envelope_tail` and tau_q the pulse time of sample q.
    """
    dt, q = grid.dt, grid.n - 1
    parts = [x[-1] for x in D if x is not None]
    drive = 0.0
    if parts:
        tau_q = ((grid.t0 - atom.t_d) - pulse.t_a) + dt * q
        tail = math.hypot(*parts) + math.sqrt(atom.gamma_p) * kappa * envelope_tail(pulse, tau_q)
        drive = len(parts) * 0.5 * dt * tail / -math.expm1(-kappa * dt)
    return ends + sum(abs(s) * (drive * (1.0 + math.exp(-p.real * dt))
                                + math.exp(-p.real * dt * q) * abs(atom.c0))
                      for p, s in br.pairs)


def solve_closed_form_lorentzian(atom: AtomParams, kappa: float, pulse: PulseSpec | None,
                                 grid: TimeGrid) -> Trajectory:
    """Exact two-branch solution for the Lorentzian spectrum.

    C(t) = sum_j s_j e^{-p_j (t-t0)} [C(t0) + int_0^{t-t0} e^{p_j s} D(t0+s) ds];
    at the double pole kappa = 2*gamma the impulse response degenerates to
    (1 + gamma t) e^{-gamma t} and the corresponding form is used instead.
    Away from it the drive term is `_branch_sum`: the real and imaginary
    parts of D run as real sequences, float64 recursions for real poles and
    one complex recursion for a conjugate pair, and a part that is zero (the
    real part at delta0 = 0) is skipped. The free decay of C(t0) is formed
    only when C(t0) = c0 is nonzero; with c0 = 0 the amplitude goes to
    `Trajectory.from_amplitude` as its parts.
    """
    spectrum = _lorentz_spectrum(atom, kappa)
    D = _drive_on_grid(atom, spectrum, pulse, grid)
    br = branch_params(atom.gamma, kappa)
    if br.degenerate:
        g = atom.gamma
        D = _joined(D, grid.n)
        Ja = _exp_conv_trapezoid(g, D, grid.dt)
        # J_b = int (t-s) e^{-g(t-s)} D ds via the paired recursion
        e = np.exp(-g * grid.dt)
        b = np.empty(grid.n, dtype=complex)
        b[0] = 0.0
        b[1:] = e * (grid.dt * Ja[:-1] + 0.5 * grid.dt**2 * D[:-1])
        Jb = _first_order_recursion(e, b)
        if atom.c0 == 0:
            C = Ja + g * Jb
        else:
            dtt = grid.dt * np.arange(grid.n)
            C = (1.0 + g * dtt) * np.exp(-g * dtt) * atom.c0 + Ja + g * Jb
        tail = math.inf
    else:
        C, ends = _branch_sum(br, D, grid.dt)
        tail = _tail_bound(atom, kappa, pulse, grid, br, D, ends)
        if atom.c0 != 0:
            C = _joined(C, grid.n)
            dtt = grid.dt * np.arange(grid.n)
            for p, s in br.pairs:
                C += s * (np.exp(-p * dtt) * atom.c0)
    return Trajectory.from_amplitude(grid, C, "closed_form", atom, pulse, tail, kappa=kappa)


def max_ode_step(gamma: float, kappa: float) -> float:
    """Largest RK4 step that resolves the stiffest rate max(kappa, gamma)."""
    return 0.1 / max(kappa, gamma)


def check_ode_step(gamma: float, kappa: float, dt: float) -> None:
    """Refuse an RK4 step above `max_ode_step`."""
    limit = max_ode_step(gamma, kappa)
    if dt > limit * (1.0 + 1e-9):
        raise ParameterError(
            "dt", f"step too large for stiffness: dt={dt:g} > 0.1/max(kappa, gamma)={limit:g}"
        )


def _rk4_step(f, dt: float, y: tuple, s0, sm, s1) -> tuple:
    """One classical RK4 step of y' = f(y, s) from the state tuple y.

    s0, sm and s1 are the input s at the step's start, midpoint and end;
    f returns the derivative as a tuple shaped like y. A step of a linear f
    applied to unit states reads off the step's affine map.
    """
    k1 = f(y, s0)
    k2 = f(tuple(v + 0.5 * dt * k for v, k in zip(y, k1)), sm)
    k3 = f(tuple(v + 0.5 * dt * k for v, k in zip(y, k2)), sm)
    k4 = f(tuple(v + dt * k for v, k in zip(y, k3)), s1)
    return tuple(v + dt / 6.0 * (a + 2.0 * (b + c) + d)
                 for v, a, b, c, d in zip(y, k1, k2, k3, k4))


def _affine_march(M, c, y0, n: int) -> np.ndarray:
    """States y_0..y_{n-1} of the real march y_{i+1} = M_i y_i + c_i, as a (2, n) array.

    M is one 2x2 map or a (2, 2, n-1) stack, c a (2, n-1) array or a scalar. In
    the order (y_0[0], y_0[1], y_1[0], ...) the march is a unit lower-triangular
    system with 3 sub-diagonals, -M_i[r, k] at offset 2 + r - k of the column of
    y_i[k]: one `dtbtrs` runs its forward substitution, the step loop itself.
    """
    band = np.zeros((4, 2 * n), order="F")  # diagonal row unreferenced (diag="U")
    for r, k in np.ndindex(2, 2):
        band[2 + r - k, k:-2:2] = -M[r, k]
    z = np.empty((2 * n, 1))
    z[:2, 0] = y0
    z[2:, 0] = np.ravel(c, order="F")
    z, info = dtbtrs(band, z, uplo="L", diag="U", overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"dtbtrs failed: info {info}")
    return z[:, 0].reshape(n, 2).T


def solve_ode_reduction(atom: AtomParams, kappa: float, pulse: PulseSpec | None,
                        grid: TimeGrid) -> Trajectory:
    """Exact ODE embedding of the exponential kernel, fixed-step RK4.

    Integrates C' = -(gamma kappa/2) M + D(t), M' = -kappa M + C with
    M(t0) = 0, which is identical to the Volterra equation for the
    Lorentzian kernel. The fixed step must resolve the stiffest rate.
    With constant coefficients one RK4 step is the affine map
    y_{i+1} = R y_i + A (D(t_i), D(t_i + dt/2), D(t_i + dt)) of y = (C, M);
    R and A are read off the step itself, `_rk4_step` applied to the unit
    states and unit drive samples. R is real, so each float64 part of
    the drive, with that part of c0, is one `_affine_march` (absent when both
    are zero), and the double pole kappa = 2*gamma, where R is not
    diagonalisable, is no special case.
    """
    check_ode_step(atom.gamma, kappa, grid.dt)
    spectrum = _lorentz_spectrum(atom, kappa)
    Dh = _drive_on_grid(atom, spectrum, pulse, grid, half_step=True)
    gk = 0.5 * atom.gamma * kappa

    def rhs(y, d):  # d(C, M)/dt at drive sample d
        c, m = y
        return -gk * m + d, c - kappa * m

    # columns: the step of the unit states (R) and of unit drive samples (A)
    unit = np.eye(5)
    G = np.array(_rk4_step(rhs, grid.dt, tuple(unit[:2]), *unit[2:]))
    R, A = G[:, :2], G[:, 2:]

    def part(d, c):
        if d is None and c == 0.0:
            return None
        f = 0.0 if d is None else A @ np.stack((d[:-1:2], d[1::2], d[2::2]))
        return _affine_march(R, f, (c, 0.0), grid.n)[0]

    c0 = complex(atom.c0)
    C = tuple(part(d, c) for d, c in zip(Dh, (c0.real, c0.imag)))
    return Trajectory.from_amplitude(grid, C, "ode_rk4", atom, pulse, kappa=kappa)


def _product_trapezoid_weights(kernel, dt: float, n: int):
    """Per-lag product-integration weights A_j, B_j, j = 1..n-1.

    Interval [t_m, t_{m+1}] contributes A_j C_m + B_j C_{m+1} to the memory
    integral at t_{m+j}, with the kernel integrated exactly against the
    linear interpolant of C. Exponential kernels use closed-form moments,
    real-valued; numeric kernels a per-interval Simpson rule on the
    complex samples of `MemoryKernel.uniform`.
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
    return A, B


def _solve_memory_toeplitz(mem: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x with x_i - x_{i-1} + sum_{j<=i} mem_{i-j} x_j = r_i (x_{-1} = 0).

    The lower-triangular Toeplitz system is solved blockwise: dense
    triangular solves on base blocks of b rows and, after the block ending
    at e, one FFT product carrying the dyadic block [e-s, e) into rows
    [e, e+s), s the largest power-of-two multiple of b dividing e. Every
    earlier block reaches each row exactly once, so the cost is
    O(n log^2 n). Only `mem` goes through the FFT; the unit difference
    x_i - x_{i-1} is applied exactly. `r` is overwritten.

    Real `mem` and `r` run in float64: `dtrtrs`, `rfft`/`irfft` and
    b = _TOEPLITZ_BLOCK_REAL. Anything else runs `ztrtrs`, `fft`/`ifft` and
    b = _TOEPLITZ_BLOCK. Each block solve calls LAPACK as
    `scipy.linalg.solve_triangular` calls it on a C-ordered block: the
    transposed block as upper-triangular, trans=1, info checked.
    """
    n = len(r)
    real = not (np.iscomplexobj(mem) or np.iscomplexobj(r))
    b = _TOEPLITZ_BLOCK_REAL if real else _TOEPLITZ_BLOCK
    dtype = float if real else complex
    trtrs = dtrtrs if real else ztrtrs
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    col = np.zeros(b, dtype=dtype)
    col[:min(b, n)] = mem[:b]
    col[0] += 1.0
    col[1] -= 1.0
    upper = toeplitz(col, np.zeros(b)).T
    mem_fft = {}
    x = np.empty(n, dtype=dtype)
    for e in range(0, n, b):
        stop = min(e + b, n)
        if e:
            r[e] += x[e - 1]
        x[e:stop], info = trtrs(upper[:stop - e, :stop - e], r[e:stop], lower=0, trans=1)
        if info:
            raise np.linalg.LinAlgError(f"singular Volterra block: diagonal {info - 1}")
        if stop == n:
            break
        k = stop // b
        s = b * (k & -k)
        if s not in mem_fft:
            seg = np.zeros(2 * s, dtype=dtype)
            seg[:min(2 * s, n)] = mem[:2 * s]
            mem_fft[s] = fft(seg)
        tail = ifft(fft(x[stop - s:stop], 2 * s) * mem_fft[s], 2 * s)
        hi = min(stop + s, n)
        r[stop:hi] -= tail[s:s + hi - stop]
    return x


def solve_volterra(atom: AtomParams, spectrum: InteractionSpectrum, pulse: PulseSpec | None,
                   grid: TimeGrid) -> Trajectory:
    """Generic Volterra integro-differential solver for any evaluable kernel.

    Product-trapezoid memory sum with an implicit trapezoid step. The step
    is linear in C, so the whole march is one lower-triangular Toeplitz
    system in C_1..C_{n-1}, solved in O(n log^2 n) by blocked FFT products
    (Hairer, Lubich & Schlichte 1985); the weights and the discrete
    equations are those of the step-by-step march. An analytic (Lorentzian)
    kernel has a real memory column, so the right-hand side is built from
    the drive's parts and the parts of c0 as separate float64 systems, and a
    part whose drive part is absent and whose c0 part is zero stays absent
    (the real part at delta0 = 0 and c0 = 0); a tabulated kernel's column is
    complex and is solved, with the drive joined, as it is. A flat
    spectrum has no memory to integrate and is refused by `memory_kernel`
    (`solve_markov` is its solver); a tabulated one is refused on grids
    reaching its kernel's period 2*pi/h, h the node spacing.
    """
    check_rates_agree(atom, spectrum)
    kernel = memory_kernel(spectrum)
    span = (grid.n - 1) * grid.dt
    if span >= spectrum.alias_horizon:
        raise ParameterError("t_max", f"grid span {span:g} reaches the tabulated kernel's alias "
                                      f"horizon 2*pi/h = {spectrum.alias_horizon:g} "
                                      "(h = node spacing)")
    D = _drive_on_grid(atom, spectrum, pulse, grid)
    A, B = _product_trapezoid_weights(kernel, grid.dt, grid.n)
    half = 0.5 * grid.dt
    c0 = complex(atom.c0)
    # Memory integral I_i = A_{i-1} C_0 + sum_{m=1}^{i} w_{i-m} C_m with lag weights
    # w_0 = B_0, w_l = A_{l-1} + B_l. The step C_i - C_{i-1} + h/2 (I_i + I_{i-1})
    # = h/2 (D_{i-1} + D_i), I_0 = 0, has memory column h/2 (w_k + w_{k-1}); its
    # C_0 terms move to the right-hand side.
    w = np.empty(grid.n - 1, dtype=A.dtype)
    w[0] = B[0]
    w[1:] = A[:-1] + B[1:]
    mem = half * w
    mem[1:] += half * w[:-1]
    A_pair = A.copy()
    A_pair[1:] += A[:-1]
    if np.iscomplexobj(mem):
        C = _volterra_part(mem, half, A_pair, _joined(D, grid.n), c0, grid.n)
    else:  # the column is real: each part of r is its own real system
        C = tuple(_volterra_part(mem, half, A_pair, d, c, grid.n)
                  for d, c in zip(D, (c0.real, c0.imag)))
    return Trajectory.from_amplitude(grid, C, "volterra", atom, pulse,
                                     spectrum_kind=spectrum.kind, kappa=spectrum.kappa)


def _volterra_part(mem: np.ndarray, half: float, A_pair: np.ndarray, d, c, n: int):
    """The Volterra amplitude from drive d (None if zero) and initial value c, in the dtype
    of its right-hand side: on a real memory column, one float64 part, with d and c the
    parts of the drive and of c0; None when both are zero."""
    if d is None and c == 0.0:
        return None
    r = (0.0 if d is None else half * (d[:-1] + d[1:])) - half * A_pair * c
    r[0] += c
    x = np.empty(n, dtype=r.dtype)
    x[0] = c
    x[1:] = _solve_memory_toeplitz(mem, r)
    return x


def solve_markov(atom: AtomParams, pulse: PulseSpec | None, grid: TimeGrid) -> Trajectory:
    """Flat-spectrum (Wigner-Weisskopf) reference dynamics.

    C' = -(gamma/2) C + sqrt(gamma_p) u(tau), tau the drive's pulse clock. A
    delta pulse's u is the Dirac mass of `exp_filter`: C jumps by
    sqrt(2 pi gamma_p) xi0 at the first sample with tau >= 0 and decays at
    gamma/2, the kappa -> inf limit of the Lorentzian response.
    """
    g2 = 0.5 * atom.gamma
    dtt = grid.dt * np.arange(grid.n)
    C = np.exp(-g2 * dtt) * atom.c0
    if pulse is not None and pulse.shape == DELTA:
        tau = _pulse_clock(pulse.t_a, grid.t0 - atom.t_d, grid.dt, grid.n)
        C = C + np.sqrt(atom.gamma_p) * exp_filter(g2, pulse, tau)
    elif pulse is not None:
        spectrum = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
        D = _joined(_drive_on_grid(atom, spectrum, pulse, grid), grid.n)
        C = C + _exp_conv_trapezoid(g2, D, grid.dt)
    return Trajectory.from_amplitude(grid, C, "markov", atom, pulse)


def spontaneous_decay(atom: AtomParams, kappa: float, grid: TimeGrid) -> Trajectory:
    """Decay of a fully excited atom (C(t0) = 1, no pulse): the closed form.

    P(t) = |s1 e^{-p1 (t-t0)} + s2 e^{-p2 (t-t0)}|^2; at kappa = 2*gamma the
    degenerate form |(1 + gamma (t-t0)) e^{-gamma (t-t0)}|^2 applies. For
    kappa < 2*gamma the branches are complex and P oscillates.
    """
    if atom.c0 != 1.0:
        raise ValueError("spontaneous decay is defined for c0 = 1 (excited atom)")
    return solve_closed_form_lorentzian(atom, kappa, None, grid)


def delta_pulse_rise(atom: AtomParams, kappa: float, grid: TimeGrid):
    """Rising edge C_R(t) of the delta-pulse response, its speed dC_R/dt, and
    the Markov edge e^{gamma t_d/2} H(t - t0 - t_d) of the kappa -> inf limit.

    C_R(t) = int_0^{t-t0} H(s - t_d) kappa e^{-kappa (s - t_d)} e^{gamma s/2} ds,
    the monotone window whose width sets the fastest possible rise of the
    excitation probability; its derivative has 1/e width 1/(kappa - gamma/2).
    The delta arrives at the grid start t0, and all three switch on at the
    first sample with pulse time tau >= 0 on the drive's clock.
    Weak coupling (gamma <= kappa) is required for the underlying form.
    """
    check_range("kappa", kappa, MIN_SCALE)
    if atom.gamma > kappa:
        raise ParameterError("kappa", "delta-pulse rising edge assumes weak coupling "
                                      f"(gamma <= kappa), got kappa={kappa}")
    g, td = atom.gamma, atom.t_d
    if 0.5 * g * td > math.log(np.finfo(float).max / kappa):
        raise ParameterError("t_d", f"kappa e^(gamma t_d/2) overflows at t_d={td:g}")
    rate = kappa - 0.5 * g
    tau = _pulse_clock(grid.t0, grid.t0 - td, grid.dt, grid.n)
    rel = np.clip(tau, 0.0, None)
    active = tau >= 0.0
    edge = np.exp(0.5 * g * td)
    scale = kappa * edge
    c_r = np.where(active, scale * (1.0 - np.exp(-rate * rel)) / rate, 0.0)
    dc_r = np.where(active, scale * np.exp(-rate * rel), 0.0)
    return c_r, dc_r, np.where(active, edge, 0.0)


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
    tau = _pulse_clock(pulse.t_a, grid.t0 - atom.t_d, grid.dt, grid.n)
    amp = -1j * np.sqrt(atom.gamma_p) * kappa
    f_kappa = exp_filter(kappa, pulse, tau)
    return tuple(s * amp * (f_kappa - exp_filter(p, pulse, tau)) / (p - kappa)
                 for p, s in br.pairs)
