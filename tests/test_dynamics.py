"""Solver cross-validation, branch algebra, decay laws, rising edges."""

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import erf

from fockatom import (
    AtomParams,
    CoherentPulseSpec,
    InteractionSpectrum,
    PulseSpec,
    TimeGrid,
    Trajectory,
    branch_decomposition,
    branch_params,
    delta_pulse_rise,
    solve_closed_form_lorentzian,
    solve_markov,
    solve_ode_reduction,
    solve_volterra,
    spontaneous_decay,
)
from fockatom import detectors, dynamics
from fockatom.detectors import bloch_trajectories
from fockatom.dynamics import (
    _TOEPLITZ_BLOCK,
    _TOEPLITZ_BLOCK_REAL,
    MODE_FRACTION_PRESETS,
    _affine_march,
    _branch_sum,
    _drive_on_grid,
    _exp_conv_trapezoid,
    _first_order_recursion,
    _joined,
    _product_trapezoid_weights,
    _rk4_step,
)
from fockatom.grids import ParameterError
from fockatom.serialize import write_trajectory
from fockatom.spectra import memory_kernel


def markov_gaussian_amplitude(t, tau_f=1.0, gamma=1.0, gamma_p=1.0, t_a=0.0):
    """Closed-form Markov response to a Gaussian pulse (erf oracle)."""
    x = np.asarray(t, dtype=float) - t_a
    pref = (1.0 / (2.0 * np.pi * tau_f**2)) ** 0.25
    return (pref * np.sqrt(gamma_p) * tau_f * np.sqrt(np.pi)
            * np.exp(gamma**2 * tau_f**2 / 4.0 - gamma * x / 2.0)
            * (1.0 + erf(x / (2.0 * tau_f) - gamma * tau_f / 2.0)))


def _drive(atom, spectrum, pulse, grid, half_step=False):
    """The complex drive of `_drive_on_grid`, its parts joined."""
    n = 2 * grid.n - 1 if half_step else grid.n
    return _joined(_drive_on_grid(atom, spectrum, pulse, grid, half_step), n)


# ---------------------------------------------------------------------------
# branch parameters
# ---------------------------------------------------------------------------

def test_branch_values_weak_coupling_example():
    br = branch_params(1.0, 10.0)
    assert br.p1 == pytest.approx(0.527864, abs=1e-6)
    assert br.p2 == pytest.approx(9.472136, abs=1e-6)
    assert br.s1 == pytest.approx(1.059017, abs=1e-6)
    assert br.s2 == pytest.approx(-0.059017, abs=1e-6)
    assert not br.degenerate


def test_branch_identities_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g, k = 10.0 ** rng.uniform(-2, 2, size=2)
        br = branch_params(g, k)
        assert abs(br.s1 + br.s2 - 1.0) < 1e-12
        assert abs(br.p1 + br.p2 - k) < 1e-12 * k
        assert abs(br.p1 * br.p2 - 0.5 * g * k) < 1e-12 * 0.5 * g * k


def test_branch_weak_coupling_expansion():
    g = 1.0
    br = branch_params(g, 1000.0 * g)
    assert abs(br.p1 - 0.5 * g) / (0.5 * g) < 1e-3
    assert abs(br.s2 - (-g / 2000.0)) / (g / 2000.0) < 0.1


def test_branch_complex_conjugate_pair_strong_coupling():
    br = branch_params(1.0, 1.0)
    assert br.p2 == pytest.approx(np.conj(br.p1))
    assert br.s2 == pytest.approx(np.conj(br.s1))
    assert br.p1.real == pytest.approx(0.5)   # decay rate kappa/2
    assert br.p1.imag != 0.0                  # frequency shift


def test_branch_degenerate_flag():
    assert branch_params(1.0, 2.0).degenerate
    assert branch_params(1.0, 2.0 * (1 + 1e-10)).degenerate
    assert not branch_params(1.0, 2.0 * (1 + 1e-6)).degenerate


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 127, 30001])
def test_first_order_recursion_matches_lfilter(n):
    # y_k = e y_{k-1} + b_k: real and complex decay factors, a real factor on a real
    # input (the float64 solve), then the paired double-pole recursion of the closed
    # form, whose input is a first solution
    rng = np.random.default_rng(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dt = 1e-3
    cases = [(e, b) for e in (np.exp(-dt), np.exp(-(0.3 + 2.0j) * dt),
                              np.exp(-(50.0 - 7.0j) * dt))]
    cases += [(np.exp(-dt), b.real.copy()), (np.exp(-50.0 * dt), b.imag.copy())]
    for e, x in cases:
        want = lfilter([1.0], [1.0, -e], x)
        got = _first_order_recursion(e, x.copy())
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    e = np.exp(-dt)

    def paired(rec):
        ja = rec(e, b.copy())
        b2 = np.zeros(n, dtype=complex)
        b2[1:] = e * (dt * ja[:-1] + 0.5 * dt**2 * b[:-1])
        return rec(e, b2)

    want = paired(lambda e_, b_: lfilter([1.0], [1.0, -e_], b_))
    got = paired(_first_order_recursion)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_closed_form_recovers_initial_condition():
    atom = AtomParams(c0=1.0)
    grid = TimeGrid.from_span(0.0, 1.0, 1e-3)
    traj = solve_closed_form_lorentzian(atom, 10.0, PulseSpec("gaussian", t_a=0.5), grid)
    assert traj.c[0] == pytest.approx(1.0, abs=1e-12)


def _closed_form_two_recursions(atom, kappa, pulse, grid):
    """The closed form summed branch by branch: one complex recursion on the complex
    drive per branch, s_j (e^{-p_j t} c0 + J_{p_j}[D]), the free decay always formed."""
    D = _drive(atom, InteractionSpectrum.lorentzian(kappa), pulse, grid)
    br = branch_params(atom.gamma, kappa)
    dtt = grid.dt * np.arange(grid.n)
    if br.degenerate:
        g, e = atom.gamma, np.exp(-atom.gamma * grid.dt)
        Ja = _exp_conv_trapezoid(g, D, grid.dt)
        b = np.zeros(grid.n, dtype=complex)
        b[1:] = e * (grid.dt * Ja[:-1] + 0.5 * grid.dt**2 * D[:-1])
        return (1.0 + g * dtt) * np.exp(-g * dtt) * atom.c0 + Ja + g * _first_order_recursion(e, b)
    return sum(s * (np.exp(-p * dtt) * atom.c0 + _exp_conv_trapezoid(p, D, grid.dt))
               for p, s in br.pairs)


def _closed_form_with_c0_term(atom, kappa, pulse, grid):
    """The closed-form amplitude with its free decay s_j e^{-p_j t} c0 always formed."""
    br = branch_params(atom.gamma, kappa)
    if br.degenerate:
        return _closed_form_two_recursions(atom, kappa, pulse, grid)
    D = _drive_on_grid(atom, InteractionSpectrum.lorentzian(kappa), pulse, grid)
    dtt = grid.dt * np.arange(grid.n)
    C = _joined(_branch_sum(br, D, grid.dt)[0], grid.n)
    for p, s in br.pairs:
        C += s * (np.exp(-p * dtt) * atom.c0)
    return C


@pytest.mark.parametrize("kappa", [10.0, 2.0, 0.5], ids=["real", "double_pole", "complex"])
@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp", "delta"])
def test_closed_form_skips_a_zero_c0_term(kappa, shape):
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 20.0, 2e-3)
    pulse = PulseSpec(shape, tau_f=1.0, t_a=8.0, xi0=0.1)
    got = solve_closed_form_lorentzian(atom, kappa, pulse, grid).c
    assert np.abs(got - _closed_form_with_c0_term(atom, kappa, pulse, grid)).max() <= 1e-15


def _closed_form_longdouble(atom, kappa, pulse, grid):
    """The branch-by-branch trapezoid recursion in extended precision: p_j and s_j from
    the `branch_params` formulas in longdouble, run on the float64 drive by `lfilter`
    in clongdouble. Its distance from a float64 route is that route's rounding drift."""
    D = _drive(atom, InteractionSpectrum.lorentzian(kappa), pulse, grid)
    ld, cld = np.longdouble, np.clongdouble
    g, k, dt = ld(atom.gamma), ld(kappa), ld(grid.dt)
    disc = k * k - 2 * k * g
    if disc >= 0:
        p2 = cld((k + np.sqrt(disc)) / 2)
        r = 1 / np.sqrt(1 - 2 * g / k)
        pairs = ((g * k / 2 / p2, cld((1 + r) / 2)), (p2, cld((1 - r) / 2)))
    else:
        w, v = np.sqrt(-disc) / 2, 1 / (2 * np.sqrt(2 * g / k - 1))
        p1, s1 = cld(k / 2) - cld(1j) * w, cld(0.5) - cld(1j) * v
        pairs = ((p1, s1), (np.conj(p1), np.conj(s1)))
    Dl = D.astype(cld)
    dtt = dt * np.arange(grid.n, dtype=ld)
    C = np.zeros(grid.n, dtype=cld)
    for p, s in pairs:
        e = np.exp(-p * dt)
        b = np.zeros(grid.n, dtype=cld)
        b[1:] = dt / 2 * (e * Dl[:-1] + Dl[1:])
        J = lfilter(np.ones(1, dtype=cld), np.array([1, -e], dtype=cld), b)
        C += s * (np.exp(-p * dtt) * cld(atom.c0) + J)
    return C


# kappa straddles the double pole 2 gamma (a conjugate pair below, real poles above);
# delta0 = 0.4 makes both parts of the drive nonzero
_CF_KAPPAS = [0.3, 1.0, 1.9, 2.1, 5.0, 9.0, 10.0, 11.0, 30.0, 100.0]


@pytest.mark.parametrize("c0", [0j, 0.3 + 0.2j], ids=["c0_zero", "c0_set"])
@pytest.mark.parametrize("delta0", [0.0, 0.4])
@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp"])
@pytest.mark.parametrize("kappa", _CF_KAPPAS)
def test_closed_form_real_parts_match_two_complex_recursions(kappa, shape, delta0, c0):
    atom = AtomParams(c0=c0)
    grid = TimeGrid.from_span(0.0, 20.0, 2e-3)
    pulse = PulseSpec(shape, tau_f=1.0, delta0=delta0, t_a=8.0)
    got = solve_closed_form_lorentzian(atom, kappa, pulse, grid).c
    assert np.abs(got - _closed_form_two_recursions(atom, kappa, pulse, grid)).max() <= 1e-14
    exact = _closed_form_longdouble(atom, kappa, pulse, grid)
    assert np.abs(got - exact).max() <= 1e-13


def test_closed_form_decay_weak_coupling_is_exponential():
    atom = AtomParams(c0=1.0)
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    traj = solve_closed_form_lorentzian(atom, 100.0, None, grid)
    ref = np.exp(-grid.times)
    assert np.abs(traj.p / ref - 1.0).max() < 0.02


def test_closed_form_strong_coupling_high_absorption():
    # Gaussian tau_f = 1/gamma at kappa = gamma exceeds P = 0.96
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    traj = solve_closed_form_lorentzian(atom, 1.0, pulse, grid)
    assert traj.p.max() > 0.96


# ---------------------------------------------------------------------------
# ODE reduction
# ---------------------------------------------------------------------------

def test_ode_matches_closed_form_gaussian():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    a = solve_closed_form_lorentzian(atom, 10.0, pulse, grid)
    b = solve_ode_reduction(atom, 10.0, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-6


def test_ode_zero_dynamics():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 2.0, 1e-3)
    traj = solve_ode_reduction(atom, 10.0, None, grid)
    assert np.abs(traj.c).max() == 0.0


def test_ode_degenerate_matches_closed_form():
    # the ODE route has no removable singularity at kappa = 2 gamma
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    a = solve_closed_form_lorentzian(atom, 2.0, pulse, grid)
    b = solve_ode_reduction(atom, 2.0, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-6


def test_ode_rejects_stiff_step():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="step too large for stiffness"):
        solve_ode_reduction(atom, 1000.0, None, grid)


@pytest.mark.parametrize("n", [2, 3, 1001])
def test_affine_march_is_the_step_loop(n):
    # y_{i+1} = M_i y_i + c_i from y_0: one map or a stack of contracting maps, with a
    # drive array or a scalar 0.0 for an absent drive
    rng = np.random.default_rng(n)
    theta = rng.uniform(-np.pi, np.pi, n - 1)
    stack = 0.9 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    stack += 0.05 * rng.standard_normal((2, 2, n - 1))
    drive = rng.standard_normal((2, n - 1))
    y0 = (0.3, -0.7)
    for M, c in ((stack, drive), (stack, 0.0), (stack[:, :, 0], drive), (stack[:, :, 0], 0.0)):
        want = np.empty((2, n))
        want[:, 0] = y0
        for i in range(n - 1):
            Mi = M if M.ndim == 2 else M[:, :, i]
            want[:, i + 1] = Mi @ want[:, i] + (c if np.isscalar(c) else c[:, i])
        got = _affine_march(M, c, y0, n)
        assert got.shape == (2, n) and got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def rk4_step_loop(atom, kappa, pulse, grid):
    """Step-by-step oracle: the RK4 march of the ODE reduction, one step per iteration."""
    spectrum = InteractionSpectrum.lorentzian(kappa, gamma_p=atom.gamma_p, gamma=atom.gamma)
    Dh = _drive(atom, spectrum, pulse, grid, half_step=True)
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
    return C


@pytest.mark.parametrize("lam", [-2.0, -0.5 + 3.0j])
def test_rk4_step_is_the_fourth_order_taylor_polynomial(lam):
    # one step of y' = lam y from y = 1 is the degree-4 Taylor polynomial of e^z, z = lam dt
    dt = 0.1
    z = lam * dt
    seen = []

    def f(y, s):
        seen.append(s)
        return (lam * y[0],)

    (y,) = _rk4_step(f, dt, (1.0,), "start", "mid", "end")
    want = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    assert abs(y - want) <= 1e-15 * abs(want)
    assert seen == ["start", "mid", "mid", "end"]


@pytest.mark.parametrize("n", [2, 3, 128, 129, 130, 257, 16001])
@pytest.mark.parametrize("kappa", [0.5, 2.0, 10.0, 100.0])
def test_ode_matches_step_loop_oracle(kappa, n):
    # one step, two, and long marches; kappa = 2 is the double pole, where R is defective;
    # the carrier with c0 runs both drive parts and both c0 parts through the march
    grid = TimeGrid(0.0, 1e-3, n)
    runs = [(AtomParams(), PulseSpec(shape, tau_f=0.1, t_a=0.06))
            for shape in ("gaussian", "decaying_exp", "rising_exp")]
    runs.append((AtomParams(c0=0.2 + 0.3j), None))
    runs.append((AtomParams(c0=0.3 - 0.2j),
                 PulseSpec("gaussian", tau_f=0.1, t_a=0.06, delta0=0.4)))
    for atom, pulse in runs:
        fast = solve_ode_reduction(atom, kappa, pulse, grid)
        assert np.abs(fast.c - rk4_step_loop(atom, kappa, pulse, grid)).max() <= 1e-12


@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp"])
@pytest.mark.parametrize("kappa", [0.5, 2.0])
def test_ode_converges_at_fourth_order(kappa, shape):
    # halving h divides the self-convergence error by 2^4 = 16
    atom = AtomParams(c0=0.1j)
    pulse = PulseSpec(shape, tau_f=1.0, t_a=4.0)
    c = [solve_ode_reduction(atom, kappa, pulse, TimeGrid.from_span(0.0, 8.0, h)).c
         for h in (0.04, 0.02, 0.01)]
    coarse = np.abs(c[0] - c[1][::2]).max()
    fine = np.abs(c[1][::2] - c[2][::4]).max()
    assert 14.0 <= coarse / fine <= 18.0


# ---------------------------------------------------------------------------
# Volterra
# ---------------------------------------------------------------------------

def volterra_step_loop(atom, spectrum, pulse, grid):
    """Direct-sum oracle: the step-by-step implicit-trapezoid march, O(n^2)."""
    D = _drive(atom, spectrum, pulse, grid)
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
    return C


def _gaussian_tabulated_spectrum():
    # non-Lorentzian table: node gap 0.1, alias horizon 2*pi/0.1 = 62.8
    d = np.linspace(-200.0, 200.0, 4001)
    return InteractionSpectrum.tabulated(d, np.exp(-0.5 * (d / 20.0) ** 2) / (2 * np.pi))


@pytest.mark.parametrize("n", [2, 3, _TOEPLITZ_BLOCK - 1, _TOEPLITZ_BLOCK,
                               _TOEPLITZ_BLOCK + 1, 1000, 4097, _TOEPLITZ_BLOCK_REAL,
                               _TOEPLITZ_BLOCK_REAL + 1, 2 * _TOEPLITZ_BLOCK_REAL + 1])
@pytest.mark.parametrize("kind", ["lorentzian", "tabulated"])
def test_volterra_matches_step_loop_oracle(kind, n):
    spec = (InteractionSpectrum.lorentzian(5.0) if kind == "lorentzian"
            else _gaussian_tabulated_spectrum())
    atom = AtomParams(c0=0.2 + 0.3j)
    pulse = PulseSpec("gaussian", tau_f=0.1, t_a=0.2)
    grid = TimeGrid(0.0, 2e-3, n)
    fast = solve_volterra(atom, spec, pulse, grid)
    assert np.abs(fast.c - volterra_step_loop(atom, spec, pulse, grid)).max() <= 1e-12


@pytest.mark.parametrize("c0", [0j, 0.3 + 0.2j], ids=["c0_zero", "c0_set"])
@pytest.mark.parametrize("delta0", [0.0, 0.4])
@pytest.mark.parametrize("kappa", [0.3, 1.0, 1.9, 2.1, 10.0, 100.0])
def test_volterra_real_parts_match_the_complex_solve(monkeypatch, kappa, delta0, c0):
    # a Lorentzian memory column is real, so the real and imaginary parts of the right-hand
    # side run as float64 systems; a complex column forces the one complex solve
    atom = AtomParams(c0=c0)
    grid = TimeGrid.from_span(0.0, 20.0, 2e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, delta0=delta0, t_a=8.0)
    spec = InteractionSpectrum.lorentzian(kappa)
    weights = dynamics._product_trapezoid_weights
    assert not np.iscomplexobj(weights(memory_kernel(spec), grid.dt, grid.n)[0])
    got = solve_volterra(atom, spec, pulse, grid).c
    monkeypatch.setattr(dynamics, "_product_trapezoid_weights",
                        lambda *args: tuple(w.astype(complex) for w in weights(*args)))
    want = solve_volterra(atom, spec, pulse, grid).c
    assert np.abs(got - want).max() <= 1e-12


def test_volterra_long_decay_matches_closed_form():
    atom = AtomParams(c0=1.0)
    grid = TimeGrid(0.0, 1e-3, 131073)
    a = solve_volterra(atom, InteractionSpectrum.lorentzian(10.0), None, grid)
    b = solve_closed_form_lorentzian(atom, 10.0, None, grid)
    assert np.abs(a.p - b.p).max() < 1e-6


def test_volterra_matches_closed_form_short_pulse():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 10.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=0.1, t_a=3.0)
    spec = InteractionSpectrum.lorentzian(10.0)
    a = solve_closed_form_lorentzian(atom, 10.0, pulse, grid)
    b = solve_volterra(atom, spec, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-4


def test_volterra_no_coupling_keeps_initial_state():
    d = np.linspace(-50, 50, 101)
    spec = InteractionSpectrum.tabulated(d, np.zeros_like(d))
    atom = AtomParams(c0=0.6)
    grid = TimeGrid.from_span(0.0, 2.0, 1e-3)
    traj = solve_volterra(atom, spec, None, grid)
    assert np.abs(traj.c - 0.6).max() < 1e-14


def test_volterra_tabulated_lorentzian_consistency_decay():
    # sampled Lorentzian reproduces the analytic-kernel decay within 1e-3
    gamma, kappa = 1.0, 10.0
    d = np.linspace(-500.0, 500.0, 20001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    atom = AtomParams(c0=1.0)
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    a = solve_volterra(atom, tab, None, grid)
    b = solve_closed_form_lorentzian(atom, kappa, None, grid)
    assert np.abs(a.p - b.p).max() < 1e-3


def test_volterra_tabulated_lorentzian_consistency_driven():
    # driven comparison in the bandwidth-dominated regime kappa*tau_f >> 1,
    # where the analytic coupling phase (a ~1/kappa drive delay) is negligible
    gamma, kappa, tau_f = 1.0, 100.0, 10.0
    d = np.linspace(-5000.0, 5000.0, 200001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 40.0, 2e-3)
    pulse = PulseSpec("gaussian", tau_f=tau_f, t_a=20.0)
    a = solve_volterra(atom, tab, pulse, grid)
    b = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-3


def test_volterra_tabulated_exponential_pulse_runs_sane():
    # exponential pulse on a finite table: quadrature tails are table-limited,
    # so expect agreement at the coupling-phase-delay scale ~|dP/dt|/kappa
    gamma, kappa, tau_f = 1.0, 50.0, 2.0
    d = np.linspace(-2500.0, 2500.0, 20001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 14.0, 2e-3)
    pulse = PulseSpec("decaying_exp", tau_f=tau_f, t_a=2.0)
    a = solve_volterra(atom, tab, pulse, grid)
    b = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
    assert np.abs(a.p - b.p).max() < 2e-2
    assert a.p.max() > 0.3


def test_volterra_refuses_flat_spectrum():
    # routing a flat spectrum to solve_markov is analysis.solve's job alone
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 8.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=4.0)
    with pytest.raises(ValueError, match="solve_markov"):
        solve_volterra(atom, InteractionSpectrum.flat(), pulse, grid)


@pytest.mark.parametrize("t_max", [33.0, 40.0])
def test_volterra_refuses_tabulated_grid_past_alias_horizon(t_max):
    # node gap h = 0.2: the tabulated kernel repeats after 2*pi/h = 31.4
    kappa = 10.0
    d = np.linspace(-500.0, 500.0, 5001)
    g2 = (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    grid = TimeGrid.from_span(0.0, t_max, 1e-2)
    with pytest.raises(ValueError, match=r"alias horizon 2\*pi/h = 31\.4159"):
        solve_volterra(AtomParams(c0=1.0), InteractionSpectrum.tabulated(d, g2), None, grid)


def test_volterra_memory_budget():
    # a grid past the sample budget, which every solver fits, cannot be built
    with pytest.raises(ParameterError, match="1e\\+06 samples exceed the budget") as err:
        solve_volterra(AtomParams(), InteractionSpectrum.lorentzian(1.0), None,
                       TimeGrid(0.0, 1e-3, 1_000_001))
    assert err.value.field == "dt"


# ---------------------------------------------------------------------------
# Markov reference
# ---------------------------------------------------------------------------

def test_markov_delta_pulse_instantaneous_decay():
    atom = AtomParams(gamma_p=0.8, t_d=0.5)
    grid = TimeGrid.from_span(0.0, 10.0, 1e-3)
    pulse = PulseSpec("delta", xi0=0.1, t_a=1.0)
    traj = solve_markov(atom, pulse, grid)
    t = grid.times
    # the Dirac drive sqrt(2 pi) xi0 delta makes C jump by sqrt(2 pi gamma_p) xi0
    expected = np.where(t >= 1.5, 0.1 * np.sqrt(2 * np.pi * 0.8) * np.exp(-0.5 * (t - 1.5)), 0.0)
    assert np.abs(traj.c - expected).max() < 1e-14


def test_markov_delta_is_the_wide_lorentzian_limit():
    # both routes drive with the same Dirac mass sqrt(2 pi) xi0 delta
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 2.0, 1e-5)
    pulse = PulseSpec("delta", xi0=0.1, t_a=1.0)
    lorentzian = solve_closed_form_lorentzian(atom, 1e3, pulse, grid).p[-1]
    markov = solve_markov(atom, pulse, grid).p[-1]
    assert lorentzian / markov == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("t0, dt, t_d, t_a", [(0.0, 0.01, 0.16, 1.0),
                                              (12.345, 1e-3, 0.255, 13.345),
                                              (100.0, 0.01, 0.1, 101.0)])
@pytest.mark.parametrize("shape", ["delta", "decaying_exp", "rising_exp"])
def test_every_route_places_the_pulse_on_the_drive_clock(monkeypatch, shape, t0, dt, t_d, t_a):
    # The pulse is on where its pulse time tau = ((t0 - t_d) - t_a) + k dt is >= 0 (a rising
    # exp: <= 0), at the samples and at the RK4 half steps. A delta and a decaying exp turn P
    # on there in every solver, except that a cavity has filtered nothing of a decaying exp
    # at tau = 0 exactly; a rising exp's cut-off ends the envelope routes' support, the
    # Markov drive's and Bloch's Omega's. Each case puts one sample within rounding of tau = 0.
    grid = TimeGrid.from_span(t0, t0 + 2.0, dt)
    atom, pulse = AtomParams(t_d=t_d), PulseSpec(shape, tau_f=0.5, t_a=t_a)
    tau_half = ((t0 - t_d) - t_a) + 0.5 * dt * np.arange(2 * grid.n - 1)
    tau = tau_half[::2]
    rising = shape == "rising_exp"
    on = tau <= 0.0 if rising else tau >= 0.0
    assert on.any() and not on.all()
    if rising:
        markov_drive = _drive_on_grid(atom, InteractionSpectrum.flat(), pulse, grid)[0]
        assert np.array_equal(markov_drive != 0.0, on)
    else:
        lorentz = InteractionSpectrum.lorentzian(10.0)
        routes = {"markov": solve_markov(atom, pulse, grid),
                  "closed_form": solve_closed_form_lorentzian(atom, 10.0, pulse, grid),
                  "ode_rk4": solve_ode_reduction(atom, 10.0, pulse, grid),
                  "volterra": solve_volterra(atom, lorentz, pulse, grid)}
        for name, traj in routes.items():
            filtered = shape == "decaying_exp" and name != "markov"
            assert np.array_equal(traj.p > 0.0, tau > 0.0 if filtered else on), name
    if shape != "delta":
        drives = []

        def spy(*args, **kwargs):
            drives.append(_drive_on_grid(*args, **kwargs))
            return drives[-1]

        monkeypatch.setattr(detectors, "_drive_on_grid", spy)
        bloch_trajectories(atom, CoherentPulseSpec(pulse, n_bar=1.0), grid)
        omega = drives[0][0]  # Bloch's Omega is 2 sqrt(n_bar) times this flat drive
        assert np.array_equal(omega != 0.0, tau_half <= 0.0 if rising else tau_half >= 0.0)


def test_markov_gaussian_matches_erf_oracle():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    traj = solve_markov(atom, pulse, grid)
    oracle = np.abs(markov_gaussian_amplitude(grid.times, t_a=7.0)) ** 2
    assert np.abs(traj.p - oracle).max() < 1e-6
    # true value of the tau_f = 1/gamma Markov peak; the pulse-length
    # optimum (~0.801) is higher and lives at tau_f ~ 0.68/gamma
    assert traj.p.max() == pytest.approx(0.770249, abs=1e-4)


def test_markov_matched_rising_exp_reaches_unity():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 25.0, 1e-3)
    pulse = PulseSpec("rising_exp", tau_f=1.0, t_a=18.0)
    traj = solve_markov(atom, pulse, grid)
    assert traj.p.max() == pytest.approx(1.0, abs=1e-5)


def test_markov_no_drive_no_excitation():
    traj = solve_markov(AtomParams(), None, TimeGrid.from_span(0.0, 2.0, 1e-3))
    assert np.abs(traj.c).max() == 0.0


# ---------------------------------------------------------------------------
# spontaneous decay
# ---------------------------------------------------------------------------

def test_decay_initial_probability_is_one():
    traj = spontaneous_decay(AtomParams(c0=1.0), 10.0, TimeGrid.from_span(0.0, 5.0, 1e-3))
    assert traj.p[0] == pytest.approx(1.0, abs=1e-12)


def test_decay_requires_excited_atom():
    with pytest.raises(ValueError, match="c0 = 1"):
        spontaneous_decay(AtomParams(), 10.0, TimeGrid.from_span(0.0, 5.0, 1e-3))


def _fit_log_slope(t, p):
    coef = np.polyfit(t, np.log(p), 1)
    return -coef[0], coef


def test_decay_weak_coupling_rate_within_two_percent():
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    traj = spontaneous_decay(AtomParams(c0=1.0), 100.0, grid)
    rate, _ = _fit_log_slope(grid.times, traj.p)
    assert 0.98 < rate < 1.02


def test_decay_strong_coupling_not_exponential():
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    traj = spontaneous_decay(AtomParams(c0=1.0), 1.0, grid)
    keep = traj.p > 1e-12
    _, coef = _fit_log_slope(grid.times[keep], traj.p[keep])
    resid = np.log(traj.p[keep]) - np.polyval(coef, grid.times[keep])
    assert np.abs(resid).max() > 0.05


def test_decay_degenerate_continuity():
    grid = TimeGrid.from_span(0.0, 8.0, 1e-3)
    atom = AtomParams(c0=1.0)
    mid = spontaneous_decay(atom, 2.0, grid)
    for eps in (1e-6, -1e-6):
        near = spontaneous_decay(atom, 2.0 * (1.0 + eps), grid)
        assert np.abs(near.p - mid.p).max() < 1e-6


# ---------------------------------------------------------------------------
# delta-pulse rising edge
# ---------------------------------------------------------------------------

def test_rise_speed_width():
    grid = TimeGrid.from_span(0.0, 2.0, 1e-4)
    _, dc_r, _ = delta_pulse_rise(AtomParams(), 10.0, grid)
    peak = dc_r.max()
    t = grid.times
    below = np.nonzero(dc_r <= peak / np.e)[0]
    width = t[below[below > np.argmax(dc_r)][0]]
    assert width == pytest.approx(1.0 / 9.5, abs=2e-4)
    assert abs(width - 0.10526) < 1e-3


def test_rise_saturates_fast_at_huge_kappa():
    grid = TimeGrid.from_span(0.0, 0.01, 1e-6)
    c_r, _, _ = delta_pulse_rise(AtomParams(), 1e4, grid)
    sat = c_r[-1]
    t99 = grid.times[np.nonzero(c_r >= 0.99 * sat)[0][0]]
    assert t99 <= 5e-4


def test_rise_monotone_nondecreasing():
    grid = TimeGrid.from_span(0.0, 3.0, 1e-3)
    c_r, _, _ = delta_pulse_rise(AtomParams(t_d=0.3), 5.0, grid)
    assert np.all(np.diff(c_r) >= -1e-15)
    assert c_r[grid.times < 0.3].max() == 0.0


def test_rise_requires_weak_coupling():
    with pytest.raises(ValueError, match="weak coupling"):
        delta_pulse_rise(AtomParams(), 0.5, TimeGrid.from_span(0.0, 1.0, 1e-3))


# ---------------------------------------------------------------------------
# branch decomposition
# ---------------------------------------------------------------------------

def test_branch_sum_matches_closed_form():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 2e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=8.0)
    c1, c2 = branch_decomposition(atom, 10.0, pulse, grid)
    ref = solve_closed_form_lorentzian(atom, 10.0, pulse, grid)
    assert np.abs(c1 + c2 - ref.c).max() < 1e-4


@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp"])
def test_branch_sum_matches_closed_form_complex_branches(shape):
    # kappa < 2 gamma: complex-conjugate rates p_j in the cavity filters
    atom = AtomParams(gamma_p=0.7)
    grid = TimeGrid.from_span(0.0, 45.0, 2e-3)
    pulse = PulseSpec(shape, tau_f=1.0, t_a=30.0, delta0=0.4)
    c1, c2 = branch_decomposition(atom, 0.5, pulse, grid)
    ref = solve_closed_form_lorentzian(atom, 0.5, pulse, grid)
    assert np.abs(c1 + c2 - ref.c).max() < 1e-6


def test_branch_two_dominates_nothing_weak_coupling():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 12.0, 2e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=6.0)
    c1, c2 = branch_decomposition(atom, 100.0, pulse, grid)
    assert np.abs(c2).max() / np.abs(c1).max() < 0.02


def test_branch_zero_pulse_gives_zero():
    c1, c2 = branch_decomposition(AtomParams(), 10.0, None,
                                  TimeGrid.from_span(0.0, 1.0, 1e-2))
    assert np.abs(c1).max() == 0.0 and np.abs(c2).max() == 0.0


def test_branch_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        branch_decomposition(AtomParams(), 2.0, PulseSpec("gaussian"),
                             TimeGrid.from_span(0.0, 1.0, 1e-2))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_linearity_in_delta_amplitude():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 6.0, 1e-3)
    base = PulseSpec("delta", xi0=0.05, t_a=1.0)
    doubled = PulseSpec("delta", xi0=0.1, t_a=1.0)
    a = solve_closed_form_lorentzian(atom, 10.0, base, grid)
    b = solve_closed_form_lorentzian(atom, 10.0, doubled, grid)
    assert np.array_equal(2.0 * a.c, b.c)


def test_superposition_of_initial_state_and_pulse():
    grid = TimeGrid.from_span(0.0, 12.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=6.0)
    both = solve_closed_form_lorentzian(AtomParams(c0=0.5), 10.0, pulse, grid)
    only_c0 = solve_closed_form_lorentzian(AtomParams(c0=0.5), 10.0, None, grid)
    only_pulse = solve_closed_form_lorentzian(AtomParams(), 10.0, pulse, grid)
    assert np.abs(both.c - (only_c0.c + only_pulse.c)).max() < 1e-13


def test_probability_bound_across_solvers():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 14.0, 1e-3)
    spec = InteractionSpectrum.lorentzian(1.0)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    for traj in (solve_closed_form_lorentzian(atom, 1.0, pulse, grid),
                 solve_ode_reduction(atom, 1.0, pulse, grid),
                 solve_volterra(atom, spec, pulse, grid),
                 solve_markov(atom, pulse, grid)):
        assert traj.p.min() >= 0.0
        assert traj.p.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("delta", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_trajectory_refuses_non_finite_amplitude(bad, delta):
    # NaN compares False with the P <= 1 bound, so it needs its own refusal,
    # which also holds for a delta pulse, where the bound is not checked
    c = np.array([0.0, 0.5, bad, 0.1], dtype=complex)
    pulse = PulseSpec("delta", xi0=0.1, t_a=0.1) if delta else None
    with pytest.raises(ValueError, match="non-finite amplitude"):
        Trajectory.from_amplitude(TimeGrid(0.0, 0.1, 4), c, "markov", AtomParams(), pulse)


def test_trajectory_probability_is_modulus_squared():
    grid = TimeGrid.from_span(0.0, 4.0, 1e-3)
    traj = solve_markov(AtomParams(), PulseSpec("gaussian", tau_f=0.5, t_a=2.0), grid)
    assert np.array_equal(traj.p, np.abs(traj.c) ** 2)


@pytest.mark.parametrize("c0", [0j, 0.3 + 0.2j], ids=["c0_zero", "c0_set"])
@pytest.mark.parametrize("delta0", [0.0, 0.4])
def test_trajectory_probability_from_parts_is_modulus_squared(delta0, c0):
    # with no real part P is im*im, else |C|^2 of the joined amplitude: bit for bit |C|^2
    grid = TimeGrid.from_span(0.0, 12.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, delta0=delta0, t_a=6.0)
    for kappa in (0.5, 2.0, 10.0):
        traj = solve_closed_form_lorentzian(AtomParams(c0=c0), kappa, pulse, grid)
        assert np.array_equal(traj.p.view(np.int64), (np.abs(traj.c) ** 2).view(np.int64))
    im = np.linspace(-0.7, 0.7, 41)
    for parts in ((None, im), (im[::-1].copy(), im), (None, None)):
        traj = Trajectory.from_amplitude(TimeGrid(0.0, 0.1, 41), parts, "closed_form",
                                         AtomParams(), None)
        assert traj.c.dtype == complex
        assert np.array_equal(traj.p.view(np.int64), (np.abs(traj.c) ** 2).view(np.int64))


def test_trajectory_digests_its_params_on_demand():
    grid = TimeGrid.from_span(0.0, 4.0, 1e-3)
    atom = AtomParams(c0=0.1j)
    pulse = PulseSpec("gaussian", tau_f=0.5, t_a=2.0)
    spec = InteractionSpectrum.lorentzian(10.0)
    for traj in (solve_closed_form_lorentzian(atom, 10.0, pulse, grid),
                 solve_ode_reduction(atom, 10.0, pulse, grid),
                 solve_volterra(atom, spec, pulse, grid),
                 solve_markov(atom, pulse, grid)):
        assert traj.params["solver"] == traj.solver_id
        assert traj.params["grid"] == {"t0": grid.t0, "dt": grid.dt, "n": grid.n}


def test_gamma_rescaling_invariance():
    # C_gamma(t; kappa, tau_f) == C_1(gamma t; kappa/gamma, gamma tau_f):
    # gamma really is just the unit of rates throughout the stack
    fast = solve_closed_form_lorentzian(
        AtomParams(gamma=2.0, gamma_p=2.0), 20.0,
        PulseSpec("gaussian", tau_f=0.5, t_a=3.5), TimeGrid(0.0, 5e-4, 16001))
    slow = solve_closed_form_lorentzian(
        AtomParams(), 10.0,
        PulseSpec("gaussian", tau_f=1.0, t_a=7.0), TimeGrid(0.0, 1e-3, 16001))
    assert np.abs(fast.p - slow.p).max() < 1e-9


def test_propagation_delay_equals_arrival_shift():
    grid = TimeGrid.from_span(0.0, 12.0, 1e-3)
    pulse_early = PulseSpec("gaussian", tau_f=1.0, t_a=5.0)
    pulse_late = PulseSpec("gaussian", tau_f=1.0, t_a=5.5)
    delayed = solve_closed_form_lorentzian(AtomParams(t_d=0.5), 10.0, pulse_early, grid)
    shifted = solve_closed_form_lorentzian(AtomParams(), 10.0, pulse_late, grid)
    assert np.abs(delayed.c - shifted.c).max() < 1e-12


def test_atom_params_validation_and_presets():
    with pytest.raises(ValueError, match="gamma"):
        AtomParams(gamma=-1.0)
    with pytest.raises(ValueError, match="gamma_p"):
        AtomParams(gamma_p=2.0)
    with pytest.raises(ValueError, match="c0"):
        AtomParams(c0=1.5)
    free = AtomParams(gamma_p=MODE_FRACTION_PRESETS["free_space"])
    assert free.gamma_p == pytest.approx(3.0 / (8.0 * np.pi))
    assert MODE_FRACTION_PRESETS["waveguide_1d"] == 0.5


# ---------------------------------------------------------------------------
# triple-solver spot matrix (the full matrix runs in the acceptance suite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kappa,shape,tau_f", [
    (1.0, "gaussian", 1.0),
    (2.0, "decaying_exp", 1.0),
    (10.0, "rising_exp", 0.1),
    (100.0, "gaussian", 0.1),
])
def test_triple_solver_agreement_spot(kappa, shape, tau_f):
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 12.0, 1e-3)
    pulse = PulseSpec(shape, tau_f=tau_f, t_a=6.0)
    spec = InteractionSpectrum.lorentzian(kappa)
    a = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
    b = solve_ode_reduction(atom, kappa, pulse, grid)
    c = solve_volterra(atom, spec, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-4
    assert np.abs(a.p - c.p).max() < 1e-4
    assert np.abs(b.p - c.p).max() < 1e-4


def _branch_sum_decay(atom, kappa, grid):
    """Excited-atom decay summed branch by branch, s1 e^{-p1 t} + s2 e^{-p2 t}
    (the double-pole form at kappa = 2 gamma), without the closed form's recursion."""
    br = branch_params(atom.gamma, kappa)
    dtt = grid.dt * np.arange(grid.n)
    if br.degenerate:
        return (1.0 + atom.gamma * dtt) * np.exp(-atom.gamma * dtt) + 0j
    return br.s1 * np.exp(-br.p1 * dtt) + br.s2 * np.exp(-br.p2 * dtt)


@pytest.mark.parametrize("gamma", [1.0, 0.7])
@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.0, 5.0, 10.0, 37.0, 100.0])
def test_spontaneous_decay_csv_is_the_branch_sum(tmp_path, gamma, kappa):
    atom = AtomParams(gamma=gamma, gamma_p=0.6 * gamma, t_d=0.3, c0=1.0)
    grid = TimeGrid.from_span(0.5, 8.5, 1e-3)
    c = _branch_sum_decay(atom, kappa, grid)
    oracle = Trajectory(grid=grid, c=c, p=np.abs(c) ** 2, solver_id="closed_form", params={})
    write_trajectory(tmp_path / "oracle", oracle)
    write_trajectory(tmp_path / "decay", spontaneous_decay(atom, kappa, grid))
    assert (tmp_path / "decay.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_drive_refuses_a_step_that_aliases_the_carrier():
    atom, spec = AtomParams(), InteractionSpectrum.lorentzian(1000.0)
    pulse = PulseSpec("gaussian", tau_f=0.01, delta0=1000.0, t_a=0.5)
    with pytest.raises(ParameterError, match="aliases the carrier") as err:
        _drive_on_grid(atom, spec, pulse, TimeGrid.from_span(0.0, 2.0, 0.01))
    assert err.value.field == "dt"
    # |delta0| dt = pi is the last step that resolves it, whatever the solver samples
    for half_step in (False, True):
        _drive_on_grid(atom, spec, pulse, TimeGrid(0.0, np.pi / 1000.0, 8), half_step)
    # a delta pulse has no carrier to sample
    delta = PulseSpec("delta", xi0=0.1, delta0=1000.0, t_a=0.5)
    _drive_on_grid(atom, spec, delta, TimeGrid.from_span(0.0, 2.0, 0.01))
