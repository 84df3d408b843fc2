"""Spectra, kernels and driving terms against independent oracles.

The driving-term oracle is the time-domain convolution of the envelope with
the cavity ring-in response, D(tau) = -1j sqrt(gamma_p) kappa
int u(s) exp(-kappa (tau - s)) ds, integrated adaptively: a route sharing
nothing with either the closed-form filter `exp_filter` or the detuning-grid
quadrature.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import czt
from scipy.special import erfcx

from fockatom import (
    InteractionSpectrum,
    PulseSpec,
    branch_params,
    envelope,
    memory_kernel,
)
from fockatom import spectra
from fockatom.dynamics import _joined
from fockatom.grids import ParameterError
from fockatom.spectra import (
    _driving_quadrature_nodes,
    _fft_size,
    _phase_sum_uniform,
    coupling_amplitude,
    driving_term_uniform,
    exp_filter,
    total_spectrum,
)


def _drive(spec, pulse, t0, dt, n):
    """The complex drive of `driving_term_uniform`, its parts joined (None is zero)."""
    return _joined(driving_term_uniform(spec, pulse, t0, dt, n), n)


def _drive_at(spec, pulse, t):
    """D at the one time t."""
    return _drive(spec, pulse, t, 1.0, 1)[0]


def _dense_phase_sum(vals, nodes, tau):
    """sum_j vals_j exp(-1j nodes_j tau_k) summed directly, ~64 MB of phases per chunk of tau."""
    block = max(1, (1 << 22) // nodes.size)
    return np.concatenate([np.exp(-1j * np.outer(tau[s:s + block], nodes)) @ vals
                           for s in range(0, tau.size, block)])


def test_lorentzian_coupling_at_resonance():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    g0 = coupling_amplitude(spec, 0.0)
    assert g0 == pytest.approx(-1j * np.sqrt(1.0 / (2.0 * np.pi)), abs=1e-12)
    assert abs(g0 + 1j * 0.39894) < 1e-5


def test_lorentzian_half_width():
    spec = InteractionSpectrum.lorentzian(10.0)
    g0 = abs(coupling_amplitude(spec, 0.0)) ** 2
    gk = abs(coupling_amplitude(spec, 10.0)) ** 2
    assert gk == pytest.approx(0.5 * g0, rel=1e-12)


def test_flat_coupling_constant():
    spec = InteractionSpectrum.flat(gamma_p=1.0)
    for d in (-40.0, 0.0, 3.0):
        assert coupling_amplitude(spec, d) == pytest.approx(0.3989422804014327, abs=1e-10)


def test_tabulated_coupling_fraction_and_range():
    d = np.linspace(-10, 10, 201)
    g2 = np.full_like(d, 1.0 / (2 * np.pi))
    spec = InteractionSpectrum.tabulated(d, g2, gamma_p=0.5, gamma=1.0)
    # uniform pulse fraction gamma_p/gamma under the square root
    assert coupling_amplitude(spec, 0.0) == pytest.approx(
        np.sqrt(0.5 / (2 * np.pi)), abs=1e-12)
    with pytest.raises(ValueError, match="outside tabulated grid"):
        coupling_amplitude(spec, 11.0)


def test_lorentzian_kernel_values():
    kernel = memory_kernel(InteractionSpectrum.lorentzian(10.0, gamma=1.0))

    def kern(t):
        return kernel.uniform(t, 1.0, 1)[0]

    assert kern(0.0) == pytest.approx(5.0, abs=1e-12)
    assert kern(0.1) == pytest.approx(5.0 * np.exp(-1.0), abs=1e-12)
    assert abs(kern(0.1) - 1.83940) < 1e-5
    # real spectrum: G(-t) = conj(G(t))
    assert kern(-0.3) == pytest.approx(np.conj(kern(0.3)), abs=1e-14)


@pytest.mark.parametrize("gamma", [np.nan, 0.0, 1e-60, 1e60])
def test_spectrum_range_checks_gamma(gamma):
    # the rates rule 0 < gamma_p <= gamma alone would pass gamma = gamma_p = 1e-60
    with pytest.raises(ParameterError) as err:
        InteractionSpectrum.flat(gamma_p=min(gamma, 1.0), gamma=gamma)
    assert err.value.field == "gamma"


def test_flat_kernel_is_refused():
    # the Markov kernel is a Dirac mass with no memory to sample
    with pytest.raises(ParameterError, match="solve_markov") as err:
        memory_kernel(InteractionSpectrum.flat(gamma=1.0))
    assert err.value.field == "kind"


def test_kernel_spectrum_duality():
    # numeric FT of |g_tot|^2 reproduces (gamma kappa/2) e^{-kappa t} within 1e-4
    gamma, kappa = 1.0, 1.0
    spec = InteractionSpectrum.lorentzian(kappa, gamma=gamma)
    d = np.linspace(-6000.0, 6000.0, 600001)
    w = np.full(d.size, d[1] - d[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    vals = w * total_spectrum(spec, d)
    for t in np.linspace(0.0, 5.0 / kappa, 7):
        num = np.sum(vals * np.exp(-1j * d * t))
        ana = 0.5 * gamma * kappa * np.exp(-kappa * t)
        assert abs(num - ana) < 1e-4


def test_lorentzian_area_rule():
    gamma, kappa = 1.0, 1.0
    spec = InteractionSpectrum.lorentzian(kappa, gamma=gamma)
    d = np.linspace(-6000.0, 6000.0, 600001)
    area = np.trapezoid(total_spectrum(spec, d), d)
    assert abs(area - 0.5 * gamma * kappa) < 1e-4


def test_tabulated_kernel_matches_analytic():
    gamma, kappa = 1.0, 10.0
    d = np.linspace(-2000.0, 2000.0, 80001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    kern = memory_kernel(InteractionSpectrum.tabulated(d, g2))
    t = np.linspace(0.05, 0.5, 10)
    ana = 0.5 * gamma * kappa * np.exp(-kappa * t)
    assert np.abs(kern.uniform(0.05, 0.05, 10) - ana).max() < 1e-3


# ---------------------------------------------------------------------------
# driving term
# ---------------------------------------------------------------------------

def _drive_oracle(pulse: PulseSpec, gamma_p: float, kappa: float, tau: float) -> complex:
    """Time-domain convolution of the envelope with the cavity ring-in."""
    start = {"gaussian": -10.0 * pulse.tau_f, "decaying_exp": 0.0,
             "rising_exp": -40.0 * pulse.tau_f}[pulse.shape]
    if tau <= start:
        return 0.0
    lo = max(start, tau - 40.0 / kappa)  # the ring-in has decayed by e^-40 before

    def integrand(s, part):
        u = complex(envelope(pulse, s + pulse.t_a))
        return getattr(u, part) * np.exp(-kappa * (tau - s))

    # split at the pulse reference: the rising_exp cut-off is a jump there
    pts = [0.0] if lo < 0.0 < tau else None
    re, _ = quad(integrand, lo, tau, args=("real",), limit=500, points=pts)
    im, _ = quad(integrand, lo, tau, args=("imag",), limit=500, points=pts)
    return -1j * np.sqrt(gamma_p) * kappa * (re + 1j * im)


def test_flat_drive_short_circuits_to_envelope():
    spec = InteractionSpectrum.flat(gamma_p=0.6)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=3.0)
    got = _drive_at(spec, pulse, 3.0)
    assert got == pytest.approx(np.sqrt(0.6) * (1.0 / (2 * np.pi)) ** 0.25, abs=1e-12)


def test_decaying_exp_drive_matches_convolution_oracle():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    pulse = PulseSpec("decaying_exp", tau_f=1.0, t_a=0.0)
    for tau in (0.05, 0.5, 2.0, 5.0):
        got = _drive_at(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 10.0, tau)
        assert abs(got - want) < 1e-6


def test_rising_exp_drive_matches_convolution_oracle():
    spec = InteractionSpectrum.lorentzian(4.0, gamma_p=1.0)
    pulse = PulseSpec("rising_exp", tau_f=0.8, t_a=0.0)
    for tau in (-2.0, -0.3, 0.0, 0.4, 2.0):
        got = _drive_at(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 4.0, tau)
        assert abs(got - want) < 1e-6


def test_gaussian_drive_quadrature_matches_convolution_oracle():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    for tau in (-2.0, 0.0, 0.7, 3.0):
        got = _drive_at(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 10.0, tau)
        assert abs(got - want) < 1e-6


def test_detuned_carrier_drives_match_oracle():
    # delta0 != 0 exercises the complex pole shift in every closed form; the
    # last time lies in the far tail Re z < -27 of the Gaussian filter, where
    # erfcx(z) overflows and the reflected form takes over
    for kappa in (0.1, 5.0, 100.0):
        spec = InteractionSpectrum.lorentzian(kappa, gamma_p=1.0)
        for tau_f in (0.01, 0.6, 1.0, 10.0):
            tail = 2.0 * tau_f * (kappa * tau_f + 28.0)
            for delta0 in (0.0, 2.0, -5.0):
                for shape in ("decaying_exp", "rising_exp", "gaussian"):
                    pulse = PulseSpec(shape, tau_f=tau_f, delta0=delta0, t_a=0.0)
                    for tau in (-4.0 / 3.0 * tau_f, 0.5 * tau_f, 2.5 * tau_f, tail):
                        got = _drive_at(spec, pulse, tau)
                        want = _drive_oracle(pulse, 1.0, kappa, tau)
                        assert abs(got - want) < 1e-6, (kappa, tau_f, delta0, shape, tau)


def test_degenerate_pole_decaying_exp():
    # kappa = 1/(2 tau_f): the two drive poles coincide; the limit form applies
    spec = InteractionSpectrum.lorentzian(0.5, gamma_p=1.0)
    pulse = PulseSpec("decaying_exp", tau_f=1.0, t_a=0.0)
    for tau in (0.5, 2.0):
        got = _drive_at(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 0.5, tau)
        assert np.isfinite(got.real) and np.isfinite(got.imag)
        assert abs(got - want) < 1e-6


def _exp_filter_complex(rate, pulse, tau):
    """The cavity filter F_r[u](tau) with every constant and transcendental complex."""
    rate = complex(rate)
    tau = np.asarray(tau, dtype=float)
    after = tau >= 0.0
    tpos = np.clip(tau, 0.0, None)
    if pulse.shape == "delta":
        return np.where(after, pulse.xi0 * np.sqrt(2.0 * np.pi) * np.exp(-rate * tpos), 0.0 + 0j)
    tf, d0 = pulse.tau_f, pulse.delta0
    if pulse.shape == "decaying_exp":
        a = 0.5 / tf + 1j * d0
        if abs(rate - a) < 1e-7 * abs(rate):
            body = tpos * np.exp(-rate * tpos)
        else:
            body = (np.exp(-a * tpos) - np.exp(-rate * tpos)) / (rate - a)
        return np.where(after, body / np.sqrt(tf), 0.0 + 0j)
    if pulse.shape == "rising_exp":
        b = 0.5 / tf - 1j * d0
        before = np.exp(b * np.clip(tau, None, 0.0))
        return np.where(after, np.exp(-rate * tpos), before) / ((rate + b) * np.sqrt(tf))
    amp = (2.0 * np.pi * tf**2) ** -0.25 * tf * np.sqrt(np.pi)
    q = (rate - 1j * d0) * tf
    z = np.asarray(q - tau / (2.0 * tf))
    gauss = np.exp(-1j * d0 * tau - tau**2 / (4.0 * tf**2))
    out = np.empty(tau.shape, dtype=complex)
    head, tail = z.real >= 0.0, z.real < 0.0
    out[head] = amp * gauss[head] * erfcx(z[head])
    out[tail] = amp * (2.0 * np.exp(q * q - rate * tau[tail]) - gauss[tail] * erfcx(-z[tail]))
    return out


@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp", "delta"])
@pytest.mark.parametrize("delta0", [0.0, 0.4])
@pytest.mark.parametrize("rate", [10.0, branch_params(1.0, 10.0).p1, branch_params(1.0, 0.5).p1],
                         ids=["kappa", "real_pole", "complex_pole"])
def test_exp_filter_matches_all_complex_oracle(shape, delta0, rate):
    # real rates and detunings run in real arithmetic and return float64, where the complex
    # oracle's imaginary part is exactly 0; the values stay those of complex (complex exp
    # and erfcx differ from the real ones in the last bit)
    pulse = PulseSpec(shape, tau_f=0.7, delta0=delta0, xi0=0.1)
    tau = np.linspace(-12.0, 30.0, 4201)
    got = exp_filter(rate, pulse, tau)
    want = _exp_filter_complex(rate, pulse, tau)
    real = complex(rate).imag == 0.0 and (delta0 == 0.0 or shape == "delta")
    assert got.dtype == (np.float64 if real else complex)
    if real:
        assert not want.imag.any()
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.int64)


def _exp_filter_masks(rate, pulse, tau):
    """`exp_filter` as a mask formula: each piece on every sample, where() picking the samples
    it holds on, and the rate and the carrier carried as floats where their imaginary part
    is exactly zero."""
    tau = np.asarray(tau, dtype=float)
    rate = rate.real if complex(rate).imag == 0.0 else complex(rate)
    if pulse.shape == "delta":
        return np.where(tau >= 0.0,
                        pulse.xi0 * np.sqrt(2.0 * np.pi) * np.exp(-rate * np.clip(tau, 0.0, None)),
                        0.0)
    tf, carrier = pulse.tau_f, 1j * pulse.delta0 if pulse.delta0 else 0.0
    if pulse.shape == "decaying_exp":
        tpos = np.clip(tau, 0.0, None)
        a = 0.5 / tf + carrier
        if abs(rate - a) < 1e-7 * abs(rate):
            body = tpos * np.exp(-rate * tpos)
        else:
            body = (np.exp(-a * tpos) - np.exp(-rate * tpos)) / (rate - a)
        return np.where(tau >= 0.0, body / np.sqrt(tf), 0.0)
    if pulse.shape == "rising_exp":
        b = 0.5 / tf - carrier
        before = np.exp(b * np.clip(tau, None, 0.0))
        return (np.where(tau >= 0.0, np.exp(-rate * np.clip(tau, 0.0, None)), before)
                / ((rate + b) * np.sqrt(tf)))
    amp = (2.0 * np.pi * tf**2) ** -0.25 * tf * np.sqrt(np.pi)
    q = (rate - carrier) * tf
    z = np.asarray(q - tau / (2.0 * tf))
    gauss = np.exp(-carrier * tau - tau**2 / (4.0 * tf**2))
    tail = z.real < 0.0
    e = erfcx(np.where(tail, -z, z))
    out = amp * gauss * e
    out[tail] = amp * (2.0 * np.exp(q * q - rate * tau[tail]) - gauss[tail] * e[tail])
    return out


@pytest.mark.parametrize("delta0", [0.0, 0.4])
@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp", "delta"])
@pytest.mark.parametrize("rate", [10.0, branch_params(1.0, 10.0).p1, branch_params(1.0, 0.5).p1,
                                  0.5 / 0.7], ids=["kappa", "real_pole", "complex_pole",
                                                   "decaying_exp_pole"])
def test_exp_filter_is_the_mask_formula_bit_for_bit(rate, shape, delta0):
    # each piece evaluated on its own samples, found by searchsorted on the ascending clock,
    # is the mask formula bit for bit, in its dtype; the clock starts before the pulse, has
    # a sample at tau = 0 and, for the Gaussian, runs past the switch to the reflection
    pulse = PulseSpec(shape, tau_f=0.7, delta0=delta0, xi0=0.1)
    tau = -12.0 + 2.0**-9 * np.arange(21505)
    re_z = complex(rate).real * pulse.tau_f - tau / (2.0 * pulse.tau_f)
    assert tau[6144] == 0.0 and (re_z >= 0.0).any() and (re_z < 0.0).any()
    got, want = exp_filter(rate, pulse, tau), _exp_filter_masks(rate, pulse, tau)
    assert got.dtype == want.dtype
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("rate, tail", [(10.0, "in_band"), (branch_params(1.0, 10.0).p1, "in_band"),
                                        (1000.0, "past_cut"), (3e4, "none")])
def test_exp_filter_skips_the_underflowing_gaussian_bit_for_bit(rate, tail):
    # past |tau| = 2 tf sqrt(746) exp(-tau^2/(4 tf^2)) is +0, so the real Gaussian filter skips
    # it and its erfcx there: the clock runs from far before the pulse to far after it, and
    # the reflection (from tau = 2 tf q) starts inside the band, past it or not at all; the
    # result is still the mask formula, bit for bit
    pulse = PulseSpec("gaussian", tau_f=0.05)
    tau = -20.0 + 2.0**-9 * np.arange(25601)
    cut, start = 2.0 * pulse.tau_f * np.sqrt(746.0), 2.0 * pulse.tau_f**2 * complex(rate).real
    assert (tau < -cut).sum() > 1000 and (tau > cut).sum() > 1000
    assert {"in_band": start < cut, "past_cut": cut < start < tau[-1],
            "none": tau[-1] < start}[tail]
    got, want = exp_filter(rate, pulse, tau), _exp_filter_masks(rate, pulse, tau)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(_bits(got), _bits(want))
    # exp is +0 on every argument below -746
    x = -np.concatenate((np.linspace(746.0, 1e4, 10001), [1e300, np.inf]))
    assert np.array_equal(np.exp(x).view(np.int64), np.zeros(x.size, np.int64))


@pytest.mark.parametrize("rate, delta0", [(10.0, 0.4), (branch_params(1.0, 0.5).p1, 0.0),
                                          (branch_params(1.0, 0.5).p1, 0.4)],
                         ids=["carrier", "complex_pole", "complex_pole_carrier"])
def test_complex_gaussian_filter_skips_the_underflowing_samples(monkeypatch, rate, delta0):
    # a complex rate or a carrier takes the same path as the real filter: |e^{-1j delta0 t}|
    # = 1 and |erfcx(z)| <= 1 at Re z >= 0, so past |tau| = 2 tf sqrt(746) the product is
    # +-0 and is not evaluated. The mask formula evaluates it, so the two agree in value
    # everywhere and bit for bit away from zeros, whose sign the carrier's phase sets
    pulse = PulseSpec("gaussian", tau_f=0.05, delta0=delta0)
    tau = -20.0 + 2.0**-9 * np.arange(25601)
    cut = 2.0 * pulse.tau_f * np.sqrt(746.0)
    inside = int(np.sum(np.abs(tau) <= cut))
    assert (tau < -cut).sum() > 1000 and (tau > cut).sum() > 1000
    seen = []

    def counting(z):
        seen.append(np.size(z))
        return erfcx(z)

    monkeypatch.setattr(spectra, "erfcx", counting)
    got = exp_filter(rate, pulse, tau)
    monkeypatch.undo()
    want = _exp_filter_masks(rate, pulse, tau)
    assert got.dtype == want.dtype == np.complex128
    assert np.array_equal(got, want)
    got_parts, want_parts = got.view(float), want.view(float)
    nonzero = want_parts != 0.0
    assert nonzero.sum() > 1000
    assert np.array_equal(got_parts[nonzero].view(np.int64), want_parts[nonzero].view(np.int64))
    # erfcx saw only samples inside the cut, so never one past it: their values agree above
    assert 0 < sum(seen) <= inside


@pytest.mark.parametrize("delta0", [0.0, 0.4])
@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp", "delta"])
@pytest.mark.parametrize("kind", ["lorentzian", "flat", "tabulated"])
def test_drive_parts_reassemble_the_complex_drive(kind, shape, delta0):
    # the parts, a part marked None read as zeros, are bit for bit the complex drive:
    # -1j sqrt(gamma_p) kappa F for a Lorentzian, sqrt(gamma_p) u for a flat spectrum and
    # the chirp-z phase sum for a table; a part is None only where it is zero by construction
    pulse = PulseSpec(shape, tau_f=0.7, delta0=delta0, t_a=3.0, xi0=0.1)
    t0, dt, n = -1.0, 0.01, 1201
    tau = t0 - pulse.t_a + dt * np.arange(n)
    if kind == "lorentzian":
        spec = InteractionSpectrum.lorentzian(7.0, gamma_p=0.6)
        want = -1j * np.sqrt(spec.gamma_p) * spec.kappa * exp_filter(spec.kappa, pulse, tau)
        absent = (shape == "delta" or delta0 == 0.0, False)
    elif shape == "delta":  # no drive on a flat spectrum or a finite table
        spec = (InteractionSpectrum.flat() if kind == "flat"
                else InteractionSpectrum.tabulated(np.linspace(-50, 50, 101), np.ones(101)))
        with pytest.raises(ValueError):
            driving_term_uniform(spec, pulse, t0, dt, n)
        return
    elif kind == "flat":
        spec = InteractionSpectrum.flat(gamma_p=0.6)
        want = np.sqrt(spec.gamma_p) * envelope(pulse, tau + pulse.t_a)
        absent = (False, delta0 == 0.0)
    else:
        spec = _lorentzian_table()
        nodes, vals = _driving_quadrature_nodes(spec, pulse, (n - 1) * dt)
        want = _phase_sum_uniform(vals, nodes, tau[0], dt, n)
        absent = (False, False)
    parts = driving_term_uniform(spec, pulse, t0, dt, n)
    assert tuple(part is None for part in parts) == absent
    for part in parts:
        assert part is None or (part.dtype == np.float64 and part.flags.c_contiguous)
    assert np.array_equal(_bits(_drive(spec, pulse, t0, dt, n)), _bits(want))


def test_delta_drive_closed_form():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    pulse = PulseSpec("delta", xi0=0.1, t_a=1.0)
    assert _drive_at(spec, pulse, 0.9) == 0.0
    got = _drive_at(spec, pulse, 1.2)
    want = -1j * 0.1 * np.sqrt(2 * np.pi) * 10.0 * np.exp(-10.0 * 0.2)
    assert got == pytest.approx(want, rel=1e-12)


def test_delta_drive_rejected_without_closure():
    pulse = PulseSpec("delta", xi0=0.1)
    with pytest.raises(ValueError, match="Markov"):
        _drive_at(InteractionSpectrum.flat(), pulse, 0.0)
    d = np.linspace(-10, 10, 101)
    tab = InteractionSpectrum.tabulated(d, np.ones_like(d))
    with pytest.raises(ValueError, match="closed form"):
        _drive_at(tab, pulse, 0.0)


def test_drive_vanishes_before_gaussian_pulse():
    spec = InteractionSpectrum.lorentzian(10.0)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    assert abs(_drive_at(spec, pulse, -30.0)) < 1e-12


def test_markov_limit_of_lorentzian_drive():
    # kappa = 1000 gamma: |D| at the pulse peak matches the flat closed form to 1e-3
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    lor = InteractionSpectrum.lorentzian(1000.0, gamma_p=1.0)
    flat = InteractionSpectrum.flat(gamma_p=1.0)
    d_lor = abs(_drive_at(lor, pulse, 0.0))
    d_flat = abs(_drive_at(flat, pulse, 0.0))
    assert abs(d_lor - d_flat) / d_flat < 1e-3


def test_uniform_and_pointwise_drive_agree():
    # Bluestein chirp-z on the uniform grid against the direct phase sum on the same nodes
    kappa = 10.0
    d = np.linspace(-200.0, 200.0, 4001)
    spec = InteractionSpectrum.tabulated(d, (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0))
    pulse = PulseSpec("gaussian", tau_f=0.5, t_a=2.0)
    n, dt = 201, 0.02
    t = 1.0 + dt * np.arange(n)
    via_czt = _drive(spec, pulse, 1.0, dt, n)
    tau = t - pulse.t_a
    nodes, vals = _driving_quadrature_nodes(spec, pulse, np.ptp(tau))
    direct = _dense_phase_sum(vals, nodes, tau)
    assert np.abs(via_czt - direct).max() < 1e-7


def _phase_sum_czt(vals, nodes, tau0, dtau, n):
    """sum_j vals_j exp(-1j nodes_j tau_k), tau_k = tau0 + k dtau, by scipy.signal.czt."""
    h = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
    out = czt(vals * np.exp(-1j * nodes[0] * tau0), m=n, w=np.exp(-1j * h * dtau),
              a=np.exp(1j * h * tau0))
    return out * np.exp(-1j * nodes[0] * (np.arange(n) * dtau))


@pytest.mark.parametrize("m, h, tau0, dtau, n", [
    (2, 0.3, 1.0, 0.1, 1),
    (5, 0.3, -1.0, 0.1, 3),
    (4001, 0.05, 1.0, 0.02, 201),        # tabulated drive, tau_f = 0.5
    (4001, 0.025, -7.0, 0.0025, 8001),   # tabulated drive, tau_f = 1, half steps
    (4001, 0.025, -7.0, 5e-4, 40001),
    (20001, 0.05, 0.0, 5e-4, 16001),     # tabulated kernel of the Volterra weights
])
def test_bluestein_matches_scipy_czt(m, h, tau0, dtau, n):
    # the oracle is the direct sum over the uniform nodes nodes_0 + j h, h the mean gap,
    # that both transforms assume; scipy raises the rounded w = exp(-1j h dtau) to k^2/2 and
    # drifts from it by up to 3.4e-9 here, so it bounds the error only from above
    rng = np.random.default_rng(m + n)
    nodes = np.linspace(-0.5 * h * (m - 1), 0.5 * h * (m - 1), m) + 0.3
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    k = np.unique(np.r_[np.arange(0, n, max(1, n // 500)), n - 1])
    h_mean = (nodes[-1] - nodes[0]) / (m - 1)
    want = _dense_phase_sum(vals, nodes[0] + h_mean * np.arange(m), tau0 + dtau * k)
    got = _phase_sum_uniform(vals, nodes, tau0, dtau, n)[k]
    scipy_err = np.abs(_phase_sum_czt(vals, nodes, tau0, dtau, n)[k] - want).max()
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= min(1e-12 * scale, scipy_err + 1e-15 * scale)


def _lorentzian_table(kappa=10.0):
    d = np.linspace(-500.0, 500.0, 20001)
    return InteractionSpectrum.tabulated(d, (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0))


def test_tabulated_drive_takes_the_chirp_exactly():
    # 4001 detuning nodes, 20001 times: a chirp exp((k^2/2) log w), w rounded off the
    # unit circle, drifts past the bound
    spec = _lorentzian_table()
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    n, dt = 20001, 2e-3
    k = np.r_[np.arange(0, n, 50), n - 1]
    fast = _drive(spec, pulse, 0.0, dt, n)[k]
    tau = dt * k - pulse.t_a
    nodes, vals = _driving_quadrature_nodes(spec, pulse, np.ptp(tau))
    direct = _dense_phase_sum(vals, nodes, tau)
    assert np.abs(fast - direct).max() <= 1e-11 * np.abs(direct).max()


@pytest.mark.parametrize("n", [16001, 64001])
def test_tabulated_kernel_takes_the_chirp_exactly(n):
    # the half-step kernel of an n = 8k or 32k Volterra run
    kernel = memory_kernel(_lorentzian_table())
    k = np.r_[np.arange(0, n, 100), n - 1]
    fast = kernel.uniform(0.0, 5e-4, n)[k]
    direct = _dense_phase_sum(kernel._weights, kernel._nodes, 5e-4 * k)
    assert np.abs(fast - direct).max() <= 1e-11 * np.abs(direct).max()


def test_table_jittered_within_the_uniformity_tolerance_keeps_its_kernel():
    # gaps 0.25 (1 +- jitter): a table is refused as non-uniform, or the chirp-z kernel,
    # which places node j at nodes[0] + j h, h the mean gap, keeps the dense phase sum
    rng = np.random.default_rng(0)
    tau = 5e-3 * np.arange(801)
    outcomes = []
    for jitter in (1e-7, 1e-9, 1e-11, 1e-13, 0.0):
        d = -50.0 + np.r_[0.0, np.cumsum(0.25 * (1.0 + jitter * rng.uniform(-1.0, 1.0, 399)))]
        try:
            spec = InteractionSpectrum.tabulated(d, 1.0 / ((d / 5.0) ** 2 + 1.0))
        except ValueError as exc:
            assert "uniform" in str(exc)
            outcomes.append("refused")
            continue
        kernel = memory_kernel(spec)
        want = _dense_phase_sum(kernel._weights, kernel._nodes, tau)
        assert np.abs(kernel.uniform(0.0, 5e-3, 801) - want).max() <= 1e-10 * np.abs(want).max()
        outcomes.append("kept")
    assert outcomes[:2] == ["refused", "refused"] and outcomes[-2:] == ["kept", "kept"], outcomes


def test_fft_size_is_smallest_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 3000):
        size = _fft_size(n)
        assert size >= n and smooth(size)
        assert not any(smooth(k) for k in range(n, size))


def test_tabulated_drive_close_to_analytic_magnitude():
    # zero-phase tabulated coupling: same magnitudes, but the analytic
    # coupling phase delays the drive by ~1/kappa, so the magnitude traces
    # differ by ~|dD/dt|/kappa. Check that the gap is at that scale.
    kappa = 50.0
    d = np.linspace(-2500.0, 2500.0, 100001)
    g2 = (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    lor = InteractionSpectrum.lorentzian(kappa)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    dt_tab = np.abs(_drive(tab, pulse, -3.0, 0.5, 13))
    dt_lor = np.abs(_drive(lor, pulse, -3.0, 0.5, 13))
    assert np.abs(dt_tab - dt_lor).max() < 1e-2
    # delay-compensated comparison collapses the gap
    dt_lor_shifted = np.abs(_drive(lor, pulse, -3.0 + 1.0 / kappa, 0.5, 13))
    assert np.abs(dt_tab - dt_lor_shifted).max() < 3e-4


def test_spectrum_validation():
    with pytest.raises(ValueError, match="kappa"):
        InteractionSpectrum.lorentzian(-1.0)
    with pytest.raises(ValueError, match="gamma_p"):
        InteractionSpectrum.lorentzian(1.0, gamma_p=2.0, gamma=1.0)
    with pytest.raises(ValueError, match="non-negative"):
        InteractionSpectrum.tabulated([0.0, 1.0], [-0.1, 0.2])
    with pytest.raises(ValueError, match="increasing"):
        InteractionSpectrum.tabulated([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(ValueError, match="finite"):
        InteractionSpectrum.tabulated([0.0, 1.0], [0.1, np.nan])
    with pytest.raises(ValueError, match="uniform"):
        InteractionSpectrum.tabulated([0.0, 1.0, 1.5, 2.5], [0.1, 0.2, 0.2, 0.1])


def test_from_csv_roundtrip(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("delta,g2\n-1.0,0.1\n0.0,0.2\n1.0,0.1\n")
    spec = InteractionSpectrum.from_csv(path)
    assert total_spectrum(spec, 0.0) == pytest.approx(0.2)
    assert total_spectrum(spec, 0.5) == pytest.approx(0.15)
