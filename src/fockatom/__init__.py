"""fockatom: non-Markov single-photon absorption by a two-level atom.

Exact memory-kernel dynamics of the atomic excitation amplitude for
single-photon Fock-state pulses, the Markov (Wigner-Weisskopf) reference,
transduction timing metrics, spectral-matching sweeps, and linear-vs-
nonlinear detector contrasts. Rates are in units of the Markov spontaneous
decay rate gamma; times in 1/gamma.
"""

__version__ = "0.1.0"

from .analysis import (
    SweepResult,
    TransductionMetrics,
    probability_density,
    solve,
    sweep_pmax,
    transduction_metrics,
)
from .detectors import DetectorTrace, bloch_response, fock_atom_response, linear_response
from .dynamics import (
    MODE_FRACTION_PRESETS,
    AtomParams,
    LorentzBranches,
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
from .grids import TimeGrid
from .pulses import (
    CoherentPulseSpec,
    PulseSpec,
    envelope,
    spectral_amplitude,
)
from .spectra import (
    InteractionSpectrum,
    MemoryKernel,
    coupling_amplitude,
    memory_kernel,
    total_spectrum,
)

__all__ = [
    "AtomParams",
    "CoherentPulseSpec",
    "DetectorTrace",
    "InteractionSpectrum",
    "LorentzBranches",
    "MemoryKernel",
    "MODE_FRACTION_PRESETS",
    "PulseSpec",
    "SweepResult",
    "TimeGrid",
    "Trajectory",
    "TransductionMetrics",
    "bloch_response",
    "branch_decomposition",
    "branch_params",
    "coupling_amplitude",
    "delta_pulse_rise",
    "envelope",
    "fock_atom_response",
    "linear_response",
    "memory_kernel",
    "probability_density",
    "solve",
    "solve_closed_form_lorentzian",
    "solve_markov",
    "solve_ode_reduction",
    "solve_volterra",
    "spectral_amplitude",
    "spontaneous_decay",
    "sweep_pmax",
    "total_spectrum",
    "transduction_metrics",
]
