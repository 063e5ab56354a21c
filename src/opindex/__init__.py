"""Numerical operator-index laboratory.

Computes Fredholm indices of compressed shift/multiplication operators,
heat-semigroup regularised indices of non-Fredholm pairs, the trace
identity relating the suspension of a pair to an s-integral over the
connecting path, the additivity of the pair index, and the bound-state /
phase-winding balance of 1D Schrodinger scattering with its threshold
correction factor.
"""

from .constants import conventions
from .linalg import EigenSystem, herm_eig
from .scattering import (
    CorrectedIndexReport,
    LambdaCurve,
    LevinsonReport,
    Potential,
    ScatteringCurve,
    SigmaFactor,
    bound_states,
    build_sigma,
    corrected_index,
    exp_resample,
    find_resonant_depth,
    levinson_check,
    phase_winding,
    resonance_detect,
    scattering_matrix,
    witten_index_sigma,
)
from .toeplitz import (
    CircleSymbol,
    IndexReport,
    LineSymbol,
    ShiftLatticeOperator,
    build_paper_example,
    fedosov_index,
    winding_number,
)
from .witten import (
    CompositionReport,
    GridSpec,
    LatticeOperator,
    PathSplitReport,
    PerturbationProfile,
    SuspensionOperator,
    ThetaProfile,
    WittenEstimate,
    build_suspension,
    check_composition,
    discretize_dirac,
    heat_trace_rhs,
    path_splitting_check,
    ptf_lhs,
    suspension_spectrum,
    witten_index_closed_form,
    witten_index_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "conventions",
    "EigenSystem", "herm_eig",
    "CircleSymbol", "LineSymbol", "ShiftLatticeOperator", "IndexReport",
    "build_paper_example", "fedosov_index", "winding_number",
    "GridSpec", "LatticeOperator", "PerturbationProfile", "ThetaProfile",
    "SuspensionOperator", "WittenEstimate", "CompositionReport",
    "PathSplitReport", "discretize_dirac", "heat_trace_rhs",
    "witten_index_estimate", "witten_index_closed_form", "build_suspension",
    "suspension_spectrum", "ptf_lhs", "check_composition",
    "path_splitting_check",
    "Potential", "ScatteringCurve", "LevinsonReport", "SigmaFactor",
    "LambdaCurve", "CorrectedIndexReport",
    "scattering_matrix", "bound_states", "phase_winding", "resonance_detect",
    "levinson_check", "exp_resample", "build_sigma", "witten_index_sigma",
    "corrected_index", "find_resonant_depth",
]
