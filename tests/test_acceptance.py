"""Acceptance gate: every criterion at its stated tolerance.

Each test registers a PASS/FAIL line that the terminal summary prints at
the end of the run.  Heavy computations are shared session fixtures (see
conftest), so the per-criterion wall-time assertions measure the actual
compute, not repeated work.
"""

import time

import numpy as np
import pytest

from opindex import scattering, witten
from opindex.cli import parse_config, run

from conftest import SCAN_DEPTHS, register_acceptance
from oracles import (
    heat_operator,
    square_well_bound_count,
    svd_index,
    toeplitz_truncation,
)


def test_criterion_1_half_shift_example():
    """Compressed half-shift: index -1 exactly, defects exact, under 1 s."""
    start = time.perf_counter()
    record, code = run(parse_config(["toeplitz-example", "--n", "64"]))
    elapsed = time.perf_counter() - start
    value = record.results["fedosov_value"]
    checks = {
        "exit": code == 0,
        "index": abs(value - (-1.0)) <= 1e-10,
        "defect 1": record.results["defect_identity_1_exact"],
        "defect 2": record.results["defect_identity_2_exact"],
        "runtime": elapsed < 1.0,
    }
    register_acceptance(
        "1 half-shift compression index",
        all(checks.values()),
        f"index={value:.12f}, defects exact, {elapsed:.2f}s",
    )
    assert all(checks.values()), checks


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.7])
def test_criterion_2_plateau_vs_closed_form(witten_estimates, mu):
    """Heat-trace plateau within 0.02 of mu/2 on the default grid."""
    estimate, elapsed = witten_estimates[mu]
    diff = abs(estimate.plateau_value - mu / 2.0)
    passed = diff <= 0.02 and elapsed < 60.0
    register_acceptance(
        f"2 plateau vs mu/2 (mu={mu})",
        passed,
        f"plateau={estimate.plateau_value:.5f}, |diff|={diff:.4f}, {elapsed:.0f}s",
    )
    assert diff <= 0.02
    assert elapsed < 60.0


def test_criterion_3_principal_trace_identity(ptf_data):
    """Suspension trace vs s-integral within 10%, profiles within 2%."""
    lhs, rhs = ptf_data["lhs"], ptf_data["rhs"]
    worst_rel = 0.0
    for t in ptf_data["times"]:
        rel = abs(lhs["logistic"][t] - rhs[t]) / max(abs(rhs[t]), 0.1)
        worst_rel = max(worst_rel, rel)
    spread = max(
        abs(lhs["logistic"][t] - lhs["erf"][t])
        / max(abs(lhs["logistic"][t]), abs(lhs["erf"][t]))
        for t in ptf_data["times"]
    )
    elapsed = ptf_data["elapsed"]
    passed = worst_rel <= 0.1 and spread <= 0.02 and elapsed < 300.0
    register_acceptance(
        "3 principal trace identity",
        passed,
        f"worst rel {worst_rel:.4f} (bound 0.1), profile spread {spread:.4f} "
        f"(bound 0.02), {elapsed:.0f}s",
    )
    assert worst_rel <= 0.1
    assert spread <= 0.02
    assert elapsed < 300.0


def test_criterion_4_composition_rule(composition_report):
    """Exact closed-form additivity, plateau additivity, path splitting."""
    report, split, split_refined, elapsed = composition_report
    scale = max(abs(split.direct), abs(split.first_leg), abs(split.second_leg))
    checks = {
        "closed": report.closed_form_residual <= 1e-12,
        "heat": report.heat_residual <= 0.02,
        "split": split.residual <= 1e-3 * scale,
        "split refines": split_refined.residual <= split.residual + 1e-15,
        "runtime": elapsed < 180.0,
    }
    register_acceptance(
        "4 composition rule",
        all(checks.values()),
        f"closed {report.closed_form_residual:.1e}, heat "
        f"{report.heat_residual:.4f}, split {split.residual:.1e}, {elapsed:.0f}s",
    )
    assert all(checks.values()), checks


def test_criterion_5_levinson_scan(levinson_reports, bound_counts, resonant_depth):
    """Bound-state counts, phase residuals, and the resonant branch."""
    reports, resonant, elapsed = levinson_reports
    oracle_ok = all(
        bound_counts[d] == square_well_bound_count(d, 1.0) == reports[d].n_bound
        for d in SCAN_DEPTHS
    )
    residual_ok = all(reports[d].residual <= 0.05 for d in SCAN_DEPTHS)
    resonant_ok = (
        resonant.resonance_flag == 1
        and resonant.residual <= 0.05
        and all(reports[d].resonance_flag == 0 for d in SCAN_DEPTHS)
    )
    worst = max(reports[d].residual for d in SCAN_DEPTHS)
    passed = oracle_ok and residual_ok and resonant_ok and elapsed < 120.0
    register_acceptance(
        "5 bound states vs phase winding",
        passed,
        f"counts match oracle, worst residual {worst:.4f}, resonant depth "
        f"{resonant_depth:.6f} residual {resonant.residual:.5f}, {elapsed:.0f}s",
    )
    assert oracle_ok
    assert residual_ok
    assert resonant_ok
    assert elapsed < 120.0


def test_criterion_6_corrected_index_decomposition(corrected_reports, bound_counts):
    """Corrected-symbol index equals the count; the split lands in {0, 1/2}."""
    reports, elapsed = corrected_reports
    index_ok = all(
        report.fredholm_index == bound_counts[key]
        for key, (report, _) in reports.items()
    )
    split_ok = all(report.residual <= 0.05 for report, _ in reports.values())
    sigma_values = {
        "trivial": scattering.witten_index_sigma(
            scattering.build_sigma(np.eye(2, dtype=complex))
        ),
        "antidiagonal": scattering.witten_index_sigma(
            scattering.build_sigma(np.diag([1.0, -1.0]).astype(complex))
        ),
        "general": scattering.witten_index_sigma(
            scattering.build_sigma(
                np.diag([np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)])
            )
        ),
    }
    sigma_ok = (
        abs(sigma_values["trivial"]) <= 1e-6
        and abs(sigma_values["antidiagonal"] - 0.5) <= 1e-6
        and abs(sigma_values["general"]) <= 1e-6
    )
    worst = max(report.residual for report, _ in reports.values())
    passed = index_ok and split_ok and sigma_ok and elapsed < 120.0
    register_acceptance(
        "6 corrected-symbol index split",
        passed,
        f"index == count on all wells incl. resonant, worst split residual "
        f"{worst:.4f}, sigma branches {tuple(round(v, 6) for v in sigma_values.values())}, "
        f"{elapsed:.0f}s",
    )
    assert index_ok
    assert split_ok
    assert sigma_ok
    assert elapsed < 120.0


def test_criterion_7_property_suites(scan_curves, resonant_curve, ptf_data):
    """Cross-cutting invariants with no attached reference number."""
    # unitarity across every emitted scattering matrix
    unitarity = max(
        float(np.max(curve.unitarity_residuals))
        for curve in list(scan_curves.values()) + [resonant_curve]
    )

    # heat-flow semigroup property on a random Hermitian matrix
    rng = np.random.default_rng(42)
    m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    m = 0.5 * (m + m.conj().T)
    semi = np.max(np.abs(
        heat_operator(m, 0.4) @ heat_operator(m, 0.8) - heat_operator(m, 1.2)
    )) / np.max(np.abs(heat_operator(m, 1.2)))

    # trace-of-commutator guard
    a = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    b = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    commutator_trace = abs(np.trace(a @ b - b @ a)) / np.max(np.abs(a @ b))

    # winding refinement stability on the corpus
    from opindex.toeplitz import CircleSymbol, winding_number

    stable = True
    agreement = True
    for k in (-2, -1, 0, 1, 2):
        symbol = CircleSymbol(lambda th, k=k: (2.0 + np.cos(th)) * np.exp(1j * k * th))
        doubled = CircleSymbol(symbol.evaluator, sample_count=2 * symbol.sample_count)
        stable = stable and winding_number(symbol) == winding_number(doubled) == k
        kernel, cokernel = svd_index(
            lambda n, s=symbol: toeplitz_truncation(s, n), 64, guard=16
        )
        agreement = agreement and (kernel - cokernel == -k)

    checks = {
        "unitarity": unitarity <= 1e-8,
        "semigroup": semi <= 1e-8,
        "commutator": commutator_trace <= 1e-10,
        "winding stability": stable,
        "svd agreement": agreement,
    }
    register_acceptance(
        "7 property suites",
        all(checks.values()),
        f"unitarity {unitarity:.1e}, semigroup {semi:.1e}, tr[A,B] "
        f"{commutator_trace:.1e}, windings stable and matched to kernel counts",
    )
    assert all(checks.values()), checks
