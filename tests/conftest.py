"""Shared fixtures: the expensive spectral computations run once per session.

Acceptance tests register one line per criterion into a registry that the
terminal-summary hook prints at the end of the run.
"""

import time

import pytest

from opindex import scattering, witten

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def register_acceptance(name: str, passed: bool, detail: str):
    ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")


# ---------------------------------------------------------------------------
# witten-side fixtures


@pytest.fixture(scope="session")
def default_dirac():
    grid = witten.GridSpec(40.0, 1024)
    return witten.discretize_dirac(grid)


@pytest.fixture(scope="session")
def witten_estimates(default_dirac):
    """Plateau estimates for the three scaled bumps, with wall times."""
    out = {}
    for mu in (0.5, 1.0, 1.7):
        bump = witten.PerturbationProfile.lorentzian(mu)
        start = time.perf_counter()
        estimate = witten.witten_index_estimate(default_dirac, bump)
        out[mu] = (estimate, time.perf_counter() - start)
    return out


@pytest.fixture(scope="session")
def composition_report(default_dirac):
    b1 = witten.PerturbationProfile.lorentzian(0.7)
    b2 = witten.PerturbationProfile.lorentzian(0.9)
    start = time.perf_counter()
    report = witten.check_composition(default_dirac, b1, b2)
    split = witten.path_splitting_check(default_dirac, b1, b2, 2.0)
    split_refined = witten.path_splitting_check(default_dirac, b1, b2, 2.0, 16)
    return report, split, split_refined, time.perf_counter() - start


@pytest.fixture(scope="session")
def ptf_data():
    """Suspension traces for both connection profiles on the 48x48 grid."""
    x_grid = witten.GridSpec(12.0, 48)
    t_grid = witten.GridSpec(16.0, 48)
    a1 = witten.discretize_dirac(x_grid)
    bump = witten.PerturbationProfile.lorentzian(1.0)
    times = (0.5, 1.0, 2.0)
    start = time.perf_counter()
    lhs = {}
    for profile in (witten.ThetaProfile.logistic(), witten.ThetaProfile.erf_profile()):
        sus = witten.build_suspension(a1, bump, profile, t_grid, x_grid)
        spectrum = witten.suspension_spectrum(sus)
        lhs[profile.tag] = {t: witten.ptf_lhs(sus, t, spectrum) for t in times}
    rhs = {t: witten.heat_trace_rhs(a1, bump, t) for t in times}
    elapsed = time.perf_counter() - start
    return {"lhs": lhs, "rhs": rhs, "times": times, "elapsed": elapsed,
            "a1": a1, "bump": bump, "x_grid": x_grid, "t_grid": t_grid}


# ---------------------------------------------------------------------------
# scattering-side fixtures


SCAN_DEPTHS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0)


@pytest.fixture(scope="session")
def scan_wells():
    return {d: scattering.Potential.square_well(d, 1.0) for d in SCAN_DEPTHS}


@pytest.fixture(scope="session")
def resonant_depth():
    return scattering.find_resonant_depth()


@pytest.fixture(scope="session")
def resonant_well(resonant_depth):
    return scattering.Potential.square_well(resonant_depth, 1.0)


@pytest.fixture(scope="session")
def levinson_reports(scan_wells, resonant_well):
    """Levinson reports of the scan wells and the resonant well; each carries its curve."""
    start = time.perf_counter()
    reports = {d: scattering.levinson_check(w) for d, w in scan_wells.items()}
    resonant = scattering.levinson_check(resonant_well)
    return reports, resonant, time.perf_counter() - start


@pytest.fixture(scope="session")
def scan_curves(levinson_reports):
    reports, _, _ = levinson_reports
    return {d: report.curve for d, report in reports.items()}


@pytest.fixture(scope="session")
def resonant_curve(levinson_reports):
    _, resonant, _ = levinson_reports
    return resonant.curve


@pytest.fixture(scope="session")
def corrected_reports(scan_curves, resonant_curve):
    start = time.perf_counter()
    out = {}
    for depth, curve in {**scan_curves, "resonant": resonant_curve}.items():
        lcurve = scattering.exp_resample(curve)
        sigma = scattering.build_sigma(lcurve.s_minus_inf)
        out[depth] = (scattering.corrected_index(lcurve, sigma), sigma)
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def bound_counts(scan_wells, resonant_well):
    counts = {d: scattering.bound_states(w) for d, w in scan_wells.items()}
    counts["resonant"] = scattering.bound_states(resonant_well)
    return counts
