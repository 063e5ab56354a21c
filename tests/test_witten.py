"""Heat-trace machinery: spectral operators, plateaus, suspension traces."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from opindex import witten
from opindex.constants import WITTEN_SIGN
from opindex.errors import (
    DomainError,
    InsufficientDecayError,
    NonConvergenceError,
)
from opindex.witten import (
    GridSpec,
    PerturbationProfile,
    ThetaProfile,
    build_suspension,
    check_composition,
    default_t_schedule,
    discretize_dirac,
    heat_trace_rhs,
    path_splitting_check,
    ptf_lhs,
    spectral_time_derivative,
    suspension_spectrum,
    witten_index_closed_form,
    witten_index_estimate,
)

from oracles import (
    closed_form_quad,
    dft_basis,
    dirac_matrix,
    heat_trace_quadrature,
    multiplication_matrix,
    path_split_full_spectrum,
    plane_wave_form,
    suspension_matrix,
    suspension_window_trace,
)

SMALL_GRID = GridSpec(20.0, 256)
# the spacing of SMALL_GRID on half its box, for the 2x2 oracle comparisons:
# the heat window of the path split still cuts the spectrum
MATRIX_GRID = GridSpec(10.0, 128)
# 2x2 bumps whose off-diagonal entries are shaped unlike the diagonal ones,
# so the blockwise weights v^H B v mix the two components of every site.
# On a resolved grid at large t the s-integrand sees only tr B and the
# off-diagonal part of the weights cancels to rounding; at t = 0.2 on
# MATRIX_GRID it moves the legs by >= 3.9e-12, which the 1e-13 oracle
# comparison resolves.
# Evaluators take x of shape (m,); x[:, None, None] scales 2x2 matrices per point.
MATRIX_BUMP_1 = PerturbationProfile(
    evaluator=lambda x: np.diag([1.0, 0.5]) / (1.0 + x * x)[:, None, None]
    + np.array([[0.0, 0.8j], [-0.8j, 0.0]]) * np.exp(-4.0 * x * x)[:, None, None],
    dim=2,
)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])
MATRIX_BUMP_2 = PerturbationProfile(
    evaluator=lambda x: (np.diag([0.4, -0.3]) + 0.6 * np.tanh(x)[:, None, None] * SIGMA_X)
    * np.exp(-x * x)[:, None, None],
    dim=2,
)
# real and even, so Phi(-x) = conj Phi(x): the plane-wave form is real
REAL_EVEN_BUMP = PerturbationProfile(
    evaluator=lambda x: (0.5 * np.eye(2) + 0.8 * SIGMA_Z) / (1.0 + x * x)[:, None, None]
    + 0.3 * SIGMA_X * np.exp(-x * x)[:, None, None],
    dim=2,
)
# real but with an odd off-diagonal part: the complex route runs
TANH_BUMP = PerturbationProfile(
    evaluator=lambda x: (0.7 * np.eye(2) + 0.9 * SIGMA_X * np.tanh(x)[:, None, None])
    / (1.0 + x * x)[:, None, None],
    dim=2,
)


@pytest.fixture(scope="module")
def small_dirac():
    return discretize_dirac(SMALL_GRID)


class TestGridSpec:
    def test_spacing(self):
        assert GridSpec(20.0, 256).spacing == pytest.approx(40.0 / 256)

    def test_odd_points_rejected(self):
        with pytest.raises(DomainError):
            GridSpec(20.0, 257)

    def test_coarse_grid_rejected(self):
        with pytest.raises(DomainError):
            GridSpec(20.0, 16)


class TestDiscretizeDirac:
    def test_constant_in_kernel(self, small_dirac):
        assert small_dirac.frequencies()[0] == 0.0
        out = dirac_matrix(SMALL_GRID) @ np.ones(SMALL_GRID.points)
        assert np.max(np.abs(out)) <= 1e-10

    def test_plane_wave_eigenvector(self, small_dirac):
        # F^H maps plane-wave coefficient k to a wave of the k-th frequency,
        # which the grid-space spectral derivative multiplies by that frequency
        n = SMALL_GRID.points
        waves = witten._to_grid(np.eye(n)[:, None, :]).reshape(n, n)
        out = dirac_matrix(SMALL_GRID) @ waves
        assert np.max(np.abs(out - waves * small_dirac.frequencies())) <= 1e-10

    def test_spectrum_is_scaled_integers(self, small_dirac):
        n, length = SMALL_GRID.points, SMALL_GRID.half_width
        values = np.sort(small_dirac.frequencies())
        expected = np.arange(-n // 2, n // 2) * (np.pi / length)
        assert np.max(np.abs(values - expected)) <= 1e-10

    def test_time_derivative_skew(self):
        d_t = spectral_time_derivative(SMALL_GRID)
        assert np.max(np.abs(d_t + d_t.conj().T)) <= 1e-14
        # d/dt = i d/(i dt), the grid-space Dirac matrix of the oracle times i
        oracle = 1j * dirac_matrix(SMALL_GRID)
        assert np.max(np.abs(d_t - oracle)) <= 1e-14 * np.max(np.abs(oracle))


class TestPerturbationProfile:
    def test_lorentzian_certificate(self):
        bump = PerturbationProfile.lorentzian(2.0)
        assert bump.decay_certificate == pytest.approx(2.0, rel=1e-6)
        assert bump.has_decay

    def test_constant_profile_has_no_decay(self):
        flat = PerturbationProfile(evaluator=np.ones_like)
        assert not flat.has_decay

    def test_non_hermitian_matrix_profile_rejected(self):
        with pytest.raises(DomainError):
            PerturbationProfile(
                evaluator=lambda x: np.broadcast_to([[0.0, 1.0], [0.0, 0.0]], (len(x), 2, 2)),
                dim=2,
            )

    def test_addition_tracks_scale(self):
        total = PerturbationProfile.lorentzian(0.7) + PerturbationProfile.lorentzian(0.9)
        assert total.samples(np.array([0.3]))[0, 0, 0].real == pytest.approx(1.6 / 1.09)

    @pytest.mark.parametrize("bump", [PerturbationProfile.lorentzian(0.7), MATRIX_BUMP_1,
                                      TANH_BUMP],
                             ids=["lorentzian", "matrix-bump-1", "tanh-2x2"])
    def test_operator_matches_per_site_loop(self, bump):
        # one vectorised call fills every block of the multiplication operator;
        # sampled one site at a time, the same elementwise arithmetic gives
        # the same bits
        values = witten._site_values(bump, SMALL_GRID)
        assert values.shape == (SMALL_GRID.points, bump.dim, bump.dim)
        for i, x in enumerate(SMALL_GRID.points_array()):
            assert np.array_equal(values[i], bump.samples(np.array([x]))[0])

    def test_hermitian_at_every_grid_site(self):
        # Hermitian on the probe grid (a point every 2.0), but not at the grid
        # site x = 0.46875 of SMALL_GRID, where a narrow imaginary part sits
        bad = PerturbationProfile(
            evaluator=lambda x: 1.0 / (1.0 + x * x)
            + 1j * np.exp(-(((x - 0.46875) / 0.01) ** 2))
        )
        assert 0.46875 in SMALL_GRID.points_array()
        a1 = discretize_dirac(SMALL_GRID)
        with pytest.raises(DomainError, match="x=0.46875"):
            heat_trace_rhs(a1, bad, 1.0)
        with pytest.raises(DomainError):
            witten_index_estimate(a1, bad)


class TestHeatTraceRhs:
    def test_zero_perturbation(self, small_dirac):
        assert heat_trace_rhs(small_dirac, PerturbationProfile.zero(), 1.0) == 0.0

    @pytest.mark.parametrize("s_nodes", [8, 16])
    def test_matches_quadrature_oracle(self, small_dirac, s_nodes):
        bump = PerturbationProfile.lorentzian(1.0)
        b_mat = multiplication_matrix(bump, SMALL_GRID)
        a_mat = dirac_matrix(SMALL_GRID)
        for t in (0.5, 2.0, 8.0):
            ours = heat_trace_rhs(small_dirac, bump, t)
            oracle = heat_trace_quadrature(a_mat, b_mat, t, s_nodes)
            assert abs(ours - oracle) <= 1e-9

    def test_positive_orientation(self, small_dirac):
        # the calibrated sign: a positive bump gives a positive value
        assert heat_trace_rhs(small_dirac, PerturbationProfile.lorentzian(1.0), 4.0) > 0.4

    def test_rejects_bad_time(self, small_dirac):
        with pytest.raises(DomainError):
            heat_trace_rhs(small_dirac, PerturbationProfile.lorentzian(1.0), -1.0)

    def test_matrix_valued_profile(self):
        grid = GridSpec(16.0, 64)
        a1 = discretize_dirac(grid)
        bump = PerturbationProfile(
            evaluator=lambda x: np.diag([1.0, 0.5]) / (1.0 + x * x)[:, None, None], dim=2
        )
        b_mat = multiplication_matrix(bump, grid)
        ours = heat_trace_rhs(a1, bump, 2.0)
        oracle = heat_trace_quadrature(dirac_matrix(grid, 2), b_mat, 2.0, 8)
        assert abs(ours - oracle) <= 1e-9

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=["scalar-first", "2x2-first"])
    def test_one_dirac_serves_every_dim(self, order):
        # the Dirac operator takes its dim from the bump, so one operator pairs
        # with a 2x2 bump and a scalar one in either order
        grid = GridSpec(16.0, 64)
        a1 = discretize_dirac(grid)
        bumps = {1: PerturbationProfile.lorentzian(0.7), 2: MATRIX_BUMP_1}
        for dim in order:
            bump = bumps[dim]
            oracle = heat_trace_quadrature(
                dirac_matrix(grid, dim), multiplication_matrix(bump, grid), 1.0, 16
            )
            assert abs(heat_trace_rhs(a1, bump, 1.0) - oracle) <= 1e-9
            est = witten_index_estimate(a1, bump)
            curve = [heat_trace_rhs(a1, bump, t) for t in est.t_samples]
            assert np.max(np.abs(est.rhs_values - curve)) <= 1e-14

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=["scalar-first", "2x2-first"])
    def test_path_split_rejects_mixed_dims(self, order):
        bumps = {1: PerturbationProfile.lorentzian(0.7), 2: MATRIX_BUMP_1}
        a1 = discretize_dirac(GridSpec(16.0, 64))
        with pytest.raises(DomainError, match="different dim"):
            path_splitting_check(a1, bumps[order[0]], bumps[order[1]], 1.0)


class TestWittenEstimate:
    def test_zero_perturbation_plateau(self, small_dirac):
        est = witten_index_estimate(small_dirac, PerturbationProfile.zero())
        assert abs(est.plateau_value) <= 1e-10
        assert est.uncertainty <= 1e-10

    def test_unit_bump_small_grid(self, small_dirac):
        est = witten_index_estimate(small_dirac, PerturbationProfile.lorentzian(1.0))
        # finite width biases the limit to 2 arctan(L) / (2 pi)
        assert est.plateau_value == pytest.approx(
            2.0 * np.arctan(SMALL_GRID.half_width) / (2.0 * np.pi), abs=1e-3
        )

    def test_curve_matches_quadrature_oracle(self, small_dirac):
        bump = PerturbationProfile.lorentzian(1.0)
        a_mat = dirac_matrix(SMALL_GRID)
        b_mat = multiplication_matrix(bump, SMALL_GRID)
        est = witten_index_estimate(small_dirac, bump)
        oracle = [heat_trace_quadrature(a_mat, b_mat, t, 8) for t in est.t_samples]
        assert np.max(np.abs(est.rhs_values - oracle)) <= 1e-9

    @pytest.mark.parametrize(
        "bump, points, bound, real_route",
        [
            (PerturbationProfile.lorentzian(1.0), 1024, 1e-12, True),
            (PerturbationProfile.lorentzian(3.0), 1024, 1e-12, True),
            (REAL_EVEN_BUMP, 512, 1e-11, True),
            (TANH_BUMP, 512, 1e-11, False),
        ],
        ids=["lorentzian-1", "lorentzian-3", "real-even-2x2", "tanh-2x2"],
    )
    def test_plateau_is_box_integral(self, bump, points, bound, real_route):
        # on the periodic grid the spectral shift per level is the trapezoid
        # integral (h / 2 pi) sum_i tr Phi(x_i) over the box, whichever
        # route solves the eigenproblems
        grid = GridSpec(40.0, points)
        a1 = discretize_dirac(grid)
        form = witten._operator_form(a1, witten._site_values(bump, grid))
        assert (form.dtype == np.float64) == real_route
        traces = np.trace(bump.samples(grid.points_array()), axis1=1, axis2=2).real
        box = grid.spacing / (2.0 * np.pi) * np.sum(traces)
        est = witten_index_estimate(a1, bump)
        assert abs(est.plateau_value - WITTEN_SIGN * box) <= bound

    def test_schedule_respects_ceiling(self, small_dirac):
        est = witten_index_estimate(small_dirac, PerturbationProfile.lorentzian(1.0))
        assert np.all(est.t_samples <= SMALL_GRID.t_ceiling() + 1e-12)
        assert len(est.t_samples) >= 5

    def test_default_schedule_shape(self):
        sched = default_t_schedule(GridSpec(40.0, 1024))
        assert len(sched) >= 8
        assert sched[0] == pytest.approx(1.0)
        assert np.all(np.diff(sched) > 0)

    def test_short_schedule_rejected(self, small_dirac):
        with pytest.raises(DomainError):
            witten_index_estimate(
                small_dirac, PerturbationProfile.lorentzian(1.0),
                np.array([1.0, 2.0, 4.0]),
            )

    def test_schedule_beyond_ceiling_inconclusive(self, small_dirac):
        sched = np.geomspace(50.0, 5000.0, 9)  # all beyond the ceiling
        with pytest.raises(NonConvergenceError):
            witten_index_estimate(
                small_dirac, PerturbationProfile.lorentzian(1.0), sched
            )


class TestClosedForm:
    def test_unit_lorentzian_is_half(self):
        assert witten_index_closed_form(
            PerturbationProfile.lorentzian(1.0)
        ) == pytest.approx(0.5, abs=1e-10)

    def test_zero(self):
        assert witten_index_closed_form(PerturbationProfile.zero()) == 0.0

    @pytest.mark.parametrize("mu", [0.3, 2.7])
    def test_scaling(self, mu):
        assert witten_index_closed_form(
            PerturbationProfile.lorentzian(mu)
        ) == pytest.approx(mu / 2.0, abs=1e-9)

    def test_no_decay_rejected(self):
        with pytest.raises(InsufficientDecayError):
            witten_index_closed_form(PerturbationProfile(evaluator=np.ones_like))

    def test_matrix_trace(self):
        bump = PerturbationProfile(
            evaluator=lambda x: np.diag([1.0, 2.0]) / (1.0 + x * x)[:, None, None], dim=2
        )
        assert witten_index_closed_form(bump) == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("bump", [
        PerturbationProfile.lorentzian(0.7) + PerturbationProfile.lorentzian(0.9),
        PerturbationProfile(evaluator=lambda x: 0.8 * np.exp(-x * x)),
        MATRIX_BUMP_1,
        REAL_EVEN_BUMP,
        TANH_BUMP,
    ], ids=["lorentzian-pair", "gaussian", "matrix-1", "real-even", "tanh"])
    def test_matches_adaptive_quadrature_oracle(self, bump):
        assert witten_index_closed_form(bump) == pytest.approx(
            closed_form_quad(bump), abs=1e-10
        )

    def test_spike_too_narrow_for_the_nodes_rejected(self):
        # width 0.05 lies between the nodes of the 64-point rule, so the two
        # rules disagree (by 2.6e-3) far above the budget; adaptive
        # quadrature resolved it, the fixed nodes refuse it
        spike = PerturbationProfile(evaluator=lambda x: np.exp(-(x / 0.05) ** 2))
        assert spike.has_decay
        with pytest.raises(InsufficientDecayError, match="quadrature error"):
            witten_index_closed_form(spike)


SUSPENSION_X_GRID = GridSpec(8.0, 24)
SUSPENSION_T_GRID = GridSpec(10.0, 24)
# a non-square grid: with n_t == n_x a reflection taken over the wrong
# factor of the (t-site x x-plane-wave) index would go unseen
NARROW_X_GRID = GridSpec(6.0, 16)
THETA_PROFILES = (ThetaProfile.logistic(), ThetaProfile.erf_profile())
# theta(-s) = 1 - theta(s) fails: the samples are not reflection-even
SHIFTED_LOGISTIC = ThetaProfile(evaluator=lambda t: 0.5 * (1.0 + np.tanh(t - 0.5)),
                                tag="shifted")
# real and odd, so Phi(-x) = -conj Phi(x): the plane-wave form is imaginary
K_ODD_BUMP = PerturbationProfile(evaluator=lambda x: x / (1.0 + x * x) ** 2)


@pytest.fixture(scope="module")
def small_suspension():
    a1 = discretize_dirac(SUSPENSION_X_GRID)
    bump = PerturbationProfile.lorentzian(1.0)
    sus = build_suspension(
        a1, bump, ThetaProfile.logistic(), SUSPENSION_T_GRID, SUSPENSION_X_GRID
    )
    return a1, bump, sus, suspension_spectrum(sus)


def grid_space_adjoint(bump, theta_samples, t_grid, x_grid):
    """D^H in the grid basis, from the oracles' dense Dirac and bump."""
    d_t = spectral_time_derivative(t_grid)
    return (
        np.kron(-d_t, np.eye(x_grid.points))
        + np.kron(np.eye(t_grid.points), dirac_matrix(x_grid))
        + np.kron(np.diag(theta_samples.astype(complex)),
                  multiplication_matrix(bump, x_grid))
    )


class TestSuspension:
    X_GRID = SUSPENSION_X_GRID
    T_GRID = SUSPENSION_T_GRID

    def test_zero_perturbation_commutes(self):
        a1 = discretize_dirac(self.X_GRID)
        sus = build_suspension(
            a1, PerturbationProfile.zero(), ThetaProfile.logistic(),
            self.T_GRID, self.X_GRID,
        )
        m = suspension_matrix(sus)
        assert np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) <= 1e-8

    def test_zero_perturbation_trace_vanishes(self):
        a1 = discretize_dirac(self.X_GRID)
        sus = build_suspension(
            a1, PerturbationProfile.zero(), ThetaProfile.logistic(),
            self.T_GRID, self.X_GRID,
        )
        assert abs(ptf_lhs(sus, 1.0)) <= 1e-9

    def test_nonzero_perturbation_not_normal(self, small_suspension):
        _, _, sus, _ = small_suspension
        m = suspension_matrix(sus)
        assert np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) > 0.01

    def test_adjoint_consistency(self, small_suspension):
        # the factors are held in the t-site (x) x-plane-wave basis
        _, bump, sus, _ = small_suspension
        basis = np.kron(np.eye(self.T_GRID.points), dft_basis(self.X_GRID.points, 1))
        independent = basis @ grid_space_adjoint(
            bump, sus.theta_samples, self.T_GRID, self.X_GRID
        )
        independent = independent @ basis.conj().T
        assert np.max(np.abs(suspension_matrix(sus).conj().T - independent)) <= 1e-10

    @pytest.mark.parametrize("theta, bump", [
        (ThetaProfile.logistic(), PerturbationProfile.lorentzian(1.0)),
        (ThetaProfile.erf_profile(), PerturbationProfile.lorentzian(1.0)),
        (ThetaProfile.logistic(), PerturbationProfile.zero()),
    ], ids=["logistic", "erf", "zero-bump"])
    def test_time_reversal_identity(self, theta, bump):
        # D^H = P conj(D) P, P the reflection j -> (-j) mod n_t of the time
        # circle; the spectrum route rests on it
        n_t, n_x = self.T_GRID.points, NARROW_X_GRID.points
        sus = build_suspension(
            discretize_dirac(NARROW_X_GRID), bump, theta, self.T_GRID, NARROW_X_GRID
        )
        rows = ((-np.arange(n_t) % n_t)[:, None] * n_x + np.arange(n_x)).ravel()
        m = suspension_matrix(sus)
        reflected = m.conj()[np.ix_(rows, rows)]
        assert np.max(np.abs(reflected - m.conj().T)) <= 1e-14 * np.max(np.abs(m))

    @pytest.mark.parametrize(
        "bump",
        [PerturbationProfile.lorentzian(1.0), PerturbationProfile.zero()],
        ids=["lorentzian", "zero"],
    )
    def test_values_match_both_gram_spectra(self, bump):
        # DD* and D*D are isospectral for square matrices, which is why the
        # reported trace runs over the rise window only
        sus = build_suspension(
            discretize_dirac(self.X_GRID), bump, ThetaProfile.logistic(),
            self.T_GRID, self.X_GRID,
        )
        values = np.sort(suspension_spectrum(sus).values)
        m = suspension_matrix(sus)
        for gram in (m.conj().T @ m, m @ m.conj().T):
            oracle = np.linalg.eigvalsh(gram)
            assert np.max(np.abs(values - oracle)) <= 1e-12 * np.max(oracle)

    @pytest.mark.parametrize("x_grid", [SUSPENSION_X_GRID, NARROW_X_GRID],
                             ids=["square", "narrow"])
    @pytest.mark.parametrize("theta, bump", [
        (ThetaProfile.logistic(), PerturbationProfile.lorentzian(1.0)),
        (ThetaProfile.erf_profile(), PerturbationProfile.lorentzian(1.0)),
        (ThetaProfile.logistic(), PerturbationProfile.zero()),
        (ThetaProfile.erf_profile(), REAL_EVEN_BUMP),
    ], ids=["logistic", "erf", "zero-bump", "real-even-2x2"])
    def test_closed_form_gram_matches_oracle(self, theta, bump, x_grid):
        # conj(D^H D) from the factors, against the product of the dense D;
        # both round at eps max|G| per entry, times the few terms summed
        sus = build_suspension(discretize_dirac(x_grid), bump, theta, self.T_GRID, x_grid)
        gram = witten._gram(sus)
        m = suspension_matrix(sus)
        oracle = m.conj().T @ m
        assert gram.flags.f_contiguous
        assert np.max(np.abs(gram.T - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_spectrum_holds_two_dense_copies(self, small_suspension):
        # the Gram matrix, solved in place, and its eigenvectors; forming D
        # as well read 3.04 copies.  The first solve has run in the fixture,
        # so scipy's import is not traced
        a1, bump, _, _ = small_suspension
        rows = self.T_GRID.points * self.X_GRID.points
        tracemalloc.start()
        try:
            suspension_spectrum(build_suspension(
                a1, bump, ThetaProfile.logistic(), self.T_GRID, self.X_GRID
            ))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * rows * rows * np.dtype(complex).itemsize

    def test_spectrum_is_one_gram_eigensolve(self, small_suspension, monkeypatch):
        _, _, sus, spectrum = small_suspension
        solve = witten.herm_eig
        rows = []

        def spy(m, *args, **kwargs):
            rows.append(len(m))
            return solve(m, *args, **kwargs)

        def no_svd(*args, **kwargs):
            raise AssertionError("suspension_spectrum reached an SVD")

        monkeypatch.setattr(witten, "herm_eig", spy)
        for owner in (np.linalg, scipy.linalg):
            monkeypatch.setattr(owner, "svd", no_svd)
        monkeypatch.setattr(scipy.linalg, "svdvals", no_svd)
        again = suspension_spectrum(sus)
        assert rows == [self.T_GRID.points * self.X_GRID.points]
        scale = np.max(spectrum.values)
        assert np.max(np.abs(again.values - spectrum.values)) <= 1e-12 * scale

    def test_window_trace_matches_numpy_oracle(self):
        # the oracle runs on the grid-space matrix: the change of x basis
        # must leave the window masses alone, and the reflected rows of the
        # left masses must be taken over the time factor only
        bump = PerturbationProfile.lorentzian(1.0)
        for x_grid in (self.X_GRID, NARROW_X_GRID):
            for theta in THETA_PROFILES:
                sus = build_suspension(
                    discretize_dirac(x_grid), bump, theta, self.T_GRID, x_grid
                )
                spectrum = suspension_spectrum(sus)
                grid_space = grid_space_adjoint(
                    bump, sus.theta_samples, self.T_GRID, x_grid
                ).conj().T
                for t in (0.5, 1.0, 2.0):
                    ours = ptf_lhs(sus, t, spectrum)
                    oracle = suspension_window_trace(grid_space, sus.window_mask, t)
                    assert abs(ours - oracle) <= 1e-12 * abs(oracle), (x_grid, theta.tag, t)

    def test_window_trace_matches_rhs(self, small_suspension):
        a1, bump, sus, spectrum = small_suspension
        for t in (0.5, 1.0, 2.0):
            lhs = ptf_lhs(sus, t, spectrum)
            rhs = heat_trace_rhs(a1, bump, t)
            assert abs(lhs - rhs) <= 0.05 * max(abs(rhs), 0.1)

    @pytest.mark.parametrize("theta, bump, symmetry", [
        (SHIFTED_LOGISTIC, PerturbationProfile.lorentzian(1.0), "theta(-s) = 1 - theta(s)"),
        (ThetaProfile.logistic(), K_ODD_BUMP, "Phi(-x) = conj Phi(x)"),
        (ThetaProfile.logistic(), TANH_BUMP, "Phi(-x) = conj Phi(x)"),
    ], ids=["shifted-theta", "k-odd-bump", "mixed-bump"])
    def test_time_reversal_breaking_input_rejected(self, theta, bump, symmetry,
                                                   monkeypatch):
        def allocates(*args):
            raise AssertionError("the suspension was assembled")

        monkeypatch.setattr(witten, "spectral_time_derivative", allocates)
        with pytest.raises(DomainError, match="time reversal") as err:
            build_suspension(
                discretize_dirac(self.X_GRID), bump, theta, self.T_GRID, self.X_GRID
            )
        assert symmetry in str(err.value)

    def test_narrow_time_grid_rejected(self):
        a1 = discretize_dirac(self.X_GRID)
        with pytest.raises(DomainError):
            build_suspension(
                a1, PerturbationProfile.lorentzian(1.0),
                ThetaProfile.logistic(), GridSpec(5.0, 24), self.X_GRID,
            )

    def test_grid_mismatch_rejected(self):
        a1 = discretize_dirac(self.X_GRID)
        with pytest.raises(DomainError):
            build_suspension(
                a1, PerturbationProfile.lorentzian(1.0),
                ThetaProfile.logistic(), self.T_GRID, GridSpec(8.0, 32),
            )


class TestComposition:
    def test_closed_form_linearity_various_shapes(self, small_dirac):
        gauss = PerturbationProfile(evaluator=lambda x: 0.8 * np.exp(-x * x))
        lorentz = PerturbationProfile.lorentzian(0.6)
        cf_sum = witten_index_closed_form(gauss) + witten_index_closed_form(lorentz)
        cf_total = witten_index_closed_form(gauss + lorentz)
        assert abs(cf_sum - cf_total) <= 1e-12

    def test_small_grid_composition(self, small_dirac):
        report = check_composition(
            small_dirac,
            PerturbationProfile.lorentzian(0.7),
            PerturbationProfile.lorentzian(0.9),
        )
        assert report.closed_form_residual <= 1e-12
        assert report.heat_residual <= 0.02

    def test_path_split_trivial_leg(self, small_dirac):
        report = path_splitting_check(
            small_dirac,
            PerturbationProfile.lorentzian(0.7),
            PerturbationProfile.zero(),
            2.0,
        )
        assert report.residual <= 1e-9

    def test_path_split_default_profiles(self, small_dirac):
        report = path_splitting_check(
            small_dirac,
            PerturbationProfile.lorentzian(0.7),
            PerturbationProfile.lorentzian(0.9),
            2.0,
        )
        scale = max(abs(report.direct), abs(report.first_leg), abs(report.second_leg))
        assert report.residual <= 1e-3 * scale

    def test_each_distinct_operator_solved_once(self, small_dirac, monkeypatch):
        # A1 has its spectrum in closed form; check_composition solves A1 + B1
        # and A1 + (B1 + B2), and a single estimate solves A1 + B
        rows = []
        solve = witten.herm_eigvals

        def spy(m):
            rows.append(len(m))
            return solve(m)

        monkeypatch.setattr(witten, "herm_eigvals", spy)
        b1 = PerturbationProfile.lorentzian(0.7)
        check_composition(small_dirac, b1, PerturbationProfile.lorentzian(0.9))
        assert rows == [SMALL_GRID.points] * 2
        rows.clear()
        witten_index_estimate(small_dirac, b1)
        assert rows == [SMALL_GRID.points]

    def test_path_split_refines(self, small_dirac):
        b1 = PerturbationProfile.lorentzian(0.7)
        b2 = PerturbationProfile.lorentzian(0.9)
        coarse = path_splitting_check(small_dirac, b1, b2, 2.0, 4)
        fine = path_splitting_check(small_dirac, b1, b2, 2.0, 8)
        assert fine.residual <= coarse.residual + 1e-15

    def test_path_split_quadrature_converges(self):
        # on a 128-point grid the s-integrand still varies with s, so the
        # residual shows the Gauss-Legendre error instead of rounding noise
        grid = GridSpec(20.0, 128)
        a1 = discretize_dirac(grid)
        b1 = PerturbationProfile.lorentzian(0.7)
        b2 = PerturbationProfile.lorentzian(0.9)
        residual = {
            nodes: path_splitting_check(a1, b1, b2, 2.0, nodes).residual
            for nodes in (1, 4, 8)
        }
        assert residual[4] <= residual[1] / 100.0
        assert residual[8] <= 1e-13

    @pytest.mark.parametrize(
        "b1, b2, t, grid",
        [
            (PerturbationProfile.lorentzian(0.7), PerturbationProfile.lorentzian(0.9), 2.0,
             SMALL_GRID),
            (PerturbationProfile.lorentzian(0.7), PerturbationProfile.zero(), 2.0, SMALL_GRID),
            (MATRIX_BUMP_1, MATRIX_BUMP_2, 0.2, MATRIX_GRID),
            (PerturbationProfile.lorentzian(0.7), PerturbationProfile.lorentzian(0.9), 0.05,
             SMALL_GRID),
            (REAL_EVEN_BUMP, TANH_BUMP, 0.2, MATRIX_GRID),
        ],
        ids=["lorentzian", "zero-second-leg", "matrix-valued", "window-keeps-all",
             "real-first-leg-2x2"],
    )
    def test_path_split_matches_full_spectrum_oracle(self, b1, b2, t, grid):
        report = path_splitting_check(discretize_dirac(grid), b1, b2, t)
        oracle = path_split_full_spectrum(
            dirac_matrix(grid, b1.dim),
            multiplication_matrix(b1, grid),
            multiplication_matrix(b2, grid),
            t,
        )
        ours = (report.direct, report.first_leg, report.second_leg)
        assert np.max(np.abs(np.subtract(ours, oracle))) <= 1e-13


class TestPathSplitWindow:
    @staticmethod
    def windows(monkeypatch, t):
        seen = []
        solve = witten.herm_eig

        def spy(m, within=None):
            seen.append(within)
            return solve(m, within=within)

        monkeypatch.setattr(witten, "herm_eig", spy)
        a1 = discretize_dirac(GridSpec(40.0, 512))
        path_splitting_check(
            a1, PerturbationProfile.lorentzian(0.7),
            PerturbationProfile.lorentzian(0.9), t,
        )
        return seen

    def test_window_skipped_when_it_keeps_every_pair(self, monkeypatch):
        # c(0.05) ~ 30 exceeds n pi / 2L + max Phi = 20.1 + 1.6 on every leg
        seen = self.windows(monkeypatch, 0.05)
        assert len(seen) == 24
        assert all(within is None for within in seen)

    def test_window_kept_at_large_t(self, monkeypatch):
        seen = self.windows(monkeypatch, 2.0)
        assert len(seen) == 24
        assert all(within is not None and within < 10.0 for within in seen)


GRIDS = [(40.0, 512), (40.0, 1024), (20.0, 256), (12.0, 48), (13.7, 96)]


class TestRealForm:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("half_width, points", GRIDS)
    def test_dirac_is_real_and_matches_dense_basis(self, half_width, points, dim):
        # d/(i dx) is diagonal in the plane-wave basis, with the DFT frequencies:
        # F A F^H = diag, checked as A F^H = F^H diag (F is unitary), since the
        # second dense product alone rounds at ~1.2e-14 max|A| on 512 points
        grid = GridSpec(half_width, points)
        a = dirac_matrix(grid, dim)
        scale = np.max(np.abs(a))
        diagonal = discretize_dirac(grid).frequencies(dim)
        assert diagonal.dtype == np.float64
        waves = dft_basis(points, dim).conj().T
        assert np.max(np.abs(a @ waves - waves * diagonal)) <= 1e-14 * scale

    @pytest.mark.parametrize(
        "bump, real_route",
        [
            (PerturbationProfile.lorentzian(0.7), True),
            (PerturbationProfile.lorentzian(1.6), True),
            (REAL_EVEN_BUMP, True),
            (MATRIX_BUMP_1, False),
            (MATRIX_BUMP_2, False),
            (TANH_BUMP, False),
        ],
        ids=["lorentzian-0.7", "lorentzian-1.6", "real-even-2x2",
             "matrix-bump-1", "matrix-bump-2", "tanh-2x2"],
    )
    def test_route_detection(self, bump, real_route):
        d = bump.dim
        values = witten._site_values(bump, SMALL_GRID)
        b_mat = multiplication_matrix(bump, SMALL_GRID)
        a1 = discretize_dirac(SMALL_GRID)
        for m, form in ((b_mat, witten._bump_form(values)),
                        (dirac_matrix(SMALL_GRID, d) + b_mat,
                         witten._operator_form(a1, values))):
            assert (form.dtype == np.float64) == real_route
            # the dense products themselves round at about n eps
            dense = plane_wave_form(m, SMALL_GRID.points, d)
            assert np.max(np.abs(form - dense)) <= 1e-12 * np.max(np.abs(m))

    @pytest.mark.parametrize("bump", [PerturbationProfile.lorentzian(0.7), REAL_EVEN_BUMP,
                                      TANH_BUMP],
                             ids=["lorentzian", "real-even-2x2", "tanh-2x2"])
    def test_eigenvectors_map_back(self, bump):
        n, d = SMALL_GRID.points, bump.dim
        a = dirac_matrix(SMALL_GRID, d) + multiplication_matrix(bump, SMALL_GRID)
        form = witten._operator_form(
            discretize_dirac(SMALL_GRID), witten._site_values(bump, SMALL_GRID)
        )
        es = witten.herm_eig(form, within=3.0)
        v = witten._to_grid(es.vectors.reshape(n, d, -1)).reshape(n * d, -1)
        assert 0 < v.shape[1] < v.shape[0]
        assert np.max(np.abs(a @ v - v * es.values)) <= 1e-12 * np.max(np.abs(a))
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) <= 1e-12
