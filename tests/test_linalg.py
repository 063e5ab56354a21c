"""Dense kernel tests: eigendecomposition and the heat-flow oracle."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from opindex import witten
from opindex.errors import DomainError, ShapeError
from opindex.linalg import (
    EigenSystem,
    as_square_matrix,
    herm_eig,
    herm_eigvals,
    line_integral,
)

from oracles import dirac_matrix, heat_operator, multiplication_matrix, pade_expm


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def dirac_pencil(dim, bump, s, field):
    """A_1 + s B on 128 points (L = 20), in the grid basis or its plane-wave form."""
    grid = witten.GridSpec(points=128, half_width=20.0)
    if field == "complex":
        return dirac_matrix(grid, dim) + s * multiplication_matrix(bump, grid)
    values = s * witten._site_values(bump, grid)
    return witten._operator_form(witten.discretize_dirac(grid), values)


LORENTZIAN_2X2 = witten.PerturbationProfile(
    evaluator=lambda x: np.diag([0.5, 1.3]) / (1.0 + x * x)[:, None, None], dim=2
)
SCALAR_2X2 = witten.PerturbationProfile(
    evaluator=lambda x: 0.7 * np.eye(2) / (1.0 + x * x)[:, None, None], dim=2
)


hermitian_matrices = st.builds(
    random_hermitian,
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)


class TestHermEig:
    def test_identity(self):
        es = herm_eig(np.eye(3))
        assert np.allclose(es.values, [1.0, 1.0, 1.0])
        assert np.allclose(es.vectors, np.eye(3))

    def test_diagonal_sorted_ascending(self):
        es = herm_eig(np.diag([2.0, -1.0]))
        assert np.allclose(es.values, [-1.0, 2.0])

    def test_reconstruction_residual(self):
        m = random_hermitian(50, seed=7)
        es = herm_eig(m)
        recon = es.vectors @ (es.values[:, None] * es.vectors.conj().T)
        assert np.max(np.abs(m - recon)) <= 1e-10 * np.max(np.abs(m))

    def test_columns_orthonormal(self):
        es = herm_eig(random_hermitian(32, seed=3))
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(32))) <= 1e-10

    def test_overwrite_reads_lower_triangle_in_place(self):
        # the suspension hands its Gram matrix over as a Fortran array and
        # lets the solve consume it; only the lower triangle is read
        m = random_hermitian(30, seed=5)
        lower = np.asfortranarray(np.tril(m))
        es = herm_eig(lower, overwrite=True)
        assert not np.array_equal(lower, np.tril(m))
        recon = es.vectors @ (es.values[:, None] * es.vectors.conj().T)
        assert np.max(np.abs(m - recon)) <= 1e-12 * np.max(np.abs(m))

    def test_eigvals_match_eig(self):
        m = random_hermitian(40, seed=11)
        assert np.max(np.abs(herm_eigvals(m) - herm_eig(m).values)) <= 1e-12

    def test_window_matches_full_spectrum(self):
        m = random_hermitian(60, seed=17)
        full = herm_eig(m)
        keep = np.abs(full.values) < 3.0
        window = herm_eig(m, within=3.0)
        assert 0 < len(window.values) == np.count_nonzero(keep) < 60
        assert np.max(np.abs(window.values - full.values[keep])) <= 1e-12
        # eigenvector phases are arbitrary: compare the weights |v_xj|^2
        weights = np.abs(window.vectors) ** 2
        assert np.max(np.abs(weights - np.abs(full.vectors[:, keep]) ** 2)) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("dim, bump, s", [
        (1, witten.PerturbationProfile.lorentzian(0.7), 0.0),
        (1, witten.PerturbationProfile.lorentzian(0.7), 0.02),
        (1, witten.PerturbationProfile.lorentzian(0.7), 0.5),
        (2, LORENTZIAN_2X2, 0.0),
        (2, LORENTZIAN_2X2, 0.02),
        (2, LORENTZIAN_2X2, 0.5),
        # A_1 (x) I_2 + phi I_2: every eigenvalue exactly twofold
        (2, SCALAR_2X2, 1.0),
    ], ids=["d1-s0", "d1-s0.02", "d1-s0.5", "d2-s0", "d2-s0.02", "d2-s0.5",
            "d2-scalar-bump"])
    def test_window_matches_evr(self, dim, bump, s, field):
        m = dirac_pencil(dim, bump, s, field)
        assert m.dtype == (np.float64 if field == "real" else np.complex128)
        within = 4.0
        values, vectors = scipy.linalg.eigh(m, driver="evr")
        # no eigenvalue near the window edge, where the two routes may differ
        assert np.min(np.abs(np.abs(values) - within)) > 1e-6
        keep = (values > -within) & (values <= within)
        es = herm_eig(m, within=within)
        assert es.vectors.dtype == m.dtype
        assert 0 < len(es.values) == np.count_nonzero(keep) < len(m)
        assert np.max(np.abs(es.values - values[keep])) <= 1e-12
        # a projector is basis-free inside degenerate clusters
        kept = vectors[:, keep]
        projector = es.vectors @ es.vectors.conj().T
        assert np.max(np.abs(projector - kept @ kept.conj().T)) <= 1e-12
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(len(es.values)))) <= 1e-12

    def test_window_is_half_open(self):
        es = herm_eig(np.diag([-1.0, 0.5, 1.0]), within=1.0)
        assert np.array_equal(es.values, [0.5, 1.0])
        assert np.max(np.abs(np.abs(es.vectors) - np.eye(3)[:, 1:])) <= 1e-12
        # one row has no tridiagonal off-diagonal to hand to LAPACK
        assert herm_eig(np.array([[1.0]]), within=1.0).vectors.shape == (1, 1)
        assert herm_eig(np.array([[-1.0]]), within=1.0).vectors.shape == (1, 0)

    def test_empty_window(self):
        es = herm_eig(np.diag([2.0, -3.0, 5.0]), within=1.0)
        assert es.values.shape == (0,)
        assert es.vectors.shape == (3, 0)

    @pytest.mark.parametrize("within", [None, 1.5])
    def test_real_input_stays_real(self, within):
        m = random_hermitian(40, seed=23).real
        real = herm_eig(m, within=within)
        cplx = herm_eig(m.astype(complex), within=within)
        assert real.vectors.dtype == np.float64
        assert len(real.values) == len(cplx.values) > 0
        assert np.max(np.abs(real.values - cplx.values)) <= 1e-12
        weights = np.abs(real.vectors) ** 2
        assert np.max(np.abs(weights - np.abs(cplx.vectors) ** 2)) <= 1e-12
        values = herm_eigvals(m)
        assert values.dtype == np.float64
        assert np.max(np.abs(values - herm_eigvals(m.astype(complex)))) <= 1e-12

    def test_square_matrix_keeps_field(self):
        assert as_square_matrix(np.eye(2, dtype=int)).dtype == np.float64
        assert as_square_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
        assert as_square_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128


class TestHeatOperator:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(heat_operator(np.zeros((4, 4)), 2.0), np.eye(4))

    def test_diagonal_case(self):
        out = heat_operator(np.diag([1.0, 2.0]), 1.0)
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]), atol=1e-14)

    def test_trace_matches_series_oracle(self):
        m = random_hermitian(20, seed=11)
        t = 0.7
        ours = np.trace(heat_operator(m, t))
        oracle = np.trace(pade_expm(-t * m))
        assert abs(ours - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            heat_operator(np.eye(2), 0.0)

    def test_spectrum_in_expected_range(self):
        m = random_hermitian(12, seed=5)
        es = herm_eig(m)
        vals = np.linalg.eigvalsh(heat_operator(m, 0.5, eig=es))
        assert np.all(vals > 0)
        assert np.max(vals) <= np.exp(-0.5 * es.values[0]) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(hermitian_matrices,
           st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=0.05, max_value=2.0))
    def test_semigroup_property(self, m, t1, t2):
        one = heat_operator(m, t1) @ heat_operator(m, t2)
        two = heat_operator(m, t1 + t2)
        assert np.max(np.abs(one - two)) <= 1e-8 * max(np.max(np.abs(two)), 1e-3)

    def test_trace_monotone_for_psd(self):
        m = random_hermitian(10, seed=9)
        psd = m @ m.conj().T
        traces = [np.trace(heat_operator(psd, t)).real for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))


class TestTrace:
    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            herm_eig(np.ones((2, 3)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_commutator_traceless(self, seed):
        # the finite-matrix fact that forces the defect-operator index route
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert abs(np.trace(a @ b - b @ a)) <= 1e-10 * np.max(np.abs(a @ b))


def test_eigen_system_named_fields():
    es = herm_eig(np.diag([3.0, 1.0]))
    assert isinstance(es, EigenSystem)
    assert es.values[0] <= es.values[1]


class TestLineIntegral:
    def test_lorentzian_is_exact(self):
        # the mapped integrand of 1 / (1 + x^2) is the constant pi / 2
        value, err = line_integral(lambda x: 1.0 / (1.0 + x * x))
        assert value == pytest.approx(np.pi, abs=1e-14)
        assert err <= 1e-14

    def test_gaussian_and_error_estimate(self):
        value, err = line_integral(lambda x: np.exp(-x * x))
        assert value == pytest.approx(np.sqrt(np.pi), abs=1e-13)
        assert abs(value - np.sqrt(np.pi)) <= err + 1e-15
        assert err <= 1e-12

    def test_one_call_per_rule(self):
        sizes = []

        def f(x):
            sizes.append(len(x))
            return np.zeros_like(x)

        assert line_integral(f) == (0.0, 0.0)
        assert sizes == [64, 128]
