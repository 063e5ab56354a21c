"""Shift-lattice compressions: defect identities, index routes, windings."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import dense_from_bands, svd_index, toeplitz_truncation

from opindex.errors import (
    DomainError,
    InconclusiveError,
    SymbolVanishingError,
    UndersamplingError,
    WindowSizingError,
)
from opindex.toeplitz import (
    CircleSymbol,
    LineSymbol,
    ShiftLatticeOperator,
    build_paper_example,
    fedosov_index,
    hardy_compression,
    paper_example_operators,
    winding_number,
)


def classical_shift_example(n_interior: int, steps: int = 1):
    """Compression of a pure Fourier shift on the integer lattice.

    The classical unilateral-shift pair: the symbol exp(i k theta)
    compressed by the Hardy cutoff, with the parametrix built from the
    inverse symbol, on a window padded like the half-shift case.
    """
    window = 3 * n_interior
    q = hardy_compression(window)
    t_op = q @ ShiftLatticeOperator.shift(window, steps, 0.0, 0.0) @ q
    parametrix = q @ ShiftLatticeOperator.shift(window, -steps, 0.0, 0.0) @ q
    return t_op, parametrix


class TestHalfShiftExample:
    def test_defect_identities_exact(self):
        n = 64
        t_op, t_adj = build_paper_example(n)
        q = paper_example_operators(n)["q"]
        d1 = ((t_op @ t_adj) - q).interior(n)
        d2 = ((t_adj @ t_op) - q).interior(n)
        # rank-one defect sitting at the lowest integer-lattice mode
        expected = np.zeros_like(d1)
        expected[n, n] = -1.0
        assert np.array_equal(d1, expected)
        assert np.array_equal(d2, np.zeros_like(d2))

    def test_block_identities_exact(self):
        n = 16
        ops = paper_example_operators(n)
        p1, p2, m = ops["p1"], ops["p2"], ops["m"]
        lhs = (p2 @ m @ p1 @ m.adjoint() @ p2).interior(n)
        assert np.array_equal(lhs, p2.interior(n))
        lhs = (p2 @ m.adjoint() @ p1 @ m @ p2).interior(n)
        assert np.array_equal(lhs, p2.interior(n))
        lhs = (p1 @ m.adjoint() @ p2 @ m @ p1).interior(n)
        assert np.array_equal(lhs, p1.interior(n))
        # the remaining product loses exactly the lowest mode
        lhs = (p1 @ m @ p2 @ m.adjoint() @ p1).interior(n)
        tail = ShiftLatticeOperator.cutoff(
            3 * n, lambda s: (s >= 2) & (s % 2 == 0)
        ).interior(n)
        assert np.array_equal(lhs, tail)

    def test_fedosov_index_is_minus_one(self):
        t_op, t_adj = build_paper_example(64)
        report = fedosov_index(t_op, t_adj, 64)
        assert abs(report.fedosov_value - (-1.0)) <= 1e-10
        assert report.verdict == -1
        assert report.certain

    def test_identity_compression_has_index_zero(self):
        q = hardy_compression(3 * 8)
        report = fedosov_index(q, q, 8)
        assert report.verdict == 0
        assert abs(report.fedosov_value) <= 1e-10

    def test_padding_monotonicity(self):
        values = []
        for n in (16, 32, 64, 1024):
            t_op, t_adj = build_paper_example(n)
            values.append(fedosov_index(t_op, t_adj, n).fedosov_value)
        assert values[0] == values[1] == values[2] == values[3]

    def test_insufficient_padding_inconclusive(self):
        # interior 12 on the window padded for 8: T' T - Q has its
        # window-edge entry at site 24, inside the zone checked for exactness
        t_op, t_adj = build_paper_example(8)
        with pytest.raises(InconclusiveError) as excinfo:
            fedosov_index(t_op, t_adj, 12)
        assert excinfo.value.detail == 24

    def test_off_diagonal_support_sized_by_column(self):
        # T = Q + E with E one entry at (site 5, site -11) and T' = Q:
        # T T' - Q = E Q vanishes, T' T - Q = Q E keeps the entry, and its
        # column sets the radius
        window = 24
        sites = np.arange(-window, window + 1)
        entry = np.where(sites == 5, 1.0, 0.0)
        q = hardy_compression(window)
        t_op = ShiftLatticeOperator.from_band(window, {0: q.bands[0], 16: entry})
        with pytest.raises(InconclusiveError) as excinfo:
            fedosov_index(t_op, q, 8)
        assert excinfo.value.detail == 11

    def test_too_small_interior_rejected(self):
        with pytest.raises(WindowSizingError):
            build_paper_example(3)

    def test_projections_exactly_idempotent(self):
        ops = paper_example_operators(8)
        for key in ("q", "p1", "p2"):
            proj = ops[key]
            assert np.array_equal((proj @ proj).matrix, proj.matrix)
            assert np.array_equal(proj.adjoint().matrix, proj.matrix)
            assert set(np.unique(proj.matrix)) <= {0.0 + 0j, 1.0 + 0j}


class TestClassicalShift:
    def test_fedosov_matches_svd_oracle(self):
        t_op, parametrix = classical_shift_example(16)
        symbol = CircleSymbol(lambda th: np.exp(1j * th))
        report = fedosov_index(t_op, parametrix, 16)
        dims = svd_index(lambda n: toeplitz_truncation(symbol, n), 256, guard=64)
        assert report.verdict == -1
        assert dims == (0, 1)
        assert winding_number(symbol) == 1
        assert report.certain

    def test_downward_shift_has_index_plus_one(self):
        t_op, parametrix = classical_shift_example(16, steps=-1)
        report = fedosov_index(t_op, parametrix, 16)
        assert report.verdict == 1


class TestSvdIndex:
    def test_identity(self):
        assert svd_index(lambda n: np.eye(n), 64, guard=16) == (0, 0)

    def test_half_shift_truncation(self):
        # compression of the half-shift onto the non-negative doubled lattice
        def builder(n):
            return np.diag(np.ones(n - 1), -1).astype(complex)

        assert svd_index(builder, 64, guard=16) == (0, 1)

    def test_double_winding_symbol(self):
        symbol = CircleSymbol(lambda th: np.exp(2j * th))
        dims = svd_index(lambda n: toeplitz_truncation(symbol, n), 64, guard=16)
        assert dims == (0, 2)

    def test_guard_band_sizing_enforced(self):
        with pytest.raises(DomainError):
            svd_index(lambda n: np.eye(n), 32, guard=16)

    def test_non_fredholm_truncation_inconclusive(self):
        # symbol vanishing on the circle: singular values drift with size
        symbol = CircleSymbol(lambda th: 1.0 + np.exp(1j * th))
        try:
            dims = svd_index(
                lambda n: toeplitz_truncation(symbol, n), 64, tol=1e-2, guard=16
            )
        except InconclusiveError:
            return
        # if the counts happen to stabilise they must still be tiny
        assert dims[0] + dims[1] <= 2

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_route_agreement_with_winding(self, k):
        symbol = CircleSymbol(lambda th: (2.0 + np.cos(th)) * np.exp(1j * k * th))
        kernel, cokernel = svd_index(
            lambda n: toeplitz_truncation(symbol, n), 64, guard=16
        )
        assert kernel - cokernel == -winding_number(symbol)


class TestWindingNumber:
    def test_constant_symbol(self):
        assert winding_number(CircleSymbol(lambda th: np.ones_like(th) + 0j)) == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=-4, max_value=4))
    def test_pure_modes(self, k):
        assert winding_number(CircleSymbol(lambda th: np.exp(1j * k * th))) == k

    def test_moebius_line_symbol(self):
        # frozen from the argument-tracking oracle at 1e4 samples; the
        # circle correspondence gives the same value (the map x -> 2 arctan x
        # is orientation preserving and (x+i)/(x-i) = -exp(-i theta))
        line = LineSymbol(lambda x: (x + 1j) / (x - 1j), sample_count=10000)
        assert winding_number(line) == -1

    def test_vanishing_symbol_rejected(self):
        with pytest.raises(SymbolVanishingError):
            winding_number(CircleSymbol(lambda th: np.cos(th) + 0j))

    def test_undersampled_symbol_rejected(self):
        with pytest.raises((UndersamplingError, SymbolVanishingError)):
            winding_number(
                CircleSymbol(lambda th: np.exp(64j * th), sample_count=96)
            )

    def test_half_character_symbol_has_no_winding(self):
        half = CircleSymbol(lambda th: np.exp(0.5j * th), character=0.5)
        with pytest.raises(DomainError):
            winding_number(half)

    def test_product_of_two_half_symbols_winds_once(self):
        product = CircleSymbol(lambda th: np.exp(0.5j * th) ** 2, character=0.0)
        assert winding_number(product) == 1

    def test_refinement_stability(self):
        symbol = CircleSymbol(lambda th: (2.0 + np.cos(th)) * np.exp(1j * th))
        assert winding_number(symbol) == winding_number(
            CircleSymbol(symbol.evaluator, sample_count=2 * symbol.sample_count)
        )

    def test_line_symbol_with_unequal_limits_rejected(self):
        with pytest.raises(DomainError):
            winding_number(LineSymbol(lambda x: np.arctan(x) + 2.0 + 0j))


class TestSymbolConstruction:
    def test_periodic_character_check(self):
        with pytest.raises(DomainError):
            CircleSymbol(lambda th: np.exp(0.5j * th), character=0.0)

    def test_antiperiodic_character_check(self):
        CircleSymbol(lambda th: np.exp(0.5j * th), character=0.5)  # fine
        with pytest.raises(DomainError):
            CircleSymbol(lambda th: np.exp(1j * th), character=0.5)

    def test_invalid_character_rejected(self):
        with pytest.raises(DomainError):
            CircleSymbol(lambda th: np.exp(1j * th), character=0.25)


class TestShiftLatticeAlgebra:
    def test_window_mismatch_rejected(self):
        a = ShiftLatticeOperator.shift(6, 1)
        b = ShiftLatticeOperator.shift(8, 1)
        with pytest.raises(WindowSizingError):
            _ = a @ b

    def test_products_exact_on_interior_under_window_growth(self):
        # composing on a window 3x the interior agrees with a larger window
        n = 8
        small = build_paper_example(n)
        large = build_paper_example(2 * n)
        prod_small = (small[0] @ small[1]).interior(n)
        prod_large = (large[0] @ large[1]).interior(n)
        assert np.array_equal(prod_small, prod_large)

    def test_band_constructor_matches_shift(self):
        band = ShiftLatticeOperator.from_band(6, {2: 1.0})
        assert np.array_equal(band.matrix, ShiftLatticeOperator.shift(6, 2).matrix)

    def test_character_mismatch_rejected(self):
        up = ShiftLatticeOperator.shift(6, 1, 0.0, 0.5)
        with pytest.raises(DomainError):
            _ = up @ up

    def test_band_shape_checked(self):
        with pytest.raises(WindowSizingError):
            ShiftLatticeOperator(2, {0: np.ones(3, dtype=complex)})
        with pytest.raises(WindowSizingError):
            ShiftLatticeOperator(2, {5: np.ones(5, dtype=complex)})


@st.composite
def band_maps(draw, window, integer):
    """Up to four bands, with offsets out to two past the window edge."""
    n = 2 * window + 1
    if integer:
        values = st.integers(min_value=-3, max_value=3)
    else:
        values = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                    allow_infinity=False)
    coeffs = values | st.lists(values, min_size=n, max_size=n).map(np.array)
    offsets = draw(st.lists(st.integers(min_value=-n - 1, max_value=n + 1),
                            unique=True, max_size=4))
    return {d: draw(coeffs) for d in offsets}


def operand_pairs(integer):
    """(window, band map a, band map b, interior half) on windows up to 4."""
    def on_window(window):
        return st.tuples(st.just(window), band_maps(window, integer),
                         band_maps(window, integer),
                         st.integers(min_value=0, max_value=window))
    return st.integers(min_value=0, max_value=4).flatmap(on_window)


def assert_zero_outside_window(op):
    rows = np.arange(2 * op.window + 1)
    for d, coeffs in op.bands.items():
        columns = rows - d
        assert not np.any(coeffs[(columns < 0) | (columns > 2 * op.window)])


def check_band_algebra(window, map_a, map_b, half, same):
    a = ShiftLatticeOperator.from_band(window, map_a)
    b = ShiftLatticeOperator.from_band(window, map_b)
    for op in (a, b, a @ b, a - b, a.adjoint()):
        assert_zero_outside_window(op)
    dense_a = dense_from_bands(window, map_a)
    dense_b = dense_from_bands(window, map_b)
    assert same(a.matrix, dense_a)
    assert same((a @ b).matrix, dense_a @ dense_b)
    assert same((a @ b @ a.adjoint()).matrix, dense_a @ dense_b @ dense_a.conj().T)
    assert same((a - b).matrix, dense_a - dense_b)
    assert same(a.adjoint().matrix, dense_a.conj().T)
    sites = slice(window - half, window + half + 1)
    block = dense_a[sites, sites]
    assert same(a.interior(half), block)
    diagonals = a.interior_bands(half)
    for d in range(-2 * half, 2 * half + 1):
        expected = np.diagonal(block, -d)
        assert same(diagonals.get(d, np.zeros_like(expected)), expected)
    assert same(np.array(a.trace_interior(half)), np.trace(block))


class TestBandAlgebraOracle:
    """Band-map algebra against dense numpy on the oracle's matrices."""

    @settings(max_examples=150, deadline=None)
    @given(operand_pairs(integer=True))
    @example((2, {}, {}, 2))
    @example((2, {4: 1, -4: 2, 5: 3, -7: 1}, {4: -1, 0: 1}, 1))
    # (I + S)(I - S) = I - S^2: the product's band 1 cancels
    @example((3, {0: 1, 1: 1}, {0: 1, 1: -1}, 3))
    def test_integer_coefficients_exact(self, case):
        check_band_algebra(*case, same=np.array_equal)

    @settings(max_examples=150, deadline=None)
    @given(operand_pairs(integer=False))
    @example((1, {0: 0.5j, 3: 1.0, -3: 1.0}, {1: np.array([1j, -1.0, 0.5])}, 1))
    def test_complex_coefficients_close(self, case):
        def same(x, y):
            return np.max(np.abs(x - y), initial=0.0) <= 1e-12

        check_band_algebra(*case, same=same)
