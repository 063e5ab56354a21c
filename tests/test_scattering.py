"""Scattering checks: transfer matrices, bound states, phase balance, sigma."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opindex import scattering
from opindex.errors import (
    DomainError,
    InconclusiveError,
    IntegrationError,
    RangeError,
)
from opindex.scattering import (
    Potential,
    _line_fit,
    _mul2,
    bound_states,
    build_sigma,
    corrected_index,
    exp_resample,
    find_resonant_depth,
    levinson_check,
    phase_winding,
    scattering_matrix,
    transfer_matrices,
    witten_index_sigma,
)

from oracles import (
    dirichlet_bound_states,
    dirichlet_negative_count,
    dirichlet_negative_count_full,
    resonance_detect,
    resonant_depth_brentq,
    rk4_transfer,
    square_well_bound_count,
    square_well_transfer,
    square_well_transmission_sq,
    transfer_matrices_slabwise,
)

WELL = Potential.square_well(2.0, 1.0)
# depth 3 on [-3, -1] and depth 8 on [1, 2], with a free gap between them
TWO_WELLS = Potential(
    evaluator=lambda x: np.where((x > -3.0) & (x < -1.0), -3.0, 0.0)
    + np.where((x > 1.0) & (x < 2.0), -8.0, 0.0),
    support_radius=3.0,
)
# depth 8 on 1.4 < |x| < 2.6: the fourth level is bound by almost nothing,
# so the zero-energy solution has its last zero near x = 38
WELL_PAIR = Potential(
    evaluator=lambda x: np.where(np.abs(np.abs(np.asarray(x, dtype=float)) - 2.0) < 0.6,
                                 -8.0, 0.0),
    support_radius=2.6,
)


def gaussian_well(depth):
    return Potential(
        evaluator=lambda x: np.where(
            np.abs(x) < 8.0, -depth * np.exp(-np.asarray(x, dtype=float) ** 2), 0.0),
        support_radius=8.0,
    )


class TestTransferMatrix:
    def test_free_potential_identity(self):
        t = transfer_matrices(Potential.free(), np.array([1.0]))[0]
        assert np.max(np.abs(t - np.eye(2))) <= 1e-12
        # every 40th sample of the curve grid, from k = 1e-3 to 2000
        t = transfer_matrices(Potential.free(), scattering.K_GRID[::40])
        assert np.max(np.abs(t - np.eye(2))) <= 1e-6

    def test_determinant_one(self):
        t = transfer_matrices(WELL, np.array([1.0]))[0]
        det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
        assert abs(det - 1.0) <= 1e-8

    def test_wrong_propagator_trips_chain_det_check(self, monkeypatch):
        # flipping the sign of the [1, 0] entry, -q sin(q h), makes every
        # slab's det cos(2 q h) instead of 1
        exact = scattering._slab_propagators

        def flipped(q, h):
            out = exact(q, h)
            out[..., 1, 0] *= -1.0
            return out

        monkeypatch.setattr(scattering, "_slab_propagators", flipped)
        with pytest.raises(IntegrationError, match="slab chain"):
            transfer_matrices(WELL, np.geomspace(1e-3, 40.0, 16))

    def test_deep_well_passes_chain_det_check(self):
        # at k = 1e-3, the head of K_GRID, det T drifts 1.1e-8 through the
        # 1/(ik) of the amplitude frame, while the integrated (psi, psi')
        # chain stays at rounding, and S is unitary to rounding
        deep = Potential.square_well(100.0, 1.0)
        t = transfer_matrices(deep, scattering.K_GRID)
        flux = np.abs(1.0 / t[:, 1, 1]) ** 2 + np.abs(t[:, 1, 0] / t[:, 1, 1]) ** 2
        assert np.max(np.abs(flux - 1.0)) <= 1e-12

    def test_matches_interface_matching_oracle(self):
        ours = transfer_matrices(WELL, np.array([1.0]))[0]
        oracle = square_well_transfer(2.0, 1.0, 1.0)
        assert np.max(np.abs(ours - oracle)) <= 1e-6

    def test_matches_rk4_oracle_on_smooth_potential(self):
        # RK4 needs a smooth integrand for its order; the slab method needs
        # a fine step for a varying potential, so both are refined here
        def bump(x):
            x = np.asarray(x, dtype=float)
            inside = np.abs(x) < 1.0
            return np.where(inside, -1.5 * np.cos(np.pi * x / 2.0) ** 2, 0.0)

        smooth = Potential(evaluator=bump, support_radius=1.0)
        ours = transfer_matrices(smooth, np.array([1.3]), step=5e-4)[0]
        oracle = rk4_transfer(smooth, 1.3, step=2e-3)
        assert np.max(np.abs(ours - oracle)) <= 1e-6

    def test_rejects_nonpositive_k(self):
        with pytest.raises(DomainError):
            transfer_matrices(WELL, np.array([0.0]))

    @pytest.mark.parametrize("depth, half_width", [(2.0, 1.0), (9.0, 0.7), (0.3, 3.0)])
    def test_zero_energy_chain_closed_form(self, depth, half_width):
        # at k = 0 a free stretch of length 1 propagates (psi, psi') by
        # [[1, 1], [0, 1]], and the well by its q = sqrt(depth) propagator
        q = np.sqrt(depth)
        qh = 2.0 * half_width * q
        free = np.array([[1.0, 1.0], [0.0, 1.0]])
        well = np.array([[np.cos(qh), np.sin(qh) / q], [-q * np.sin(qh), np.cos(qh)]])
        chain = scattering._slab_chain(
            Potential.square_well(depth, half_width), np.zeros(1), 0.01
        )[0]
        assert np.max(np.abs(chain - free @ well @ free)) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    def test_flux_conservation_everywhere(self, depth, width, k):
        well = Potential.square_well(depth, width)
        t = transfer_matrices(well, np.array([k]))[0]
        s = np.array([
            [1.0 / t[1, 1], t[0, 1] / t[1, 1]],
            [-t[1, 0] / t[1, 1], 1.0 / t[1, 1]],
        ])
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) <= 1e-8
        assert abs(s[0, 0] - s[1, 1]) <= 1e-8  # transmission reciprocity


class TestKernels:
    """The written-out 2x2 product and the closed-form line fit."""

    @staticmethod
    def complex_stack(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_mul2_matches_einsum_and_matmul(self):
        rng = np.random.default_rng(7)
        a = self.complex_stack(rng, (320, 2, 2))
        b = self.complex_stack(rng, (320, 2, 2))
        product = _mul2(a, b)
        assert product.shape == (320, 2, 2)
        # each entry is a sum of two products: a few eps of its terms
        bound = 4.0 * np.finfo(float).eps * np.max(np.abs(a)) * np.max(np.abs(b))
        assert np.max(np.abs(product - np.einsum("kij,kjl->kil", a, b))) <= bound
        assert np.max(np.abs(product - a @ b)) <= bound

    def test_mul2_broadcasts_a_single_matrix(self):
        rng = np.random.default_rng(8)
        stack = self.complex_stack(rng, (50, 2, 2))
        single = self.complex_stack(rng, (2, 2))
        bound = 4.0 * np.finfo(float).eps * np.max(np.abs(stack)) * np.max(np.abs(single))
        left, right = _mul2(single, stack), _mul2(stack, single)
        assert left.shape == right.shape == (50, 2, 2)
        assert np.max(np.abs(left - np.einsum("ij,kjl->kil", single, stack))) <= bound
        assert np.max(np.abs(right - stack @ single)) <= bound
        # a real factor keeps the product complex
        assert _mul2(single.real, stack).dtype == complex

    @staticmethod
    def assert_matches_polyfit(x, y, slope=None, intercept=None):
        if slope is None:
            slope, intercept = _line_fit(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert abs(intercept - ref_intercept) <= 1e-13
        # the slope is fixed only to the rounding of y over the spread of x
        assert abs(slope - ref_slope) <= 1e-13 * np.max(np.abs(y)) / np.ptp(x)

    def test_line_fit_matches_polyfit_on_real_data(self):
        rng = np.random.default_rng(9)
        k = np.geomspace(1e-3, 1.3e-3, 8)
        phi = 2.5 - 40.0 * k + 1e-6 * rng.standard_normal(8)
        self.assert_matches_polyfit(k, phi)
        # a tail in 1 / k, as the winding's delta_inf + c / k fit takes it
        inv = 1.0 / np.geomspace(1000.0, 2000.0, 30)
        self.assert_matches_polyfit(inv, -3.0 + 7.0 * inv + 1e-9 * rng.standard_normal(30))

    def test_line_fit_matches_polyfit_per_entry_of_a_complex_stack(self):
        rng = np.random.default_rng(10)
        k = np.geomspace(1e-3, 1.3e-3, 8)
        s = (self.complex_stack(rng, (2, 2)) + k[:, None, None]
             * self.complex_stack(rng, (2, 2))
             + 1e-8 * self.complex_stack(rng, (8, 2, 2)))
        slope, intercept = _line_fit(k, s)
        assert slope.shape == intercept.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                self.assert_matches_polyfit(k, s[:, i, j], slope[i, j], intercept[i, j])


class TestMergedSweep:
    """One slab per run of equal midpoint values against the per-slab sweep."""

    K = np.geomspace(1e-3, 2000.0, 200)

    @staticmethod
    def rel_gap(t, reference):
        scale = np.max(np.abs(reference), axis=(1, 2))
        return float(np.max(np.max(np.abs(t - reference), axis=(1, 2)) / scale))

    @pytest.mark.parametrize("depth", [0.5, 2.0, 25.0, 60.0])
    def test_square_well_matches_slabwise_and_analytic(self, depth):
        well = Potential.square_well(depth, 1.0)
        ours = transfer_matrices(well, self.K)
        analytic = np.array([square_well_transfer(depth, 1.0, k) for k in self.K])
        assert self.rel_gap(ours, transfer_matrices_slabwise(well, self.K)) <= 1e-12
        assert self.rel_gap(ours, analytic) <= 1e-12

    def test_two_level_step_matches_slabwise(self):
        # runs of 80 and 120 slabs, one attractive and one repulsive, so both
        # oscillating and evanescent slab propagators are merged
        def step_v(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) < 1.0, np.where(x < -0.2, -3.0, 2.0), 0.0)

        step = Potential(evaluator=step_v, support_radius=1.0)
        ours = transfer_matrices(step, self.K)
        assert self.rel_gap(ours, transfer_matrices_slabwise(step, self.K)) <= 1e-12

    def test_smooth_potential_is_bitwise_slabwise(self):
        # no two neighbouring midpoints share a value, so nothing merges and
        # the product runs in the per-slab order
        def tilted_bump(x):
            x = np.asarray(x, dtype=float)
            bump = -1.5 * np.cos(np.pi * x / 2.0) ** 2 * (1.0 + 0.3 * x)
            return np.where(np.abs(x) < 1.0, bump, 0.0)

        smooth = Potential(evaluator=tilted_bump, support_radius=1.0)
        mids = -1.0 + 0.01 * (np.arange(200) + 0.5)
        assert np.all(np.diff(tilted_bump(mids)) != 0.0)
        assert np.array_equal(
            transfer_matrices(smooth, self.K),
            transfer_matrices_slabwise(smooth, self.K),
        )


class TestSturmCount:
    """The finite-difference Dirichlet count the bound-state oracle runs on."""

    @staticmethod
    def dense_negative_count(v, half_width, n):
        h = 2.0 * half_width / n
        x = -half_width + h * np.arange(1, n)
        off = np.full(n - 2, -1.0 / (h * h))
        ham = np.diag(2.0 / (h * h) + v.evaluator(x))
        ham += np.diag(off, 1) + np.diag(off, -1)
        return int(np.count_nonzero(np.linalg.eigvalsh(ham) < 0))

    @pytest.mark.parametrize("well, half_width, n", [
        pytest.param(Potential.square_well(depth, 1.0), half_width, n,
                     id=f"{depth}-{half_width}-{n}")
        for depth, half_width, n in
        [(0.5, 5.0, 64), (2.0, 5.0, 100), (25.0, 6.0, 160), (60.0, 5.0, 256)]
    ] + [pytest.param(TWO_WELLS, 16.0, 320, id="two-wells-16.0-320")])
    def test_matches_dense_eigvalsh(self, well, half_width, n):
        count = dirichlet_negative_count(well, half_width, n)
        assert count == self.dense_negative_count(well, half_width, n)
        assert count >= 1

    def test_zero_pivot_guard(self):
        # h = 1 and V = -1 at all 7 sites make every diagonal entry and the
        # squared off-diagonal 1, so the second pivot 1 - 1/1 is exactly 0
        flat = Potential(
            evaluator=lambda x: np.where(np.abs(np.asarray(x)) < 3.5, -1.0, 0.0),
            support_radius=3.5,
        )
        count = dirichlet_negative_count(flat, 4.0, 8)
        assert count == self.dense_negative_count(flat, 4.0, 8) == 2

    @pytest.mark.parametrize("half_width, n", [
        (60.0, 24000), (60.0, 48000), (120.0, 48000),
    ])
    def test_matches_full_box_loop(self, half_width, n):
        # the depths run through the first twelve zero-energy resonances
        # (k pi / 2)^2, where a level sits at threshold, and 1e-9 either
        # side of the first
        first = (np.pi / 2.0) ** 2
        depths = np.concatenate((
            np.geomspace(0.01, 400.0, 36),
            [(k * np.pi / 2.0) ** 2 for k in range(1, 13)],
            [first * (1.0 - 1e-9), first * (1.0 + 1e-9)],
        ))
        for depth in depths:
            well = Potential.square_well(float(depth), 1.0)
            assert dirichlet_negative_count(well, half_width, n) == \
                dirichlet_negative_count_full(well, half_width, n), depth

    @pytest.mark.parametrize("half_width, n", [
        (2.0, 8), (3.0, 12), (5.0, 64), (5.0, 100),
    ])
    def test_short_free_runs_match_full_box_loop(self, half_width, n):
        # free end runs of 2 to 40 sites: an error in the closed-form
        # elimination constants, which a long run would hide, moves counts here
        for depth in np.arange(0.01, 400.0, 0.1):
            well = Potential.square_well(float(depth), 1.0)
            assert dirichlet_negative_count(well, half_width, n) == \
                dirichlet_negative_count_full(well, half_width, n), depth

    def test_free_potential_counts_zero(self):
        assert dirichlet_negative_count(Potential.free(), 60.0, 24000) == 0

    @pytest.mark.parametrize("well, half_width, n, first, last", [
        # live only at the first and last interior sites, x = -2.9 and 2.9
        pytest.param(Potential(
            evaluator=lambda x: np.where(np.abs(np.abs(x) - 2.9) < 0.05, -400.0, 0.0),
            support_radius=3.0), 3.0, 60, 0, 58, id="end-sites"),
        # live at x = 0 alone: a one-site delta well
        pytest.param(Potential(
            evaluator=lambda x: np.where(np.abs(x - 0.03) < 0.04, -50.0, 0.0),
            support_radius=1.0), 5.0, 100, 49, 49, id="single-site"),
        pytest.param(TWO_WELLS, 16.0, 320, 130, 178, id="two-wells"),
    ])
    def test_live_site_edge_cases(self, well, half_width, n, first, last):
        h = 2.0 * half_width / n
        live = np.flatnonzero(well.evaluator(-half_width + h * np.arange(1, n)))
        assert (live[0], live[-1]) == (first, last)
        count = dirichlet_negative_count(well, half_width, n)
        assert count == dirichlet_negative_count_full(well, half_width, n)
        assert count == self.dense_negative_count(well, half_width, n)
        assert count >= 1

    def test_count_does_not_depend_on_the_box(self):
        for depth in (0.5, 1.0, 2.0, 5.0, 10.0, 25.0):
            well = Potential.square_well(depth, 1.0)
            assert dirichlet_negative_count(well, 60.0, 24000) == \
                dirichlet_negative_count(well, 600.0, 240000) == \
                square_well_bound_count(depth, 1.0), depth


class TestScatteringCurve:
    def test_free_curve_is_identity(self):
        curve = scattering_matrix(Potential.free(), np.geomspace(1e-3, 40.0, 64))
        assert np.max(np.abs(curve.s_matrices - np.eye(2))) <= 1e-10

    def test_transmission_matches_textbook(self):
        curve = scattering_matrix(WELL, np.geomspace(1e-2, 20.0, 96))
        ours = np.abs(curve.s_matrices[:, 0, 0]) ** 2
        oracle = square_well_transmission_sq(2.0, 1.0, curve.k_samples)
        assert np.max(np.abs(ours - oracle)) <= 1e-6

    def test_unitarity_across_grid(self):
        curve = scattering_matrix(WELL)
        assert np.max(curve.unitarity_residuals) <= 1e-8

    def test_bad_grid_rejected(self):
        with pytest.raises(DomainError):
            scattering_matrix(WELL, np.array([0.5, 0.4, 0.3]))

    def test_coarse_grid_auto_refined(self):
        # a deep well winds fast at low k; the curve must densify itself
        deep = Potential.square_well(25.0, 1.0)
        coarse = np.geomspace(1e-3, 40.0, 24)
        curve = scattering_matrix(deep, coarse)
        assert len(curve.k_samples) > 24
        args = np.angle(curve.det())
        incr = np.abs((np.diff(args) + np.pi) % (2 * np.pi) - np.pi)
        assert np.max(incr) <= np.pi / 4


class TestBoundStates:
    def test_free_potential(self):
        assert bound_states(Potential.free()) == 0

    @pytest.mark.parametrize("depth", [0.5, 1.0, 2.0, 5.0, 10.0, 25.0])
    def test_matches_transcendental_oracle(self, depth):
        well = Potential.square_well(depth, 1.0)
        assert bound_states(well) == square_well_bound_count(depth, 1.0)

    def test_monotone_in_depth(self):
        counts = [bound_states(Potential.square_well(d, 1.0))
                  for d in (0.5, 2.0, 5.0, 10.0, 25.0)]
        assert counts == sorted(counts)

    def test_square_well_grid_matches_closed_form_and_dirichlet_oracle(self):
        # a new level appears each time 2 a sqrt(D) passes a multiple of pi;
        # the Dirichlet box must be wide: at half-width 60 the finite-difference
        # count reads 1 for a = 1.5, D = 1.11, where 2 a sqrt(D) / pi = 1.006
        for half_width in (0.5, 1.0, 1.5, 2.0):
            for depth in np.geomspace(0.3, 400.0, 12):
                well = Potential.square_well(float(depth), half_width)
                count = bound_states(well)
                assert count == math.ceil(2.0 * half_width * math.sqrt(depth) / math.pi)
                assert count == dirichlet_negative_count(well, 600.0, 240000), \
                    (half_width, depth)

    @pytest.mark.parametrize("well, expected", [
        pytest.param(TWO_WELLS, 3, id="two-wells"),
        pytest.param(gaussian_well(0.5), 1, id="gaussian-0.5"),
        pytest.param(gaussian_well(3.0), 2, id="gaussian-3"),
        pytest.param(gaussian_well(12.0), 3, id="gaussian-12"),
        pytest.param(gaussian_well(40.0), 5, id="gaussian-40"),
    ])
    def test_matches_three_way_dirichlet_oracle(self, well, expected):
        assert bound_states(well) == dirichlet_bound_states(well) == expected

    def test_repulsive_runs(self):
        # V >= 0 runs hold at most one sign change each; a barrier of
        # height 1e4 and width 20 grows psi by exp(2000), past the float
        # range, between two depth-30 wells of width 2 with 4 levels each
        def barrier_well(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) < 1.0, np.where(x < -0.2, -12.0, 5.0), 0.0)

        def wide_barrier(x):
            x = np.asarray(x, dtype=float)
            tilted = 1e4 * (1.0 + 1e-3 * x)  # no two midpoints share a value
            return np.where(np.abs(x) < 12.0, np.where(np.abs(x) < 10.0, tilted, -30.0), 0.0)

        for evaluator, support, expected in ((barrier_well, 1.0, 1), (wide_barrier, 12.0, 8)):
            well = Potential(evaluator=evaluator, support_radius=support)
            assert bound_states(well) == dirichlet_bound_states(well) == expected
        barrier = Potential(evaluator=lambda x: 3.0 * WELL.evaluator(x) ** 2,
                            support_radius=1.0)
        assert bound_states(barrier) == 0

    def test_level_beyond_the_oracle_box(self):
        # the zero-energy solution's last zero lies near x = 38: the
        # finite-difference count changes with the box, so the three-way
        # oracle refuses the well, and settles on 4 only in wide boxes
        assert bound_states(WELL_PAIR) == 4
        with pytest.raises(InconclusiveError) as excinfo:
            dirichlet_bound_states(WELL_PAIR)
        assert excinfo.value.detail == (3, 3, 4)
        assert dirichlet_negative_count(WELL_PAIR, 2000.0, 800000) == 4
        assert dirichlet_negative_count(WELL_PAIR, 2000.0, 1600000) == 4

    @pytest.mark.parametrize("half_width", [0.5, 1.0, 1.5, 2.0])
    def test_half_bound_state_at_resonant_depth(self, half_width):
        # at the resonant depth the new level sits at threshold, a
        # half-bound state, not counted; from one ulp above the root on the
        # zero-energy solution ends with psi psi' < 0 at |psi'/psi| of
        # rounding size, and HALF_BOUND_TOL decides; 1e-12 deeper it is bound
        root = find_resonant_depth(half_width)
        for direction in (-math.inf, math.inf):
            depth = root
            for _ in range(8):
                assert bound_states(Potential.square_well(depth, half_width)) == 1
                depth = math.nextafter(depth, direction)
        assert bound_states(Potential.square_well(root * (1.0 + 1e-12), half_width)) == 2

    @pytest.mark.parametrize("depth, half_width", [(2.5, 1.0), (10.0, 0.5)])
    def test_just_above_threshold(self, depth, half_width):
        # the three-way Dirichlet oracle refuses these two wells
        # (1/1/2 and 1/2/1): the second level is bound by almost nothing
        well = Potential.square_well(depth, half_width)
        assert bound_states(well) == 2
        with pytest.raises(InconclusiveError):
            dirichlet_bound_states(well)

    def test_samples_v_at_slab_midpoints_only(self):
        seen = []

        def spy(x):
            seen.append(np.array(x, dtype=float, copy=True))
            return WELL.evaluator(x)

        well = Potential(evaluator=spy, support_radius=1.0)
        seen.clear()  # the support probe of the constructor
        assert bound_states(well) == 1
        mids = -1.0 + 0.01 * (np.arange(200) + 0.5)
        assert len(seen) == 1
        assert np.array_equal(seen[0], mids)


class TestPhaseWinding:
    def test_free_curve(self):
        curve = scattering_matrix(Potential.free(), np.geomspace(1e-3, 40.0, 64))
        assert abs(phase_winding(curve)) <= 1e-10

    def test_single_bound_state_winding(self, scan_curves):
        # one bound state, no resonance: the determinant unwinds by -pi
        winding = phase_winding(scan_curves[2.0])
        assert abs(winding - (-np.pi)) <= 0.05 * np.pi

    def test_refinement_stability(self):
        coarse = scattering_matrix(WELL, np.geomspace(1e-3, 40.0, 160))
        fine = scattering_matrix(WELL, np.geomspace(1e-3, 40.0, 320))
        assert abs(phase_winding(coarse) - phase_winding(fine)) <= 1e-3


class TestResonanceDetection:
    # the |t(0)| fit of the oracle on the head of the curve; the library
    # reads the flag from the zero-energy solution (TestLevinson)
    def test_free_line_is_resonant(self):
        # t == 1 identically: the flat threshold is a half-bound state
        flag, evidence = resonance_detect(scattering_matrix(Potential.free()))
        assert flag == 1
        assert evidence == pytest.approx(1.0, abs=1e-6)

    def test_generic_well_not_resonant(self, scan_curves):
        flag, evidence = resonance_detect(scan_curves[2.0])
        assert flag == 0
        assert evidence <= 1e-3

    def test_tuned_well_resonant(self, resonant_curve):
        flag, evidence = resonance_detect(resonant_curve)
        assert flag == 1
        assert evidence >= 0.99

    def test_reads_the_curve_head(self, resonant_curve, monkeypatch):
        # about 50 samples of K_GRID lie on k in [1e-3, 1e-2]; the fit runs
        # no sweep of its own
        def no_transfer(*args, **kwargs):
            raise AssertionError("resonance_detect ran a transfer sweep")

        monkeypatch.setattr(scattering, "transfer_matrices", no_transfer)
        assert np.count_nonzero(resonant_curve.k_samples <= 1e-2) == 51
        assert resonance_detect(resonant_curve)[0] == 1

    def test_curve_without_threshold_samples_rejected(self):
        curve = scattering_matrix(WELL, np.geomspace(2e-2, 20.0, 48))
        with pytest.raises(RangeError):
            resonance_detect(curve)

    def test_guard_band_is_inconclusive(self):
        # detune until the extrapolated threshold transmission lands inside
        # the guard band; the detector must refuse rather than guess
        base = find_resonant_depth()
        lo, hi = 0.0, 0.05
        flagged = False
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            curve = scattering_matrix(Potential.square_well(base - mid, 1.0))
            try:
                flag, _ = resonance_detect(curve)
            except InconclusiveError:
                flagged = True
                break
            if flag == 1:
                lo = mid
            else:
                hi = mid
        assert flagged

    def test_resonant_depth_location(self, resonant_depth):
        assert resonant_depth == pytest.approx((np.pi / 2.0) ** 2, abs=1e-6)

    @pytest.mark.parametrize("half_width", [0.5, 0.7, 1.0, 1.5, 3.0])
    def test_resonant_depth_is_first_resonance(self, half_width):
        # a half-bound state of the square well needs 2 a sqrt(D) = pi
        depth = find_resonant_depth(half_width)
        assert depth == pytest.approx((np.pi / (2.0 * half_width)) ** 2, rel=1e-13)

    @pytest.mark.parametrize("half_width", [0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
    def test_resonant_depth_matches_brentq_oracle(self, half_width, monkeypatch):
        # the same steps as scipy's brentq on the same chain entry: the same
        # root to the last bit, from at most the 10 chain evaluations it needs
        expected = resonant_depth_brentq(half_width)
        chain = scattering._slab_chain
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return chain(*args, **kwargs)

        monkeypatch.setattr(scattering, "_slab_chain", spy)
        depth = find_resonant_depth(half_width)
        assert type(depth) is float
        assert depth == expected
        assert len(calls) <= 10

    def test_resonant_depth_needs_no_amplitude_frame(self, monkeypatch):
        def no_transfer(*args, **kwargs):
            raise AssertionError("find_resonant_depth ran a transfer sweep")

        monkeypatch.setattr(scattering, "transfer_matrices", no_transfer)
        assert find_resonant_depth() == pytest.approx((np.pi / 2.0) ** 2, rel=1e-13)


class TestLevinson:
    def test_free_potential(self):
        report = levinson_check(Potential.free())
        assert report.n_bound == 0
        assert abs(report.phase_winding) <= 1e-6
        assert report.residual <= 1e-6
        assert report.accepted

    def test_scan_wells_accepted(self, levinson_reports, bound_counts):
        reports, _, _ = levinson_reports
        for depth, report in reports.items():
            assert report.accepted, f"depth {depth}: residual {report.residual}"
            assert report.n_bound == bound_counts[depth]
            assert report.resonance_flag == 0

    def test_resonant_well_accepted(self, levinson_reports):
        _, resonant, _ = levinson_reports
        assert resonant.resonance_flag == 1
        assert resonant.accepted
        assert resonant.n_bound == 1

    def test_one_transfer_sweep_per_well(self, monkeypatch):
        # the curve is the only sweep: the bound-state count and the
        # resonance flag run on the slab runs at k = 0
        sweep = scattering.transfer_matrices
        calls = []

        def spy(v, k, *args, **kwargs):
            calls.append(len(k))
            return sweep(v, k, *args, **kwargs)

        monkeypatch.setattr(scattering, "transfer_matrices", spy)
        report = levinson_check(WELL)
        assert len(report.curve.k_samples) == len(scattering.K_GRID)  # unrefined
        assert calls == [len(scattering.K_GRID)]
        assert report.accepted and report.n_bound == 1

    @pytest.mark.parametrize("make_well", [
        pytest.param(Potential.free, id="free"),
        *(pytest.param(lambda d=d: Potential.square_well(d, 1.0), id=f"depth-{d:g}")
          for d in (0.5, 1.0, 2.0, 5.0, 10.0, 25.0)),
        *(pytest.param(lambda a=a: Potential.square_well(find_resonant_depth(a), a),
                       id=f"resonant-{a:g}")
          for a in (0.5, 1.0, 1.5, 2.0)),
    ])
    def test_flag_agrees_with_transmission_fit(self, make_well):
        # the oracle's |t(0)| fit is conclusive on the free line, the scan
        # depths and the first resonance of four widths; the zero-energy
        # pass reads the same flag there
        report = levinson_check(make_well())
        flag, _ = resonance_detect(report.curve)
        assert report.resonance_flag == flag
        assert report.accepted
        assert (abs(report.resonance_evidence) <= scattering.HALF_BOUND_TOL) == (flag == 1)

    def test_report_carries_convention(self, levinson_reports):
        reports, _, _ = levinson_reports
        assert "arg det S" in reports[2.0].convention


class TestExpResample:
    def test_free_curve_constant_identity(self):
        curve = scattering_matrix(
            Potential.free(), np.geomspace(1e-3, 2000.0, 96)
        )
        lcurve = exp_resample(curve)
        assert np.max(np.abs(lcurve.s_matrices - np.eye(2))) <= 1e-10
        assert np.max(np.abs(lcurve.s_minus_inf - np.eye(2))) <= 1e-10

    def test_uniform_lambda_spacing(self, scan_curves):
        # lambda is 2 ln k at the samples themselves, so uniform on the
        # geometric grid, and S is the parity rotation of the sampled matrices
        curve = scan_curves[2.0]
        lcurve = exp_resample(curve)
        hadamard = scattering._HADAMARD
        rotated = _mul2(_mul2(hadamard, curve.s_matrices), hadamard)
        assert np.array_equal(lcurve.lam, 2.0 * np.log(curve.k_samples))
        assert np.array_equal(lcurve.s_matrices, rotated)
        # the einsum form of the same rotation agrees to rounding
        by_einsum = np.einsum("ij,kjl,lm->kim", hadamard, curve.s_matrices, hadamard)
        eps = np.finfo(float).eps
        bound = 4.0 * eps * np.max(np.abs(curve.s_matrices))
        assert np.max(np.abs(lcurve.s_matrices - by_einsum)) <= bound

    def test_generic_threshold_limit_is_parity_diagonal(self, scan_curves):
        for depth in (0.5, 2.0, 25.0):
            lcurve = exp_resample(scan_curves[depth])
            limit = lcurve.s_minus_inf
            target = np.diag([1.0, -1.0])
            dist = min(
                np.max(np.abs(limit - target)), np.max(np.abs(limit + target))
            )
            assert dist <= 0.05, f"depth {depth}"

    def test_det_continuous_along_line(self, scan_curves):
        lcurve = exp_resample(scan_curves[25.0])
        dets = (lcurve.s_matrices[:, 0, 0] * lcurve.s_matrices[:, 1, 1]
                - lcurve.s_matrices[:, 0, 1] * lcurve.s_matrices[:, 1, 0])
        jumps = np.abs(np.diff(np.angle(dets)))
        jumps = np.minimum(jumps, 2.0 * np.pi - jumps)
        assert np.max(jumps) <= np.pi / 2

    def test_short_curve_rejected(self):
        curve = scattering_matrix(WELL, np.geomspace(0.1, 10.0, 48))
        with pytest.raises(RangeError):
            exp_resample(curve)


class TestSigmaFactor:
    def test_trivial_branch(self):
        sigma = build_sigma(np.eye(2, dtype=complex))
        assert sigma.branch == "trivial"
        assert witten_index_sigma(sigma) == 0.0

    def test_antidiagonal_branch_both_signs(self):
        for target in (np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])):
            sigma = build_sigma(target.astype(complex))
            assert sigma.branch == "antidiagonal-limit"
            low = sigma.evaluator(-1e9)
            high = sigma.evaluator(1e9)
            assert np.max(np.abs(low - target)) <= 1e-8
            assert np.max(np.abs(high - np.eye(2))) <= 1e-8
            assert witten_index_sigma(sigma) == pytest.approx(0.5, abs=1e-6)

    def test_general_branch_theta(self):
        limit = np.diag([np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)])
        sigma = build_sigma(limit)
        assert sigma.branch == "general-unitary"
        phases = np.sort(np.angle(np.linalg.eigvals(sigma.evaluator(-1e9))))
        assert phases == pytest.approx([-np.pi / 3, np.pi / 3])
        assert np.max(np.abs(sigma.evaluator(-1e9) - limit)) <= 1e-6
        assert witten_index_sigma(sigma) == pytest.approx(0.0, abs=1e-6)

    def test_general_branch_rotated_conjugator(self):
        # a non-diagonal det = +1 limit exercises the eigenframe path
        c, s = np.cos(0.4), np.sin(0.4)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        limit = u @ np.diag([np.exp(-1j * 0.8), np.exp(1j * 0.8)]) @ u.conj().T
        sigma = build_sigma(limit)
        assert sigma.branch == "general-unitary"
        assert np.max(np.abs(sigma.evaluator(-1e9) - limit)) <= 1e-6
        assert witten_index_sigma(sigma) == pytest.approx(0.0, abs=1e-6)

    def test_minus_identity_limit(self):
        sigma = build_sigma(-np.eye(2, dtype=complex))
        assert sigma.branch == "general-unitary"
        phases = np.sort(np.angle(np.linalg.eigvals(sigma.evaluator(-1e9))))
        assert phases == pytest.approx([-np.pi, np.pi])
        assert witten_index_sigma(sigma) == pytest.approx(0.0, abs=1e-6)

    def test_derivative_consistency(self):
        # sigma* dsigma/dlambda = i Phi_sigma links evaluator and profile,
        # also for a det = +1 limit with complex eigenvectors: q is a random
        # complex unitary (QR of a complex Gaussian matrix)
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        limits = {
            "antidiagonal-limit": np.diag([1.0, -1.0]).astype(complex),
            "general-unitary": q @ np.diag([np.exp(-1j * np.pi / 3),
                                            np.exp(1j * np.pi / 3)]) @ q.conj().T,
        }
        lam, eps = 0.7, 1e-6
        for branch, limit in limits.items():
            sigma = build_sigma(limit)
            assert sigma.branch == branch
            numeric = sigma.evaluator(lam).conj().T @ (
                (sigma.evaluator(lam + eps) - sigma.evaluator(lam - eps)) / (2 * eps)
            )
            assert np.max(np.abs(numeric - 1j * sigma.profile(lam))) <= 1e-6, branch

    @pytest.mark.parametrize("limit", [
        np.eye(2), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]),
        np.diag([np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)]),
    ], ids=["trivial", "hot-slot-1", "hot-slot-0", "general-pi/3"])
    def test_array_lambda_matches_scalar_calls(self, limit):
        sigma = build_sigma(np.asarray(limit, dtype=complex))
        lam = np.concatenate((-np.geomspace(1e9, 1e-3, 40), [0.0],
                              np.linspace(-3.0, 3.0, 25), np.geomspace(1e-3, 1e9, 40)))
        for f in (sigma.evaluator, sigma.profile):
            stacked = f(lam)
            assert stacked.shape == (len(lam), 2, 2)
            assert np.array_equal(stacked, np.array([f(float(l)) for l in lam]))
            assert f(0.7).shape == (2, 2)

    def test_non_unitary_input_rejected(self):
        with pytest.raises(DomainError):
            build_sigma(np.diag([1.0, 0.5]).astype(complex))

    def test_unsupported_determinant_rejected(self):
        with pytest.raises(DomainError):
            build_sigma(np.diag([1.0, 1j]))


class TestCorrectedIndex:
    def test_free_with_trivial_sigma(self):
        curve = scattering_matrix(
            Potential.free(), np.geomspace(1e-3, 2000.0, 96)
        )
        lcurve = exp_resample(curve)
        sigma = build_sigma(lcurve.s_minus_inf)
        report = corrected_index(lcurve, sigma)
        assert sigma.branch == "trivial"
        assert report.fredholm_index == 0
        assert abs(report.w_scattering) <= 0.01
        assert report.w_sigma == 0.0

    def test_index_equals_bound_states(self, corrected_reports, bound_counts):
        reports, _ = corrected_reports
        for key, (report, _) in reports.items():
            assert report.fredholm_index == bound_counts[key], f"well {key}"

    def test_decomposition_sums_to_index(self, corrected_reports):
        reports, _ = corrected_reports
        for key, (report, _) in reports.items():
            assert report.residual <= 0.05, f"well {key}"

    def test_generic_wells_split_half_integer(self, corrected_reports):
        reports, _ = corrected_reports
        for key, (report, sigma) in reports.items():
            if key == "resonant":
                continue
            assert sigma.branch == "antidiagonal-limit"
            assert report.w_sigma == pytest.approx(0.5, abs=1e-6)
            doubled = 2.0 * report.w_scattering
            assert abs(doubled - round(doubled)) <= 0.1
            assert round(doubled) % 2 == 1  # genuinely half-integer

    def test_resonant_well_split_integer(self, corrected_reports):
        reports, _ = corrected_reports
        report, sigma = reports["resonant"]
        assert sigma.branch == "general-unitary"
        # the eigen-frame weights +-theta/pi cancel exactly
        assert report.w_sigma == 0.0
        assert abs(report.w_scattering - round(report.w_scattering)) <= 0.05

    def test_mismatched_sigma_rejected(self, scan_curves):
        lcurve = exp_resample(scan_curves[2.0])
        wrong = build_sigma(np.eye(2, dtype=complex))
        with pytest.raises(DomainError):
            corrected_index(lcurve, wrong)


class TestTraceClassEvidence:
    def test_corrected_symbol_commutator_is_summable(self, scan_curves):
        # evidence (not proof) that the corrected symbol generates a
        # trace-summable commutator with the line momentum: the singular
        # values of S sigma* [D, S sigma*] decay fast enough that their sum
        # stabilises under lambda-grid refinement
        lcurve = exp_resample(scan_curves[2.0])
        sigma = build_sigma(lcurve.s_minus_inf)
        sums = []
        for points in (200, 400):
            lam = np.linspace(lcurve.lam[0], lcurve.lam[-1], points)
            spacing = lam[1] - lam[0]
            values = np.array([
                np.interp(lam, lcurve.lam, lcurve.s_matrices[:, i, j].real)
                + 1j * np.interp(lam, lcurve.lam, lcurve.s_matrices[:, i, j].imag)
                for i in range(2) for j in range(2)
            ]).T.reshape(points, 2, 2)
            sig = np.array([sigma.evaluator(l) for l in lam])
            m = np.einsum("kij,klj->kil", values, sig.conj())
            derivative = np.gradient(m, spacing, axis=0)
            commutator_blocks = np.einsum("kji,kjl->kil", m.conj(), derivative)
            flat = np.zeros((2 * points, 2 * points), dtype=complex)
            for idx in range(points):
                flat[2 * idx:2 * idx + 2, 2 * idx:2 * idx + 2] = (
                    commutator_blocks[idx] * spacing
                )
            sums.append(np.sum(np.linalg.svd(flat, compute_uv=False)))
        assert abs(sums[1] - sums[0]) <= 0.05 * max(sums)
