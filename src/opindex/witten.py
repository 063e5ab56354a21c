"""Heat-trace index estimates for discretized 1D Dirac-type pairs.

The base operator is the self-adjoint momentum d/(i dx) realised by Fourier
spectral differentiation on a periodic grid, perturbed by a decaying
multiplication bump.  The regularised index of the pair is recovered two
independent ways:

* a closed-form integral of the bump profile, and
* the large-t plateau of the heat-trace expression
  sqrt(t/pi) * integral_1^2 tr(exp(-t A_s^2) B) ds,  A_s = A_1 + (s-1) B,

plus a third route through the suspension operator on a product grid.  On a
finite periodic grid the t -> infinity limit eventually degenerates into
zero-mode counting, so plateau detection enforces the validity ceiling
t <= (L/pi)^2 / 4 before trusting any sample.

For finite matrices tr(exp(-t A_s^2) B) is the s-derivative of
(1/2) sqrt(pi/t) tr erf(sqrt(t) A_s), so the s-integral telescopes exactly to
Krein's spectral-shift form (1/2) tr[erf(sqrt(t) A_2) - erf(sqrt(t) A_1)]
with A_2 = A_1 + B.  The heat-trace curve is evaluated that way, from the
eigenvalues of the two endpoints alone.  The s-quadrature survives only in
``path_splitting_check``, which tests the trace-derivative formula along the
path, and as an independent oracle in the test suite.

Both of those routes solve real symmetric eigenproblems whenever they can.
The discretised d/(i dx) commutes exactly with the antiunitary
(Kf)_j = conj f_{(n-j) mod n}, parity on the periodic grid followed by
complex conjugation, and a bump commutes with it when Phi(-x) = conj Phi(x),
as every real even profile does (the Lorentzians among them).  An operator
that commutes with K is real in the orthonormal basis that K fixes (Dyson's
threefold way), so ``_real_form`` pairs sites j and n - j by slices, keeps
the real part when the imaginary part is at rounding level, and LAPACK's
real ``dsyevr`` does the solve for about a quarter of the complex flops.
That measured test is the only switch: a profile without the symmetry,
such as an odd off-diagonal coupling, is solved in complex arithmetic as
before.

For the suspension route note that tr f(D D^H) = tr f(D^H D) identically for
every *square* matrix D, so a full trace of the heat difference on a finite
product grid is exactly zero and carries no information.  The suspension is
therefore assembled on a time circle with a smooth rise/fall pair of
transitions (the profile goes 0 -> 1 across the first half and back across
the second), and the reported trace runs over the rise half only, where it
reproduces the line-model value; the fall half carries the compensating
contribution.  This is the same finite-truncation obstruction that forces
the defect-trace form of the shift-lattice index formula.

Both heat generators come from one SVD D = U S V^H, as D D^H = U S^2 U^H
and D^H D = V S^2 V^H; forming either Gram product would square the
condition number of D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.linalg import circulant
from scipy.special import erf as _erf

from .constants import (
    CLOSED_FORM_ABS_TOL,
    DECAY_CERT_MAX,
    DENSE_BUDGET_BYTES,
    HEAT_TAIL_ABS_TOL,
    INPUT_HERMITIAN_REL_TOL,
    K_REAL_REL_TOL,
    PLATEAU_DIFF_TOL,
    PLATEAU_MIN_SAMPLES,
    T_CEILING_FACTOR,
    THETA_TAIL_TOL,
    WITTEN_SIGN,
)
from .errors import DomainError, InsufficientDecayError, NonConvergenceError
from .linalg import herm_eig, herm_eigvals, require_hermitian, svd


# ---------------------------------------------------------------------------
# grids and operators


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_width, half_width)."""

    half_width: float
    points: int

    def __post_init__(self):
        if self.points < 16 or self.points % 2 != 0:
            raise DomainError(f"points must be even and >= 16, got {self.points}")
        if self.spacing >= 1.0:
            raise DomainError(
                f"grid spacing {self.spacing:.3f} too coarse for the default profiles"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    def points_array(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def t_ceiling(self) -> float:
        """Largest heat time before discrete spectral gaps fake convergence."""
        return T_CEILING_FACTOR * (self.half_width / np.pi) ** 2


DEFAULT_GRID = GridSpec(half_width=40.0, points=1024)


@dataclass(frozen=True)
class LatticeOperator:
    """Dense Hermitian operator over a grid (n*dim square)."""

    matrix: np.ndarray = field(repr=False)
    grid: GridSpec
    dim: int = 1

    def __post_init__(self):
        n = self.grid.points * self.dim
        if self.matrix.shape != (n, n):
            raise DomainError(
                f"matrix shape {self.matrix.shape} does not match grid size {n}"
            )
        require_hermitian(self.matrix)


def _require_dense_budget(rows: int, copies: int, what: str) -> None:
    """Refuse ``copies`` dense complex rows x rows matrices over the budget."""
    need = copies * rows * rows * np.dtype(complex).itemsize
    if need > DENSE_BUDGET_BYTES:
        raise DomainError(
            f"{what} needs {need / 2**30:.3g} GiB ({copies} x {rows}^2 complex "
            f"entries), above the {DENSE_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )


def _fourier_multiplier(grid: GridSpec, factor: complex) -> np.ndarray:
    """The multiplier factor * k on the discrete plane waves exp(i k x).

    k = m pi / L for m = -n/2 .. n/2 - 1.  The operator is circulant, so
    entry (i, j) is col[(i - j) % n] with col the inverse FFT of the symbol.
    """
    n = grid.points
    k = (np.arange(n) - n // 2) * (np.pi / grid.half_width)
    return circulant(np.fft.ifft(np.fft.ifftshift(factor * k)))


def discretize_dirac(grid: GridSpec, dim: int = 1) -> LatticeOperator:
    """Momentum operator d/(i dx) by Fourier spectral differentiation.

    Eigenvectors are the discrete plane waves exp(i pi m x / L) and the
    eigenvalues the frequencies m pi / L for m = -n/2 .. n/2 - 1; the matrix
    is Hermitian by construction.
    """
    _require_dense_budget(grid.points * dim, 1, "the Dirac operator")
    mat = _fourier_multiplier(grid, 1.0)
    mat = 0.5 * (mat + mat.conj().T)
    if dim > 1:
        mat = np.kron(mat, np.eye(dim))
    return LatticeOperator(matrix=mat, grid=grid, dim=dim)


def spectral_time_derivative(grid: GridSpec) -> np.ndarray:
    """Skew-adjoint d/dt on the periodic grid, via the same plane waves."""
    mat = _fourier_multiplier(grid, 1j)
    return 0.5 * (mat - mat.conj().T)


# ---------------------------------------------------------------------------
# perturbation profiles


@dataclass(frozen=True)
class PerturbationProfile:
    """Hermitian multiplication bump x -> Phi(x), dim x dim valued.

    ``decay_certificate`` is sup |Phi(x)| (1 + x^2) over a wide probe grid;
    profiles whose certificate stays below the library bound are eligible
    for the closed-form index integral.  ``mu`` records the nominal scale
    of scaled families (the evaluator already includes it).
    """

    evaluator: Callable[[float], np.ndarray | float]
    dim: int = 1
    mu: float = 1.0
    decay_certificate: float = field(init=False)

    def __post_init__(self):
        probe = np.linspace(-200.0, 200.0, 2001)
        worst = 0.0
        for x in probe[:: len(probe) // 200]:
            v = self.value(float(x))
            herm = float(np.max(np.abs(v - v.conj().T)))
            if herm > INPUT_HERMITIAN_REL_TOL * max(1.0, float(np.max(np.abs(v)))):
                raise DomainError(f"profile value at x={x} is not Hermitian")
        for x in probe:
            v = self.value(float(x))
            worst = max(worst, float(np.max(np.abs(v))) * (1.0 + x * x))
        object.__setattr__(self, "decay_certificate", worst)

    def value(self, x: float) -> np.ndarray:
        v = np.asarray(self.evaluator(x), dtype=complex)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        if v.shape != (self.dim, self.dim):
            raise DomainError(
                f"profile value shape {v.shape} does not match dim {self.dim}"
            )
        return v

    def trace_at(self, x: float) -> float:
        return float(np.trace(self.value(x)).real)

    @property
    def has_decay(self) -> bool:
        return self.decay_certificate <= DECAY_CERT_MAX

    @classmethod
    def lorentzian(cls, mu: float = 1.0) -> "PerturbationProfile":
        """The scaled bump mu / (1 + x^2), the default example family."""
        return cls(evaluator=lambda x: mu / (1.0 + x * x), dim=1, mu=mu)

    @classmethod
    def zero(cls, dim: int = 1) -> "PerturbationProfile":
        return cls(evaluator=lambda x: np.zeros((dim, dim)), dim=dim, mu=0.0)

    def __add__(self, other: "PerturbationProfile") -> "PerturbationProfile":
        if self.dim != other.dim:
            raise DomainError("cannot add profiles of different dim")
        mine, theirs = self.value, other.value
        return PerturbationProfile(
            evaluator=lambda x: mine(x) + theirs(x),
            dim=self.dim,
            mu=self.mu + other.mu,
        )


def multiplication_operator(profile: PerturbationProfile, grid: GridSpec) -> np.ndarray:
    """Block-diagonal matrix of the bump sampled on the grid."""
    n, d = grid.points, profile.dim
    _require_dense_budget(n * d, 1, "the multiplication operator")
    out = np.zeros((n * d, n * d), dtype=complex)
    for i, x in enumerate(grid.points_array()):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = profile.value(float(x))
    return out


# ---------------------------------------------------------------------------
# the K-real form of grid operators


def _pair_rows(x: np.ndarray, out: np.ndarray, points: int, dim: int,
               sin_phase: complex) -> None:
    """Write Q^T x (sin_phase = 1j) or Q^H x (sin_phase = -1j) into ``out``.

    The rows of ``out`` follow the columns of Q: sites 0 and n/2, then
    (e_j + e_{n-j})/sqrt 2 and i (e_j - e_{n-j})/sqrt 2 for j = 1 .. n/2 - 1,
    each with the dim components of a site.  ``x`` and ``out`` may be
    transposed views; numpy then walks both in memory order.
    """
    m = points // 2
    sites = x.reshape(points, dim, -1)
    paired = out.reshape(sites.shape, copy=False)
    paired[0], paired[1] = sites[0], sites[m]
    cos, sin = paired[2:m + 1], paired[m + 1:]
    lo, hi = sites[1:m], sites[points - 1:m:-1]
    np.add(lo, hi, out=cos)
    cos *= np.sqrt(0.5)
    np.subtract(lo, hi, out=sin)
    sin *= sin_phase * np.sqrt(0.5)


def _real_form(matrix: np.ndarray, grid: GridSpec, dim: int) -> np.ndarray | None:
    """Q^H M Q for the unitary Q whose columns K fixes, if that is real.

    K is the antiunitary (Kf)_j = conj f_{(n-j) mod n}; Q is described in
    ``_pair_rows``.  Q^H M Q is real exactly when M commutes with K, so the
    real part is returned when the imaginary part is below K_REAL_REL_TOL
    max|M|, and None otherwise.  O(n^2): rows and columns are paired by
    slices, with no matrix product.
    """
    n = grid.points
    cols = np.empty(matrix.shape, dtype=complex)
    _pair_rows(matrix.T, cols.T, n, dim, 1j)  # M Q = (Q^T M^T)^T
    form = np.empty(matrix.shape, dtype=complex)
    _pair_rows(cols, form, n, dim, -1j)
    del cols  # one complex n x n buffer fewer while the real copy is made
    scale = max(float(np.max(np.abs(matrix))), 1e-300)
    if np.max(np.abs(form.imag)) > K_REAL_REL_TOL * scale:
        return None
    return np.ascontiguousarray(form.real)


def _from_real_form(w: np.ndarray, grid: GridSpec, dim: int) -> np.ndarray:
    """Q w: columns of K-basis coefficients as site-major vectors, O(n k)."""
    n, m = grid.points, grid.points // 2
    coeff = w.reshape(n, dim, -1)
    cos, sin = coeff[2:m + 1], 1j * coeff[m + 1:]
    out = np.empty(coeff.shape, dtype=complex)
    out[0], out[m] = coeff[0], coeff[1]
    r = np.sqrt(0.5)
    out[1:m] = r * (cos + sin)
    out[n - 1:m:-1] = r * (cos - sin)
    return out.reshape(n * dim, -1)


# ---------------------------------------------------------------------------
# heat-trace side


def _heat_trace_curve(
    a1: LatticeOperator, b: PerturbationProfile, times: np.ndarray
) -> np.ndarray:
    """sqrt(t/pi) * integral_1^2 tr(exp(-t A_s^2) B) ds at each t, exactly.

    Evaluated as (1/2) tr[erf(sqrt(t) A_2) - erf(sqrt(t) A_1)] with
    A_2 = A_1 + B; subtracting the two ascending spectra term by term sums
    small differences instead of cancelling two sums of n unit-size terms.
    """
    b_mat = multiplication_operator(b, a1.grid)
    if not np.any(b_mat):
        return np.zeros(len(times))
    base = _real_form(a1.matrix, a1.grid, a1.dim)
    step = _real_form(b_mat, a1.grid, a1.dim)
    if base is None or step is None:
        base, step = a1.matrix, b_mat
    lam1 = herm_eigvals(base)
    lam2 = herm_eigvals(base + step)
    root = np.sqrt(np.asarray(times, dtype=float))[:, None]
    shift = _erf(root * lam2) - _erf(root * lam1)
    return WITTEN_SIGN * 0.5 * np.sum(shift, axis=1)


def heat_trace_rhs(a1: LatticeOperator, b: PerturbationProfile, t: float) -> float:
    """The s-integral side of the trace identity at a single heat time.

    sqrt(t/pi) * integral_1^2 tr(exp(-t A_s^2) B) ds with A_s = A_1 + (s-1) B,
    evaluated exactly through its telescoped erf form, in the calibrated
    positive orientation (unit Lorentzian bump -> +1/2 at large t).
    """
    if t <= 0:
        raise DomainError(f"heat time must be positive, got {t}")
    return float(_heat_trace_curve(a1, b, np.array([t]))[0])


@dataclass(frozen=True)
class WittenEstimate:
    """Plateau of the heat-trace curve over a geometric t-schedule."""

    t_samples: np.ndarray
    rhs_values: np.ndarray
    plateau_value: float
    plateau_window: tuple[float, float]
    uncertainty: float


def default_t_schedule(grid: GridSpec) -> np.ndarray:
    """Geometric schedule (ratio sqrt 2) from t = 1 up to the grid ceiling."""
    top = min(32.0, grid.t_ceiling())
    count = max(8, int(np.floor(2.0 * np.log2(top))) + 1)
    return np.geomspace(1.0, top, count)


def _find_plateau(t_valid: np.ndarray, values: np.ndarray):
    """Longest run of consecutive samples differing by < PLATEAU_DIFF_TOL."""
    diffs = np.abs(np.diff(values))
    best = None  # (length, start, end) with end inclusive
    start = 0
    for i, d in enumerate(diffs):
        if d >= PLATEAU_DIFF_TOL:
            start = i + 1
            continue
        length = i + 1 - start + 1
        if best is None or length >= best[0]:
            best = (length, start, i + 1)
    if best is None or best[0] < PLATEAU_MIN_SAMPLES:
        raise NonConvergenceError(
            "no plateau of sufficient length in the heat-trace curve",
            t_samples=t_valid,
            values=values,
        )
    _, lo, hi = best
    window = values[lo:hi + 1]
    value = float(np.mean(window))
    return value, (float(t_valid[lo]), float(t_valid[hi])), float(
        np.max(np.abs(window - value))
    )


def witten_index_estimate(
    a1: LatticeOperator,
    b: PerturbationProfile,
    t_schedule: np.ndarray | None = None,
) -> WittenEstimate:
    """Plateau estimate of the pair index from the heat-trace curve.

    Samples beyond the finite-grid validity ceiling are discarded before
    plateau detection; failure to find a plateau of at least five samples
    raises NonConvergenceError carrying the curve.
    """
    sched = np.asarray(
        default_t_schedule(a1.grid) if t_schedule is None else t_schedule, dtype=float
    )
    if len(sched) < 8:
        raise DomainError("t schedule must contain at least 8 points")
    if np.any(np.diff(sched) <= 0) or sched[0] <= 0:
        raise DomainError("t schedule must be positive and ascending")
    valid = sched[sched <= a1.grid.t_ceiling()]
    if len(valid) < PLATEAU_MIN_SAMPLES:
        raise NonConvergenceError(
            "t schedule has too few samples below the grid ceiling "
            f"{a1.grid.t_ceiling():.2f}",
            t_samples=sched,
            values=None,
        )
    values = _heat_trace_curve(a1, b, valid)
    value, window, uncertainty = _find_plateau(valid, values)
    return WittenEstimate(
        t_samples=valid,
        rhs_values=values,
        plateau_value=value,
        plateau_window=window,
        uncertainty=uncertainty,
    )


def witten_index_closed_form(b: PerturbationProfile) -> float:
    """The closed-form pair index (1 / 2 pi) integral of tr Phi.

    Adaptive quadrature over the whole line; requires the decay certificate
    so the tail is controlled, and insists on an absolute error below the
    library budget.
    """
    if not b.has_decay:
        raise InsufficientDecayError(
            f"decay certificate {b.decay_certificate:.3e} exceeds "
            f"{DECAY_CERT_MAX:.1e}; closed form unavailable"
        )
    value, err = quad(
        b.trace_at, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400
    )
    if err > CLOSED_FORM_ABS_TOL:
        raise InsufficientDecayError(
            f"quadrature error {err:.2e} above {CLOSED_FORM_ABS_TOL:.1e}"
        )
    return value / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# connection profiles and the suspension operator


@dataclass(frozen=True)
class ThetaProfile:
    """Monotone connection profile rising from 0 to 1 across the line."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    tag: str

    @classmethod
    def logistic(cls) -> "ThetaProfile":
        return cls(evaluator=lambda t: 0.5 * (1.0 + np.tanh(t)), tag="logistic")

    @classmethod
    def erf_profile(cls) -> "ThetaProfile":
        return cls(evaluator=lambda t: 0.5 * (1.0 + _erf(t)), tag="erf")


@dataclass(frozen=True)
class SuspensionOperator:
    """Dense realisation of d/dt + A_1 + theta(t) B on a (t, x) product grid.

    ``theta_samples`` are the values actually placed on the time circle
    (rise centred at -L_t/2, mirrored fall at +L_t/2) and ``window_mask``
    marks the rows of the rise half over which traces are reported.
    """

    matrix: np.ndarray = field(repr=False)
    t_grid: GridSpec
    x_grid: GridSpec
    theta: ThetaProfile
    theta_samples: np.ndarray = field(repr=False)
    window_mask: np.ndarray = field(repr=False)


def build_suspension(
    a1: LatticeOperator,
    b: PerturbationProfile,
    theta: ThetaProfile,
    t_grid: GridSpec,
    x_grid: GridSpec,
) -> SuspensionOperator:
    """Assemble the suspension of the pair (A_1, A_1 + B) on a product grid.

    The connection profile must be within THETA_TAIL_TOL of 0 and 1 a
    half-width away from the transition centre; the rise and its
    mirrored fall are placed half a period apart so the operator is smooth
    across the periodic seam.
    """
    if a1.grid != x_grid:
        raise DomainError("base operator grid does not match the x grid")
    n_x = x_grid.points * b.dim
    # the SVD holds the most at once: D, LAPACK's working copy of it, U, V^H
    # and the gesdd workspace, measured at 6.5 dense copies on 48 x 48
    _require_dense_budget(t_grid.points * n_x, 7, "the suspension and its SVD")
    half = t_grid.half_width
    ends = np.asarray(theta.evaluator(np.array([-half, half])), dtype=float)
    if abs(ends[0]) > THETA_TAIL_TOL or abs(1.0 - ends[1]) > THETA_TAIL_TOL:
        raise DomainError(
            f"t grid too narrow: profile '{theta.tag}' reaches "
            f"{ends[0]:.2e}/{1 - ends[1]:.2e} at +-{half}"
        )
    t = t_grid.points_array()
    theta_samples = np.asarray(
        theta.evaluator(t + half / 2.0) - theta.evaluator(t - half / 2.0), dtype=float
    )
    d_t = spectral_time_derivative(t_grid)
    b_mat = multiplication_operator(b, x_grid)
    mat = (
        np.kron(d_t, np.eye(n_x))
        + np.kron(np.eye(t_grid.points), a1.matrix)
        + np.kron(np.diag(theta_samples.astype(complex)), b_mat)
    )
    window_mask = np.repeat(t < 0.0, n_x)
    return SuspensionOperator(
        matrix=mat,
        t_grid=t_grid,
        x_grid=x_grid,
        theta=theta,
        theta_samples=theta_samples,
        window_mask=window_mask,
    )


@dataclass(frozen=True)
class SuspensionSpectrum:
    """s^2 of D = U diag(s) V^H, the spectrum of both D D^H = U s^2 U^H and
    D^H D = V s^2 V^H, with the window row masses of the columns of U and V."""

    values: np.ndarray
    left_window_mass: np.ndarray
    right_window_mass: np.ndarray


def suspension_spectrum(d: SuspensionOperator) -> SuspensionSpectrum:
    """One SVD of D serves both heat generators; everything per-t is cheap after."""
    u, s, vh = svd(d.matrix)
    mask = d.window_mask
    return SuspensionSpectrum(
        values=s * s,
        left_window_mass=np.sum(np.abs(u[mask, :]) ** 2, axis=0),
        right_window_mass=np.sum(np.abs(vh[:, mask]) ** 2, axis=1),
    )


def ptf_lhs(
    d: SuspensionOperator,
    t: float,
    spectrum: SuspensionSpectrum | None = None,
) -> float:
    """Heat-trace difference of the suspension over the rise window.

    Computes tr_W(exp(-t D^H D) - exp(-t D D^H)) where W restricts rows to
    the half of the time circle holding the 0 -> 1 transition.  With B = 0
    the generators coincide and the value vanishes identically; otherwise
    it matches the s-integral side of the trace identity.
    """
    if t <= 0:
        raise DomainError(f"heat time must be positive, got {t}")
    sp = spectrum if spectrum is not None else suspension_spectrum(d)
    mass = sp.right_window_mass - sp.left_window_mass
    return WITTEN_SIGN * float(np.sum(np.exp(-t * sp.values) * mass))


# ---------------------------------------------------------------------------
# composition and path independence


@dataclass(frozen=True)
class CompositionReport:
    """Residuals of the pair-index addition rule along a two-step path."""

    closed_form_residual: float
    heat_residual: float
    closed_forms: tuple[float, float, float]
    estimates: tuple[WittenEstimate, WittenEstimate, WittenEstimate]


def check_composition(
    a1: LatticeOperator,
    b1: PerturbationProfile,
    b2: PerturbationProfile,
    t_schedule: np.ndarray | None = None,
) -> CompositionReport:
    """Verify index(A1,A2) + index(A2,A3) = index(A1,A3), two ways.

    A2 = A1 + B1 and A3 = A2 + B2.  The closed forms satisfy the rule by
    linearity of the profile integral; the heat estimates satisfy it up to
    plateau uncertainty.
    """
    if not (b1.has_decay and b2.has_decay):
        raise InsufficientDecayError("both profiles need decay certificates")
    b3 = b1 + b2
    cf = (
        witten_index_closed_form(b1),
        witten_index_closed_form(b2),
        witten_index_closed_form(b3),
    )
    a2 = LatticeOperator(
        matrix=a1.matrix + multiplication_operator(b1, a1.grid),
        grid=a1.grid,
        dim=a1.dim,
    )
    est = (
        witten_index_estimate(a1, b1, t_schedule),
        witten_index_estimate(a2, b2, t_schedule),
        witten_index_estimate(a1, b3, t_schedule),
    )
    return CompositionReport(
        closed_form_residual=abs(cf[0] + cf[1] - cf[2]),
        heat_residual=abs(
            est[0].plateau_value + est[1].plateau_value - est[2].plateau_value
        ),
        closed_forms=cf,
        estimates=est,
    )


@dataclass(frozen=True)
class PathSplitReport:
    """Both evaluations of the path-split s-integral and their difference."""

    residual: float
    direct: float
    first_leg: float
    second_leg: float


def path_splitting_check(
    a1: LatticeOperator,
    b1: PerturbationProfile,
    b2: PerturbationProfile,
    t: float,
    s_nodes: int = 8,
) -> PathSplitReport:
    """Path independence of the s-integral at a fixed heat time.

    Compares the straight path A1 -> A1 + B1 + B2 against the two-leg path
    through A1 + B1; the raw integrals (no sqrt(t/pi) scaling) are returned
    together with their absolute difference.  Each leg is integrated by
    ``s_nodes``-point Gauss-Legendre quadrature of the trace-derivative
    integrand, so the check exercises that formula rather than its
    telescoped closed form.

    At each node only the eigenpairs with lambda in (-c, c] are computed,
    with c = sqrt(ln(sum_xy |B_xy| / HEAT_TAIL_ABS_TOL) / t); by
    Cauchy-Schwarz over the unit rows of the eigenvector matrix the dropped
    pairs add at most HEAT_TAIL_ABS_TOL to the integrand.  The weights
    v^H B v of the kept pairs come from the d x d diagonal blocks of the
    multiplication operator B, so no dense product with B is formed.  When
    c reaches the bound n pi / 2L + max_x |Phi_base(x)| + max_x |Phi_step(x)|
    on the spectral radius of every A_s along the leg, the window would keep
    every pair and the full spectrum is solved instead, which is cheaper
    (51 against 37 ms at 512 real rows and 228 against 185 ms at 1024, on a
    2-core host; the bound takes A_1 to be the grid's d/(i dx); were it too
    small, the full solve would still be exact).
    When both endpoints of a leg have a K-real form, each node is solved
    there and its eigenvectors are mapped back to the grid; each distinct
    operator is paired into that form once per check.
    """
    if t <= 0:
        raise DomainError(f"heat time must be positive, got {t}")
    grid, d = a1.grid, b1.dim
    b1m = multiplication_operator(b1, grid)
    b2m = multiplication_operator(b2, grid)
    nodes, weights = leggauss(s_nodes)
    s_vals, s_weights = 1.5 + 0.5 * nodes, 0.5 * weights  # mapped to s in [1, 2]
    site = np.arange(grid.points)

    def site_blocks(m: np.ndarray) -> np.ndarray:
        return m.reshape(grid.points, d, grid.points, d)[site, :, site, :]

    def sup_norm(blocks: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(blocks, ord=2, axis=(1, 2))))

    def leg(base: np.ndarray, step: np.ndarray, real_base, real_step,
            base_radius: float) -> float:
        """integral_1^2 tr(exp(-t A_s^2) step) ds along A_s = base + (s-1) step.

        ``real_base`` and ``real_step`` are the K-real forms, or None.
        """
        blocks = site_blocks(step)
        mass = float(np.sum(np.abs(blocks)))
        if mass <= HEAT_TAIL_ABS_TOL:  # the whole leg is within the budget
            return 0.0
        within = np.sqrt(np.log(mass / HEAT_TAIL_ABS_TOL) / t)
        if within >= base_radius + sup_norm(blocks):
            within = None
        real = real_base is not None and real_step is not None
        if real:
            base, step = real_base, real_step
        total = 0.0
        for s, w in zip(s_vals, s_weights):
            es = herm_eig(base + (s - 1.0) * step, within=within)
            vectors = es.vectors
            if real:
                vectors = _from_real_form(vectors, grid, d)
            v = vectors.reshape(grid.points, d, -1)
            bw = np.einsum("xaj,xab,xbj->j", v.conj(), blocks, v).real
            total += w * float(np.sum(np.exp(-t * es.values * es.values) * bw))
        return total

    def real_sum(x, y):
        return None if x is None or y is None else x + y

    # each distinct operator is paired once (_real_form is linear); the sums
    # are formed as each leg starts, so no more than four real forms are held
    real_a1, real_b1, real_b2 = (_real_form(m, grid, d) for m in (a1.matrix, b1m, b2m))
    dirac_radius = grid.points * np.pi / (2.0 * grid.half_width)
    first = leg(a1.matrix, b1m, real_a1, real_b1, dirac_radius)
    second = leg(a1.matrix + b1m, b2m, real_sum(real_a1, real_b1), real_b2,
                 dirac_radius + sup_norm(site_blocks(b1m)))
    real_b3 = real_sum(real_b1, real_b2)
    if real_b3 is None:
        real_b3 = _real_form(b1m + b2m, grid, d)
    direct = leg(a1.matrix, b1m + b2m, real_a1, real_b3, dirac_radius)
    return PathSplitReport(
        residual=abs(direct - (first + second)),
        direct=direct,
        first_leg=first,
        second_leg=second,
    )
