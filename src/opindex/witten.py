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

Both of those routes, and the suspension, hold the operators in the
plane-wave basis F, the unitary DFT over the grid sites, where both are
known in closed form and no grid-space matrix is formed.  d/(i dx) is the
diagonal of the frequencies 2 pi fftfreq(n, h), so its spectrum needs no
eigensolve; a bump with site values Phi_j is the block circulant
[c_{(k - l) mod n}] of c = fft(Phi, axis=0) / n (Gray, Toeplitz and
Circulant Matrices: A Review, 2006).  The antiunitary
(Kf)_j = conj f_{(n-j) mod n}, parity on the periodic grid followed by
complex conjugation, is plain complex conjugation in this basis, so c is
real exactly when Phi(-x) = conj Phi(x), as for every real even profile
(the Lorentzians among them).  The real part of c is kept when its
imaginary part is at rounding level, and LAPACK's real ``dsyevr`` then does
the solve for about a quarter of the complex flops; a profile without the
symmetry, such as an odd off-diagonal coupling, is solved in complex
arithmetic.

For the suspension route note that tr f(D D^H) = tr f(D^H D) identically for
every *square* matrix D, so a full trace of the heat difference on a finite
product grid is exactly zero and carries no information.  The suspension is
therefore assembled on a time circle with a smooth rise/fall pair of
transitions (the profile goes 0 -> 1 across the first half and back across
the second), and the reported trace runs over the rise half only, where it
reproduces the line-model value; the fall half carries the compensating
contribution.  This is the same finite-truncation obstruction that forces
the defect-trace form of the shift-lattice index formula.

Both heat generators come from one Hermitian eigensolve, by time reversal.
Let P reflect the time circle, j -> (-j) mod n_t, and leave the x plane
waves alone.  Then D^H = P conj(D) P exactly: conj(P d_t P) = -d_t (the
Nyquist mode included), A_1 is real diagonal, the bump form is real (K
symmetry, above), and theta_j = theta_{-j} since theta(-s) = 1 - theta(s).
So D D^H = P conj(D^H D) P: with D^H D = V diag(lambda) V^H the left
singular vectors are P conj(V), and

    tr_W(exp(-t D^H D) - exp(-t D D^H))
        = sum_j exp(-t lambda_j) sum_i (1_W - 1_{P(W)})_i |V_ij|^2.

Only lambda = s^2 enters the heat weights, and ``evr`` returns it to about
eps ||D||^2 absolute, as an SVD would; solving the Gram matrix squares the
condition number of the singular values, not of the weights.  Inputs
without the symmetry (a theta profile that is not reflection-even, a bump
that is not K-symmetric) are refused.

D itself is never formed.  In the t-site (x) x-plane-wave basis it is
D = T (x) I + I (x) A_1 + Theta (x) B with T the spectral d/dt, A_1 the real
diagonal of frequencies, Theta = diag(theta_j) and B the real bump form, so

    D^H D = (T^H T) (x) I + (T o (theta_i - theta_j)) (x) B
            + blockdiag_i (A_1 + theta_i B)^2

exactly, the discrete -d^2/dt^2 + A(t)^2 - A'(t) of Gesztesy, Latushkin,
Makarov, Sukochev and Tomilov (Adv. Math. 227, 2011); the A_1 cross terms
cancel because T^H = -T.  It is filled in O(N^2) for N = n_t n_x rows, in
place of the O(N^3) product D^H D, and the solve holds only the Gram matrix
and its eigenvectors.

The dense kernels come from ``linalg``, the one module that calls scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.fft import fft, ifft
from numpy.lib.stride_tricks import as_strided
from numpy.polynomial.legendre import leggauss

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
    THETA_REFLECTION_TOL,
    THETA_TAIL_TOL,
    WITTEN_SIGN,
)
from .errors import DomainError, InsufficientDecayError, NonConvergenceError
from .linalg import herm_eig, herm_eigvals, line_integral

# the error function, elementwise on arrays; math.erf keeps scipy.special,
# and the start-up time it costs, off the import path
_erf = np.vectorize(math.erf, otypes=[float])


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


@dataclass(frozen=True)
class LatticeOperator:
    """The momentum d/(i dx) on a periodic grid, held by its plane-wave form:
    the diagonal of the grid frequencies, times I_dim for a bump of that dim.
    """

    grid: GridSpec

    def frequencies(self, dim: int = 1) -> np.ndarray:
        """Diagonal of the plane-wave form: m pi / L in DFT order, that is
        2 pi fftfreq(n, h), each repeated dim times."""
        grid = self.grid
        return np.repeat(2.0 * np.pi * np.fft.fftfreq(grid.points, grid.spacing), dim)


def _require_dense_budget(rows: int, copies: int, what: str) -> None:
    """Refuse ``copies`` dense complex rows x rows matrices over the budget."""
    need = copies * rows * rows * np.dtype(complex).itemsize
    if need > DENSE_BUDGET_BYTES:
        raise DomainError(
            f"{what} needs {need / 2**30:.3g} GiB ({copies} x {rows}^2 complex "
            f"entries), above the {DENSE_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )


def discretize_dirac(grid: GridSpec) -> LatticeOperator:
    """Momentum operator d/(i dx) by Fourier spectral differentiation.

    Eigenvectors are the discrete plane waves exp(i pi m x / L) and the
    eigenvalues the frequencies m pi / L for m = -n/2 .. n/2 - 1.
    """
    return LatticeOperator(grid=grid)


def _circulant(c: np.ndarray) -> np.ndarray:
    """The block circulant [c_{(k - l) mod n}] of blocks c of shape (n, d, d)."""
    n, d, _ = c.shape
    wrapped = np.concatenate((c[::-1], c[:0:-1]))[n - 1:]  # c_0, c_{n-1}, .., c_1
    s0, s1, s2 = wrapped.strides
    view = as_strided(wrapped, shape=(n, d, n, d), strides=(-s0, s1, s0, s2))
    return view.copy().reshape(n * d, n * d)


def spectral_time_derivative(grid: GridSpec) -> np.ndarray:
    """Skew-adjoint d/dt = i d/(i dt) on the periodic grid, dense in the sites.

    The operator is circulant, its first column the inverse FFT of the symbol.
    """
    mat = _circulant(ifft(1j * LatticeOperator(grid).frequencies())[:, None, None])
    return 0.5 * (mat - mat.conj().T)


# ---------------------------------------------------------------------------
# perturbation profiles


def _check_hermitian(x: np.ndarray, values: np.ndarray) -> None:
    """Raise DomainError at the first x where |Phi - Phi^H| > tol max(1, |Phi|)."""
    defect = np.max(np.abs(values - values.conj().transpose(0, 2, 1)), axis=(1, 2))
    size = np.max(np.abs(values), axis=(1, 2))
    bad = defect > INPUT_HERMITIAN_REL_TOL * np.maximum(1.0, size)
    if np.any(bad):
        raise DomainError(f"profile value at x={x[np.argmax(bad)]} is not Hermitian")


@dataclass(frozen=True)
class PerturbationProfile:
    """Hermitian multiplication bump x -> Phi(x), dim x dim valued.

    ``evaluator`` takes the points x as an array of shape (m,) and returns
    the values, of shape (m,) for dim 1 or (m, dim, dim).
    ``decay_certificate`` is sup |Phi(x)| (1 + x^2) over a wide probe grid;
    profiles whose certificate stays below the library bound are eligible
    for the closed-form index integral.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    dim: int = 1
    decay_certificate: float = field(init=False)

    def __post_init__(self):
        probe = np.linspace(-200.0, 200.0, 2001)
        v = self.samples(probe)
        # Hermitian symmetry is probed at every tenth point here, and at
        # every site of each grid the profile is sampled on
        _check_hermitian(probe[::10], v[::10])
        size = np.max(np.abs(v), axis=(1, 2))
        object.__setattr__(
            self, "decay_certificate", float(np.max(size * (1.0 + probe * probe)))
        )

    def samples(self, x: np.ndarray) -> np.ndarray:
        """Phi at the points x, as a complex array of shape (m, dim, dim)."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.evaluator(x), dtype=complex)
        if self.dim == 1 and v.shape == x.shape:
            v = v.reshape(-1, 1, 1)
        if v.shape != (len(x), self.dim, self.dim):
            raise DomainError(
                f"profile values of shape {v.shape} do not match {len(x)} points "
                f"of dim {self.dim}"
            )
        return v

    @property
    def has_decay(self) -> bool:
        return self.decay_certificate <= DECAY_CERT_MAX

    @classmethod
    def lorentzian(cls, mu: float = 1.0) -> "PerturbationProfile":
        """The scaled bump mu / (1 + x^2), the default example family."""
        return cls(evaluator=lambda x: mu / (1.0 + x * x))

    @classmethod
    def zero(cls, dim: int = 1) -> "PerturbationProfile":
        return cls(evaluator=lambda x: np.zeros((len(x), dim, dim)), dim=dim)

    def __add__(self, other: "PerturbationProfile") -> "PerturbationProfile":
        if self.dim != other.dim:
            raise DomainError("cannot add profiles of different dim")
        mine, theirs = self.samples, other.samples
        return PerturbationProfile(evaluator=lambda x: mine(x) + theirs(x), dim=self.dim)


def _site_values(b: PerturbationProfile, grid: GridSpec) -> np.ndarray:
    """Phi at the grid sites, shape (n, dim, dim), each value checked Hermitian."""
    x = grid.points_array()
    values = b.samples(x)
    _check_hermitian(x, values)
    return values


# ---------------------------------------------------------------------------
# the plane-wave forms


def _bump_form(values: np.ndarray) -> np.ndarray:
    """F M F^H for the bump M with site values ``values``, real when it can be.

    F is the unitary DFT over the sites; each site carries ``dim``
    components, which F leaves alone.  The form is the block circulant of
    c = fft(values, axis=0) / n, real exactly when M commutes with K (see
    the module docstring), so the real part of c is used when its imaginary
    part is at most K_REAL_REL_TOL max|values|, and c itself otherwise.
    """
    n, d, _ = values.shape
    _require_dense_budget(n * d, 1, "the plane-wave form")
    c = fft(values, axis=0) / n
    scale = max(float(np.max(np.abs(values))), 1e-300)
    if np.max(np.abs(c.imag)) <= K_REAL_REL_TOL * scale:
        c = c.real
    return _circulant(c)


def _operator_form(a1: LatticeOperator, values: np.ndarray) -> np.ndarray:
    """The plane-wave form of A_1 + M, M the bump with site values ``values``."""
    form = _bump_form(values)
    form.flat[:: len(form) + 1] += a1.frequencies(values.shape[1])
    return form


def _to_grid(w: np.ndarray) -> np.ndarray:
    """F^H w: plane-wave coefficients of shape (n, dim, k) as site values."""
    return ifft(w, axis=0, norm="ortho")


# ---------------------------------------------------------------------------
# heat-trace side


def _pair_spectra(
    a1: LatticeOperator, b: PerturbationProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra of A_1, in closed form, and of A_1 + B."""
    values = _site_values(b, a1.grid)
    free = np.sort(a1.frequencies(b.dim))
    if not np.any(values):
        return free, free
    return free, herm_eigvals(_operator_form(a1, values))


def _heat_trace_curve(
    lam1: np.ndarray, lam2: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """sqrt(t/pi) * integral_1^2 tr(exp(-t A_s^2) B) ds at each t, exactly.

    Evaluated as (1/2) tr[erf(sqrt(t) A_2) - erf(sqrt(t) A_1)] from the
    ascending spectra of A_1 and A_2 = A_1 + B; subtracting them term by term
    sums small differences instead of cancelling two sums of n unit-size
    terms.
    """
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
    return float(_heat_trace_curve(*_pair_spectra(a1, b), np.array([t]))[0])


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


def _valid_times(grid: GridSpec, t_schedule: np.ndarray | None) -> np.ndarray:
    """The heat times of the schedule at or below the grid's validity ceiling."""
    sched = np.asarray(
        default_t_schedule(grid) if t_schedule is None else t_schedule, dtype=float
    )
    if len(sched) < 8:
        raise DomainError("t schedule must contain at least 8 points")
    if np.any(np.diff(sched) <= 0) or sched[0] <= 0:
        raise DomainError("t schedule must be positive and ascending")
    valid = sched[sched <= grid.t_ceiling()]
    if len(valid) < PLATEAU_MIN_SAMPLES:
        raise NonConvergenceError(
            "t schedule has too few samples below the grid ceiling "
            f"{grid.t_ceiling():.2f}",
            t_samples=sched,
            values=None,
        )
    return valid


def _plateau_estimate(
    t_valid: np.ndarray, lam1: np.ndarray, lam2: np.ndarray
) -> WittenEstimate:
    """The heat-trace curve of the pair with spectra lam1, lam2 and its plateau.

    The plateau is the longest run of consecutive samples differing by
    < PLATEAU_DIFF_TOL, and needs at least PLATEAU_MIN_SAMPLES of them.
    """
    values = _heat_trace_curve(lam1, lam2, t_valid)
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
    return WittenEstimate(
        t_samples=t_valid,
        rhs_values=values,
        plateau_value=value,
        plateau_window=(float(t_valid[lo]), float(t_valid[hi])),
        uncertainty=float(np.max(np.abs(window - value))),
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
    valid = _valid_times(a1.grid, t_schedule)
    return _plateau_estimate(valid, *_pair_spectra(a1, b))


def witten_index_closed_form(b: PerturbationProfile) -> float:
    """The closed-form pair index (1 / 2 pi) integral of tr Phi.

    The fixed-node ``line_integral`` over the whole line, tracing Phi at
    every node in one call; requires the decay certificate so the tail is
    controlled, and insists on an error estimate below the library budget.
    """
    if not b.has_decay:
        raise InsufficientDecayError(
            f"decay certificate {b.decay_certificate:.3e} exceeds "
            f"{DECAY_CERT_MAX:.1e}; closed form unavailable"
        )
    value, err = line_integral(
        lambda x: np.trace(b.samples(x), axis1=1, axis2=2).real
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
    """d/dt + A_1 + theta(t) B on a (t, x) product grid, held by its factors.

    In the basis I_t (x) F of t-sites times x-plane-waves the operator is

        D = T (x) I + I (x) diag(frequencies) + diag(theta_samples) (x) bump_form

    with T the skew-Hermitian spectral d/dt on the time sites and
    ``bump_form`` the real plane-wave form of B; the change of x basis is
    unitary and keeps the t-rows, so the Gram spectrum and window masses are
    those of the grid-space operator.  D itself is never formed.
    ``theta_samples`` are the values actually placed on the time circle
    (rise centred at -L_t/2, mirrored fall at +L_t/2) and ``window_mask``
    marks the rows of the rise half over which traces are reported.
    """

    t_grid: GridSpec
    x_grid: GridSpec
    theta: ThetaProfile
    theta_samples: np.ndarray = field(repr=False)
    window_mask: np.ndarray = field(repr=False)
    time_derivative: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    bump_form: np.ndarray = field(repr=False)


def _reflection(n: int) -> np.ndarray:
    """Indices of the time reflection P on an n-point circle: j -> (-j) mod n."""
    return -np.arange(n)


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
    across the periodic seam.  The spectrum needs D^H = P conj(D) P (see the
    module docstring), so theta samples that are not reflection-even to
    THETA_REFLECTION_TOL, and a bump whose plane-wave form is not real, are
    refused with DomainError before any factor of D is formed.
    """
    if a1.grid != x_grid:
        raise DomainError("base operator grid does not match the x grid")
    n_x = x_grid.points * b.dim
    # the spectrum holds its Gram matrix (solved in place) and the
    # eigenvectors; the tracemalloc peak of build and spectrum was 2.04
    # dense copies at 36 x 32 and 2.09 at 24 x 24, so 3 whole copies
    _require_dense_budget(t_grid.points * n_x, 3, "the suspension spectrum")
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
    odd = np.max(np.abs(theta_samples - theta_samples[_reflection(t_grid.points)]))
    if odd > THETA_REFLECTION_TOL:
        raise DomainError(
            f"profile '{theta.tag}' breaks time reversal: theta(t) - theta(-t) "
            f"reaches {odd:.2e} on the time circle, so theta(-s) = 1 - theta(s) fails"
        )
    bump = _bump_form(_site_values(b, x_grid))
    if np.iscomplexobj(bump):
        raise DomainError(
            "bump breaks time reversal: its plane-wave form is not real, so "
            "Phi(-x) = conj Phi(x) (K symmetry) fails"
        )
    window_mask = np.repeat(t < 0.0, n_x)
    return SuspensionOperator(
        t_grid=t_grid,
        x_grid=x_grid,
        theta=theta,
        theta_samples=theta_samples,
        window_mask=window_mask,
        time_derivative=spectral_time_derivative(t_grid),
        frequencies=a1.frequencies(b.dim),
        bump_form=bump,
    )


def _gram(d: SuspensionOperator) -> np.ndarray:
    """conj(D^H D) as a Fortran array, in closed form from the factors of D.

    With T^H = -T, A_1 = diag(frequencies) and Theta = diag(theta_samples),

        D^H D = (T^H T) (x) I + (T o (theta_i - theta_j)) (x) B
                + blockdiag_i (A_1 + theta_i B)^2,

    the discrete -d^2/dt^2 + A(t)^2 - A'(t); the A_1 cross terms cancel.
    The middle term is the one dense product, the other two are added in
    place on its x diagonals and its diagonal blocks.  D^H D is Hermitian,
    so its transpose, a Fortran view, is conj(D^H D).
    """
    t, theta, bump = d.time_derivative, d.theta_samples, d.bump_form
    n_t, n_x = len(theta), len(d.frequencies)
    gram = np.kron(t * (theta[:, None] - theta[None, :]), bump)
    # einsum over a repeated index returns a writeable view of that diagonal
    blocks = gram.reshape(n_t, n_x, n_t, n_x)
    np.einsum("iaja->ija", blocks)[...] += (t.conj().T @ t)[:, :, None]
    a_t = theta[:, None, None] * bump  # A_1 + theta_i B at each time site i
    np.einsum("iaa->ia", a_t)[...] += d.frequencies
    np.einsum("iaib->iab", blocks)[...] += a_t @ a_t
    return gram.T


@dataclass(frozen=True)
class SuspensionSpectrum:
    """Eigenvalues lambda of D^H D = V diag(lambda) V^H and, for each column
    of V, its mass over the rise window W less its mass over P(W); the
    latter is the window mass of the matching eigenvector P conj(V) of
    D D^H."""

    values: np.ndarray
    window_mass: np.ndarray


def suspension_spectrum(d: SuspensionOperator) -> SuspensionSpectrum:
    """One Hermitian eigensolve serves both heat generators.

    The solve overwrites conj(D^H D), assembled by ``_gram``; its
    eigenvalues and squared moduli |V_ij|^2 are those of D^H D.
    """
    n_t = d.t_grid.points
    window = d.window_mask.reshape(n_t, -1)
    delta = (window.astype(float) - window[_reflection(n_t)]).ravel()
    values, vectors = herm_eig(_gram(d), overwrite=True)
    # sum_i delta_i |V_ij|^2 in numpy's own loop, without forming |V|^2:
    # rows of V^T, a C-ordered view, read as (re, im) pairs
    pairs = vectors.T.view(float).reshape(len(values), -1, 2)
    mass = np.einsum("i,jik,jik->j", delta, pairs, pairs)
    return SuspensionSpectrum(values=values, window_mass=mass)


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
    return WITTEN_SIGN * float(np.sum(np.exp(-t * sp.values) * sp.window_mass))


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
    plateau uncertainty.  A3 is formed as A1 + (B1 + B2) from the profile
    sum, so the three heat curves need only the spectra of A1 (in closed
    form), A2 and A3, and the second and third curves share that of A3.
    """
    if not (b1.has_decay and b2.has_decay):
        raise InsufficientDecayError("both profiles need decay certificates")
    b3 = b1 + b2
    cf = (
        witten_index_closed_form(b1),
        witten_index_closed_form(b2),
        witten_index_closed_form(b3),
    )
    valid = _valid_times(a1.grid, t_schedule)
    lam1, lam2 = _pair_spectra(a1, b1)
    lam3 = _pair_spectra(a1, b3)[1]
    est = (
        _plateau_estimate(valid, lam1, lam2),
        _plateau_estimate(valid, lam2, lam3),
        _plateau_estimate(valid, lam1, lam3),
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
    v^H B v of the kept pairs come from the d x d site values of the bump
    B, so no dense product with B is formed.  When c reaches the bound
    n pi / 2L + max_x |Phi_base(x)| + max_x |Phi_step(x)| on the spectral
    radius of every A_s along the leg, the window would keep every pair and
    the full spectrum is solved instead, which is cheaper (51 against 37 ms
    at 512 real rows and 228 against 185 ms at 1024, on a 2-core host).
    Each node is solved on the plane-wave form of A_1 plus the bump with
    site values base + (s-1) step, and its eigenvectors are mapped back to
    the grid.
    """
    if t <= 0:
        raise DomainError(f"heat time must be positive, got {t}")
    if b1.dim != b2.dim:
        raise DomainError("cannot join legs of profiles of different dim")
    grid = a1.grid
    values1, values2 = _site_values(b1, grid), _site_values(b2, grid)
    nodes, weights = leggauss(s_nodes)
    s_vals, s_weights = 1.5 + 0.5 * nodes, 0.5 * weights  # mapped to s in [1, 2]

    def sup_norm(values: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(values, ord=2, axis=(1, 2))))

    dirac_radius = grid.points * np.pi / (2.0 * grid.half_width)

    def leg(base: np.ndarray, step: np.ndarray) -> float:
        """integral_1^2 tr(exp(-t A_s^2) B) ds along A_s = A_1 + base + (s-1) step.

        ``base`` and ``step`` are site values of bumps, ``step`` that of B.
        """
        mass = float(np.sum(np.abs(step)))
        if mass <= HEAT_TAIL_ABS_TOL:  # the whole leg is within the budget
            return 0.0
        within = np.sqrt(np.log(mass / HEAT_TAIL_ABS_TOL) / t)
        if within >= dirac_radius + sup_norm(base) + sup_norm(step):
            within = None
        total = 0.0
        for s, w in zip(s_vals, s_weights):
            es = herm_eig(_operator_form(a1, base + (s - 1.0) * step), within=within)
            v = _to_grid(es.vectors.reshape(grid.points, b1.dim, -1))
            bw = np.einsum("xaj,xab,xbj->j", v.conj(), step, v).real
            total += w * float(np.sum(np.exp(-t * es.values * es.values) * bw))
        return total

    first = leg(np.zeros_like(values1), values1)
    second = leg(values1, values2)
    direct = leg(np.zeros_like(values1), values1 + values2)
    return PathSplitReport(
        residual=abs(direct - (first + second)),
        direct=direct,
        first_leg=first,
        second_leg=second,
    )
