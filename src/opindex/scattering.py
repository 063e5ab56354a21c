"""1D Schrodinger scattering: S-matrices, bound states, phase winding.

Units are hbar = 2m = 1, so the free Hamiltonian is -d^2/dx^2 and energy is
k^2.  Scattering matrices are assembled from transfer matrices of the
midpoint-sampled, piecewise-constant potential on a fixed step: each run of
equal sampled values is one slab of constant coefficient, composed through
its exact propagator over the whole run.  Each slab factor conserves flux
exactly, so unitarity of the emitted S(k) holds to rounding for every k and
every step size, and the method is exact for piecewise-constant wells,
whose sweep costs one propagator per piece whatever the step.  A classical
fixed-step RK4 integration of the same ODE and the unmerged slab-by-slab
sweep serve as independent cross-checks in the test suite.

S-matrix layout: S(k) = [[t, r_minus], [r_plus, t]] mapping the incoming
amplitude pair (from the left, from the right) to the outgoing pair (to the
right, to the left).  Both diagonal entries are the same transmission t,
which is the 1D reciprocity statement.

Phase conventions: delta(k) is the continuously unwrapped argument of
det S(k).  For an attractive well it decreases from threshold to high
energy and the bound-state count reads

    N = -(delta(inf) - delta(0)) / (2 pi) + (1 - M_R(0)) / 2,

where M_R(0) = 1 exactly when a zero-energy half-bound state exists: the
zero-energy solution is bounded at both ends, so its slope at the edge of
the support vanishes, read as |psi'| <= HALF_BOUND_TOL |psi| by the same
pass that counts the bound states.  The generic threshold carries the 1/2;
the resonant one does not.  This calibration, fixed once against the
square-well oracle and recorded in the constants table, also makes the
free line (t == 1, M_R = 1, delta == 0, N = 0) come out with no special
casing.

Every well is sampled once, on one grid: K_GRID, 320 geometric points on
k in [1e-3, 2000], refined where arg det S moves fast.  The Levinson
balance and the corrected index read the same curve.  The top end is set by
the high-energy tail: the winding fits delta_inf + c / k over k >= k_max / 2,
and that Born form holds once V / k^2 is small, which at k >= 1000 means
V / k^2 <= 1e-4 for wells down to depth 100.  The log-energy line needs
energies up to 1e3 besides, which any k_max above 32 covers.

The sweep works on stacks of 2x2 matrices, one per k sample, and
multiplies them entry by entry: the slab chain, the amplitude frames, the
unitarity Gram matrix, the parity rotation and S sigma^*.  On a few hundred
samples that costs a fraction of a 2x2-stack einsum, whose dispatch
dominates at this size.  The straight lines the curve is read through (the
head and tail of the winding, the threshold limit of S) are least-squares
fits in closed form, centred on the mean abscissa.

The resonant well depth is found at k = 0 itself, where no amplitude frame
(no 1/(ik)) enters: a half-bound state is a zero-energy solution bounded at
both ends, so constant outside the well, and it exists exactly when the
psi' entry of the zero-energy (psi, psi') slab chain started from
(psi, psi') = (1, 0) vanishes.  The depth is the simple root of that entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import (
    HALF_BOUND_TOL,
    LEVINSON_CONVENTION,
    LEVINSON_MAX_RESIDUAL,
    LEVINSON_SIGN,
    S_UNITARITY_TOL,
    TRANSFER_DET_TOL,
    UNWRAP_MAX_STEP,
    WINDING_SIGN,
)
from .errors import (
    ConstructionError,
    DomainError,
    IntegrationError,
    RangeError,
    UndersamplingError,
)
from .linalg import line_integral

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# slab width of the transfer sweep, the one k grid every curve starts from,
# and the most k nodes a refined curve holds
SLAB_STEP = 0.01
K_GRID = np.geomspace(1e-3, 2000.0, 320)
K_NODE_BUDGET = 4000
# an unrefined curve holds K_GRID itself as its samples
K_GRID.setflags(write=False)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """Real potential with certified compact (or fast-decaying) support."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __post_init__(self):
        if self.support_radius <= 0:
            raise DomainError("support radius must be positive")
        probe = np.linspace(self.support_radius, 3.0 * self.support_radius, 7)[1:]
        tail = np.max(np.abs(np.asarray(self.evaluator(probe), dtype=float)))
        if tail > 1e-12:
            raise DomainError(
                f"potential does not vanish beyond its support radius: {tail:.2e}"
            )

    @classmethod
    def square_well(cls, depth: float, half_width: float = 1.0) -> "Potential":
        """Attractive square well V(x) = -depth on |x| < half_width."""
        if depth < 0:
            raise DomainError("well depth must be non-negative")

        def v(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) < half_width, -depth, 0.0)

        return cls(evaluator=v, support_radius=half_width)

    @classmethod
    def free(cls) -> "Potential":
        return cls(evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   support_radius=1.0)


# ---------------------------------------------------------------------------
# transfer matrices


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices, a d - b c."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a b of stacks of 2x2 matrices, written out entry by entry.

    Both factors have the same shape, or one of them is a single 2x2
    matrix, broadcast over the other's stack.  Four sums of two products
    cost a dozen elementwise passes, several times cheaper than a
    2x2-stack einsum or matmul on a few hundred matrices.
    """
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    shape = a.shape if a.ndim >= b.ndim else b.shape
    out = np.empty(shape, dtype=np.result_type(a, b))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line y = slope x + intercept, in closed form.

    Centred on the mean of x, so the normal equations stay well
    conditioned on a short run of nearby abscissae.  y may carry trailing
    axes (one line per entry, fitted in one call) and may be complex.
    Returns (slope, intercept), the order of np.polyfit(x, y, 1).
    """
    x_mean = x.mean()
    dx = x - x_mean
    y_mean = y.mean(axis=0)
    flat = (y - y_mean).reshape(len(x), -1)
    slope = (dx @ flat).reshape(y.shape[1:]) / (dx @ dx)
    return slope, y_mean - slope * x_mean


def _slab_propagators(q: np.ndarray, h: float) -> np.ndarray:
    """Exact (psi, psi') propagators over one slab of constant q^2, batched.

    q has shape (nk,); returns (nk, 2, 2).  Entries are cos(q h),
    sin(q h)/q etc., which stay real for real q^2 and conserve the
    Wronskian exactly.
    """
    qh = q * h
    c = np.cos(qh)
    s = np.where(np.abs(q) > 1e-30, np.sin(qh) / np.where(q == 0, 1.0, q), h)
    out = np.empty(q.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -q * q * s
    out[..., 1, 1] = c
    return out


def _amplitude_frames(x: float, k: np.ndarray):
    """Matrices mapping plane-wave amplitudes (A, B) to (psi, psi') at x."""
    ep = np.exp(1j * k * x)
    em = np.exp(-1j * k * x)
    frame = np.empty(k.shape + (2, 2), dtype=complex)
    frame[..., 0, 0] = ep
    frame[..., 0, 1] = em
    frame[..., 1, 0] = 1j * k * ep
    frame[..., 1, 1] = -1j * k * em
    inv = np.empty_like(frame)
    inv[..., 0, 0] = 0.5 * em
    inv[..., 0, 1] = 0.5 * em / (1j * k)
    inv[..., 1, 0] = 0.5 * ep
    inv[..., 1, 1] = -0.5 * ep / (1j * k)
    return frame, inv


def _slab_runs(v: Potential, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint-sampled, piecewise-constant model of V on [-a, a].

    The support is cut into slabs of width about ``step`` and V is sampled
    at each slab midpoint.  Each run of equal midpoint values is one slab of
    constant V; returns the run values and run widths, left to right.
    """
    a = v.support_radius
    n_in = max(2, int(round(2.0 * a / step)))
    h_in = 2.0 * a / n_in
    mids = -a + h_in * (np.arange(n_in) + 0.5)
    v_mid = np.asarray(v.evaluator(mids), dtype=float)
    bounds = np.concatenate(([0], np.flatnonzero(v_mid[1:] != v_mid[:-1]) + 1, [n_in]))
    return v_mid[bounds[:-1]], np.diff(bounds) * h_in


def _slab_chain(v: Potential, k2: np.ndarray, step: float) -> np.ndarray:
    """Batched (psi, psi') propagators over [-a-1, a+1] for energies k^2 >= 0.

    Each run of :func:`_slab_runs` is one slab of constant q^2 = k^2 - V,
    whose exact propagator over the whole run equals the product of its
    per-slab propagators, so a square well is three slabs (free, well,
    free) at any step.  The Wronskian check, |det - 1| within
    TRANSFER_DET_TOL, is made on the chain.
    """
    # outer stretches are free, one exact slab each
    chain = _slab_propagators(np.sqrt(k2 + 0j), 1.0)
    for vm, width in zip(*_slab_runs(v, step)):
        q = np.sqrt(k2 - vm + 0j)
        chain = _mul2(_slab_propagators(q, width), chain)
    chain = _mul2(_slab_propagators(np.sqrt(k2 + 0j), 1.0), chain)

    drift = np.abs(_det2(chain) - 1.0)
    worst = float(np.max(drift))
    if worst > TRANSFER_DET_TOL:
        at = int(np.argmax(drift))
        raise IntegrationError(
            f"det of the (psi, psi') slab chain drifted by {worst:.2e} at "
            f"k = {math.sqrt(k2[at]):.3g}; the sweep does not conserve the "
            "Wronskian"
        )
    return chain


def transfer_matrices(v: Potential, k: np.ndarray, step: float = SLAB_STEP) -> np.ndarray:
    """Batched transfer matrices over [-a-1, a+1] for an array of k > 0.

    Relates the plane-wave amplitude pairs on the left to those on the
    right: (A_right, B_right) = T (A_left, B_left).  det T = 1 up to
    rounding for every k.  The Wronskian is checked on the (psi, psi') slab
    chain before the amplitude frames are applied: det T would add the
    rounding of the frames, whose inverse carries 1/(ik), 1.1e-8 at
    k = 1e-3 on a depth-100 well.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise DomainError("wavenumbers must be strictly positive")
    chain = _slab_chain(v, k * k, step)
    a = v.support_radius
    frame_left, _ = _amplitude_frames(-a - 1.0, k)
    _, inv_right = _amplitude_frames(a + 1.0, k)
    return _mul2(_mul2(inv_right, chain), frame_left)


def _s_from_transfer(t_mats: np.ndarray) -> np.ndarray:
    """Convert batched transfer matrices to S = [[t, r-], [r+, t]]."""
    t22 = t_mats[:, 1, 1]
    t = 1.0 / t22
    r_plus = -t_mats[:, 1, 0] / t22
    r_minus = t_mats[:, 0, 1] / t22
    s = np.empty_like(t_mats)
    s[:, 0, 0] = t
    s[:, 0, 1] = r_minus
    s[:, 1, 0] = r_plus
    s[:, 1, 1] = t
    return s


# ---------------------------------------------------------------------------
# scattering curves


@dataclass(frozen=True)
class ScatteringCurve:
    """S(k) sampled along an ascending positive wavenumber grid."""

    k_samples: np.ndarray
    s_matrices: np.ndarray = field(repr=False)
    unitarity_residuals: np.ndarray = field(repr=False)

    def det(self) -> np.ndarray:
        return _det2(self.s_matrices)


def _unitarity_residuals(s: np.ndarray) -> np.ndarray:
    gram = _mul2(s.conj().swapaxes(-1, -2), s)
    return np.max(np.abs(gram - np.eye(2)), axis=(1, 2))


def scattering_matrix(v: Potential, k_grid: np.ndarray = K_GRID) -> ScatteringCurve:
    """Scattering matrices along a k grid, densified until arg det is tame.

    The grid is refined by inserting geometric midpoints wherever the
    argument of det S jumps by more than pi/4 between neighbours; running
    past K_NODE_BUDGET nodes raises UndersamplingError.
    """
    k = np.asarray(k_grid, dtype=float)
    if np.any(np.diff(k) <= 0) or np.any(k <= 0):
        raise DomainError("k grid must be positive and ascending")

    for _ in range(12):
        s = _s_from_transfer(transfer_matrices(v, k))
        args = np.angle(_det2(s))
        incr = np.abs((np.diff(args) + np.pi) % (2 * np.pi) - np.pi)
        bad = np.nonzero(incr > np.pi / 4)[0]
        if len(bad) == 0:
            break
        if len(k) + len(bad) > K_NODE_BUDGET:
            raise UndersamplingError(
                f"k-grid refinement exceeded the {K_NODE_BUDGET}-node budget"
            )
        k = np.sort(np.concatenate([k, np.sqrt(k[bad] * k[bad + 1])]))
    else:
        raise UndersamplingError("arg det S still jumps after 12 refinement rounds")

    resid = _unitarity_residuals(s)
    worst = float(np.max(resid))
    if worst > S_UNITARITY_TOL:
        raise IntegrationError(
            f"unitarity residual {worst:.2e} above {S_UNITARITY_TOL:.1e}"
        )
    return ScatteringCurve(k_samples=k, s_matrices=s, unitarity_residuals=resid)


# ---------------------------------------------------------------------------
# bound states


def bound_states(v: Potential) -> int:
    """Number of strictly negative eigenvalues of -d^2/dx^2 + V.

    Sturm oscillation theorem: for compactly supported V that number is the
    number of zeros, on the whole line, of the zero-energy solution with
    (psi, psi') = (1, 0) left of the support.  The zeros are counted
    exactly on the slab model of V that the transfer sweep integrates
    (:func:`_slab_runs`), one scalar pass over its runs.  Across a run of
    V < 0 the Prufer angle atan2(q psi, psi') advances by q w, so the run
    holds floor(q w / pi) zeros in its whole half-turns and at most one in
    the rest of the angle, where psi changes sign; a run of V >= 0 holds at
    most one zero, where psi changes sign.  Right of the support psi runs
    on linearly and has one more zero exactly when psi psi' < 0, unless
    |psi'| <= HALF_BOUND_TOL |psi|: that zero lies beyond 1 / HALF_BOUND_TOL,
    a zero-energy half-bound state, which is not a bound state.
    """
    return _zero_energy_pass(v)[0]


def _zero_energy_pass(v: Potential) -> tuple[int, int, float]:
    """(N, M_R(0), psi'/psi at the right edge of the support), from one pass.

    The zero-energy solution of :func:`bound_states`, walked once.  M_R(0)
    is 1 exactly when |psi'| <= HALF_BOUND_TOL |psi| at the edge, the
    half-bound state that the count leaves out.
    """
    psi, dpsi = 1.0, 0.0
    zeros = 0
    for vm, width in zip(*(run.tolist() for run in _slab_runs(v, SLAB_STEP))):
        if vm < 0.0:
            q = math.sqrt(-vm)
            c, s = math.cos(q * width), math.sin(q * width)
            turns = math.floor(q * width / math.pi)
            new, dpsi = c * psi + s / q * dpsi, c * dpsi - q * s * psi
        else:
            # the propagator divided by cosh(p w), then rescaled: psi may
            # grow like exp(p w) across barriers, past the float range
            p = math.sqrt(vm)
            t = math.tanh(p * width) / p if p else width
            turns = 0
            new, dpsi = psi + t * dpsi, dpsi + vm * t * psi
            norm = abs(new) + abs(dpsi)
            new, dpsi = new / norm, dpsi / norm
        # after its whole half-turns psi has the sign (-1)^turns sign(psi);
        # one more zero lies in the rest of the run if the end sign differs
        negative = (psi < 0.0) != (turns % 2 == 1)
        if psi != 0.0 and (new == 0.0 or (new < 0.0) != negative):
            turns += 1
        zeros += turns
        psi = new
    half_bound = abs(dpsi) <= HALF_BOUND_TOL * abs(psi)
    if psi * dpsi < 0.0 and not half_bound:
        zeros += 1
    log_derivative = dpsi / psi if psi else math.copysign(math.inf, dpsi)
    return zeros, int(half_bound), log_derivative


# ---------------------------------------------------------------------------
# phase winding and the resonant depth


def _unwrapped_args(values: np.ndarray) -> np.ndarray:
    args = np.angle(values)
    incr = (np.diff(args) + np.pi) % (2 * np.pi) - np.pi
    if len(incr) and float(np.max(np.abs(incr))) > UNWRAP_MAX_STEP:
        raise UndersamplingError("arg increment above the unwrap safety bound")
    return np.concatenate(([args[0]], args[0] + np.cumsum(incr)))


def phase_winding(curve: ScatteringCurve) -> float:
    """delta(inf) - delta(0) for delta = unwrapped arg det S(k).

    The zero-energy endpoint is never evaluated at k = 0: the head of the
    curve is extrapolated linearly in k, and the high-energy tail is fitted
    by delta_inf + c / k.
    """
    k = curve.k_samples
    phi = _unwrapped_args(curve.det())
    head = min(8, max(3, len(k) // 20))
    _, delta0 = _line_fit(k[:head], phi[:head])
    tail_mask = k >= 0.5 * k[-1]
    if np.count_nonzero(tail_mask) < 3:
        tail_mask = np.zeros_like(k, dtype=bool)
        tail_mask[-3:] = True
    _, delta_inf = _line_fit(1.0 / k[tail_mask], phi[tail_mask])
    return float(delta_inf - delta0)


def find_resonant_depth(half_width: float = 1.0) -> float:
    """Depth of the first zero-energy resonance of a square well.

    The root of the psi' entry, chain[1, 0], of the zero-energy (psi, psi')
    slab chain, found by Brent's method to rounding.  For the well of depth
    D and half-width a that entry is -sqrt(D) sin(2 a sqrt(D)), since the
    free end propagators [[1, 1], [0, 1]] leave it alone, so the bracket
    ((pi / 4a)^2, (3 pi / 4a)^2) holds one sign change, at the first
    resonance (pi / 2a)^2.
    """
    if half_width <= 0:
        raise DomainError("support radius must be positive")
    zero_energy = np.zeros(1)

    def entry(depth: float) -> float:
        well = Potential.square_well(depth, half_width)
        return float(_slab_chain(well, zero_energy, SLAB_STEP)[0, 1, 0].real)

    quarter = math.pi / (4.0 * half_width)
    eps = np.finfo(float)
    return float(_brent_root(entry, quarter ** 2, (3.0 * quarter) ** 2,
                             xtol=eps.tiny, rtol=4.0 * eps.eps))


def _brent_root(f: Callable[[float], float], a: float, b: float,
                xtol: float, rtol: float) -> float:
    """The root of f in [a, b], where f changes sign, by Brent's method.

    Inverse quadratic interpolation, secant steps and bisection, in the step
    order of Brent, Algorithms for Minimization without Derivatives (1973),
    ch. 4, as scipy's brentq takes them; it stops once the bracket is
    narrower than xtol + rtol |x|, within brentq's 100 steps.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConstructionError(f"no sign change of the root function on [{a}, {b}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConstructionError("Brent's method did not converge in 100 steps")


# ---------------------------------------------------------------------------
# Levinson verification


@dataclass(frozen=True)
class LevinsonReport:
    """Bound-state count against the phase winding with threshold correction.

    ``residual`` is |N - predicted| with
    predicted = LEVINSON_SIGN * winding / (2 pi) + (1 - M_R0) / 2,
    the calibrated reading of the phase/bound-state relation (see the
    module docstring and the constants table).  ``resonance_flag`` is M_R0
    and ``resonance_evidence`` the signed log-derivative psi'/psi of the
    zero-energy solution at the right edge of the support: 0 on the free
    line, about -kappa for a level bound at energy -kappa^2 by almost
    nothing, and |psi'/psi| <= HALF_BOUND_TOL exactly when M_R0 = 1.
    """

    n_bound: int
    phase_winding: float
    resonance_flag: int
    resonance_evidence: float
    residual: float
    convention: str
    accepted: bool
    curve: ScatteringCurve = field(repr=False)


def levinson_check(v: Potential) -> LevinsonReport:
    """Balance the bound-state count against the phase winding.

    N and the resonance flag come from the zero-energy pass over the slab
    model of V (:func:`bound_states`), the winding from the scattering curve
    on K_GRID; the report is accepted when the residual stays below
    LEVINSON_MAX_RESIDUAL.  The curve is returned in the report, so that the
    corrected index of the same well reads the same samples.  A threshold
    whose scale |psi'/psi| lies far below K_GRID[0], a level bound by
    almost nothing or a virtual state just below a resonance, is flagged
    exactly, but the winding misses its phase step and the report is
    refused with a residual near 1/2.
    """
    curve = scattering_matrix(v)
    # N through bound_states, the name perfbench/layers.py counts; the flag
    # from the same scalar pass run again, about 15 us on a square well
    n = bound_states(v)
    _, flag, evidence = _zero_energy_pass(v)
    winding = phase_winding(curve)
    predicted = LEVINSON_SIGN * winding / (2.0 * np.pi) + 0.5 * (1 - flag)
    residual = abs(n - predicted)
    return LevinsonReport(
        n_bound=n,
        phase_winding=winding,
        resonance_flag=flag,
        resonance_evidence=evidence,
        residual=residual,
        convention=LEVINSON_CONVENTION,
        accepted=residual <= LEVINSON_MAX_RESIDUAL,
        curve=curve,
    )


# ---------------------------------------------------------------------------
# the log-energy line picture


@dataclass(frozen=True)
class LambdaCurve:
    """S reparametrised by lambda = ln(energy) at the sampled energies.

    ``lam`` is 2 ln k of the curve's samples, so it is uniform on a
    geometric k grid apart from refinement midpoints.  Matrices are stored
    in the parity frame (Hadamard rotation of the transmission/reflection
    frame), where the threshold limit of a symmetric well is literally
    +-diag(1, -1) in the generic case.
    ``s_minus_inf`` is the polar-unitarised extrapolated threshold limit.
    """

    lam: np.ndarray
    s_matrices: np.ndarray = field(repr=False)
    s_minus_inf: np.ndarray
    s_plus_inf: np.ndarray


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def exp_resample(curve: ScatteringCurve) -> LambdaCurve:
    """Reparametrise a scattering curve by lambda = ln(k^2) at its samples.

    The curve must cover energies [1e-3, 1e3]; the negative-lambda end is
    the zero-energy limit and the positive end must be close to the
    identity (within 0.05) or the curve is rejected as too short.
    """
    k = curve.k_samples
    if k[0] > math.sqrt(1e-3) or k[-1] < math.sqrt(1e3):
        raise RangeError(
            f"curve covers k in [{k[0]:.3g}, {k[-1]:.3g}]; need energy "
            "coverage [1e-3, 1e3]"
        )
    s_par = _mul2(_mul2(_HADAMARD, curve.s_matrices), _HADAMARD)

    # threshold limit: linear-in-k extrapolation from the curve head
    head = min(8, max(3, len(k) // 20))
    _, limit = _line_fit(k[:head], s_par[:head])

    s_plus = s_par[-1]
    if float(np.max(np.abs(s_plus - np.eye(2)))) > 0.05:
        raise RangeError(
            "high-energy end of the curve is not close to the identity; "
            "extend the k grid"
        )
    return LambdaCurve(
        lam=2.0 * np.log(k),
        s_matrices=s_par,
        s_minus_inf=_polar_unitary(limit),
        s_plus_inf=s_plus,
    )


# ---------------------------------------------------------------------------
# the correction factor


@dataclass(frozen=True)
class SigmaFactor:
    """Unitary interpolation matching the threshold limit of S.

    ``branch`` is one of "trivial", "antidiagonal-limit" (det = -1 limits,
    which are +-diag(1, -1) in the parity frame) and "general-unitary"
    (det = +1, built from the eigenphase +-theta of the limit).  The
    ``profile`` is the Hermitian derivative bump
    Phi_sigma(lambda) = frame diag(weights) frame^H / (1 + lambda^2) with
    sigma(lambda) = exp(-i Integral_lambda^inf Phi_sigma), whose scaled
    line integral is the closed-form index of the pair (D, sigma D sigma*).
    ``frame`` is unitary and ``weights`` real, so tr Phi_sigma is
    sum(weights) / (1 + lambda^2).

    ``evaluator`` and ``profile`` take lambda of any shape and return the
    matching stack of 2x2 matrices: shape (m,) gives (m, 2, 2), and a scalar
    gives one (2, 2) matrix.  A stacked call equals the scalar calls entry
    by entry, bit for bit.
    """

    branch: str
    evaluator: Callable[[float | np.ndarray], np.ndarray]
    frame: np.ndarray
    weights: np.ndarray
    target_limit: np.ndarray

    def profile(self, lam) -> np.ndarray:
        """Phi_sigma(lambda), complex Hermitian."""
        lam = np.asarray(lam, dtype=float)
        core = self.weights / (1.0 + lam * lam)[..., None]
        return np.einsum("ia,...a,ja->...ij", self.frame, core, self.frame.conj())


def _eye_stack(lam) -> np.ndarray:
    """The complex 2x2 identity repeated over the shape of lam."""
    return np.tile(np.eye(2, dtype=complex), np.shape(lam) + (1, 1))


def build_sigma(s_minus_infinity: np.ndarray) -> SigmaFactor:
    """Construct the correction factor for a given threshold limit.

    The input must be unitary to 1e-8 (use the polar-unitarised limit from
    :func:`exp_resample`).  Branch selection is by the determinant of the
    limit; det = -1 limits must have the +-diag(1, -1) form.
    """
    u = np.asarray(s_minus_infinity, dtype=complex)
    if u.shape != (2, 2):
        raise DomainError("threshold limit must be a 2x2 matrix")
    if float(np.max(np.abs(u.conj().T @ u - np.eye(2)))) > 1e-8:
        raise DomainError("threshold limit is not unitary to 1e-8")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]

    if float(np.max(np.abs(u - np.eye(2)))) <= 1e-6:
        return SigmaFactor(
            branch="trivial",
            evaluator=_eye_stack,
            frame=np.eye(2, dtype=complex),
            weights=np.zeros(2),
            target_limit=np.eye(2, dtype=complex),
        )

    if abs(det + 1.0) <= 0.1:
        # the limit is diag(1, -1) or diag(-1, 1); the interpolating phase
        # exp(i (arctan - pi/2)) goes in whichever slot holds the -1, so
        # that sigma ends at the identity on the high-energy side
        hot = 1 if abs(u[0, 0] - 1.0) < abs(u[0, 0] + 1.0) else 0
        target = np.diag([1.0, -1.0] if hot == 1 else [-1.0, 1.0]).astype(complex)
        if float(np.max(np.abs(u - target))) > 0.05:
            raise DomainError(
                "det = -1 threshold limit is not of the +-diag(1, -1) form"
            )

        def evaluator(lam, slot=hot):
            out = _eye_stack(lam)
            out[..., slot, slot] = np.exp(1j * (np.arctan(lam) - np.pi / 2))
            return out

        return SigmaFactor(
            branch="antidiagonal-limit",
            evaluator=evaluator,
            frame=np.eye(2, dtype=complex),
            weights=np.eye(2)[hot],
            target_limit=target,
        )

    if abs(det - 1.0) <= 0.1:
        # unitary with unit determinant: eigenphases come in a +-theta pair
        phases, vectors = np.linalg.eig(u)
        vectors = _polar_unitary(vectors)
        angles = np.angle(phases)
        order = np.argsort(angles)  # first column carries exp(-i theta)
        vectors = vectors[:, order]
        theta = float(abs(angles[order][1]))

        def evaluator(lam, p=vectors, th=theta):
            g = np.arctan(np.asarray(lam, dtype=float)) - np.pi / 2.0
            core = np.exp(np.array([1j, -1j]) * th / np.pi * g[..., None])
            return np.einsum("ia,...a,ja->...ij", p, core, p.conj())

        sigma = SigmaFactor(
            branch="general-unitary",
            evaluator=evaluator,
            frame=vectors,
            weights=np.array([theta / np.pi, -theta / np.pi]),
            target_limit=u.copy(),
        )
        check = sigma.evaluator(-1e9)
        if float(np.max(np.abs(check - u))) > 1e-6:
            raise ConstructionError(
                "general-branch interpolation does not reach the threshold limit"
            )
        return sigma

    raise DomainError(
        f"threshold limit determinant {det:.4f} is neither +1 nor -1; "
        "no correction branch applies"
    )


def witten_index_sigma(sigma: SigmaFactor) -> float:
    """Closed-form index of the pair (D, sigma D sigma*).

    ``line_integral`` of tr Phi_sigma / (2 pi) over the line, the trace
    taken from the eigen-frame weights: on the general branch they cancel
    exactly, where the trace of the rotated matrix would read rounding
    noise.  The result must land within 1e-3 of {0, 1/2} or the
    construction is inconsistent.
    """
    total = float(sigma.weights.sum())
    value, _ = line_integral(lambda lam: total / (1.0 + lam * lam))
    value /= 2.0 * np.pi
    nearest = 0.0 if abs(value) < abs(value - 0.5) else 0.5
    if abs(value - nearest) > 1e-3:
        raise ConstructionError(
            f"sigma index {value:.6f} is not within 1e-3 of 0 or 1/2"
        )
    return value


@dataclass(frozen=True)
class CorrectedIndexReport:
    """Fredholm index of the corrected compression and its two-part split."""

    fredholm_index: int
    w_scattering: float
    w_sigma: float
    residual: float
    endpoint_residual: float


def corrected_index(lcurve: LambdaCurve, sigma: SigmaFactor) -> CorrectedIndexReport:
    """Index of the compressed corrected symbol S sigma^* and its split.

    The corrected symbol has identity limits at both ends of the
    log-energy line (checked to 0.05), so its determinant winds an integer
    number of times; the index is minus that winding.  The split reports
    the raw det-S phase change as the pair index of (D, S^* D S) and the
    closed-form sigma term; their sum must agree with the index.
    """
    # Limits must match: sigma was built to hit the threshold limit exactly,
    # and the high-energy end of the curve is close to the identity, so the
    # corrected symbol approaches the identity at both ends of the line.
    ends = max(
        float(np.max(np.abs(sigma.target_limit - lcurve.s_minus_inf))),
        float(np.max(np.abs(lcurve.s_plus_inf - np.eye(2)))),
    )
    if ends > 0.05:
        raise DomainError(
            f"corrected-symbol limits are {ends:.3f} away from matching; "
            "sigma does not fit the threshold limit of the curve"
        )
    sig = sigma.evaluator(lcurve.lam)
    m = _mul2(lcurve.s_matrices, sig.conj().swapaxes(-1, -2))
    dets = _det2(m)
    # The sigma factor converges only like 1/lambda, so the determinant path
    # is continued analytically beyond the sampled window: out there S sits
    # at its (unitary) limit up to exponentially small terms and
    # det(S sigma^*) = det(limit) * conj(det sigma), a closed form.
    det_lo = _det2(lcurve.s_minus_inf)
    det_hi = _det2(lcurve.s_plus_inf)
    tail_lo = -np.geomspace(1e9, abs(lcurve.lam[0]), 200)
    tail_hi = np.geomspace(lcurve.lam[-1], 1e9, 200)

    closed = np.concatenate([
        det_lo * _det2(sigma.evaluator(tail_lo)).conj(),
        dets,
        det_hi * _det2(sigma.evaluator(tail_hi)).conj(),
    ])
    phi = _unwrapped_args(closed)
    winding = (phi[-1] - phi[0]) / (2.0 * np.pi)
    index = int(round(winding)) * WINDING_SIGN
    if abs(winding - round(winding)) > 0.05:
        raise UndersamplingError(
            f"corrected-symbol winding {winding:.6f} is not close to an integer"
        )

    phi_s = _unwrapped_args(_det2(lcurve.s_matrices))
    w_scattering = WINDING_SIGN * (phi_s[-1] - phi_s[0]) / (2.0 * np.pi)
    w_sigma = witten_index_sigma(sigma)
    return CorrectedIndexReport(
        fredholm_index=index,
        w_scattering=float(w_scattering),
        w_sigma=float(w_sigma),
        residual=abs(index - w_scattering - w_sigma),
        endpoint_residual=ends,
    )
