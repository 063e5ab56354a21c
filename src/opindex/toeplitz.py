"""Compressions of shift and multiplication operators on Fourier lattices.

The centrepiece is the half-shift example: multiplication by exp(i theta/2)
maps the integer Fourier lattice onto the half-integer one, and compressing
by the non-negative-mode cutoff produces a Fredholm operator of index -1.
All bookkeeping uses a doubled integer lattice (n -> 2n) so that half-integer
sites become odd integers and every product is exact integer arithmetic.
Operators are stored as band maps (diagonal offset -> coefficients per
site), so a product costs O(n * bands) and no dense matrix is formed.

A direct trace of a commutator of square finite matrices is identically
zero, so the index formula is never evaluated that way.  Instead the two
defect operators T T' - Q and T' T - Q are computed exactly on a padded
window and the index is tr(defect_1) - tr(defect_2); the padding guarantees
the defects are exact on the reported interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import (
    DENSE_BUDGET_BYTES,
    SUPPORT_TOL,
    SYMBOL_MIN_MODULUS,
    UNWRAP_MAX_STEP,
)
from .errors import (
    DomainError,
    InconclusiveError,
    SymbolVanishingError,
    UndersamplingError,
    WindowSizingError,
)

# |x| at which a line symbol's limits at +-infinity are read
LIMIT_PROBE = 1e8


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True)
class CircleSymbol:
    """A complex function on [-pi, pi] with its Fourier-lattice character.

    ``character`` 0 means the symbol is periodic (acts within the integer
    lattice); character 1/2 means it is antiperiodic (maps the integer
    lattice to the half-integer one), checked on construction.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    character: float = 0.0
    sample_count: int = 4096

    def __post_init__(self):
        if self.character not in (0.0, 0.5):
            raise DomainError(f"character must be 0 or 1/2, got {self.character}")
        if self.sample_count < 8:
            raise DomainError("sample_count must be at least 8")
        left = complex(np.asarray(self.evaluator(np.array([-np.pi])))[0])
        right = complex(np.asarray(self.evaluator(np.array([np.pi])))[0])
        scale = max(abs(left), abs(right), 1.0)
        if self.character == 0.0:
            defect = abs(right - left)
        else:
            defect = abs(right + left)
        if defect > 1e-10 * scale:
            kind = "periodic" if self.character == 0.0 else "antiperiodic"
            raise DomainError(
                f"symbol is not {kind} at the branch point: defect {defect:.3e}"
            )

    def samples(self, count: int | None = None):
        """Symbol values on an equispaced closed grid theta_0..theta_m = -pi..pi."""
        m = count or self.sample_count
        theta = np.linspace(-np.pi, np.pi, m + 1)
        return theta, np.asarray(self.evaluator(theta), dtype=complex)


@dataclass(frozen=True)
class LineSymbol:
    """A complex function on the real line with equal limits at +-infinity."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    sample_count: int = 4096

    def limit(self) -> complex:
        lo = complex(np.asarray(self.evaluator(np.array([-LIMIT_PROBE])))[0])
        hi = complex(np.asarray(self.evaluator(np.array([LIMIT_PROBE])))[0])
        scale = max(abs(lo), abs(hi), 1.0)
        if abs(hi - lo) > 1e-6 * scale:
            raise DomainError(
                f"limits at +-infinity differ: {lo} vs {hi}; "
                "the compactified loop is discontinuous"
            )
        return 0.5 * (lo + hi)

    def samples(self, count: int | None = None):
        """Values along the compactified line, closed through infinity.

        The line is parametrised as x = tan(u) with u on (-pi/2, pi/2); the
        returned arrays start and end with the common limit value so the
        loop is closed.
        """
        m = count or self.sample_count
        u = np.linspace(-np.pi / 2, np.pi / 2, m + 1)[1:-1]
        x = np.tan(u)
        vals = np.asarray(self.evaluator(x), dtype=complex)
        lim = self.limit()
        closed = np.concatenate(([lim], vals, [lim]))
        grid = np.concatenate(([-np.pi / 2], u, [np.pi / 2]))
        return grid, closed


def _unwrap_total_change(values: np.ndarray) -> float:
    """Total continuous change of arg along a sampled curve, in radians."""
    mods = np.abs(values)
    if np.min(mods) < SYMBOL_MIN_MODULUS:
        raise SymbolVanishingError(
            f"symbol modulus {np.min(mods):.3e} below {SYMBOL_MIN_MODULUS:.1e}"
        )
    args = np.angle(values)
    incr = np.diff(args)
    incr = (incr + np.pi) % (2.0 * np.pi) - np.pi
    worst = float(np.max(np.abs(incr))) if len(incr) else 0.0
    if worst > UNWRAP_MAX_STEP:
        raise UndersamplingError(
            f"arg increment {worst:.3f} rad between adjacent samples; refine the grid"
        )
    return float(np.sum(incr))


def winding_number(symbol: CircleSymbol | LineSymbol) -> int:
    """Winding number of a non-vanishing closed symbol curve.

    The argument is continuously unwrapped along the sampled loop and the
    total change divided by 2 pi.  The computation is repeated at twice the
    sample count; disagreement or a non-integer total raises
    UndersamplingError.
    """
    if isinstance(symbol, CircleSymbol) and symbol.character != 0.0:
        raise DomainError(
            "character-1/2 symbols are not closed loops; no winding number"
        )
    results = []
    for count in (symbol.sample_count, 2 * symbol.sample_count):
        _, vals = symbol.samples(count)
        total = _unwrap_total_change(vals) / (2.0 * np.pi)
        nearest = round(total)
        if abs(total - nearest) > 1e-6:
            raise UndersamplingError(
                f"winding {total:.8f} is not an integer; refine sampling"
            )
        results.append(nearest)
    if results[0] != results[1]:
        raise UndersamplingError(
            f"winding changed from {results[0]} to {results[1]} under refinement"
        )
    return results[0]


# ---------------------------------------------------------------------------
# shift-lattice operators


@dataclass(frozen=True)
class ShiftLatticeOperator:
    """Exact operator on the doubled Fourier lattice window [-w, w].

    Entries are stored as a band map: ``bands[d]`` holds the coefficients of
    the diagonal d = row - col, indexed by output site over [-w, w], with the
    entries whose column falls outside the window set to zero.  Constructors
    emit one diagonal each with entries in {0, 1, -1} (or exact Fourier
    coefficients), so products cost O(n * bands), and products of banded
    operators computed on a window three times the interior agree exactly
    with the infinite-lattice composition on the interior.

    ``domain_character``/``codomain_character`` record which lattice the
    operator maps between (0 for integer, 0.5 for half-integer, None for
    operators acting on the full direct sum).
    """

    window: int
    bands: dict[int, np.ndarray] = field(repr=False)
    domain_character: float | None = None
    codomain_character: float | None = None

    def __post_init__(self):
        n = 2 * self.window + 1
        for offset, coeffs in self.bands.items():
            if abs(offset) >= n or coeffs.shape != (n,):
                raise WindowSizingError(
                    f"band {offset} of shape {coeffs.shape} does not fit window "
                    f"{self.window}"
                )

    # -- constructors --------------------------------------------------------
    @classmethod
    def shift(cls, window: int, steps: int, domain_character=None,
              codomain_character=None) -> "ShiftLatticeOperator":
        """Pure lattice shift e_s -> e_{s+steps} (doubled-index units)."""
        return cls.from_band(window, {steps: 1.0}, domain_character,
                             codomain_character)

    @classmethod
    def cutoff(cls, window: int, keep: Callable[[np.ndarray], np.ndarray],
               character=None) -> "ShiftLatticeOperator":
        """Diagonal projection keeping the sites where ``keep`` holds.

        ``keep`` maps the array of sites -window .. window to a boolean mask.
        """
        kept = np.asarray(keep(np.arange(-window, window + 1)), dtype=bool)
        return cls(window, {0: kept.astype(complex)}, character, character)

    @classmethod
    def from_band(cls, window: int, band: dict[int, complex | np.ndarray],
                  domain_character=None, codomain_character=None):
        """Assemble from a map of shift offsets to per-site coefficients.

        ``band[d]`` is either a scalar (constant along the diagonal) or an
        array indexed by output site over [-window, window].  Offsets with
        no entry inside the window are dropped.
        """
        n = 2 * window + 1
        bands = {}
        for offset, coeff in band.items():
            if abs(offset) >= n:
                continue
            coeffs = np.array(np.broadcast_to(np.asarray(coeff, dtype=complex), (n,)))
            # zero the rows whose column row - offset lies outside the window
            if offset >= 0:
                coeffs[:offset] = 0.0
            else:
                coeffs[n + offset:] = 0.0
            bands[offset] = coeffs
        return cls(window, bands, domain_character, codomain_character)

    # -- algebra --------------------------------------------------------------
    def __matmul__(self, other: "ShiftLatticeOperator") -> "ShiftLatticeOperator":
        if self.window != other.window:
            raise WindowSizingError("cannot compose operators on different windows")
        if (self.domain_character is not None
                and other.codomain_character is not None
                and self.domain_character != other.codomain_character):
            raise DomainError(
                f"character mismatch in composition: "
                f"{other.codomain_character} -> {self.domain_character}"
            )
        # (AB)[r, r - a - b] = alpha_a[r] * beta_b[r - a], summed over the
        # inner site r - a inside the window: the shift is zero where it
        # leaves, so the product equals the truncated dense one.
        n = 2 * self.window + 1
        bands: dict[int, np.ndarray] = {}
        for a, alpha in self.bands.items():
            for b, beta in other.bands.items():
                if abs(a + b) >= n:
                    continue
                term = alpha * _shifted(beta, a)
                d = a + b
                bands[d] = bands[d] + term if d in bands else term
        return ShiftLatticeOperator(
            self.window, bands, other.domain_character, self.codomain_character,
        )

    def __sub__(self, other: "ShiftLatticeOperator") -> "ShiftLatticeOperator":
        if self.window != other.window:
            raise WindowSizingError("cannot subtract operators on different windows")
        bands = {
            d: self.bands.get(d, 0.0) - other.bands.get(d, 0.0)
            for d in self.bands.keys() | other.bands.keys()
        }
        return ShiftLatticeOperator(
            self.window, bands, self.domain_character, self.codomain_character,
        )

    def adjoint(self) -> "ShiftLatticeOperator":
        # (A^H)[r, r - d] = conj(A[r - d, r]) = conj(alpha_{-d}[r - d])
        bands = {-a: _shifted(alpha.conj(), -a) for a, alpha in self.bands.items()}
        return ShiftLatticeOperator(
            self.window, bands, self.codomain_character, self.domain_character,
        )

    # -- windows ---------------------------------------------------------------
    def interior_bands(self, half: int) -> dict[int, np.ndarray]:
        """The diagonals of the restriction to sites [-half, half].

        ``result[d]`` lists the entries (row, row - d) of the interior block
        in order of increasing row; bands with no entry there are omitted.
        """
        if half > self.window:
            raise WindowSizingError(
                f"requested interior {half} exceeds window {self.window}"
            )
        lo, m = self.window - half, 2 * half + 1
        return {
            d: coeffs[lo + max(d, 0): lo + m + min(d, 0)].copy()
            for d, coeffs in self.bands.items() if abs(d) < m
        }

    def interior(self, half: int) -> np.ndarray:
        """Dense restriction to sites [-half, half]."""
        m = 2 * half + 1
        block = np.zeros((m, m), dtype=complex)
        for d, diag in self.interior_bands(half).items():
            rows = np.arange(max(d, 0), m + min(d, 0))
            block[rows, rows - d] = diag
        return block

    @property
    def matrix(self) -> np.ndarray:
        """Dense view of the whole window, assembled on demand."""
        return self.interior(self.window)

    def trace_interior(self, half: int) -> complex:
        diag = self.interior_bands(half).get(0)
        return 0j if diag is None else complex(np.sum(diag))


def _shifted(coeffs: np.ndarray, steps: int) -> np.ndarray:
    """out[r] = coeffs[r - steps] where 0 <= r - steps < n, else 0."""
    n = len(coeffs)
    out = np.zeros(n, dtype=complex)
    if steps >= 0:
        out[steps:] = coeffs[: n - steps]
    else:
        out[: n + steps] = coeffs[-steps:]
    return out


def hardy_compression(window: int) -> ShiftLatticeOperator:
    """Cutoff onto the non-negative half of the doubled lattice."""
    return ShiftLatticeOperator.cutoff(window, lambda s: s >= 0)


def paper_example_operators(n_interior: int) -> dict[str, ShiftLatticeOperator]:
    """All building blocks of the half-shift example on one padded window.

    Even doubled sites carry the integer (periodic) lattice, odd sites the
    half-integer (antiperiodic) one.  Multiplication by exp(i theta/2) is
    the unit shift on the doubled lattice; the compression cutoff keeps
    sites >= 0, which is simultaneously the Hardy cutoff of both lattices.

    The band storage is checked against DENSE_BUDGET_BYTES before the first
    band is allocated: the index computation holds at most 8 complex bands
    of 2 window + 1 sites at once (its tracemalloc peak is 8.0 bands at
    n = 4096 to 65536), and a window over the budget is refused with a
    DomainError.
    """
    if n_interior < 4:
        raise WindowSizingError("interior size must be at least 4")
    window = 3 * n_interior
    bands = 8
    need = bands * (2 * window + 1) * np.dtype(complex).itemsize
    if need > DENSE_BUDGET_BYTES:
        raise DomainError(
            f"interior size {n_interior} needs {need / 2**30:.3g} GiB of bands "
            f"({bands} x {2 * window + 1} complex entries), above the "
            f"{DENSE_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )
    m = ShiftLatticeOperator.shift(window, +1)
    q = hardy_compression(window)
    p1 = ShiftLatticeOperator.cutoff(window, lambda s: (s >= 0) & (s % 2 == 0), 0.0)
    p2 = ShiftLatticeOperator.cutoff(window, lambda s: (s >= 1) & (s % 2 == 1), 0.5)
    return {"m": m, "m_adj": m.adjoint(), "q": q, "p1": p1, "p2": p2}


def build_paper_example(n_interior: int):
    """The compressed half-shift operator and its adjoint compression.

    Returns the pair (Q M Q, Q M* Q) on a window padded to three times the
    interior, so every product appearing in the defect identities is exact
    on [-n_interior, n_interior].
    """
    ops = paper_example_operators(n_interior)
    q, m = ops["q"], ops["m"]
    return q @ m @ q, q @ m.adjoint() @ q


# ---------------------------------------------------------------------------
# the index


@dataclass(frozen=True)
class IndexReport:
    """Index of a compressed operator from its exact defect traces.

    ``defect_1`` = T T' - Q and ``defect_2`` = T' T - Q on the padded
    window; ``fedosov_value`` is tr(defect_1) - tr(defect_2) over the
    interior, ``verdict`` the nearest integer, and ``certain`` is set when
    the value lies within 1e-10 of it.
    """

    fedosov_value: complex
    verdict: int
    certain: bool
    defect_1: ShiftLatticeOperator
    defect_2: ShiftLatticeOperator


def fedosov_index(
    t_op: ShiftLatticeOperator,
    parametrix: ShiftLatticeOperator,
    n_interior: int,
) -> IndexReport:
    """Index via the exact defect traces tr(T T' - Q) - tr(T' T - Q).

    Q is the Hardy compression of the window.  The defects must be
    supported strictly inside the interior window, otherwise the padding
    was insufficient and the result is inconclusive.
    """
    unit = hardy_compression(t_op.window)
    defect_1 = (t_op @ parametrix) - unit
    defect_2 = (parametrix @ t_op) - unit
    # Products on the padded window are exact out to twice the interior;
    # entries beyond that zone are window-edge truncation artifacts.  The
    # genuine defect support must sit strictly inside the interior.
    exact_zone = min(2 * n_interior, t_op.window)
    for name, defect in (("T T' - Q", defect_1), ("T' T - Q", defect_2)):
        diagonals = defect.interior_bands(exact_zone)
        scale = max([1.0] + [float(np.max(np.abs(v))) for v in diagonals.values()])
        radius = -1
        for d, diag in diagonals.items():
            rows = np.nonzero(np.abs(diag) > SUPPORT_TOL * scale)[0] + max(d, 0)
            if len(rows):
                sites = np.concatenate([rows, rows - d]) - exact_zone
                radius = max(radius, int(np.max(np.abs(sites))))
        if radius >= n_interior:
            raise InconclusiveError(
                f"defect {name} has support at site {radius}, touching the "
                f"interior boundary {n_interior}; enlarge the padding",
                detail=radius,
            )
    value = defect_1.trace_interior(n_interior) - defect_2.trace_interior(n_interior)
    verdict = round(value.real)
    return IndexReport(
        fedosov_value=value,
        verdict=verdict,
        certain=abs(value - verdict) <= 1e-10,
        defect_1=defect_1,
        defect_2=defect_2,
    )
