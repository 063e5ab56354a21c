"""Central table of numerical tolerances and sign conventions.

Every tolerance used by the library lives here, expressed relative to the
maximum absolute entry of the operator it is applied to unless the name says
otherwise.  The sign conventions below were calibrated once against the
known reference values (half-shift compression index -1, Lorentzian bump
index +1/2, attractive square well with one bound state) and are asserted
by dedicated tests; they are reported in every CLI record.
"""

import numpy as np

# --- linear algebra -------------------------------------------------------
# Profile values Phi(x) must be Hermitian to this, relative to max(1, |Phi(x)|)
# point by point, on the probe grid and at every grid site they are used on.
INPUT_HERMITIAN_REL_TOL = 1e-10

# --- memory -----------------------------------------------------------------
# Dense complex operators are refused before allocation, with a DomainError
# (exit 2), when their copies held at once would need more than this.
DENSE_BUDGET_BYTES = 2 * 2**30

# --- shift-lattice / Toeplitz ---------------------------------------------
SUPPORT_TOL = 1e-12              # entries below tol*max count as structural zeros
SYMBOL_MIN_MODULUS = 1e-8        # winding numbers need |a| above this everywhere
UNWRAP_MAX_STEP = 0.95 * np.pi   # larger arg increments mean undersampling
WINDING_SIGN = -1                # index(compression of a) = WINDING_SIGN * winding(a)

# --- heat-trace / suspension ----------------------------------------------
# Orientation of the regularised index: positive perturbation bumps give a
# positive index.  Equivalently the heat-trace difference is taken in the
# order tr(exp(-t D^H D) - exp(-t D D^H)) and the s-integral side carries a
# plus sign; a dedicated test pins this orientation to the value +1/2 for
# the unit Lorentzian bump.
WITTEN_SIGN = +1
PLATEAU_DIFF_TOL = 5e-3          # consecutive plateau samples may differ by this
PLATEAU_MIN_SAMPLES = 5          # a plateau window must contain at least this many
THETA_TAIL_TOL = 1e-6            # connection profile must be this close to 0/1 at ends
# The suspension spectrum uses time reversal, which needs the theta samples
# reflection-even on the time circle: |theta_j - theta_{(-j) mod n}| at most
# this (theta runs from 0 to 1).  The logistic and erf profiles read at most
# 3.0e-15 on 16 to 96 points and half widths 10 to 30; a logistic shifted by
# 0.01 reads 1.0e-2.
THETA_REFLECTION_TOL = 1e-12
T_CEILING_FACTOR = 0.25          # max usable t = factor * (L/pi)^2 on an L-grid
DECAY_CERT_MAX = 1e3             # sup |phi(x)| (1+x^2) beyond this means no decay
CLOSED_FORM_ABS_TOL = 1e-8       # absolute error budget for the closed-form integral
# Absolute budget for the eigenpairs a path-splitting leg leaves out.  A leg
# keeps only the pairs with lambda in (-c, c], where exp(-t c^2) sum_xy |B_xy|
# equals this budget.  The rows of the unitary V have unit norm, so by
# Cauchy-Schwarz the dropped pairs add at most exp(-t c^2) sum_xy |B_xy| to
# tr(exp(-t A_s^2) B).
HEAT_TAIL_ABS_TOL = 1e-18
# A bump with site values Phi_j, whose plane-wave form is the block circulant
# of c = fft(Phi, axis=0) / n, is solved as a real symmetric matrix when
# max|imag c| is at most this, relative to max|Phi_j|.  Bumps that commute
# with (Kf)_j = conj f_{(n-j) mod n} read at most ~4.5e-17 (Lorentzians and a
# real even 2x2 bump on 24 to 1024 points), the test bumps without it >= 1.8e-2.
K_REAL_REL_TOL = 1e-14

# --- scattering -------------------------------------------------------------
S_UNITARITY_TOL = 1e-8           # max|S^H S - 1| per emitted scattering matrix
TRANSFER_DET_TOL = 1e-8          # |det - 1| of every (psi, psi') slab chain
# The zero-energy solution runs on linearly right of the support, so it has
# one more zero there, one more bound state, when psi psi' < 0.  A slope
# |psi'| <= HALF_BOUND_TOL |psi| puts that zero at least 1 / HALF_BOUND_TOL
# past the support: a half-bound state, not a bound state, and the same
# test sets M_R(0) = 1 in the Levinson balance.  At the Brent root of
# find_resonant_depth(a), a in [0.5, 3], |psi'/psi| reads at most 1.3e-15;
# at 1e-12 relative depth above it at least 8.2e-13.
HALF_BOUND_TOL = 1e-13
LEVINSON_MAX_RESIDUAL = 0.05     # accepted verification reports stay below this

# Phase conventions for the bound-state count.  delta is the continuously
# unwrapped argument of det S(k); for an attractive well it *decreases* from
# threshold to high energy, so the count reads
#     N = LEVINSON_SIGN * (delta(inf) - delta(0)) / (2 pi) + (1 - M_R(0)) / 2
# where M_R(0) = 1 iff a zero-energy half-bound state exists.  The resonance
# term enters through its complement: the generic threshold carries the 1/2
# and the resonant one does not, which also makes the free line (t == 1,
# M_R = 1, delta == 0, N = 0) come out consistently with no special casing.
LEVINSON_SIGN = -1
LEVINSON_CONVENTION = (
    "delta=arg det S; N = -(delta(inf)-delta(0))/(2 pi) + (1 - M_R(0))/2"
)

# Fredholm index of the compressed scattering symbol, same orientation as
# the Toeplitz module: index = WINDING_SIGN * winding(det(S sigma^*)).
SCATTERING_INDEX_CONVENTION = "index(P S sigma^* P) = -winding(det(S sigma^*))"


def conventions() -> dict:
    """Convention tags attached to every emitted result record."""
    return {
        "witten_sign": WITTEN_SIGN,
        "winding_sign": WINDING_SIGN,
        "levinson_sign": LEVINSON_SIGN,
        "levinson_convention": LEVINSON_CONVENTION,
        "scattering_index_convention": SCATTERING_INDEX_CONVENTION,
    }
