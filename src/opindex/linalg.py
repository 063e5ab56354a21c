"""Dense linear-algebra kernels shared by every other module.

All operators in scope are small enough (a few thousand rows) for dense
LAPACK routines.  No matrix exponential is ever formed: every heat weight
is a scalar function (exp(-t lambda^2), erf(sqrt(t) lambda), exp(-t lambda))
of the eigenvalues that the solves below return.

Inputs keep their field: a real matrix stays float64 and reaches LAPACK's
real routines (``dsyevr`` for a symmetric eigensolve, about a quarter of the
flops of the complex ``zheevr``), and only complex input is solved in
complex arithmetic.  Integer and single-precision input is widened to
float64 or complex128.

Every full-spectrum Hermitian eigensolve goes through one LAPACK driver,
scipy's MRRR ``evr`` (Dhillon-Parlett-Voemel).  numpy and scipy each link
their own OpenBLAS with its own thread pool; interleaving solves from one with
work from the other is markedly slower on a small host than keeping every
solve in one of them.

This is the one module that uses scipy, and it imports the piece it needs
inside the kernel that calls it, not at import: loading ``scipy.linalg``
took about 0.2 of the 0.3 s of ``import opindex.cli``, and the Toeplitz and
scattering commands never solve an eigenproblem.  Each call looks its
routine up on the scipy module, so a patched ``scipy.linalg.eigh`` or
``scipy.linalg.lapack`` routine takes effect.

A heat weight exp(-t lambda^2) at large t sees only the eigenpairs inside a
value window.  ``evr`` runs MRRR only for the whole spectrum; asked for a
window it falls back to bisection plus inverse iteration, which at 512 real
rows took longer than the full solve (42-51 against 34-40 ms for 120 of 512
pairs, on a 2-core host).  A window is therefore solved from the tridiagonal
form T = Q^H A Q with scipy's LAPACK wrappers: every value of T by
``dsterf`` (5 ms), the kept vectors of T by ``dstein``, and Q applied to
those columns only by ``?ormqr`` (24-28 ms in all for the same solve).

No singular value decomposition is needed.  The suspension D is
time-reversal symmetric, D^H = P conj(D) P with P the reflection of the time
circle, so its left singular vectors are P conj(V) for the eigenvectors V of
the Gram matrix D^H D (a Takagi factorization of the complex-symmetric P D;
Horn and Johnson, Matrix Analysis, 2nd ed., section 4.4).  ``witten``
assembles that Gram matrix in closed form from the Kronecker factors of D,
without forming D, and ``herm_eig`` solves it in place.  Its heat weights
exp(-t s^2) see only lambda = s^2, which ``evr`` returns to an absolute
error of about eps ||D||^2, the order ``gesdd`` gives for s^2, so solving
the Gram matrix costs no accuracy there.  On 2304 complex rows (a 2-core
host) the ``zherk`` product of D and its ``evr`` solve took 7.2-7.5 s
against 13.6 s for ``gesdd``; the closed form replaces the product, and the
solve holds the Gram matrix and its eigenvectors, 2.04 dense copies at its
traced peak (36 x 32 product grid) against 3.04 with D formed.

The one quadrature, ``line_integral``, integrates over the whole real line
on fixed nodes: Gauss-Legendre on (-1, 1) mapped by x = tan(pi u / 2), so
the integrand becomes f(x) (1 + x^2) pi / 2, which is constant for a
Lorentzian and decays like (1 + x^2) f(x) for any other profile.  It sums
the rule at 64 and at 128 nodes, one vectorised call of f per rule, and
reports |I_128 - I_64| as its error estimate; a profile too narrow for 64
nodes shows up there instead of passing as a wrong value.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EigensolverError, ShapeError


def _widened(m) -> np.ndarray:
    """``m`` as a float64 array, or complex128 if it is complex."""
    a = np.asarray(m)
    return a.astype(np.result_type(a.dtype, np.float64), copy=False)


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a float64 or complex128 square array, raising ShapeError otherwise."""
    a = _widened(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


class EigenSystem(NamedTuple):
    """Ascending eigenvalues and the unitary matrix of eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(m, within: float | None = None, overwrite: bool = False) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, or its pairs in a window.

    Parameters
    ----------
    m : array_like
        Square Hermitian matrix.
    within : float, optional
        Compute only the eigenpairs with eigenvalue in (-within, within];
        the default is the full spectrum.
    overwrite : bool, optional
        Let the full-spectrum solve destroy ``m``; a Fortran-ordered
        float64 or complex128 ``m`` is then solved in place, without a copy.

    Returns
    -------
    EigenSystem
        ``values`` ascending, ``vectors[:, i]`` the i-th eigenvector; for a
        window that holds no eigenvalue the shapes are (0,) and (n, 0).
    """
    a = as_square_matrix(m)
    if within is None:
        import scipy.linalg

        try:
            values, vectors = scipy.linalg.eigh(
                a, driver="evr", overwrite_a=overwrite, check_finite=False
            )
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
            raise EigensolverError(f"eigh failed to converge: {exc}") from exc
    else:
        values, vectors = _window_eig(a, within)
    return EigenSystem(values=values, vectors=vectors)


def _lapack_ok(routine: str, info: int) -> None:
    """Raise EigensolverError for a nonzero LAPACK exit code."""
    if info != 0:
        raise EigensolverError(f"LAPACK {routine} failed: info = {info}")


def _window_eig(a: np.ndarray, within: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of Hermitian ``a`` with eigenvalue in (-within, within].

    A = Q T Q^H by ?sytrd/?hetrd (lower, blocked workspace); every value of
    the real tridiagonal T by root-free QR (dsterf); the vectors of T for the
    kept values only by inverse iteration (dstein, T as one block); and Q
    applied to just those columns (?ormqr/?unmqr: with lower=1 the ?sytrd
    reflectors sit below the first subdiagonal in QR layout).
    """
    from scipy.linalg import lapack

    n = a.shape[0]
    if n == 1:  # the wrappers need a nonempty off-diagonal
        values = a.real.diagonal()
        keep = (values > -within) & (values <= within)
        return values[keep], np.ones((1, np.count_nonzero(keep)), dtype=a.dtype)
    real = a.dtype == np.float64
    reduce, apply = ("dsytrd", "dormqr") if real else ("zhetrd", "zunmqr")
    lwork, info = getattr(lapack, reduce + "_lwork")(n, lower=1)
    _lapack_ok(reduce + "_lwork", info)
    c, d, e, tau, info = getattr(lapack, reduce)(a, lower=1, lwork=int(lwork.real))
    _lapack_ok(reduce, info)
    values, info = lapack.dsterf(d, e)
    _lapack_ok("dsterf", info)
    values = values[(values > -within) & (values <= within)]
    if len(values) == 0:
        return values, np.zeros((n, 0), dtype=a.dtype)
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    z, info = lapack.dstein(d, e, values, iblock, isplit)
    _lapack_ok("dstein", info)
    z = z.astype(a.dtype, copy=False)
    reflectors = np.asfortranarray(c[1:, :-1])
    below = np.asfortranarray(z[1:])
    ormqr = getattr(lapack, apply)
    _, work, info = ormqr("L", "N", reflectors, tau, below, -1, overwrite_c=1)
    _lapack_ok(apply + " workspace query", info)
    z[1:], _, info = ormqr(
        "L", "N", reflectors, tau, below, int(work[0].real), overwrite_c=1
    )
    _lapack_ok(apply, info)
    return values, z


def herm_eigvals(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors."""
    import scipy.linalg

    a = as_square_matrix(m)
    try:
        return scipy.linalg.eigh(
            a, eigvals_only=True, driver="evr", check_finite=False
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
        raise EigensolverError(f"eigh failed to converge: {exc}") from exc


# node counts of the coarse and the fine line rule
_LINE_RULE_NODES = (64, 128)


@lru_cache(maxsize=None)
def _line_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule mapped onto the
    real line by x = tan(pi u / 2); built on first use, then read-only."""
    u, w = leggauss(n)
    x = np.tan(0.5 * np.pi * u)
    weights = w * (0.5 * np.pi) * (1.0 + x * x)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def line_integral(f: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Integral of f over the real line, and the estimate |I_128 - I_64| of
    its error.

    ``f`` takes the nodes as an array of shape (m,) and returns the m real
    values.
    """
    coarse, fine = (float(w @ f(x)) for x, w in map(_line_rule, _LINE_RULE_NODES))
    return fine, abs(fine - coarse)
