"""Real matrix geometry on SL(n,R): projections, norms, proximality.

Two projections drive everything: the vector of sorted log singular values
(norm-like, subadditive) and the vector of sorted log eigenvalue moduli
(conjugation-invariant, the translation length of the acting isometry).
Their Euclidean norms are the symmetric-space norm and displacement, and
their difference measures how far an element is from acting like a
diagonal one.

Each projection has one exact route: ``_exact_rows`` writes g as M/D,
M an integer matrix and D a power of two.  The Cartan projection is the
exterior-power kernel of ``renormalized_cartan_average`` (``decimal`` at
a fixed 80 digits) at 0 squarings.  The Jordan projection is
``lattice.log_eigenvalue_moduli(M)`` less log D: exact characteristic
polynomial, cyclotomic factors divided out exactly (so integer
unipotents have displacement exactly 0.0, which the lattice experiments
rely on), a closed form up to degree 2, and from degree 3 moduli
certified by exact Schur-Cohn root counts, each the float nearest to the
exact value.  Unipotency is read from the same exact polynomial.
LAPACK is left to proximality certificates, one batched eig per stack,
and to ams-gap's batched ``_gap_block``.
"""

from __future__ import annotations

import functools
import math
from contextlib import suppress
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractionFailed,
    EigenFailure,
    NoDominantEigenvalue,
    SeparationFailed,
    SingularInput,
)
from .lattice import as_int_matrix, char_poly, det_exact, log_eigenvalue_moduli

__all__ = [
    "ProximalityCertificate",
    "cartan_projection",
    "jordan_projection",
    "symmetric_space_norm",
    "symmetric_space_displacement",
    "certify_proximal",
    "cartan_jordan_gap",
    "is_unipotent",
    "renormalized_cartan_average",
    "random_special_linear",
]

_EIG_REL_TOL = 1e-9  # relative gap below which the top modulus is not simple
_RCA_DIGITS = 80  # decimal working precision of renormalized_cartan_average
# rows per sample test of _certify_block: the (rows, samples, n) image
# stack stays a few hundred kB however many rows the stack has
_SAMPLE_CHUNK = 32


def _square_size(shape: tuple) -> int:
    """n, for the shape of an n x n matrix with n >= 2; else ValueError."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if shape[0] < 2:
        raise ValueError("matrices must be at least 2x2")
    return shape[0]


def _as_matrix(g) -> np.ndarray:
    m = np.asarray(g, dtype=float)
    _square_size(m.shape)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def random_special_linear(n: int, rng,
                          max_eigenbasis_condition: float | None = None
                          ) -> np.ndarray:
    """Draw a det-1 matrix: uniform entries in [-2, 2], rescaled.

    Draws with det < 0.05 are rejected before rescaling: negative ones,
    and small ones whose n-th root would blow the entries up.  With
    ``max_eigenbasis_condition`` set, draws whose eigenvector basis has
    2-norm condition number above the cap are also rejected; since
    |log sv_i(g^m) - m log|lambda_i|| <= log cond(V), the cap certifies
    how fast renormalized power averages converge to the Jordan
    projection (cap 2.7 gives 1e-3 at m = 2^10).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    while True:
        m = rng.uniform(-2.0, 2.0, size=(n, n))
        det = np.linalg.det(m)
        if det < 0.05:
            continue
        g = m / det ** (1.0 / n)
        if max_eigenbasis_condition is not None:
            _, vecs = np.linalg.eig(g)
            if np.linalg.cond(vecs) > max_eigenbasis_condition:
                continue
        return g


def _exact_rows(g) -> tuple[list[list[int]], int]:
    """g = M/D exactly: the integer rows of M and a power of two D.

    Integers and integral floats give D = 1; other entries are rounded to
    float, each an integer over a power of two.  Raises ValueError, before
    splitting an entry, unless g is square and at least 2x2.
    """
    n = _square_size(np.shape(g))
    ratios = []
    for x in np.asarray(g, dtype=object).ravel().tolist():
        if isinstance(x, (int, np.integer)):
            ratios.append((int(x), 1))
        elif math.isfinite(x := float(x)):
            ratios.append(x.as_integer_ratio())
        else:
            raise ValueError("matrix entries must be finite")
    denom = max(d for _, d in ratios)
    ints = [num * (denom // d) for num, d in ratios]
    return [ints[i * n:(i + 1) * n] for i in range(n)], denom


def cartan_projection(g) -> np.ndarray:
    """Sorted (non-increasing) log singular values.

    For det-1 matrices the entries sum to 0 up to roundoff.  Any input
    takes the exact kernel of ``renormalized_cartan_average`` at 0
    squarings, so no LAPACK rounding reaches an ill-conditioned matrix.
    """
    rows, denom = _exact_rows(g)
    return _log_singular_values(rows, denom, 0)


def is_unipotent(g) -> bool:
    """(g - I)^n == 0, decided exactly for integer and float input alike.

    With g = M/D (``_exact_rows``), g is unipotent iff the exact
    characteristic polynomial of M is (x - D)^n (Cayley-Hamilton gives
    (M - D I)^n = 0 from it).  A float is the binary fraction it is, so a
    float product that only approximates a unipotent is not one.
    """
    rows, denom = _exact_rows(g)
    n = len(rows)
    return char_poly(as_int_matrix(rows)) == tuple(
        math.comb(n, k) * (-denom) ** k for k in range(n + 1))


def jordan_projection(g) -> np.ndarray:
    """Sorted (non-increasing) log eigenvalue moduli.

    Equals lim cartan_projection(g^m)/m.  For g = M/D it is
    ``lattice.log_eigenvalue_moduli(M)`` less log D, so integer unipotents
    give the exact zero vector (D = 1 subtracts 0.0).
    """
    rows, denom = _exact_rows(g)
    return (np.array(log_eigenvalue_moduli(rows))
            - (denom.bit_length() - 1) * math.log(2))


def symmetric_space_norm(g) -> float:
    """Euclidean norm of the Cartan projection; subadditive."""
    return float(np.linalg.norm(cartan_projection(g)))


def symmetric_space_displacement(g) -> float:
    """Euclidean norm of the Jordan projection.

    Conjugation-invariant and bounded by the symmetric-space norm; exactly
    0.0 for integer unipotents.
    """
    return float(np.linalg.norm(jordan_projection(g)))


@functools.lru_cache(maxsize=8)
def _projective_samples(n: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of P(R^n), as unit rows.

    Dimension 2 uses equally spaced angles on a half-circle, dimension 3 a
    Fibonacci lattice on the sphere (antipodes identified for free);
    higher dimensions fall back to a fixed-seed Gaussian lattice, which is
    equally deterministic.  Built once per (n, count) and returned
    read-only, so no caller can alter a later certificate through it.
    """
    if n == 2:
        theta = np.pi * (np.arange(count) + 0.5) / count
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        j = np.arange(count)
        z = 2.0 * (j + 0.5) / count - 1.0
        phi = 2.0 * np.pi * j / golden
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    else:
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((count, n))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    pts.flags.writeable = False
    return pts


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (N, n) arrays.

    Stacked matmul takes one BLAS dot per row, the sum ``np.dot`` and
    ``np.linalg.norm`` form for a single vector, so the result is
    bit-for-bit the per-vector one (``einsum`` sums in another order and
    differs in the last bit).
    """
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of an (N, n) array, bit for bit."""
    return np.sqrt(_row_dots(x, x))


def _last_axis_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` bit for bit: numpy sums fewer than 8
    terms left to right, as this sum does at a fifth of the cost."""
    if x.shape[-1] >= 8:
        return np.linalg.norm(x, axis=-1)
    return np.sqrt(sum(np.square(x[..., k]) for k in range(x.shape[-1])))


def _dominant_real_eigenvector(ms: np.ndarray
                               ) -> tuple[np.ndarray, list, np.ndarray,
                                          np.ndarray]:
    """Per matrix of an (N, n, n) stack: the real unit eigenvectors, right
    and left, of the eigenvalue of strictly largest modulus, or the error
    ruling them out, all from one batched ``np.linalg.eig``.

    Returns ``(vecs, errors, moduli, left)``; ``errors[i]`` is None or an
    unraised EigenFailure (LAPACK failed or gave radius 0 for a nonsingular
    matrix with a simple exact top modulus, or the left eigenvector's
    minors overflow to a non-finite normal), SingularInput (zero radius, g
    singular) or NoDominantEigenvalue (top modulus within 1e-9 * radius of
    the next, exactly so when LAPACK gave radius 0, or top eigenvalue not
    exactly real: LAPACK pairs conjugates exactly, so that test decides
    only moduli that overflow or underflow), and
    ``vecs[i]`` and ``left[i]`` are meaningful only when it is None.
    ``moduli`` are the eigenvalue moduli.  Each vector is scaled to make
    its entry of largest modulus positive, and ``left`` has no -0.0 entry.

    The top eigenvalue lam of a row without error is simple, so
    A = M - lam I has rank n - 1 and adj(A) = c v w^T with c != 0, v the
    right and w the left eigenvector: every nonzero row of adj(A) is a
    multiple of w, the longest at the index where |v| peaks, which is
    the pivot of ``vecs``.  That row comes from n signed minors of A.
    """
    count = len(ms)
    errors: list = [None] * count
    try:
        eigvals, eigvecs = np.linalg.eig(ms)
    except np.linalg.LinAlgError:
        eigvals = np.full(ms.shape[:2], np.nan, dtype=complex)
        eigvecs = np.full(ms.shape, np.nan, dtype=complex)
        for i, m in enumerate(ms):
            try:
                eigvals[i], eigvecs[i] = np.linalg.eig(m)
            except np.linalg.LinAlgError as exc:
                errors[i] = EigenFailure(str(exc))
                errors[i].__cause__ = exc
    rows = np.arange(count)
    moduli = np.abs(eigvals)
    order = np.argsort(moduli, axis=1)[:, ::-1]
    top = order[:, 0]
    radius = moduli[rows, top]
    second = moduli[rows, order[:, 1]]
    lam = eigvals[rows, top]
    for i in np.flatnonzero((radius == 0.0)
                            | (second > radius - _EIG_REL_TOL * radius)
                            | (lam.imag != 0.0)):
        if errors[i] is not None:
            continue
        if radius[i] == 0.0:
            exact = _exact_rows(ms[i])[0]
            if det_exact(exact) == 0:
                errors[i] = SingularInput("zero spectral radius")
                continue
            # g is nonsingular, so eig lost its spectrum off the float
            # range: compare the exact top moduli (g = M/D shifts each log
            # by log D)
            log_top, log_next, *_ = log_eigenvalue_moduli(exact)
            errors[i] = (NoDominantEigenvalue("exact top moduli are not "
                                              "separated")
                         if math.exp(log_next - log_top) > 1 - _EIG_REL_TOL
                         else EigenFailure("eig gave spectral radius 0 for a "
                                           "nonsingular matrix"))
        elif second[i] > radius[i] - _EIG_REL_TOL * radius[i]:
            errors[i] = NoDominantEigenvalue(
                f"top moduli {radius[i]:.6g} and {second[i]:.6g} "
                "are not separated")
        else:
            errors[i] = NoDominantEigenvalue(
                f"top eigenvalue {lam[i]:.6g} is not real")
    vec = eigvecs[rows, :, top]
    at = np.argmax(np.abs(vec), axis=1)
    pivot = vec[rows, at]
    # np.linalg.eig hands back real arrays when every eigenvalue of its
    # input is real, and real division rounds differently from complex
    # division; so divide real rows in real arithmetic, as the
    # one-matrix call does
    real = np.all(eigvals.imag == 0.0, axis=1)
    scaled = np.empty(vec.shape)
    scaled[real] = vec.real[real] / pivot.real[real, None]
    scaled[~real] = np.real(vec[~real] / pivot[~real, None])
    n = ms.shape[1]
    keep = np.array([[k for k in range(n) if k != i] for i in range(n)])
    # scaled exactly, by a power of two near 1 / radius, so that the
    # minors of a matrix near 1e-170 or 1e170 neither under- nor overflow
    a = np.ldexp(ms - lam.real[:, None, None] * np.eye(n),
                 -np.frexp(radius)[1][:, None, None])
    # entry q of row `at` of adj(A) is (-1)^(at + q) det(A without row q
    # and column at); the pivot division below cancels the (-1)^at
    minors = np.take_along_axis(a, keep[at][:, None, :], axis=2)[:, keep]
    left = np.linalg.det(minors) * (-1.0) ** np.arange(n)
    left = left / left[rows, np.argmax(np.abs(left), axis=1), None]
    # + 0.0 turns the -0.0 of a zero minor's sign flip into 0.0
    left = left / _row_norms(left)[:, None] + 0.0
    # minors of entries near 1e200 overflow, and their NaN normal would
    # fail every separation and band test in silence
    for i in np.flatnonzero(~np.all(np.isfinite(left), axis=1)):
        errors[i] = errors[i] or EigenFailure(
            f"repelling normal is not finite: {left[i].tolist()}, from the "
            f"minors of g - lam I at lam = {lam[i].real:.6g}")
    return scaled / _row_norms(scaled)[:, None], errors, moduli, left


@dataclass(frozen=True)
class ProximalityCertificate:
    """Witnesses that g attracts the far-from-hyperplane part of P(V).

    ``separation`` is the distance from the attracting point to the
    repelling hyperplane (>= r); ``contraction_margin`` the worst value of
    epsilon - d(g x, attracting) over tested samples x with
    d(x, hyperplane) >= epsilon (>= 0).  Sampling is deterministic, so the
    certificate is reproducible; it is evidence at the stated sample
    count, not an interval-arithmetic proof.
    """

    r: float
    epsilon: float
    attracting: tuple[float, ...]
    repelling_normal: tuple[float, ...]
    separation: float
    contraction_margin: float
    samples_tested: int


class _ProximalBlock(NamedTuple):
    """Per-row outcome of ``_certify_block``; arrays hold one row per
    matrix and are meaningful where ``errors`` is None."""

    errors: list
    attracting: np.ndarray
    repelling_normal: np.ndarray
    separation: np.ndarray
    contraction_margin: np.ndarray
    samples_tested: np.ndarray
    moduli: np.ndarray


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _certify_block(ms: np.ndarray, r: float, epsilon: float,
                   pts: np.ndarray) -> _ProximalBlock:
    """The checks of ``certify_proximal`` over a finite (N, n, n) float
    stack and one sample lattice ``pts``.

    ``errors[i]`` is the exception ``certify_proximal`` raises for
    matrix i, unraised, or None when it certifies.  The eigen and
    separation checks take the whole stack, on one batched eig that
    gives the attracting point, the moduli and the repelling normal
    (``_dominant_real_eigenvector``); the sample test runs only on rows
    past them, ``_SAMPLE_CHUNK`` at a time (each row gets the same bits
    in any stack or chunk).  Elsewhere ``contraction_margin`` and
    ``samples_tested`` are left at zero.
    """
    count = len(ms)
    x_plus, errors, moduli, normal = _dominant_real_eigenvector(ms)
    separation = np.minimum(1.0, np.abs(_row_dots(
        x_plus / _row_norms(x_plus)[:, None],
        normal / _row_norms(normal)[:, None])))
    for i in np.flatnonzero(separation < r):
        errors[i] = errors[i] or SeparationFailed(float(separation[i]), r)
    live = [i for i, exc in enumerate(errors) if exc is None]
    margin, tested = np.zeros(count), np.zeros(count, dtype=int)
    # g^T of each live row, scaled exactly by a power of two near 1 /
    # spectral radius, as the adjugate is, so that image norms neither
    # under- nor overflow at any scale of g; contiguous, as pts @ g^T on
    # the transposed view takes 3-4 times as long per chunk
    transposed = np.ascontiguousarray(np.ldexp(
        ms[live], -np.frexp(moduli[live].max(axis=1))[1][:, None, None]
    ).transpose(0, 2, 1))
    for start in range(0, len(live), _SAMPLE_CHUNK):
        rows = live[start:start + _SAMPLE_CHUNK]
        far = np.abs(np.matmul(pts, normal[rows, :, None])[..., 0]) >= epsilon
        images = pts @ transposed[start:start + _SAMPLE_CHUNK]
        norms = _last_axis_norms(images)
        # dist = sqrt(max(0, 1 - min(1, |dist| / norms)^2)), in place
        dist = np.matmul(images, x_plus[rows, :, None])[..., 0]
        np.minimum(1.0, np.divide(np.abs(dist, out=dist), norms, out=dist),
                   out=dist)
        np.sqrt(np.maximum(0.0, np.subtract(1.0, np.square(dist, out=dist),
                                            out=dist), out=dist), out=dist)
        # first worst among the tested samples, as over the band's subset
        worst = np.argmax(np.where(far, dist, -1.0), axis=1)
        worst_dist = dist[np.arange(len(rows)), worst]
        margin[rows] = epsilon - worst_dist
        tested[rows] = hits = np.count_nonzero(far, axis=1)
        for j in np.flatnonzero((hits == 0) | (margin[rows] < 0)):
            i = rows[j]
            if hits[j] == 0:
                errors[i] = ValueError("no sample point clears the epsilon "
                                       "band; increase samples or decrease "
                                       "epsilon")
            else:
                errors[i] = ContractionFailed(tuple(pts[worst[j]].tolist()),
                                              float(worst_dist[j]), epsilon)
    return _ProximalBlock(errors, x_plus, normal, separation, margin, tested,
                          moduli)


def _check_proximal_params(r: float, epsilon: float) -> None:
    """Refuse (r, epsilon) unless 1 >= r > 2 epsilon > 0: the separation
    of two unit vectors is at most 1, so no matrix certifies past it."""
    if not (r > 2 * epsilon > 0):
        raise ValueError(f"need r > 2 epsilon > 0, got r={r}, epsilon={epsilon}")
    if r > 1.0:
        raise ValueError(f"r must be <= 1, the largest separation, got {r}")


def certify_proximal(g, r: float, epsilon: float,
                     samples: int = 1000) -> ProximalityCertificate:
    """Certify (r, epsilon)-proximality by direct verification.

    The attracting point is the eigenvector of the dominant eigenvalue,
    the repelling hyperplane the invariant complement (kernel of the
    dominant left eigenvector).  Raises ValueError unless
    1 >= r > 2 epsilon > 0 and samples >= 1, or when no sample clears the
    band; NoDominantEigenvalue / SeparationFailed / ContractionFailed as
    appropriate; SingularInput / EigenFailure as
    ``_dominant_real_eigenvector`` finds them.

    Runs the batched kernel that ``experiments.run_ams_gap`` feeds all
    its draws, on a stack of one; the sample lattice is deterministic and
    built once per (dimension, samples), so a matrix gets the same
    certificate alone or inside a stack.
    """
    _check_proximal_params(r, epsilon)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m = _as_matrix(g)
    out = _certify_block(m[None], r, epsilon,
                         _projective_samples(m.shape[0], samples))
    if out.errors[0] is not None:
        raise out.errors[0]
    return ProximalityCertificate(
        r=float(r), epsilon=float(epsilon),
        attracting=tuple(out.attracting[0].tolist()),
        repelling_normal=tuple(out.repelling_normal[0].tolist()),
        separation=float(out.separation[0]),
        contraction_margin=float(out.contraction_margin[0]),
        samples_tested=int(out.samples_tested[0]))


def cartan_jordan_gap(g) -> float:
    """Euclidean norm of cartan_projection(g) - jordan_projection(g).

    Zero exactly for normal matrices; bounded over families of uniformly
    proximal elements, which is what the gap experiment measures.
    """
    return float(np.linalg.norm(cartan_projection(g) - jordan_projection(g)))


def _gap_block(ms: np.ndarray, moduli: np.ndarray) -> list:
    """``cartan_jordan_gap`` of each matrix of a finite (N, n, n) float
    stack from one batched LAPACK SVD and its (N, n) eigenvalue ``moduli``:
    the exact route takes milliseconds per matrix, and ams-gap has 1000.
    None for each row LAPACK does not decide (integral entries, degenerate
    or failed singular values, a determinant below 1e-300, a zero
    eigenvalue modulus), so the caller runs the exact ``cartan_jordan_gap``
    on it.  After a LinAlgError the SVD is retried matrix by matrix.
    """
    try:
        sv = np.linalg.svd(ms, compute_uv=False)
    except np.linalg.LinAlgError:
        sv = np.full(ms.shape[:2], np.nan)  # a failed row fails "> 1e-14"
        for i, m in enumerate(ms):
            with suppress(np.linalg.LinAlgError):
                sv[i] = np.linalg.svd(m, compute_uv=False)
    scalar = (np.all(ms == np.round(ms), axis=(1, 2))
              | ~(sv[:, -1] > sv[:, 0] * 1e-14)
              | (np.abs(np.linalg.det(ms)) < 1e-300)
              | np.any(moduli == 0.0, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = (np.sort(np.log(sv), axis=1)[:, ::-1]
                - np.sort(np.log(moduli), axis=1)[:, ::-1])
    gaps = _row_norms(diff).tolist()
    return [None if s else gap for s, gap in zip(scalar.tolist(), gaps)]


def _exterior_powers(rows: list[list[int]]) -> list[list[list[int]]]:
    """Lambda^k of an integer matrix for k = 1..n: the k x k minors, index
    sets in lexicographic order, each by Laplace expansion along its first
    row over the (k-1) x (k-1) minors.  The last one is [[det]]."""
    n = len(rows)
    minors = {((), ()): 1}
    powers = []
    for k in range(1, n + 1):
        sets = list(combinations(range(n), k))
        minors = {(i, j): sum((-1) ** t * rows[i[0]][c]
                              * minors[i[1:], j[:t] + j[t + 1:]]
                              for t, c in enumerate(j))
                  for i in sets for j in sets}
        powers.append([[minors[i, j] for j in sets] for i in sets])
    return powers


def _square(h: list) -> tuple[list, int]:
    """h @ h = 10^e H in the current decimal context, with e the decimal
    exponent of the largest entry, so max |H| lies in [1, 10) and the
    shift is exact.  Raises if the product cancels more than half the
    working digits (relative to its largest entry)."""
    cols = list(zip(*h))
    out, size = [], 0
    for row in h:
        new = []
        for col in cols:
            terms = [a * b for a, b in zip(row, col)]
            new.append(sum(terms))
            size = max(size, sum(abs(t) for t in terms))
        out.append(new)
    f = max(abs(x) for row in out for x in row)
    if f.scaleb(_RCA_DIGITS // 2) <= size:
        raise SingularInput("renormalized power lost more than half the "
                            f"{_RCA_DIGITS} working digits to cancellation")
    e = f.adjusted()
    return [[x.scaleb(-e) for x in row] for row in out], e


def _top_eigenvalue(a: list) -> Decimal:
    """Largest eigenvalue of a symmetric positive semidefinite matrix by
    cyclic Jacobi in the current decimal context, rotating ``a`` in place;
    exact when ``a`` is diagonal.  Off-diagonal entries below
    10^-(digits-10) of the trace are left in place: they move an
    eigenvalue by at most n times that."""
    n = len(a)
    tol = sum(a[i][i] for i in range(n)).scaleb(10 - _RCA_DIGITS)
    rotated = True
    while rotated:
        rotated = False
        for p, q in combinations(range(n), 2):
            apq = a[p][q]
            if abs(apq) <= tol:
                continue
            rotated = True
            theta = (a[q][q] - a[p][p]) / (2 * apq)
            t = 1 / (abs(theta) + (theta * theta + 1).sqrt())
            if theta < 0:
                t = -t
            c = 1 / (t * t + 1).sqrt()
            s = t * c
            for r in range(n):
                if r != p and r != q:
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * arp - s * arq
                    a[r][q] = a[q][r] = s * arp + c * arq
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = Decimal(0)
    return max(a[i][i] for i in range(n))


def _log_singular_values(rows: list[list[int]], denom: int,
                         squarings: int) -> np.ndarray:
    """cartan_projection(g^m)/m for g = M/D, m = 2^squarings, from the
    exact integer rows of M and the power of two D = ``denom``.

    The singular values of g^m span a dynamic range of order
    exp(m * spectral spread), far beyond double precision, but their
    partial sums need only top singular values: S_k = l_1 + ... + l_k is
    (1/m) log sigma_1((Lambda^k g)^m), since Lambda^k(g^m) = (Lambda^k g)^m,
    and S_n = log |det g|.  Lambda^k M and det M are exact integer
    minors.  Each (Lambda^k M)^m is repeated squaring with
    renormalization by the power of ten of the largest entry, in
    ``decimal`` at a fixed 80 digits: a top singular value is well
    conditioned relative to itself, so the precision need not grow with
    m.  sigma_1^2 is the top eigenvalue of H^T H by cyclic Jacobi.
    l_k = S_k - S_(k-1) is returned as 0.0 when it lies below the route's
    absolute error, 10^-60 max |S|.  A zero determinant, or a squaring
    that cancels more than half the working digits, raises SingularInput.
    """
    powers = _exterior_powers(rows)
    if powers[-1][0][0] == 0:
        raise SingularInput("matrix is singular")
    scale = 2 ** squarings
    with localcontext(Context(prec=_RCA_DIGITS, Emax=MAX_EMAX,
                              Emin=MIN_EMIN)):
        ln10 = Decimal(10).ln()
        ln_denom = (denom.bit_length() - 1) * Decimal(2).ln()
        sums = [Decimal(0)]
        for k, minors in enumerate(powers, start=1):
            # (Lambda^k M)^(2^j) = 10^x H_j
            h = [[Decimal(v) for v in row] for row in minors]
            x = 0
            for _ in range(squarings):
                h, e = _square(h)
                x = 2 * x + e
            cols = list(zip(*h))
            gram = [[sum(a * b for a, b in zip(u, v)) for v in cols]
                    for u in cols]
            log_top = x * ln10 + _top_eigenvalue(gram).ln() / 2
            sums.append(log_top / scale - k * ln_denom)
        tol = max(abs(s) for s in sums).scaleb(20 - _RCA_DIGITS)
        diffs = [b - a for a, b in zip(sums, sums[1:])]
        return np.array([0.0 if abs(d) <= tol else float(d) for d in diffs])


def renormalized_cartan_average(g, squarings: int) -> np.ndarray:
    """cartan_projection(g^m)/m for m = 2^squarings.

    Converges to the Jordan projection as the number of squarings grows.
    The entries are exact: g = M/D with M an integer matrix and D a
    power of 2 (``_exact_rows``), as ``_log_singular_values`` takes them.
    """
    rows, denom = _exact_rows(g)
    if squarings < 0:
        raise ValueError("squarings must be >= 0")
    return _log_singular_values(rows, denom, squarings)
