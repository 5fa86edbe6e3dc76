"""Reference checks of the paper's setting, kept beside the tests.

No report runs these, so they live here rather than in ``dispgeo``: the
tests compare the package against them, or run them as checks of the
setting itself.

- ``reduce_word`` and ``four_point_holds``: free reduction and the
  delta = 0 four-point condition of F_k (``dispgeo.words``);
- ``layer_words``: the reduced words of one length of F_k, whole, by
  brute force, sharing no code with ``dispgeo.words._LayerTables``;
- ``_block_peel``, ``_block_product`` and ``_block_scan``: _peel, products
  and the prop422 scan over arrays of words, letter by letter, against
  which the layer tables of ``dispgeo.words.ball`` and
  ``dispgeo.experiments.run_prop422`` are checked (``dispgeo.words``,
  ``dispgeo.hyperbolic``);
- ``check_chain_separation`` and ``conjugacy_undistortion_check``:
  separated chains and undistortion in conjugacy classes
  (``dispgeo.hyperbolic``);
- ``check_special_linear``, ``projective_metric`` and
  ``point_hyperplane_distance``: the det-1 check and the projective
  sine metrics (``dispgeo.matgeo``);
- ``certify_block_every_row``: the batched proximality checks with the
  sample test on every row, which ``dispgeo.matgeo._certify_block``
  now runs only on rows past the eigen and separation checks, and the
  repelling normal from a second eig, of M^T, which ``_certify_block``
  now reads from adj(M - lam I); both scale g by a power of two near
  1 / spectral radius for the sample test;
- ``elementary_generators_by_faddeev_leverrier`` and
  ``strip_cyclotomic_fixed_point``: every generator inverted by a
  Faddeev-LeVerrier loop, and the cyclotomic strip retried until nothing
  divides, which ``dispgeo.lattice`` now does in closed form and in one
  pass;
- ``unipotent_conjugation_identity`` and ``is_p_unit_denominator``: the
  diagonal rescaling identity in SL(2, Z[1/p]) (``dispgeo.lattice``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from dispgeo.errors import (
    ContractionFailed,
    DispgeoError,
    HypothesisViolated,
    RankMismatch,
    SeparationFailed,
)
from dispgeo.hyperbolic import _acr_cut, _as_delta
from dispgeo.lattice import (
    _cyclotomic,
    _det_and_inverse,
    _operator_norm_upper,
    _orders,
    _poly_divmod,
    identity,
    mat_mul,
)
from dispgeo.matgeo import (
    _as_matrix,
    _dominant_real_eigenvector,
    _ProximalBlock,
    _row_dots,
    _row_norms,
)
from dispgeo.words import (
    Word,
    ball_size,
    distance,
    gromov_product,
)


class ZeroVector(DispgeoError, ValueError):
    """A projective-space operation received the zero vector."""


class ZeroScale(DispgeoError, ValueError):
    """The scaling parameter of a diagonal conjugation must be nonzero."""


# ---------------------------------------------------------------------------
# free groups


def reduce_word(letters: Sequence[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence.

    >>> reduce_word([2, 1, -1, -2, 1], rank=2).to_str()
    'a'
    """
    return Word(letters, rank)


def four_point_holds(g: Word, h: Word, k: Word, delta) -> bool:
    """The four-point condition <g,k> >= min(<g,h>, <h,k>) - delta at the
    identity; exact comparison (delta may be int or Fraction), made on the
    integer products scaled by den with delta = num/den."""
    if not (g.rank == h.rank == k.rank):
        raise RankMismatch("mixed ranks in four-point check")
    gk = gromov_product(g, k)
    gh = gromov_product(g, h)
    hk = gromov_product(h, k)
    d = Fraction(delta)
    num, den = d.numerator, d.denominator
    return den * gk >= den * min(gh, hk) - num


def layer_words(rank: int, n: int) -> np.ndarray:
    """The reduced words of F_rank of length n, one per row, in
    lexicographic order with letters ordered a < a^-1 < b < b^-1 < ...:
    each word of length n - 1 followed by each letter, less the rows
    whose new letter cancels the last."""
    order = np.array([x for i in range(1, rank + 1) for x in (i, -i)])
    words = np.zeros((1, 0), dtype=order.dtype)
    for k in range(n):
        words = np.column_stack([np.repeat(words, len(order), axis=0),
                                 np.tile(order, len(words))])
        if k:
            words = words[words[:, -1] != -words[:, -2]]
    return words


def _count_leading(tests, n: int) -> np.ndarray:
    """Per word, how many of the leading boolean tests (vectors over n
    words, or plain bools) hold."""
    count = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for test in tests:
        alive &= test
        count += alive
    return count


def _peel_rows(rows, n: int) -> np.ndarray:
    """_peel of n words of equal length given letter by letter: rows[i] is
    the i-th letter of every word (a vector, or one int shared by all)."""
    return _count_leading(
        (rows[i] == -rows[-1 - i] for i in range(len(rows) // 2)), n)


def _block_peel(block: np.ndarray) -> np.ndarray:
    """_peel of every row of an array of words of one length."""
    return _peel_rows(block.T, len(block))


def _block_product(block: np.ndarray,
                   w: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and _peel of the products g*w for every row g of an array
    of words of one length and one reduced tuple w.

    Row g cancels c letters against w; the rows with the same c have
    products g[:-c] + w[c:] of one length, so each c is one _peel_rows."""
    n, length = block.shape
    t = block.T
    k = min(length, len(w))
    cancel = _count_leading(
        (t[length - 1 - j] == -w[j] for j in range(k)), n)
    peel = np.empty(n, dtype=np.int64)
    for c in range(k + 1):
        cols = np.flatnonzero(cancel == c)
        if len(cols):
            rows = list(t[:length - c, cols]) + list(w[c:])
            peel[cols] = _peel_rows(rows, len(cols))
    return length + len(w) - 2 * cancel, peel


def _block_scan(block: np.ndarray, u: tuple[int, ...], v: tuple[int, ...],
                delta: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """_excess and _first_acr of (g, g*u, g*v) for every row g of an
    array of words of one length, as two arrays."""
    length = block.shape[1]
    peel = _block_peel(block)
    len_u, peel_u = _block_product(block, u)
    len_v, peel_v = _block_product(block, v)
    best = np.maximum(length - 2 * peel,
                      np.maximum(len_u - 2 * peel_u, len_v - 2 * peel_v))
    cut = _acr_cut(delta)
    first = np.where(3 * peel - length <= cut, 0,
                     np.where(3 * peel_u - len_u <= cut, 1,
                              np.where(3 * peel_v - len_v <= cut, 2, 3)))
    return length - 3 * best, first


def check_chain_separation(points: Sequence[Word], a, delta=0) -> bool:
    """Check that a chain with uniformly spaced consecutive triples
    diverges linearly.

    Hypothesis (verified first, HypothesisViolated(n) on the first bad
    triple): d(x_{n+2}, x_n) >= max(d(x_{n+2}, x_{n+1}), d(x_{n+1}, x_n))
    + a + 2 delta.  Returns True iff d(x_n, x_p) >= |n - p| a for every
    pair of indices.
    """
    a = Fraction(a)
    d = _as_delta(delta)
    pts = list(points)
    for n in range(len(pts) - 2):
        d02 = distance(pts[n], pts[n + 2])
        d01 = distance(pts[n], pts[n + 1])
        d12 = distance(pts[n + 1], pts[n + 2])
        if d02 < max(d01, d12) + a + 2 * d:
            raise HypothesisViolated(
                f"triple at index {n}: d(x_n, x_n+2) = {d02} < "
                f"max({d01}, {d12}) + {a} + 2*{d}", index=n)
    for n in range(len(pts)):
        for p in range(n + 1, len(pts)):
            if distance(pts[n], pts[p]) < (p - n) * a:
                return False
    return True


def conjugacy_undistortion_check(gens: Iterable[Word], A, B,
                                 radius: int) -> bool:
    """Check |g| <= A * max_i ell(w_i g) + B for every g in the ball.

    ``gens`` is the finite witness family (may contain the identity), A > 0
    and B >= 0 exact rationals, ``ell`` the translation length.  Returns
    False as soon as one element fails.

    Runs on whole layers of ``layer_words``: w g and g w are conjugate, so
    ell(w g) = ell(g w) comes from ``_block_product``, and since A > 0 a
    layer fails exactly when its row with the least max_i ell(w_i g) does.
    """
    ws = list(gens)
    if not ws:
        raise ValueError("witness family must be nonempty")
    rank = ws[0].rank
    A = Fraction(A)
    B = Fraction(B)
    if A <= 0 or B < 0:
        raise ValueError("need A > 0 and B >= 0")
    ball_size(rank, radius)  # validates the radius
    for w in ws:
        if w.rank != rank:
            raise RankMismatch(f"rank {w.rank} vs {rank}")
    ws = [w.letters for w in ws]
    den = A.denominator * B.denominator  # |g| <= A best + B, times den
    a, b = A.numerator * B.denominator, B.numerator * A.denominator
    for L in range(radius + 1):
        words = layer_words(rank, L)
        best = np.max([length - 2 * peel for length, peel in
                       (_block_product(words, w) for w in ws)], axis=0)
        if den * L > a * int(best.min()) + b:
            return False
    return True


# ---------------------------------------------------------------------------
# real matrices and projective space


def check_special_linear(g) -> None:
    """Raise if |det(g) - 1| > 1e-9 scale^n with scale = max |entry|."""
    m = _as_matrix(g)
    scale = max(1.0, float(np.max(np.abs(m))))
    if abs(np.linalg.det(m) - 1.0) > 1e-9 * scale ** m.shape[0]:
        raise ValueError(f"determinant {np.linalg.det(m)} is not 1")


def _unit(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0 or not np.all(np.isfinite(v)):
        raise ZeroVector(f"{name} must be nonzero and finite")
    return v / norm


def projective_metric(x, y) -> float:
    """Sine of the angle between the lines Rx and Ry; in [0, 1]."""
    ux, uy = _unit(x, "x"), _unit(y, "y")
    cos = min(1.0, abs(float(np.dot(ux, uy))))
    return float(np.sqrt(max(0.0, 1.0 - cos * cos)))


def point_hyperplane_distance(x, normal) -> float:
    """Sine-metric distance from the line Rx to the projectivized
    hyperplane with the given normal vector; in [0, 1]."""
    ux, un = _unit(x, "x"), _unit(normal, "normal")
    return min(1.0, abs(float(np.dot(ux, un))))


def certify_block_every_row(ms: np.ndarray, r: float, epsilon: float,
                            pts: np.ndarray) -> _ProximalBlock:
    """``dispgeo.matgeo._certify_block`` as it was when its sample test
    ran on every row, rejected or not, and its repelling normal was the
    dominant eigenvector of M^T, from a second batched eig whose errors
    were merged with the first's; the checks of ``certify_proximal``
    over a finite (N, n, n) float stack and one sample lattice ``pts``.
    The sample test reads each g times 2^-e, e the binary exponent of
    its spectral radius: the same directions, and image norms that
    neither under- nor overflow at any scale of g.

    ``errors[i]`` is the exception ``certify_proximal`` raises for
    matrix i, unraised, or None when it certifies.
    """
    count = len(ms)
    rows = np.arange(count)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_plus, errors, moduli, _ = _dominant_real_eigenvector(ms)
        normal, normal_errors, _, _ = _dominant_real_eigenvector(
            ms.transpose(0, 2, 1))
        separation = np.minimum(1.0, np.abs(_row_dots(
            x_plus / _row_norms(x_plus)[:, None],
            normal / _row_norms(normal)[:, None])))
        far = np.abs(np.matmul(pts, normal[:, :, None])[..., 0]) >= epsilon
        scaled = np.ldexp(ms, -np.frexp(moduli.max(axis=1))[1][:, None, None])
        images = pts @ scaled.transpose(0, 2, 1)
        norms = np.linalg.norm(images, axis=2)
        cos = np.abs(np.matmul(images, x_plus[:, :, None])[..., 0]) / norms
        dist = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, cos) ** 2))
    # first worst among the tested samples, as over the band's subset
    worst = np.argmax(np.where(far, dist, -1.0), axis=1)
    worst_dist = dist[rows, worst]
    margin = epsilon - worst_dist
    tested = np.count_nonzero(far, axis=1)
    for i in range(count):
        if errors[i] is None:
            errors[i] = normal_errors[i]
        if errors[i] is not None:
            continue
        if separation[i] < r:
            errors[i] = SeparationFailed(float(separation[i]), r)
        elif tested[i] == 0:
            errors[i] = ValueError("no sample point clears the epsilon band; "
                                   "increase samples or decrease epsilon")
        elif margin[i] < 0.0:
            errors[i] = ContractionFailed(tuple(pts[worst[i]].tolist()),
                                          float(worst_dist[i]), epsilon)
    return _ProximalBlock(errors, x_plus, normal, separation, margin, tested,
                          moduli)


# ---------------------------------------------------------------------------
# SL(n, Z): generating sets and cyclotomic factors


def elementary_generators_by_faddeev_leverrier(n: int):
    """(elements, inverse_index, norm_bound) of the E_ij(+-1), i != j, in
    (i, j, sign) order, with every inverse from ``_det_and_inverse``."""
    elements = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for t in (1, -1):
                    rows = [list(row) for row in identity(n)]
                    rows[i][j] = t
                    elements.append(tuple(tuple(row) for row in rows))
    position = {g: k for k, g in enumerate(elements)}
    inverse_index = []
    for g in elements:
        det, inverse = _det_and_inverse(g)
        assert det == 1
        inverse_index.append(position[inverse])
    return (tuple(elements), tuple(inverse_index),
            max(_operator_norm_upper(m) for m in elements))


def strip_cyclotomic_fixed_point(poly: tuple[int, ...], n: int
                                 ) -> tuple[int, ...]:
    """Remove every cyclotomic factor of degree <= n (the orders m with
    totient(m) <= n) as often as it divides, exactly over Z."""
    factors = [_cyclotomic(m) for m in _orders(n)]
    changed = True
    while changed and len(poly) > 1:
        changed = False
        for f in factors:
            if len(poly) >= len(f):
                q, r = _poly_divmod(poly, f)
                if all(c == 0 for c in r):
                    poly = q
                    changed = True
    return poly


# ---------------------------------------------------------------------------
# SL(2, Z[1/p]): rescaling a unipotent by a diagonal conjugation


def is_p_unit_denominator(x: Fraction, p: int) -> bool:
    """True iff x lies in Z[1/p]: the denominator is a power of p."""
    if p < 2:
        raise ValueError("p must be >= 2")
    d = Fraction(x).denominator
    while d % p == 0:
        d //= p
    return d == 1


def unipotent_conjugation_identity(t, p: int | None = None
                                   ) -> tuple[tuple, tuple]:
    """diag(t, 1/t) [[1,1],[0,1]] diag(1/t, t) computed exactly.

    Returns (conjugator, result); the result is [[1, t^2], [0, 1]], so for
    t = p^k the p^(2k)-th power of the unipotent is conjugate to the
    unipotent itself inside SL(2, Z[1/p]).  Passing ``p`` additionally
    enforces that t (hence every matrix entry) lies in Z[1/p].
    """
    t = Fraction(t)
    if t == 0:
        raise ZeroScale("t must be nonzero")
    if p is not None and not (is_p_unit_denominator(t, p)
                              and is_p_unit_denominator(1 / t, p)):
        raise ValueError(f"{t} is not a unit of Z[1/{p}]")
    conj = ((t, Fraction(0)), (Fraction(0), 1 / t))
    u = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    inv = ((1 / t, Fraction(0)), (Fraction(0), t))
    result = mat_mul(mat_mul(conj, u), inv)
    assert result == ((1, t * t), (0, 1))
    return conj, result
