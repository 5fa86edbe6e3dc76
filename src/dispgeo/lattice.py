"""Exact arithmetic on SL(n,Z): word metrics, roots, finite quotients.

Matrices are nested tuples of Python ints, so single-matrix arithmetic
is exact and overflow-free.  Every matrix stack is int64 instead: the
ball search and the conjugate search bound the largest possible entry of
each product in Python ints and raise ResourceExceeded unless it stays
below 2^62.  The root search in a box walks only the integer points of
the target's commutant (every root commutes with it), solving the pivot
entries from the free ones mod a prime p; it powers those points mod p,
with n (p - 1)^2 < 2^62, and confirms its survivors exactly, so no
entry ever wraps.  The ball search tells matrices apart by one key per
matrix (packed int64 digits when they fit, else the matrix's bytes) and
deduplicates each layer with one stable sort of those keys.  The module
provides the breadth-first word
metric over a symmetric generating set (default: elementary matrices
E_ij(+-1)), upper and lower bounds for the translation length, the
bounded-depth-roots certificate, and contortion witnesses through
reduction mod a prime.  The root moduli of an integer polynomial (the
integer Jordan projection, the depth certificate's K) come from closed
forms up to degree 2 and from exact Schur-Cohn root counts in discs
beyond, so no float iteration decides them.  The diagonal conjugation
identity that rescales a unipotent inside SL(2, Z[1/p]) is a test oracle
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionUnsupported,
    IdentityInput,
    NoModulusFound,
    ResourceExceeded,
    SingularInput,
    SoundnessFailure,
    TorsionInput,
)

__all__ = [
    "IntMatrix",
    "as_int_matrix",
    "identity",
    "mat_mul",
    "mat_pow",
    "mat_mod",
    "mat_pow_mod",
    "det_exact",
    "inverse_unimodular",
    "char_poly",
    "log_eigenvalue_moduli",
    "GeneratorSet",
    "elementary_generators",
    "BallTable",
    "enumerate_ball",
    "word_length_bfs",
    "translation_length_upper",
    "translation_length_lower",
    "unipotence_exponent",
    "has_trivial_hyperbolic_part",
    "is_torsion",
    "DepthBound",
    "depth_root_bound",
    "find_roots_in_box",
    "sl_group_order",
    "ContortionWitness",
    "contortion_witness",
]

IntMatrix = tuple[tuple[int, ...], ...]


def as_int_matrix(rows) -> IntMatrix:
    """Normalize to a square tuple-of-tuples of Python ints."""
    if isinstance(rows, np.ndarray):
        if not np.issubdtype(rows.dtype, np.integer):
            if not np.all(rows == np.round(rows)):
                raise ValueError("matrix entries must be integers")
        rows = rows.tolist()
    mat = tuple(tuple(row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("matrix must be square and nonempty")
    for row in mat:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                if isinstance(x, float) and x.is_integer():
                    continue
                raise ValueError(f"non-integer entry {x!r}")
    return tuple(tuple(int(x) for x in row) for row in mat)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        return mat_pow(inverse_unimodular(a), -k)
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_mod(a: IntMatrix, m: int) -> IntMatrix:
    return tuple(tuple(x % m for x in row) for row in a)


def mat_pow_mod(a: IntMatrix, k: int, m: int) -> IntMatrix:
    result = mat_mod(identity(len(a)), m)
    base = mat_mod(a, m)
    while k:
        if k & 1:
            result = mat_mod(mat_mul(result, base), m)
        base = mat_mod(mat_mul(base, base), m)
        k >>= 1
    return result


def det_exact(a: IntMatrix) -> int:
    """(-1)^n c_n, the constant term of the Faddeev-LeVerrier loop."""
    return _det_and_inverse(a)[0]


def _shift(a: IntMatrix, c: int) -> IntMatrix:
    """a + c I."""
    return tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


def _faddeev_leverrier(a: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """Characteristic polynomial (highest degree first) and M_n, where
    M_1 = I, c_k = -tr(a M_k) / k, M_(k+1) = a M_k + c_k I.

    a M_n = -c_n I, so M_n is (-1)^(n+1) adj(a).  Each c_k is an integer
    for integer a, so every division is exact over Z.
    """
    n = len(a)
    coeffs = [1]
    m = identity(n)
    am = a
    for k in range(1, n + 1):
        ck = -(sum(am[i][i] for i in range(n)) // k)
        coeffs.append(ck)
        if k < n:
            m = _shift(am, ck)
            am = mat_mul(a, m)
    return tuple(coeffs), m


def _det_and_inverse(a: IntMatrix) -> tuple[int, IntMatrix | None]:
    """det(a) = (-1)^n c_n and, when it is +-1, the exact integer inverse
    -M_n / c_n, both from one Faddeev-LeVerrier loop."""
    coeffs, m = _faddeev_leverrier(a)
    cn = coeffs[-1]
    inverse = (tuple(tuple(-cn * x for x in row) for row in m)
               if cn in (1, -1) else None)
    return (-1) ** len(a) * cn, inverse


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a det +-1 integer matrix (again integer)."""
    det, inverse = _det_and_inverse(a)
    if inverse is None:
        raise ValueError(f"determinant {det} is not a unit")
    return inverse


def char_poly(a: IntMatrix) -> tuple[int, ...]:
    """Characteristic polynomial coefficients, highest degree first."""
    return _faddeev_leverrier(a)[0]


# ---------------------------------------------------------------------------
# Word metric over a symmetric generating set


def _is_elementary(m: IntMatrix) -> int | None:
    """Off-diagonal entry t when m = I + t e_ij, else None."""
    n = len(m)
    t = None
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            if m[i][j] != want:
                if i == j or t is not None:
                    return None
                t = m[i][j]
    return t


def _operator_norm_upper(m: IntMatrix) -> float:
    """Certified upper bound for the operator norm.

    Elementary matrices I + t e_ij act in a single coordinate plane and
    get the exact bound (|t| + sqrt(t^2 + 4))/2; anything else falls back
    to the Frobenius norm, which always dominates the operator norm.
    """
    t = _is_elementary(m)
    if t is not None:
        tt = abs(t)
        return (tt + math.sqrt(tt * tt + 4.0)) / 2.0 * (1.0 + 1e-12)
    frob = math.sqrt(sum(x * x for row in m for x in row))
    return frob * (1.0 + 1e-12)


class GeneratorSet:
    """Symmetric generating set with a certified operator-norm bound.

    ``norm_bound`` is an upper bound c, computed from the elements, for the
    operator norm of every generator, so a word of length L has norm <= c^L.
    ``inverse_index[k]`` is the position of the inverse of element k:
    2I - g for an elementary g = I + t e_ij, else Faddeev-LeVerrier's.
    Read-only: both are derived from ``elements``, never set.
    """

    def __init__(self, elements: tuple[IntMatrix, ...]):
        if not elements:
            raise ValueError("generating set must be nonempty")
        n = len(elements[0])
        position = {g: k for k, g in enumerate(elements)}
        if identity(n) in position:
            raise ValueError("generating set must not contain the identity")
        inverse_index = []
        for g in elements:
            det, inverse = (
                _det_and_inverse(g) if _is_elementary(g) is None else
                (1, _shift(tuple(tuple(-x for x in row) for row in g), 2)))
            if det != 1:
                raise ValueError(f"generator {g} has determinant != 1")
            if inverse not in position:
                raise ValueError(f"generating set not closed under "
                                 f"inversion: missing inverse of {g}")
            inverse_index.append(position[inverse])
        vars(self).update(
            elements=elements, inverse_index=tuple(inverse_index),
            norm_bound=max(map(_operator_norm_upper, elements)))

    def __setattr__(self, name, value):
        raise AttributeError(f"GeneratorSet is read-only: cannot set {name}")

    @property
    def dimension(self) -> int:
        return len(self.elements[0])

    @classmethod
    def from_matrices(cls, mats) -> "GeneratorSet":
        return cls(elements=tuple(as_int_matrix(m) for m in mats))


def elementary_generators(n: int) -> GeneratorSet:
    """All E_ij(+-1), i != j, in deterministic (i, j, sign) order.

    Each has operator norm (1 + sqrt 5)/2 < 1.62 and a closed-form inverse.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for t in (1, -1):
                    rows = [list(row) for row in identity(n)]
                    rows[i][j] = t
                    mats.append(tuple(tuple(row) for row in rows))
    return GeneratorSet.from_matrices(mats)


_INT64_LIMIT = 2 ** 62


def _certify_int64(bound: int, what: str) -> None:
    """Refuse an int64 product whose entries may reach 2^62."""
    if bound >= _INT64_LIMIT:
        raise ResourceExceeded(f"{what} may have entries up to {bound}, "
                               "past the int64 bound 2^62", count=bound)


def _abs_max(stack: np.ndarray) -> int:
    return int(np.abs(stack).max(initial=0))


def _row_keys(*stacks: np.ndarray,
              bound: int | None = None) -> list[np.ndarray]:
    """One key per matrix of each (m, n, n) int64 stack, equal exactly
    when the matrices are, across all the stacks given.

    With B the largest |entry| over the stacks (or the given bound, which
    no entry may exceed), the key is the int64 sum of
    (x_k + B) (2B + 1)^k over the n^2 entries when (2B + 1)^(n^2) < 2^63:
    every digit lies in 0..2B, so no partial sum wraps.  Otherwise it is
    the matrix's bytes as one void scalar.  Both kinds sort, and compare
    for equality, as plain arrays.
    """
    n = stacks[0].shape[-1]
    flats = [np.ascontiguousarray(s).reshape(len(s), n * n) for s in stacks]
    if bound is None:
        bound = max(map(_abs_max, stacks))
    base = 2 * bound + 1
    if base ** (n * n) < 2 ** 63:
        weights = np.array([base ** k for k in range(n * n)], dtype=np.int64)
        return [(flat + bound) @ weights for flat in flats]
    void = np.dtype((np.void, 8 * n * n))
    return [flat.view(void).ravel() for flat in flats]


class BallTable:
    """Exact word length for every element of length <= radius.

    ``elements`` is the ball as an (m, n, n) int64 stack in BFS order and
    ``inverses[k]`` is the inverse of ``elements[k]``.  Layer r, the
    elements of length exactly r, is rows ``offsets[r]:offsets[r + 1]``.
    ``index`` maps each element, as a tuple of tuples, to its length in
    the same order; it is built on first access.  ``least_length``
    answers word lengths out to twice the radius, by meet in the middle.
    """

    def __init__(self, radius: int, elements: np.ndarray,
                 inverses: np.ndarray, offsets: tuple[int, ...]):
        vars(self).update(radius=radius, elements=elements,
                          inverses=inverses, offsets=offsets)

    def __setattr__(self, name, value):
        raise AttributeError(f"BallTable is read-only: cannot set {name}")

    @cached_property
    def index(self) -> dict[IntMatrix, int]:
        n = self.elements.shape[1]
        # group the flat entries into rows, then rows into matrices
        rows = zip(*[iter(self.elements.ravel().tolist())] * n)
        lengths = np.repeat(np.arange(self.radius + 1),
                            np.diff(self.offsets))
        return dict(zip(zip(*[rows] * n), lengths.tolist()))

    @cached_property
    def _sorted_keys(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The ball's largest |entry| B, its ``_row_keys`` in sorted order
        and the BFS position of each."""
        bound = _abs_max(self.elements)
        (keys,) = _row_keys(self.elements, bound=bound)
        order = np.argsort(keys)
        return bound, keys[order], order

    def _entry_bound(self, radius: int) -> int:
        """A bound on |entry| over the ball of the given radius, up to
        twice the table's radius T: exact up to T, and n B_T B_(radius - T)
        past it, since each element there is x y with |x| <= T and
        |y| <= radius - T."""
        if radius > self.radius:
            return (self.elements.shape[1] * self._entry_bound(self.radius)
                    * self._entry_bound(radius - self.radius))
        return _abs_max(self.elements[:self.offsets[radius + 1]])

    def least_length(self, stack: np.ndarray, radius: int) -> int | None:
        """Least word length <= radius of a matrix of the (m, n, n) int64
        stack, for radius up to twice the table's radius T; None when none
        has one (or the stack is empty).  Lengths <= T are the table's
        ``least_layer``.  A matrix c of length L > T is x y with |x| = T
        and |y| = L - T, so past T the answer is T + the least j for which
        some c y^-1, y of length j, lies in the table.  Stack rows with an
        entry above ``_entry_bound(radius)`` cannot have length <= radius
        and are dropped; the products c y^-1 are then checked against 2^62
        like the ball's layers, and formed in blocks of about 2^16."""
        if not 0 <= radius <= 2 * self.radius:
            raise ValueError(f"radius {radius} outside "
                             f"0..{2 * self.radius}")
        found = self.least_layer(stack, min(radius, self.radius))
        if found is not None or radius <= self.radius:
            return found
        n = stack.shape[-1]
        far = radius - self.radius
        stack = stack[(np.abs(stack) <= self._entry_bound(radius)
                       ).all(axis=(1, 2))]
        _certify_int64(n * _abs_max(stack) * self._entry_bound(far),
                       "meet-in-the-middle product")
        step = max(1, _BOX_BLOCK // max(len(stack), 1))
        for j in range(1, far + 1):
            layer = self.inverses[self.offsets[j]:self.offsets[j + 1]]
            for start in range(0, len(layer), step):
                products = stack[:, None] @ layer[start:start + step]
                if self.least_layer(products.reshape(-1, n, n),
                                    self.radius) is not None:
                    return self.radius + j
        return None

    def least_layer(self, stack: np.ndarray, radius: int) -> int | None:
        """Least r <= radius whose layer holds a matrix of the (m, n, n)
        int64 stack; None when none of them lies in that ball (or the
        stack is empty).  The ball is keyed once per table.  A stack
        matrix with an entry beyond the ball's B is no member; the others
        are keyed in the ball's base and found by binary search in the
        sorted ball keys."""
        if not 0 <= radius <= self.radius:
            raise ValueError(f"radius {radius} outside 0..{self.radius}")
        bound, keys, positions = self._sorted_keys
        inside = ((stack >= -bound) & (stack <= bound)).all(axis=(1, 2))
        (stack_keys,) = _row_keys(stack[inside], bound=bound)
        at = np.minimum(np.searchsorted(keys, stack_keys), len(keys) - 1)
        first = positions[at[keys[at] == stack_keys]].min(
            initial=len(positions))
        if first >= self.offsets[radius + 1]:
            return None
        return int(np.searchsorted(self.offsets, first, "right")) - 1


def enumerate_ball(gens: GeneratorSet, radius: int,
                   max_size: int = 1_000_000) -> BallTable:
    """Breadth-first word lengths out to the given radius.

    Deterministic: the frontier is expanded in insertion order and
    generators are applied in their listed order.  Each layer is one
    int64 product of the frontier with every generator; before it, the
    entry bound max|frontier| * n * max|generator| is checked against
    2^62 in Python ints, so no entry can wrap (ResourceExceeded
    otherwise).  A child already seen lies in one of the two previous
    layers, because the generating set is closed under inversion: the
    keys of those layers and of the children go through one stable
    sort, and a child is new when it heads its run of equal keys.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    n = gens.dimension
    gen_max = max(abs(x) for g in gens.elements for row in g for x in row)
    eye = np.eye(n, dtype=np.int64)[None]
    layers, inverse_layers = [eye], [eye]
    size = 1
    for r in range(1, radius + 1):
        frontier, frontier_inv = layers[-1], inverse_layers[-1]
        _certify_int64(max(_abs_max(frontier), _abs_max(frontier_inv))
                       * n * gen_max, f"ball layer {r}")
        if r == 1:
            gen = np.array(gens.elements, dtype=np.int64)
            gen_inv = gen[list(gens.inverse_index)]
        children = (frontier[:, None] @ gen).reshape(-1, n, n)
        seen = np.concatenate(layers[-2:])
        keys = np.concatenate(_row_keys(seen, children))
        # a stable sort puts the seen keys, then each child's first
        # occurrence, at the head of its run of equal keys
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        head = np.concatenate([[True], ranked[1:] != ranked[:-1]])
        fresh = np.zeros(len(keys), dtype=bool)
        fresh[order[head]] = True
        first = np.flatnonzero(fresh[len(seen):])
        size += len(first)
        if size > max_size:
            # the count the table held when its first entry over the cap
            # went in (layer 1 is never empty)
            raise ResourceExceeded(f"ball table exceeded {max_size} entries "
                                   f"at radius {r}",
                                   count=max(max_size, 1) + 1)
        parent, step = np.divmod(first, len(gen))
        # (m s)^-1 = s^-1 m^-1
        layers.append(children[first])
        inverse_layers.append(gen_inv[step] @ frontier_inv[parent])
    offsets = tuple(np.cumsum([0] + [len(x) for x in layers]).tolist())
    return BallTable(radius=radius, elements=np.concatenate(layers),
                     inverses=np.concatenate(inverse_layers),
                     offsets=offsets)


def word_length_bfs(m, gens: GeneratorSet, radius: int) -> int | None:
    """Exact word length if <= radius, else None (not in the ball): the
    conjugate search at conjugator radius 0, whose only conjugator is the
    identity, so it reads a ball table of radius ceil(radius / 2).

    >>> word_length_bfs(((1, 3), (0, 1)), elementary_generators(2), 4)
    3
    >>> word_length_bfs(((1, 9), (0, 1)), elementary_generators(2), 3) is None
    True
    """
    return translation_length_upper(m, gens, 0, radius)


def translation_length_upper(m, gens: GeneratorSet, conj_radius: int,
                             word_radius: int) -> int | None:
    """min |h m h^-1| over conjugators h with |h| <= conj_radius.

    An upper bound for the translation length; None when every conjugate
    escapes the word ball.  One ball table of radius
    max(conj_radius, ceil(word_radius / 2)) supplies the conjugators,
    their inverses and the conjugates' word lengths: every h m h^-1 is
    one int64 product over the table's stacks, and the answer is the
    table's ``least_length`` of them at word_radius, which meets in the
    middle past the table's radius.  A conjugate c in the word ball gives
    m = h^-1 c h, so a target with an entry above
    n^2 max|h^-1| W max|h|, W the table's bound on the word ball's
    entries, has none (None, exactly).  Otherwise every
    partial sum of h m h^-1 is at most R max|m| C, with R the largest row
    sum of the entrywise maximum of |h| over the conjugators and C the
    largest column sum of that of |h^-1|; that bound is checked against
    2^62 like the ball's, and at h = I it is max|m| itself.
    """
    target = as_int_matrix(m)
    if det_exact(target) != 1:
        raise ValueError("translation length needs determinant 1")
    if word_radius < 0:
        raise ValueError("radius must be >= 0")
    if conj_radius < 0:
        return None
    table = enumerate_ball(gens, max(conj_radius, (word_radius + 1) // 2))
    n = len(target)
    h = table.elements[:table.offsets[conj_radius + 1]]
    h_inv = table.inverses[:len(h)]
    target_max = max(abs(x) for row in target for x in row)
    h_max, h_inv_max = _abs_max(h), _abs_max(h_inv)
    if target_max > (n * n * h_inv_max * table._entry_bound(word_radius)
                     * h_max):
        return None
    # row and column sums of the entrywise maxima, in Python ints
    row_sum = max(map(sum, np.abs(h).max(axis=0).tolist()))
    col_sum = max(map(sum, zip(*np.abs(h_inv).max(axis=0).tolist())))
    _certify_int64(row_sum * target_max * col_sum, "conjugation product")
    conj = h @ np.array(target, dtype=np.int64) @ h_inv
    return table.least_length(conj, word_radius)


def translation_length_lower(m, gens: GeneratorSet) -> float:
    """log_c(gcd of entries of m - I), a conjugation-invariant lower
    bound for the translation length.

    h(m - I)h^-1 = hmh^-1 - I, so the gcd d of the entries of m - I
    divides every entry of every conjugate minus the identity; a nonzero
    entry of size >= d forces operator norm >= d, while words of length L
    have operator norm <= c^L.  Vacuous (0.0) when the gcd is 1.
    """
    d = math.gcd(*(x for row in _shift(as_int_matrix(m), -1) for x in row))
    if d == 0:
        raise IdentityInput("translation length lower bound needs m != I")
    if d == 1:
        return 0.0
    return math.log(d) / math.log(gens.norm_bound)


# ---------------------------------------------------------------------------
# Torsion, unipotence and the bounded-depth-roots certificate


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def _totient(m: int) -> int:
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def _orders(n: int) -> tuple[int, ...]:
    """All m with Euler totient(m) <= n: the orders of the roots of unity
    of degree <= n.  totient(m) >= sqrt(m/2), so m <= 2 n^2 suffices."""
    return tuple(m for m in range(1, 2 * n * n + 1) if _totient(m) <= n)


@lru_cache(maxsize=None)
def unipotence_exponent(n: int) -> int:
    """lcm of all m with Euler totient(m) <= n.

    If C in SL(n,Z) has all eigenvalues on the unit circle they are roots
    of unity of degree <= n, so C to this power is unipotent.

    >>> unipotence_exponent(2), unipotence_exponent(3), unipotence_exponent(4)
    (12, 12, 120)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.lcm(*_orders(n))


def has_trivial_hyperbolic_part(m) -> bool:
    """True iff every eigenvalue has modulus 1, decided exactly: by
    Kronecker's theorem, iff the characteristic polynomial is a product
    of cyclotomic factors of degree <= n, which are stripped exactly.
    Equivalent to A^M being unipotent for M = unipotence_exponent(n).
    """
    a = as_int_matrix(m)
    return len(_strip_cyclotomic(char_poly(a), len(a))) == 1


def is_torsion(m) -> bool:
    """A^M == I with M = unipotence_exponent(n) characterizes finite
    order in SL(n,Z): any torsion element is diagonalizable with root-of-
    unity eigenvalues of degree <= n."""
    a = as_int_matrix(m)
    return mat_pow(a, unipotence_exponent(len(a))) == identity(len(a))


def _poly_divmod(p: tuple[int, ...], d: tuple[int, ...]):
    """Division of integer polynomials with monic divisor (exact)."""
    p = list(p)
    out = []
    while len(p) >= len(d):
        lead = p[0]
        out.append(lead)
        for i, c in enumerate(d):
            p[i] -= lead * c
        assert p[0] == 0
        p.pop(0)
    return tuple(out), tuple(p)


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m exactly: x^m - 1 divided by Phi_d for each proper divisor d.

    >>> _cyclotomic(8), _cyclotomic(12)
    ((1, 0, 0, 0, 1), (1, 0, -1, 0, 1))
    """
    poly = (1,) + (0,) * (m - 1) + (-1,)
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod(poly, _cyclotomic(d))[0]
    return poly


def _strip_cyclotomic(poly: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Divide out each Phi_m with totient(m) <= n while it divides, exactly
    over Z, in one pass: by unique factorisation the order does not matter."""
    for f in map(_cyclotomic, _orders(n)):
        while len(poly) >= len(f):
            q, r = _poly_divmod(poly, f)
            if any(r):
                break
            poly = q
    return poly


_LN40 = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _digits(bits: int) -> int:
    """Working digits for roots of an integer polynomial whose largest
    coefficient has the given bit length: a root pair spanning 2^bits
    needs about 0.6 bits digits."""
    return max(60, 2 * bits // 3 + 40)


def _quadratic_log_moduli(b: int, c: int) -> tuple[float, float]:
    """Log moduli of the roots of x^2 + b x + c (c != 0), in closed form.

    D = b^2 - 4c <= 0 gives a conjugate pair or a double root, both of
    modulus sqrt(c).  Otherwise the roots are real and the larger modulus
    is (|b| + sqrt(D)) / 2, taken in decimal at _digits(bits) digits; the
    smaller is |c| over it, so it suffers no cancellation.

    >>> [round(x, 12) for x in _quadratic_log_moduli(-5, 6)]  # roots 3, 2
    [1.098612288668, 0.69314718056]
    >>> [round(x, 12) for x in _quadratic_log_moduli(2, 4)]  # 2 e^(+-2pi i/3)
    [0.69314718056, 0.69314718056]
    """
    # ln at 40 digits of the exact high-precision argument is well beyond
    # a float's 17, and far cheaper than ln at the full precision
    ln = _LN40.ln
    disc = b * b - 4 * c
    if disc <= 0:
        half = float(ln(c)) / 2  # halving a float is exact
        return half, half
    ctx = Context(prec=_digits(max(abs(b), abs(c)).bit_length()),
                  Emax=MAX_EMAX, Emin=MIN_EMIN)
    large = ctx.divide(ctx.add(abs(b), ctx.sqrt(disc)), 2)
    small = ctx.divide(abs(c), large)
    return float(ln(large)), float(ln(small))


def _roots_inside(poly: tuple[int, ...], num: int, k: int) -> int:
    """Number of roots of an integer polynomial (leading coefficient
    first, nonzero constant term) in |z| < num / 2^k, by the Schur-Cohn
    recursion (Marden, Geometry of Polynomials, sections 42-43).

    The recursion runs on the integer coefficients c of
    2^(k d) poly(num w / 2^k), whose roots in |w| < 1 are the ones
    counted.  Each step replaces c (formal degree m) by c_0 c - c_m c*,
    c* the coefficients reversed, of formal degree m - 1.  By Rouche's
    theorem c has as many roots in |w| < 1 as the new polynomial when
    |c_0| > |c_m|, and m minus that many when |c_0| < |c_m|.  A step with
    |c_0| = |c_m| is singular and raises ArithmeticError; a root on the
    circle makes some step singular.  For a monic poly and a radius that
    is not an integer no root lies on the circle: |z|^2 would be a
    rational algebraic integer that is not an integer.

    >>> poly = (1, -1, -1, -1, 1)  # a Salem quartic: two roots on |z| = 1
    >>> [_roots_inside(poly, num, 2) for num in (2, 3, 5, 9)]
    [0, 1, 3, 4]
    """
    d = len(poly) - 1
    c = [p * num ** i << k * (d - i) for i, p in enumerate(reversed(poly))]
    inside, sign, last = 0, 1, 1
    for m in range(d, 0, -1):
        head, tail = c[0] * c[0], c[m] * c[m]
        if head == tail:
            raise ArithmeticError(
                f"singular Schur-Cohn step at radius {num}/2^{k}")
        if head < tail:
            inside += sign * m
            sign = -sign
        # from the third step on, the constant term of the polynomial two
        # steps back divides each new coefficient (fraction-free, as in
        # Bareiss elimination), so their lengths grow linearly, not 2^d
        step = [divmod(c[0] * c[i] - c[m] * c[m - i], last)
                for i in range(m)]
        if any(r for _, r in step):
            raise ArithmeticError("inexact fraction-free Schur-Cohn step")
        last = c[0] if m < d else 1
        c = [q for q, _ in step]
    return inside


Dyadic = tuple[int, int]  # (num, k) is num / 2^k, num odd unless k = 0


def _mean(p: Dyadic, q: Dyadic) -> Dyadic:
    """(p + q) / 2 in lowest terms, for positive p and q."""
    k = max(p[1], q[1])
    num = (p[0] << k - p[1]) + (q[0] << k - q[1])
    shift = min(k + 1, (num & -num).bit_length() - 1)
    return num >> shift, k + 1 - shift


def _float_ln(x: Dyadic) -> float:
    """ln x to a few float ulps, also near 1."""
    num, k = x
    one = 1 << k
    if 2 * abs(num - one) < one:
        return math.log1p((num - one) / one)
    return math.log(num) - k * math.log(2)


def _certified_log_moduli(rest: tuple[int, ...]) -> list[float]:
    """Log root moduli of a monic integer polynomial of degree d >= 3 with
    a nonzero constant term, each the float nearest to the exact value
    (decided at 40 digits).

    Radii are dyadic and never integers, so _roots_inside counts the
    roots in each disc exactly.  With B the bit length of the largest
    |coefficient|, every root lies in 2^-B < |z| < 2^B (Cauchy's bound on
    the polynomial and on its reverse).  One loop splits that annulus: an
    annulus [lo, hi) that holds roots is split at the largest guess inside
    it, a modulus of one np.roots times 1 -+ 2^-45; with none inside, at a
    power of two near the geometric mean while hi > 16 lo, so a root with
    no guess costs few counts, else at the midpoint.  Integer radii such
    as 1, and radii where a count is singular, are stepped round.  An
    annulus is done once the 40-digit decimal ln of lo and of hi round
    to the same float, which is then the log modulus of each root in it.

    An annulus around |z| = 1 narrower than a separation bound holds
    only roots of modulus exactly 1.  All roots lie in |z| < H, H the
    least counted radius with every root below it, or 2^B.  A root z is an
    algebraic integer; |z|^2 = z conj(z) is a product of two of its
    conjugates (z^2 when z is real), so |z|^2 - 1 is an algebraic integer
    of degree at most D = d (d - 1) / 2, whose conjugates have modulus
    at most H^2 + 1.  Its norm is an integer, so it is 0 or at least
    (H^2 + 1)^-(D - 1) in modulus.
    """
    d = len(rest) - 1
    bits = max(map(abs, rest)).bit_length()
    try:
        guesses = np.abs(np.roots(np.array(rest, dtype=float)))
    except (OverflowError, np.linalg.LinAlgError):  # guesses are optional
        guesses = ()
    splits: list[Dyadic] = []
    for end in sorted((end for m in guesses
                       for end in (m * (1 - 2.0 ** -45), m * (1 + 2.0 ** -45))
                       if 0 < end < math.inf), reverse=True):
        num, den = end.as_integer_ratio()
        # a float from 2^53 up is an integer: step half a unit off
        splits.append((num, den.bit_length() - 1) if den > 1
                      else (2 * num + 1, 1))
    hn, hk = 1 << bits, 0  # H
    power = d * (d - 1) // 2 - 1
    lns: dict[Dyadic, float] = {}

    def ln(x: Dyadic) -> float:
        if x not in lns:
            lns[x] = float(_LN40.ln(_LN40.divide(x[0], 1 << x[1])))
        return lns[x]

    logs: list[float] = []
    work = [((1, bits), 0, (1 << bits, 0), d)]
    while work:
        lo, n_lo, hi, n_hi = work.pop()
        k = max(lo[1], hi[1])
        a, b, one = lo[0] << k - lo[1], hi[0] << k - hi[1], 1 << k
        if a < one < b:
            sep = (hn * hn + (1 << 2 * hk)) ** power
            if (b * b - a * a) * sep < 1 << 2 * (k + hk * power):
                logs += [0.0] * (n_hi - n_lo)  # all of modulus exactly 1
                continue
        elif (b < 2 * a  # both ends near one float: worth the 40-digit ln
              and (b - a) / a <= 4 * math.ulp(_float_ln(lo if b < one
                                                        else hi))
              and ln(lo) == ln(hi)):
            logs += [ln(lo)] * (n_hi - n_lo)
            continue
        mid = next((s for s in splits
                    if a << s[1] < s[0] << k < b << s[1]), None)
        if mid is None:
            if b > 16 * a:  # a power of two near the geometric mean
                e = (a.bit_length() + b.bit_length()) // 2 - k
                mid = (1 << e, 0) if e >= 0 else (1, -e)
            else:
                mid = _mean(lo, hi)
        while True:
            if mid[1]:  # not an integer
                try:
                    n_mid = _roots_inside(rest, *mid)
                    break
                except ArithmeticError:
                    pass
            mid = _mean(lo, mid)
        if n_mid == d and mid[0] << hk < hn << mid[1]:
            hn, hk = mid
        for part in ((lo, n_lo, mid, n_mid), (mid, n_mid, hi, n_hi)):
            if part[3] > part[1]:
                work.append(part)
    return logs


def _log_root_moduli(poly: tuple[int, ...]) -> tuple[float, ...]:
    """Sorted (non-increasing) log root moduli of a monic integer
    polynomial, leading coefficient first, with a nonzero constant term.

    Cyclotomic factors of degree <= deg(poly) contribute exactly 0.0 each.
    A linear remainder has an integer root and a quadratic one is solved
    in closed form (_quadratic_log_moduli).  From degree 3 on, each log
    modulus is certified by exact root counts in discs
    (_certified_log_moduli), so it is the float nearest to the exact
    value, and roots of modulus 1 give exactly 0.0.
    """
    n = len(poly) - 1
    rest = _strip_cyclotomic(poly, n)
    d = len(rest) - 1
    logs = [0.0] * (n - d)
    if d == 1:  # x + r has the integer root -r
        logs.append(math.log(abs(rest[1])))
    elif d == 2:
        logs += _quadratic_log_moduli(rest[1], rest[2])
    elif d > 2:
        logs += _certified_log_moduli(rest)
    return tuple(sorted(logs, reverse=True))


def log_eigenvalue_moduli(a) -> tuple[float, ...]:
    """Sorted (non-increasing) log eigenvalue moduli of an integer matrix,
    by _log_root_moduli of its exact characteristic polynomial, so
    unipotents give the exact zero vector.  Raises SingularInput at
    determinant 0."""
    mat = as_int_matrix(a)
    poly = char_poly(mat)
    if poly[-1] == 0:
        raise SingularInput("integer matrix is singular")
    return _log_root_moduli(poly)


def _coefficient_bound(n: int, ceil_k: int) -> int:
    return max(math.comb(n, m) * ceil_k ** m for m in range(1, n))


def _family_min_expanding(n: int, k1: int) -> float:
    """Minimal root modulus exceeding 1 over the monic integer polynomials
    of degree n in {2, 3} with |middle coefficients| <= k1, constant term
    (-1)^n (the determinant-1 pin) and no cyclotomic factor, in closed
    form: the float nearest to the one member's root that attains it.

    n = 2: x^2 + t x + 1 has no cyclotomic factor iff |t| >= 3, and its
    expanding root (|t| + sqrt(t^2 - 4)) / 2 grows with |t|, so the
    minimum is (3 + sqrt 5) / 2 for every k1 >= 3.

    n = 3: take p = x^3 + a x^2 + b x - 1 with |a|, |b| <= k1.
    1. p has a cyclotomic factor iff p(1) p(-1) = 0: a rational root
       divides 1, and a quadratic cyclotomic factor leaves x -+ 1.  So
       each other p is irreducible, with no root on |z| = 1 (a non-real
       z there brings 1/z = conj(z), and then the third root is 1).
    2. If the least expanding root is real, rho = +-r with r > 1, write
       p = (x - rho)(x^2 + s x + t).  Then rho t = 1 and b = t - rho s,
       so |s| <= (k1 + 1/r) / r, and 1 <= |p(+-1)| = (r - 1) |1 +- s + t|
       <= (r - 1)(1 + (k1 + 1) / r + 1 / r^2).  That is
       r^3 + (k1 - 1) r^2 - k1 r - 1 >= 0, so r >= beta*(k1), the root
       above 1 of P = x^3 + (k1 - 1) x^2 - k1 x - 1.
    3. If they are a complex pair beta, conj(beta) of modulus m, the real
       root alpha has |alpha| = 1/m^2, and 1 <= |p(sgn alpha)| =
       (1 - 1/m^2) |sgn alpha - beta|^2 <= (1 - 1/m^2)(1 + m)^2.  That
       forces m >= 1.1322 > 1.1248 = beta*(6) >= beta*(k1) for k1 >= 6.
    4. P is a member: P(1) = -1 and P(-1) = 2 k1 - 3.  So the minimum is
       beta*(k1) for every k1 >= 6.  (At k1 = 3 and 4 it is the house of
       x^3 + x^2 - 1 instead, 1.15096...)

    The root comes from _log_root_moduli: the quadratic closed form at
    n = 2, and exact Schur-Cohn counts for the irreducible P at n = 3.
    Raises ValueError for k1 below the lemma's range.
    """
    if k1 < (3 if n == 2 else 6):
        raise ValueError(f"the closed-form family minimum needs K1 >= 3 at "
                         f"n = 2 and >= 6 at n = 3, got K1 = {k1} at n = {n}")
    poly = (1, -3, 1) if n == 2 else (1, k1 - 1, -k1, -1)
    return math.exp(min(x for x in _log_root_moduli(poly) if x > 0))


class DepthBound(NamedTuple):
    """Certificate that eta^k = matrix has no solution for k >= depth.

    Hyperbolic branch: K is the spectral radius, K1 the coefficient bound
    for characteristic polynomials of potential roots, b > 1 the least
    expanding root modulus of that family's non-cyclotomic members (in
    closed form, see _family_min_expanding), shaved by 1e-9, q the
    least power with b^q > K; a root of order >= q would be forced to have
    trivial hyperbolic part, contradicting K > 1, so depth = q.

    Quasi-unipotent branch (all eigenvalue moduli 1, b and q are None):
    with U = matrix^M unipotent, N = U - I, a = max|2N - N^2| and
    c = max|N^2|, any k-th root forces 2k^2 <= a k + c (2k^2 divides
    every entry of k(2N - N^2) + N^2, and one of them is nonzero), so
    depth is the closed form max(floor((a + isqrt(a^2 + 8c)) / 4), 1) + 1.

    ``box_bound`` and ``checked_powers`` record the scope of the
    exhaustive cross-check; ``roots_found`` lists roots discovered below
    the certified depth (informative, e.g. genuine square roots).
    """

    matrix: IntMatrix
    branch: str
    K: float
    K1: int
    b: float | None
    q: int | None
    M: int
    depth: int
    box_bound: int
    checked_powers: tuple[int, ...]
    roots_found: tuple[tuple[int, IntMatrix], ...]


_BOX_ENUMERATION_CAP = 20_000_000
_BOX_BLOCK = 1 << 16
_BOX_PRIME = 1_000_000_007


def _largest_box(n: int) -> int:
    """The largest box b whose (2 b + 1)^(n^2) matrices fit the cap.

    The commutant of any n x n matrix has rank at most n^2, so the root
    search at this box stays under the cap for every target.
    """
    return next(b for b in count(1)
                if (2 * b + 3) ** (n * n) > _BOX_ENUMERATION_CAP)


def _commutant(a: IntMatrix) -> tuple[tuple[int, ...], tuple[int, ...],
                                      tuple[tuple[int, ...], ...], int]:
    """Integer coordinates on the commutant {X : a X = X a}.

    Puts X -> a X - X a, on X's row-major entries, into reduced row
    echelon form over Fraction.  Returns (free, pivots, weights, den): X
    commutes with a iff den * X[pivots[i]] = sum_j weights[i][j] *
    X[free[j]] for every i, the free entries being arbitrary.
    """
    n = len(a)
    rows = [[Fraction(a[i][l] * (m == j) - (l == i) * a[m][j])
             for l in range(n) for m in range(n)]
            for i in range(n) for j in range(n)]
    pivots: list[int] = []
    for c in range(n * n):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    free = tuple(c for c in range(n * n) if c not in pivots)
    den = math.lcm(*(rows[i][c].denominator
                     for i in range(len(pivots)) for c in free))
    weights = tuple(tuple(int(-rows[i][c] * den) for c in free)
                    for i in range(len(pivots)))
    return free, tuple(pivots), weights, den


def _commutant_points(target: IntMatrix, box: int):
    """Every integer X with |entries| <= box and target X = X target, as
    (m, n, n) int64 blocks.

    The free coordinates of the commutant run over [-box, box]^r in
    blocks of _BOX_BLOCK.  Each pivot entry, weights @ free / den, is
    solved mod the prime p = _BOX_PRIME, so no weight needs an int64
    bound, and a point is kept when every pivot is congruent to an
    integer in the box.  That keeps every integer point of the commutant,
    and nothing else whenever |weights @ free| + den box < p; past that,
    a kept point may commute with target only mod p.  A walk of more than
    _BOX_ENUMERATION_CAP points is an error, never truncated, and so is a
    den that p divides.
    """
    n = len(target)
    p = _BOX_PRIME
    free, pivots, weights, den = _commutant(target)
    base = 2 * box + 1
    total = base ** len(free)
    if total > _BOX_ENUMERATION_CAP:
        raise ResourceExceeded(
            f"box {box} on the rank-{len(free)} commutant in dimension {n} "
            f"has {total} candidates > cap {_BOX_ENUMERATION_CAP}",
            count=total)
    if den % p == 0:
        raise ResourceExceeded(f"the commutant's denominator {den} is a "
                               f"multiple of the prime {p}", count=den)
    _certify_int64((len(free) * (p - 1) + 1) * box,
                   "commutant pivot sum mod p")
    inv = pow(den, -1, p)
    w = np.array([[x * inv % p for x in row] for row in weights],
                 dtype=np.int64).reshape(len(pivots), len(free))
    for start in range(0, total, _BOX_BLOCK):
        idx = np.arange(start, min(start + _BOX_BLOCK, total))
        coords = np.stack(np.unravel_index(idx, (base,) * len(free)),
                          axis=-1).astype(np.int64) - box
        shifted = (coords @ w.T + box) % p  # pivot + box, if in the box
        keep = np.all(shifted <= 2 * box, axis=1)
        points = np.empty((int(keep.sum()), n * n), dtype=np.int64)
        points[:, list(free)] = coords[keep]
        points[:, list(pivots)] = shifted[keep] - box
        yield points.reshape(-1, n, n)


def _roots_by_power(a, powers, box: int) -> dict[int, list[IntMatrix]]:
    """For each k in powers, all integer B with |entries| <= box, det 1
    and B^k = a (exact), from one walk of the box.

    B^k = a forces B a = a B, so only the integer points of the
    commutant of a in the box are walked (_commutant_points), up to
    (2 box + 1)^r of them for a commutant of rank r.  Each block is
    squared mod the prime p = _BOX_PRIME up to the largest power, and
    every power is the product of its bits' squares (``@``, each product
    reduced mod p, so entries stay below the certified n (p - 1)^2 <
    2^62).  A block keeps, per power, the points with B^k = a mod p; a
    root passes that filter.  Each survivor is confirmed by det_exact and
    an exact power, and the roots come back in flat-index order, entry
    (0, 0) varying fastest.
    """
    target = as_int_matrix(a)
    n = len(target)
    if n not in (2, 3):
        raise DimensionUnsupported("box search supports n in {2, 3}")
    ks = sorted(set(powers))
    if ks[0] < 1 or box < 1:
        raise ValueError("need k >= 1 and box >= 1")
    p = _BOX_PRIME
    _certify_int64(n * (p - 1) ** 2, "box search product mod p")
    t = np.array(mat_mod(target, p), dtype=np.int64)
    hits: dict[int, list[np.ndarray]] = {k: [] for k in ks}
    for stack in _commutant_points(target, box):
        power = dict.fromkeys(ks)
        square = stack  # at k = 1 the block is not reduced yet
        for bit in range(ks[-1].bit_length()):
            if bit:
                square = square @ square % p
            for k in ks:
                if k >> bit & 1:
                    power[k] = (square if power[k] is None
                                else power[k] @ square % p)
        for k in ks:
            hits[k].append(stack[np.all(power[k] % p == t, axis=(1, 2))])
    roots = {}
    for k in ks:
        found = np.concatenate(hits[k]).reshape(-1, n * n)
        found = found[np.lexsort(found.T)].reshape(-1, n, n)
        roots[k] = [b for b in map(as_int_matrix, found)
                    if det_exact(b) == 1 and mat_pow(b, k) == target]
    return roots


def find_roots_in_box(a, k: int, box: int) -> list[IntMatrix]:
    """All integer B with |entries| <= box, det 1 and B^k = a (exact),
    in flat-index order; see _roots_by_power."""
    return _roots_by_power(a, (k,), box)[k]


def _unipotent_depth(a: int, c: int) -> int:
    """1 + the largest k >= 1 with 2k^2 <= ak + c, the floor of the
    positive root (a + sqrt(a^2 + 8c)) / 4; exact by isqrt."""
    return max((a + math.isqrt(a * a + 8 * c)) // 4, 1) + 1


def depth_root_bound(a, box_bound: int | None = None) -> DepthBound:
    """Full bounded-depth-roots certificate for a non-torsion matrix.

    Dimensions 2 and 3 only.  Roots of order 2, 3, depth and depth + 1
    are searched exhaustively in the box |entries| <= box_bound, by
    default min(ceil(K) + 1, _largest_box(n)): 32 at n = 2, 2 at n = 3.
    One walk of the commutant serves every checked power
    (_roots_by_power).  The hyperbolic K is exp of the top log modulus by
    _log_root_moduli, and b the closed-form family minimum of
    _family_min_expanding.  Raises TorsionInput for finite-order input,
    ResourceExceeded when the (2 box_bound + 1)^r points of the input's
    rank-r commutant pass the cap, ValueError when the shaved b is not
    above 1 (ceil(K) >= 18258 at n = 3), and SoundnessFailure for a root
    at or past the certified depth.
    """
    mat = as_int_matrix(a)
    n = len(mat)
    if n not in (2, 3):
        raise DimensionUnsupported(f"depth_root_bound supports n in "
                                   f"{{2, 3}}, got {n}")
    coeffs = char_poly(mat)
    if (-1) ** n * coeffs[-1] != 1:
        raise ValueError("input must have determinant 1")
    m_exp = unipotence_exponent(n)

    if len(_strip_cyclotomic(coeffs, n)) == 1:
        # all eigenvalue moduli are 1: U = A^M is unipotent, I iff torsion
        u = mat_pow(mat, m_exp)
        if u == identity(n):
            raise TorsionInput("torsion elements have roots of every depth "
                               "along their finite orbit")
        branch = "quasi_unipotent"
        k_spectral = 1.0
        ceil_k = 1
        k1 = _coefficient_bound(n, ceil_k)
        b = q = None
        nil = _shift(u, -1)
        nil2 = mat_mul(nil, nil)
        # 2 log(U) = 2 N - N^2 for (U - I) = N nilpotent of order <= 3
        a_max = max(abs(2 * x - y) for row, row2 in zip(nil, nil2)
                    for x, y in zip(row, row2))
        c_max = max(abs(x) for row in nil2 for x in row)
        depth = _unipotent_depth(a_max, c_max)
    else:
        branch = "hyperbolic"
        k_spectral = math.exp(_log_root_moduli(coeffs)[0])
        ceil_k = math.ceil(k_spectral - 1e-9)
        k1 = _coefficient_bound(n, ceil_k)
        b = _family_min_expanding(n, k1) * (1.0 - 1e-9)
        if b <= 1.0:
            raise ValueError(f"the family minimum at K1 = {k1}, shaved to "
                             f"b = {b!r}, is not above 1")
        # the least q with b^q > K (1 + 1e-9): the floor of the log ratio
        # is at most q, as its float error is far below 1
        target = k_spectral * (1.0 + 1e-9)
        q = int(math.log(target) / math.log(b))
        while not b ** q > target:
            q += 1
        assert q >= 2
        depth = q

    if box_bound is None:
        box_bound = min(ceil_k + 1, _largest_box(n))
    checked = sorted({2, 3, depth, depth + 1})
    roots = _roots_by_power(mat, checked, box_bound)
    roots_found = []
    for k in checked:
        for root in roots[k]:
            if k >= depth:
                raise SoundnessFailure(
                    f"soundness failure: found {root} with root^{k} = "
                    f"input despite certified depth {depth}")
            roots_found.append((k, root))
    return DepthBound(matrix=mat, branch=branch, K=k_spectral, K1=k1,
                      b=b, q=q, M=m_exp, depth=depth, box_bound=box_bound,
                      checked_powers=tuple(checked),
                      roots_found=tuple(roots_found))


# ---------------------------------------------------------------------------
# Finite quotients: contortion witnesses


def sl_group_order(n: int, m: int) -> int:
    """|SL(n, Z/m)| for prime m: m^(n(n-1)/2) * prod_{j=2..n} (m^j - 1).

    >>> sl_group_order(2, 2), sl_group_order(2, 3), sl_group_order(3, 2)
    (6, 24, 168)
    """
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    order = m ** (n * (n - 1) // 2)
    for j in range(2, n + 1):
        order *= m ** j - 1
    return order


_PRIME_CAP = 10_000  # largest prime modulus contortion_witness tries


def _primes(cap: int):
    sieve = [True] * (cap + 1)
    for p in range(2, cap + 1):
        if sieve[p]:
            yield p
            for q in range(p * p, cap + 1, p):
                sieve[q] = False


class ContortionWitness(NamedTuple):
    """gamma^k escapes every listed conjugacy class.

    Reduction mod the prime ``modulus`` sends gamma^k to the identity
    (k is the order of gamma mod ``modulus``, the least such power) while
    every class representative stays away from the identity, so no
    conjugate can equal gamma^k.
    """

    gamma: IntMatrix
    class_reps: tuple[IntMatrix, ...]
    modulus: int
    k: int


def contortion_witness(gamma, class_reps) -> ContortionWitness:
    """Smallest prime modulus up to ``_PRIME_CAP`` separating the class
    reps from the identity, and the resulting escaping power gamma^k.

    gamma must be non-torsion (else its powers cycle) and no class
    representative may be the identity.
    """
    g = as_int_matrix(gamma)
    n = len(g)
    if det_exact(g) != 1:
        raise ValueError("gamma must have determinant 1")
    if is_torsion(g):
        raise TorsionInput("gamma must be non-torsion")
    reps = tuple(as_int_matrix(r) for r in class_reps)
    if not reps:
        raise ValueError("need at least one conjugacy class representative")
    ident = identity(n)
    for r in reps:
        if len(r) != n:
            raise ValueError("class representatives must match gamma's size")
        if r == ident:
            raise ValueError("the identity is not a valid class "
                             "representative")
    modulus = None
    for p in _primes(_PRIME_CAP):
        if all(mat_mod(r, p) != mat_mod(ident, p) for r in reps):
            modulus = p
            break
    if modulus is None:
        raise NoModulusFound(f"no prime <= {_PRIME_CAP} separates the "
                             "representatives from the identity")
    one = mat_mod(ident, modulus)
    k = sl_group_order(n, modulus)
    if mat_pow_mod(g, k, modulus) != one:
        raise RuntimeError("group order does not annihilate gamma mod m; "
                           "order formula or input invalid")
    # the order of gamma mod p divides k: divide out each prime of
    # |SL(n, p)| = p^(n(n-1)/2) prod (p^j - 1) while the power stays I
    primes = {modulus}.union(*(_prime_factors(modulus ** j - 1)
                               for j in range(2, n + 1)))
    for q in sorted(primes):
        while k % q == 0 and mat_pow_mod(g, k // q, modulus) == one:
            k //= q
    return ContortionWitness(gamma=g, class_reps=reps, modulus=modulus, k=k)

