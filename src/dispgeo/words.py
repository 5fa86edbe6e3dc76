"""Exact word algebra for finitely generated free groups.

Elements are freely reduced words over the generators of F_k, stored as flat
tuples of signed integers: ``+i`` is the i-th generator (1-based), ``-i`` its
inverse.  Every public operation keeps words reduced, so word length is just
``len(word)`` and all metric quantities below are exact integers (Gromov
products are exact half-integers, stored doubled).

The text format maps generators 1..k to ``a..z`` and their inverses to
``A..Z``; the empty string is the identity.  ``"bAb"`` is b a^-1 b.

Exhaustive scans read whole layers of a ball instead of one word at a
time: ``_layer`` yields the reduced words of one length as numpy blocks of
at most ``_BLOCK_ROWS`` rows (int8 letters for any rank up to 127), and
``_block_peel`` / ``_block_product`` are the row-wise forms of ``_peel``
and ``_product``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidGenerator, RankMismatch

__all__ = [
    "Word",
    "GromovProduct",
    "CyclicDecomposition",
    "multiply",
    "word_length",
    "distance",
    "gromov_product",
    "cyclic_reduce",
    "translation_length",
    "stable_norm",
    "parse_word",
    "ball",
    "ball_size",
]

_MIN_RANK = 2


def _check_rank(rank: int) -> None:
    if not isinstance(rank, int) or rank < _MIN_RANK:
        raise InvalidGenerator(
            f"rank must be an integer >= {_MIN_RANK}, got {rank!r}")


def _reduce_letters(letters: Iterable[int], rank: int) -> tuple[int, ...]:
    """Single stack pass; cancels adjacent inverse pairs."""
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    for x in letters:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise InvalidGenerator(
                f"letter {x!r} outside +-1..{rank}")
        if stack and stack[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(stack)


class Word:
    """A freely reduced word in F_rank.

    >>> Word((1, 2, -2, 1), rank=2)
    Word('aa', rank=2)
    >>> Word.from_str("bAb") * Word.from_str("B")
    Word('bA', rank=2)
    >>> (Word.from_str("ab") ** 3).to_str()
    'ababab'
    """

    __slots__ = ("letters", "rank")

    def __init__(self, letters: Iterable[int] = (), rank: int = 2):
        _check_rank(rank)
        object.__setattr__(self, "letters", _reduce_letters(letters, rank))
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _trusted(cls, letters: tuple[int, ...], rank: int) -> "Word":
        """Wrap an already-reduced tuple without re-scanning it."""
        w = cls.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "rank", rank)
        return w

    @classmethod
    def identity(cls, rank: int = 2) -> "Word":
        _check_rank(rank)
        return cls._trusted((), rank)

    @classmethod
    def from_str(cls, text: str, rank: int = 2) -> "Word":
        return parse_word(text, rank)

    def to_str(self) -> str:
        return "".join(
            chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1)
            for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Word) and self.rank == other.rank
                and self.letters == other.letters)

    def __hash__(self) -> int:
        return hash((self.rank, self.letters))

    def __repr__(self) -> str:
        return f"Word({self.to_str()!r}, rank={self.rank})"

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def inverse(self) -> "Word":
        return Word._trusted(tuple(-x for x in reversed(self.letters)),
                             self.rank)

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        result = Word.identity(self.rank)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        return len(ls) < 2 or ls[0] != -ls[-1]


def _product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of a*b for reduced a, b: only the boundary cancels."""
    i, j = len(a), 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def multiply(g: Word, h: Word) -> Word:
    """Reduced product g*h."""
    if g.rank != h.rank:
        raise RankMismatch(f"rank {g.rank} vs {h.rank}")
    return Word._trusted(_product(g.letters, h.letters), g.rank)


def word_length(g: Word) -> int:
    """Number of letters of the reduced word."""
    return len(g.letters)


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def distance(g: Word, h: Word) -> int:
    """Word distance d(g, h) = |g^-1 h|.

    For reduced words this is |g| + |h| - 2 * (common prefix length), which
    avoids building the product.
    """
    if g.rank != h.rank:
        raise RankMismatch(f"rank {g.rank} vs {h.rank}")
    return len(g.letters) + len(h.letters) - 2 * _common_prefix(
        g.letters, h.letters)


@dataclass(frozen=True)
class GromovProduct:
    """An exact Gromov product, stored doubled to stay in the integers.

    In a free group the doubled value is always even, so ``value`` is an
    integral Fraction.
    """

    doubled: int

    def __post_init__(self):
        if self.doubled < 0:
            raise ValueError(f"negative Gromov product {self.doubled}/2")

    @property
    def value(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def __repr__(self) -> str:
        v = self.value
        return f"GromovProduct({v.numerator}" + (
            ")" if v.denominator == 1 else f"/{v.denominator})")


def gromov_product(g: Word, h: Word, base: Word | None = None) -> GromovProduct:
    """(d(g,u) + d(h,u) - d(g,h)) / 2 with u the base point (default e).

    Based at the identity this is the longest common prefix of the two
    reduced words.

    >>> gromov_product(parse_word("aab"), parse_word("abb")).value
    Fraction(1, 1)
    """
    if g.rank != h.rank:
        raise RankMismatch(f"rank {g.rank} vs {h.rank}")
    if base is None:
        doubled = (len(g.letters) + len(h.letters)
                   - distance(g, h))
    else:
        doubled = (distance(g, base) + distance(h, base) - distance(g, h))
    return GromovProduct(doubled)


@dataclass(frozen=True)
class CyclicDecomposition:
    """g written as conjugator * core * conjugator^-1 with core cyclically
    reduced, so |g| = |core| + 2 |conjugator|."""

    core: Word
    conjugator: Word
    original: Word


def _peel(letters: tuple[int, ...]) -> int:
    """Matching first/last letter pairs peeled off by cyclic reduction; for
    a reduced word this is <g, g^-1>, the common prefix of g and g^-1."""
    n = len(letters)
    i = 0
    while n - 2 * i >= 2 and letters[i] == -letters[n - 1 - i]:
        i += 1
    return i


def cyclic_reduce(g: Word) -> CyclicDecomposition:
    """Peel matching first/last letters until the core is cyclically reduced.

    >>> cyclic_reduce(parse_word("Bab")).core.to_str()
    'a'
    """
    ls = g.letters
    i = _peel(ls)
    core = Word._trusted(ls[i:len(ls) - i], g.rank)
    conjugator = Word._trusted(ls[:i], g.rank)
    return CyclicDecomposition(core=core, conjugator=conjugator, original=g)


def translation_length(g: Word) -> int:
    """Minimal word length over the conjugacy class of g.

    In a free group this is the cyclically reduced length.
    """
    return len(g.letters) - 2 * _peel(g.letters)


def stable_norm(g: Word) -> int:
    """lim |g^n| / n.

    Free groups are 0-hyperbolic, so the limit equals the cyclically reduced
    length exactly: if g = c w c^-1 with w cyclically reduced then
    g^n = c w^n c^-1 and |g^n| = n |w| + 2 |c|.
    """
    return translation_length(g)


def parse_word(text: str, rank: int = 2) -> Word:
    """Parse the ASCII format: a..z are generators 1..k, A..Z inverses.

    >>> parse_word("bAb").letters
    (2, -1, 2)
    >>> parse_word("").letters
    ()
    """
    _check_rank(rank)
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            x = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            x = -(ord(ch) - ord("A") + 1)
        else:
            raise InvalidGenerator(f"invalid character {ch!r} in word")
        if abs(x) > rank:
            raise InvalidGenerator(
                f"letter {ch!r} exceeds rank {rank}")
        letters.append(x)
    return Word(letters, rank)


# words per _layer block: enough to amortise numpy's per-call cost over a
# block, few enough that a scan's memory does not grow with the ball
_BLOCK_ROWS = 4096


def _layer(rank: int, length: int) -> Iterator[np.ndarray]:
    """The reduced words of one exact length, one word per row, as blocks
    of at most _BLOCK_ROWS rows in lexicographic order with letters ordered
    a < a^-1 < b < b^-1 < ...

    Each block is built from a slice of a block of length - 1: every row
    repeated once per letter, the letters tiled alongside, and the rows
    whose new letter cancels the last one masked out.  The recursion holds
    one block per length, so memory is O(length * _BLOCK_ROWS) rows.  The
    dtype is the smallest signed int holding -(rank + 1), so every letter
    and its negation fit (int8 up to rank 127).  Blocks are transposes of
    C-contiguous (length, rows) arrays: block.T[i], the i-th letter of
    every word, is one contiguous vector.

    >>> [b.tolist() for b in _layer(2, 1)]
    [[[1], [-1], [2], [-2]]]
    """
    dtype = np.min_scalar_type(-rank - 1)
    if length == 0:
        yield np.zeros((1, 0), dtype=dtype)
        return
    order = np.array([x for i in range(1, rank + 1) for x in (i, -i)],
                     dtype=dtype)
    step = max(1, _BLOCK_ROWS // (len(order) - 1))
    for parents in _layer(rank, length - 1):
        for s in range(0, len(parents), step):
            prefixes = parents[s:s + step].T
            t = np.empty((length, prefixes.shape[1] * len(order)),
                         dtype=dtype)
            t[:-1] = np.repeat(prefixes, len(order), axis=1)
            t[-1] = np.tile(order, prefixes.shape[1])
            if length > 1:
                t = t.compress(t[-1] != -t[-2], axis=1)
            # only one word's children can outgrow the cap (rank > 2048)
            for i in range(0, t.shape[1], _BLOCK_ROWS):
                yield t[:, i:i + _BLOCK_ROWS].T


def _rows(block: np.ndarray) -> Iterable[tuple[int, ...]]:
    """The rows of a _layer block as letter tuples, read letter-major."""
    if not block.shape[1]:
        return [()] * len(block)
    return zip(*block.T.tolist())


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
    """_peel of every row of a _layer block."""
    return _peel_rows(block.T, len(block))


def _block_product(block: np.ndarray,
                   w: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and _peel of the products g*w for every row g of a _layer
    block and one reduced tuple w.

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


def ball(rank: int, radius: int) -> Iterator[Word]:
    """All reduced words of length <= radius, in (length, lexicographic)
    order with letters ordered a < a^-1 < b < b^-1 < ...

    Deterministic (exhaustive tests are reproducible) and memory-lean: the
    radius-12 ball of F_2 has ~10^6 words, but the words are read row by
    row from _layer blocks, so enumeration holds O(radius * _BLOCK_ROWS)
    letters at a time.

    >>> [g.to_str() for g in ball(2, 2)]  # doctest: +NORMALIZE_WHITESPACE
    ['', 'a', 'A', 'b', 'B', 'aa', 'ab', 'aB', 'AA', 'Ab', 'AB',
     'ba', 'bA', 'bb', 'Ba', 'BA', 'BB']
    """
    _check_rank(rank)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    for length in range(radius + 1):
        for block in _layer(rank, length):
            for letters in _rows(block):
                yield Word._trusted(letters, rank)


def ball_size(rank: int, radius: int) -> int:
    """|B(radius)| = 1 + 2k ((2k-1)^R - 1) / (2k - 2) for k >= 2.

    >>> ball_size(2, 2)
    17
    """
    _check_rank(rank)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    k2 = 2 * rank
    return 1 + k2 * ((k2 - 1) ** radius - 1) // (k2 - 2)
