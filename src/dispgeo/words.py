"""Exact word algebra for finitely generated free groups.

Elements are freely reduced words over the generators of F_k, stored as flat
tuples of signed integers: ``+i`` is the i-th generator (1-based), ``-i`` its
inverse.  Every public operation keeps words reduced, so word length is just
``len(word)`` and all metric quantities below are exact integers, Gromov
products included: in a free group d(g,u) + d(h,u) - d(g,h) is even.

The text format maps generators 1..k to ``a..z`` and their inverses to
``A..Z``; the empty string is the identity.  ``"bAb"`` is b a^-1 b.

``_LayerTables`` is the one numbering of the reduced words of F_k: each
layer's last letters and ``_peel`` values, coded 0..2k-1 in base 2k-1
(int8 up to rank 64), each built from shorter layers' tables.  ``ball``
decodes its words from them; exhaustive F_2 scans build no words, and
read the ``_peel`` of every product g*w off them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidGenerator, RankMismatch

__all__ = [
    "Word",
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


def gromov_product(g: Word, h: Word, base: Word | None = None) -> int:
    """(d(g,u) + d(h,u) - d(g,h)) / 2 with u the base point (default e).

    Based at the identity this is the longest common prefix of the two
    reduced words.  In a free group the numerator is always even, so the
    product is an integer.

    >>> gromov_product(parse_word("aab"), parse_word("abb"))
    1
    """
    if g.rank != h.rank:
        raise RankMismatch(f"rank {g.rank} vs {h.rank}")
    if base is None:
        return _common_prefix(g.letters, h.letters)
    return (distance(g, base) + distance(h, base) - distance(g, h)) // 2


class CyclicDecomposition(NamedTuple):
    """g written as conjugator * core * conjugator^-1 with core cyclically
    reduced, so |g| = |core| + 2 |conjugator|."""

    core: Word
    conjugator: Word


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
    return CyclicDecomposition(core=core, conjugator=conjugator)


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


# words per range of a layer scan or of ball's decoding: enough to amortise
# numpy's per-call cost, few enough that a range's int8 work arrays stay
# near 1 MB
_SCAN_ROWS = 1 << 15


class _LayerTables:
    """Tables of the reduced words of F_rank, layer by layer.

    Letters are coded 0..2 rank - 1 in the order a, A, b, B, ...; code ^ 1
    is the inverse's.  With base = 2 rank - 1, word i of layer L is
    code(g_0) base^(L-1) + sum_j r_j base^(L-1-j), r_j the place of g_j
    among the letters allowed after g_{j-1}, so i // base^s is g's prefix
    of length L - s, and the words of a layer are in lexicographic order.
    ``last[L]`` (L >= 1) holds each word's last letter and ``peel[L]`` its
    _peel: 1 + _peel of its middle where g_0 is the inverse of its last
    letter.  The dtype is the smallest signed int holding -2 rank (int8 up
    to rank 64), and the tables of layer L are built from those of layers
    L - 1 and L - 2 by ``_append_layer``, so they take two entries per
    word of the layers built.
    """

    def __init__(self, rank: int, radius: int):
        self.rank, self.base = rank, 2 * rank - 1
        dtype = np.min_scalar_type(-2 * rank)
        self.letters = np.array(
            [x for i in range(1, rank + 1) for x in (i, -i)], dtype)
        self.last = [np.zeros(1, dtype), np.arange(2 * rank, dtype=dtype)]
        self.peel = [np.zeros(1, dtype), np.zeros(2 * rank, dtype)]
        for _ in range(2, radius + 1):
            self._append_layer()

    def _append_layer(self) -> None:
        """Build the tables of the next layer, L >= 2."""
        L, k2 = len(self.last), 2 * self.rank
        r = np.arange(self.base, dtype=self.letters.dtype)
        firsts = np.arange(k2)[:, None]
        # the r-th letter allowed after x is r, or r + 1 past x's inverse
        last = r + (r >= self.last[L - 1][:, None] ^ 1)
        peel = np.zeros_like(last) if L == 2 else np.repeat(
            self.peel[L - 2].reshape(k2, -1)[r + (r >= firsts ^ 1)],
            self.base, axis=2)
        peel = peel.reshape(k2, -1) + 1
        peel *= last.reshape(k2, -1) == firsts ^ 1
        self.last.append(last.ravel())
        self.peel.append(peel.ravel())

    def codes(self, L: int, lo: int, hi: int) -> np.ndarray:
        """The letter codes of the words lo..hi-1 of layer L, as an (L,
        hi - lo) array: row j holds letter j of every word."""
        out = np.empty((L, hi - lo), self.letters.dtype)
        for j in range(L):
            out[j] = self._read(self.last[j + 1], j + 1, L, lo, hi, L - 1 - j)
        return out

    def word(self, L: int, i: int) -> str:
        """The text of word i of layer L."""
        letters = self.letters[self.codes(L, i, i + 1)[:, 0]]
        return Word._trusted(tuple(letters.tolist()), self.rank).to_str()

    def _read(self, table: np.ndarray, size: int, L: int, lo: int, hi: int,
              skip: int):
        """A table over the words of length size, read at g[L-skip-size:
        L-skip] for the words g = lo..hi-1 of layer L: a gather of table
        rows, each value repeated over its run of base^skip words; one
        value when the range lies in one run."""
        step, width = self.base ** skip, self.base ** (size - 1)
        j, k = lo // step, (hi - 1) // step + 1  # prefixes of length L-skip
        first = self.last[L - skip - size + 1]  # the stretch's first letter
        rows = table.reshape(-1, width)[first[j // width:(k - 1) // width + 1]]
        vals = rows.ravel()[j % width:][:k - j]
        return vals if k - j == 1 else (
            np.repeat(vals, step)[lo % step:][:hi - lo])

    def products(self, L: int, lo: int, hi: int,
                 ws: Iterable[tuple[int, ...]]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Lengths and _peel of g*w for the words g = lo..hi-1 of layer L,
        one pair per nonempty reduced tuple w.

        g*w = g[:L-c] + w[c:], c the letters of g's tail that cancel w's
        head, and k = min(L, |w|) - c pairs of its ends are g's head against
        w's tail.  Where all k peel (``lead`` >= k), the rest is the middle
        g[|w|-c:L-c] (L >= |w|) or w[c:c+|w|-L] (L < |w|).

        Each table slice is read once per call: letter i of g is shared by
        every w, and the middles' _peel by the words w of one length, keyed
        by (|w|, j).  The memo lives for this range only."""
        memo: dict = {}

        def read(tables: list, size: int, skip: int) -> np.ndarray:
            # tables[size] read over the range at skip, tables being
            # self.last or self.peel
            key = (tables is self.peel, size, skip)
            if key not in memo:
                memo[key] = self._read(tables[size], size, L, lo, hi, skip)
            return memo[key]

        out = []
        for w in ws:
            n, m = len(w), min(L, len(w))
            inv = [2 * abs(x) - 2 + (x > 0) for x in w]  # codes of x^-1
            dtype = np.min_scalar_type(-3 * (L + n))  # holds every sum below
            # c and lead count the runs of matches from j = 0, as running
            # masks: tail and head stay True while every letter so far
            # matches
            c = lead = np.zeros(1, dtype)
            tail = head = True
            for j in range(m):
                tail = tail & (read(self.last, L - j, j) == inv[j])
                head = head & (read(self.last, j + 1, L - 1 - j)
                               == inv[n - 1 - j])
                c, lead = c + tail, lead + head
            if L < n:
                mids = [dtype.type(_peel(w[j:j + n - L]))
                        for j in range(m + 1)]
            else:  # a middle of under 2 letters has _peel 0
                mids = [read(self.peel, L - n, j)
                        for j in range(m + 1)] if L - n > 1 else []
            # the middle's _peel where j letters cancel, summed over j, as
            # np.where on scattered masks is slow
            mid = sum(((c == j) * x for j, x in enumerate(mids)),
                      dtype.type(0))
            k = m - c
            out.append((L + n - 2 * c,
                        np.minimum(lead, k) + (lead >= k) * mid))
        return out


def ball(rank: int, radius: int) -> Iterator[Word]:
    """All reduced words of length <= radius, in (length, lexicographic)
    order with letters ordered a < a^-1 < b < b^-1 < ...

    Deterministic (exhaustive tests are reproducible) and lazy: each
    layer is read off ``_LayerTables``, built one layer at a time as the
    iteration reaches it, and decoded _SCAN_ROWS words at a time.  So
    enumeration holds the tables of the layers reached, two small ints
    per word (about 2 MB for the ~10^6 words of the radius-12 ball of
    F_2), and one range of letters.

    >>> [g.to_str() for g in ball(2, 2)]  # doctest: +NORMALIZE_WHITESPACE
    ['', 'a', 'A', 'b', 'B', 'aa', 'ab', 'aB', 'AA', 'Ab', 'AB',
     'ba', 'bA', 'bb', 'Ba', 'BA', 'BB']
    """
    _check_rank(rank)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    yield Word._trusted((), rank)
    tables = _LayerTables(rank, 1)
    for L in range(1, radius + 1):
        if L > 1:
            tables._append_layer()
        count = len(tables.last[L])
        for lo in range(0, count, _SCAN_ROWS):
            codes = tables.codes(L, lo, min(lo + _SCAN_ROWS, count))
            for letters in zip(*tables.letters[codes].tolist()):
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
