"""Hyperbolicity machinery over exact word metrics.

Everything here is parameterized by the hyperbolicity constant delta (an
exact rational, >= 0) and is exercised exactly at delta = 0 on free groups,
where every inequality below is a theorem.  The three ping-pong conditions,
the almost-cyclically-reduced predicate, the selector that repairs a
non-ACR element by right-multiplying with a pair element, and the resulting
word-length bound in terms of stable norms all live here.

Thresholds are exact rationals compared as den-scaled integers (with
delta = num/den), or as their floor where the other side is an integer
(the ACR cut floor(-3 delta)); Fraction is built only for the fields the
functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    HypothesisViolated,
    NotAlmostCyclicallyReduced,
    NotPingPong,
    PingPongNotFound,
    RankMismatch,
    SelectionFailed,
)
from .words import (
    Word,
    _LayerTables,
    _peel,
    _product,
    gromov_product,
    multiply,
    translation_length,
    word_length,
)

__all__ = [
    "AcrVerdict",
    "PingPongCertificate",
    "LengthBound",
    "is_almost_cyclically_reduced",
    "stable_length_lower_bound",
    "certify_ping_pong",
    "find_ping_pong_pair",
    "select_acr",
    "stable_norm_length_bound",
    "pair_offset",
]


def _as_delta(delta) -> Fraction:
    d = delta if isinstance(delta, Fraction) else Fraction(delta)
    if d < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    return d


def _acr_cut(delta: Fraction) -> int:
    """floor(-3 delta): w is ACR iff 3 <w, w^-1> - |w| <= this cut.

    <w, w^-1> <= |w|/3 - delta is 3 <w, w^-1> - |w| <= -3 delta, and the
    left side is an integer, so flooring the right side is exact."""
    return -3 * delta.numerator // delta.denominator


def _first_acr(words: Sequence[tuple[int, ...]], delta: Fraction) -> int:
    """Index of the first ACR letter tuple (len(words) if none)."""
    cut = _acr_cut(delta)
    for i, w in enumerate(words):
        if 3 * _peel(w) - len(w) <= cut:
            return i
    return len(words)


def _excess(words: Sequence[tuple[int, ...]]) -> int:
    """|g| - 3 max stable norm over the letter tuples of g, g*u and g*v."""
    return len(words[0]) - 3 * max(len(w) - 2 * _peel(w) for w in words)


def _range_scan(tables: _LayerTables, L: int, lo: int, hi: int,
                u: tuple[int, ...], v: tuple[int, ...], delta: Fraction
                ) -> tuple[np.ndarray, np.ndarray]:
    """_excess and _first_acr of (g, g*u, g*v) for the words g = lo..hi-1
    of layer L of the tables, as two arrays."""
    peel = tables.peel[L][lo:hi].astype(np.min_scalar_type(-3 * L - 1))
    words = [(L, peel), *tables.products(L, lo, hi, (u, v))]
    cut = _acr_cut(delta)
    g, gu, gv = (3 * p - n <= cut for n, p in words)
    # the first ACR word's index: 3 less the prefixes that hold one
    first = np.int8(3) - g - (g | gu) - (g | gu | gv)
    return L - 3 * np.maximum.reduce([n - 2 * p for n, p in words]), first


@dataclass(frozen=True)
class AcrVerdict:
    """Outcome of the almost-cyclically-reduced test.

    ``product`` is <g, g^-1> based at the identity, ``threshold`` is
    |g|/3 - delta, and ``is_acr`` iff product <= threshold.
    """

    product: Fraction
    threshold: Fraction
    is_acr: bool


def is_almost_cyclically_reduced(g: Word, delta=0) -> AcrVerdict:
    """Test <g, g^-1> <= |g|/3 - delta (boundary case counts as ACR).

    For a reduced word, <g, g^-1> equals the number of letters peeled by
    cyclic reduction, so a cyclically reduced word always passes at
    delta = 0 unless it is empty with delta > 0.
    """
    d = _as_delta(delta)
    num, den = d.numerator, d.denominator
    return AcrVerdict(product=Fraction(_peel(g.letters)),
                      threshold=Fraction(den * len(g) - 3 * num, 3 * den),
                      is_acr=_first_acr((g.letters,), d) == 0)


def stable_length_lower_bound(g: Word, delta=0) -> Fraction:
    """|g|/3, valid as a lower bound for the stable norm of any almost
    cyclically reduced g.  Raises if g is not ACR at this delta."""
    verdict = is_almost_cyclically_reduced(g, delta)
    if not verdict.is_acr:
        raise NotAlmostCyclicallyReduced(
            f"{g!r}: <g,g^-1> = {verdict.product} > {verdict.threshold}")
    return Fraction(len(g), 3)


@dataclass(frozen=True)
class PingPongCertificate:
    """A certified ping-pong pair (u, v) at a given delta.

    margin1 = min(|u|, |v|) - 100 delta
    margin2 = min(|u|, |v|)/2 - 20 delta - max <u^(+-1), v^(+-1)>
    margin3 = min over w in {u, v} of |w|/2 - 20 delta - <w, w^-1>

    All margins are >= 0 by construction; such a pair generates a free
    subgroup.
    """

    u: Word
    v: Word
    delta: Fraction
    margin1: Fraction
    margin2: Fraction
    margin3: Fraction


def certify_ping_pong(u: Word, v: Word, delta=0) -> PingPongCertificate:
    """Check the three ping-pong conditions; raise NotPingPong with the
    first failing condition and its (negative) margin otherwise.  An empty
    u or v fails condition 1 at every delta: the identity plays no
    ping-pong.

    >>> cert = certify_ping_pong(Word.from_str("aab"), Word.from_str("bba"))
    >>> (cert.margin1, cert.margin2, cert.margin3)
    (Fraction(3, 1), Fraction(3, 2), Fraction(3, 2))
    """
    d = _as_delta(delta)
    lu, lv = word_length(u), word_length(v)
    shorter = Fraction(min(lu, lv))

    margin1 = shorter - 100 * d
    if margin1 < 0 or not shorter:
        raise NotPingPong(1, margin1)

    cross = max(gromov_product(x, y).doubled
                for x in (u, u.inverse()) for y in (v, v.inverse()))
    margin2 = shorter / 2 - 20 * d - Fraction(cross, 2)
    if margin2 < 0:
        raise NotPingPong(2, margin2)

    margin3 = min(Fraction(lu, 2) - 20 * d - _peel(u.letters),
                  Fraction(lv, 2) - 20 * d - _peel(v.letters))
    if margin3 < 0:
        raise NotPingPong(3, margin3)

    return PingPongCertificate(u=u, v=v, delta=d, margin1=margin1,
                               margin2=margin2, margin3=margin3)


def find_ping_pong_pair(f: Word, a: Word, delta=0,
                        n_max: int = 32) -> tuple[int, PingPongCertificate]:
    """Smallest N <= n_max with (f^N, a f^N a^-1) a ping-pong pair.

    f must be cyclically reduced with positive translation length, and a a
    generator that does not commute with f.  Existence for large N is a
    theorem; n_max >= 1 is only a resource cap.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if translation_length(f) == 0:
        raise ValueError("f must have positive translation length")
    if not f.is_cyclically_reduced():
        raise ValueError("f must be cyclically reduced")
    if word_length(a) != 1:
        raise ValueError("a must be a single generator or inverse")
    if multiply(a, f) == multiply(f, a):
        raise ValueError("a must not commute with f")
    d = _as_delta(delta)
    fn = Word.identity(f.rank)
    ai = a.inverse()
    for n in range(1, n_max + 1):
        fn = multiply(fn, f)
        conj = multiply(multiply(a, fn), ai)
        try:
            return n, certify_ping_pong(fn, conj, d)
        except NotPingPong:
            continue
    raise PingPongNotFound(f"no power up to {n_max} works at delta {d}")


def select_acr(g: Word, pair: PingPongCertificate) -> Word:
    """Return the first of g, g*u, g*v that is almost cyclically reduced.

    Requires |g| >= pair_offset(pair).  With a valid certificate one of the
    three is always ACR; SelectionFailed therefore signals a bug, not bad
    input (at delta = 0 on a free group it is a theorem).
    """
    offset = pair_offset(pair)
    if offset.denominator * len(g) < offset.numerator:
        raise HypothesisViolated(f"|g| = {len(g)} < pair_offset = {offset}")
    candidates = _candidates(g, pair)
    choice = _first_acr(candidates, pair.delta)
    if choice == len(candidates):
        raise SelectionFailed(f"no ACR candidate for {g!r}")
    return g if choice == 0 else Word._trusted(candidates[choice], g.rank)


def _candidates(g: Word, pair: PingPongCertificate
                ) -> tuple[tuple[int, ...], ...]:
    """Letter tuples of g, g*u and g*v."""
    if g.rank != pair.u.rank:
        raise RankMismatch(f"rank {g.rank} vs {pair.u.rank}")
    ls = g.letters
    return ls, _product(ls, pair.u.letters), _product(ls, pair.v.letters)


def pair_offset(pair: PingPongCertificate) -> Fraction:
    """The additive constant 3 max(|u|, |v|) + 100 delta of the length
    bound; always derived from the pair, never taken as input."""
    num, den = pair.delta.numerator, pair.delta.denominator
    longer = max(word_length(pair.u), word_length(pair.v))
    return Fraction(3 * longer * den + 100 * num, den)


@dataclass(frozen=True)
class LengthBound:
    """|g| versus 3 max([g], [gu], [gv]) + offset (stable norms)."""

    lhs: int
    rhs: Fraction
    holds: bool


def stable_norm_length_bound(g: Word, pair: PingPongCertificate
                             ) -> LengthBound:
    """Bound the word length of g by the best stable norm among g, g*u,
    g*v, plus the offset derived from the pair."""
    offset = pair_offset(pair)
    excess = _excess(_candidates(g, pair))
    return LengthBound(lhs=len(g), rhs=len(g) - excess + offset,
                       holds=offset.denominator * excess <= offset.numerator)

