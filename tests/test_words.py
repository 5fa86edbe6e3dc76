import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispgeo.errors import InvalidGenerator, RankMismatch
from dispgeo.words import (
    _SCAN_ROWS,
    Word,
    _LayerTables,
    _peel,
    _product,
    ball,
    ball_size,
    cyclic_reduce,
    distance,
    gromov_product,
    multiply,
    parse_word,
    stable_norm,
    translation_length,
    word_length,
)
from oracles import (
    _block_peel,
    _block_product,
    four_point_holds,
    layer_words,
    reduce_word,
)


def oracle_reduce(letters):
    """Repeated-scan reducer: remove one adjacent inverse pair per pass
    until stable.  Independent of the stack-based implementation."""
    seq = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i:i + 2]
                changed = True
                break
    return tuple(seq)


def oracle_translation_length(g, conj_radius):
    """Brute-force min |h g h^-1| over all h with |h| <= conj_radius."""
    best = word_length(g)
    for h in ball(g.rank, conj_radius):
        best = min(best, word_length(h * g * h.inverse()))
    return best


W = parse_word


class TestReduce:
    def test_cancellation(self):
        assert reduce_word([1, -1], 2).letters == ()

    def test_single_cancellation(self):
        assert reduce_word([1, 2, -2, 1], 2).to_str() == "aa"

    def test_cascading(self):
        # oracle: repeated-scan reduction of b a a^-1 b^-1 a
        letters = [2, 1, -1, -2, 1]
        assert oracle_reduce(letters) == (1,)
        assert reduce_word(letters, 2).to_str() == "a"

    def test_out_of_range(self):
        with pytest.raises(InvalidGenerator):
            reduce_word([3], 2)
        with pytest.raises(InvalidGenerator):
            reduce_word([0], 2)

    def test_rank_one_rejected(self):
        with pytest.raises(InvalidGenerator):
            Word((), rank=1)

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
    def test_matches_oracle(self, letters):
        assert reduce_word(letters, 2).letters == oracle_reduce(letters)

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30))
    def test_idempotent(self, letters):
        once = reduce_word(letters, 3)
        assert reduce_word(once.letters, 3) == once

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=24),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=24))
    def test_reduction_order_independent(self, left, right):
        # confluence: reducing pieces first gives the same normal form
        whole = reduce_word(left + right, 2)
        pieces = multiply(reduce_word(left, 2), reduce_word(right, 2))
        assert whole == pieces


class TestMultiplyInvert:
    def test_mid_cancellation(self):
        assert (W("ab", 3) * W("Bc", 3)).to_str() == "ac"

    def test_identity(self):
        g = W("bbA")
        assert g * Word.identity(2) == g
        assert Word.identity(2) * g == g

    def test_concatenate_then_reduce(self):
        g, h = W("bbbbaBBBB"), W("aab")
        expected = Word(g.letters + h.letters, 2)  # concat-then-reduce oracle
        assert g * h == expected
        assert word_length(g * h) == 12

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            multiply(W("a", 2), W("a", 3))

    def test_invert_examples(self):
        assert W("ab").inverse().to_str() == "BA"
        assert Word.identity(2).inverse() == Word.identity(2)
        assert W("bbbbaBBBB").inverse().to_str() == "bbbbABBBB"

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20))
    def test_inverse_cancels(self, letters):
        g = reduce_word(letters, 2)
        assert g * g.inverse() == Word.identity(2)
        assert g.inverse().letters == tuple(-x for x in reversed(g.letters))

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16))
    def test_triangle_inequality(self, a, b):
        g, h = reduce_word(a, 2), reduce_word(b, 2)
        assert word_length(g * h) <= word_length(g) + word_length(h)

    def test_pow(self):
        assert (W("ab") ** 4).to_str() == "abababab"
        assert (W("ab") ** 0) == Word.identity(2)
        assert (W("ab") ** -2) == (W("ab") ** 2).inverse()

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8),
           st.integers(-6, 6))
    def test_pow_matches_repeated_multiply(self, letters, n):
        g = reduce_word(letters, 2)
        expected = Word.identity(2)
        step = g if n >= 0 else g.inverse()
        for _ in range(abs(n)):
            expected = expected * step
        assert g ** n == expected


@pytest.mark.parametrize("call, exc, message", [
    (lambda: setattr(W("ab"), "letters", (1,)), AttributeError,
     "Word is immutable"),
    (lambda: distance(W("a", 2), W("a", 3)), RankMismatch, "rank 2 vs 3"),
    (lambda: gromov_product(W("a", 2), W("a", 3)), RankMismatch,
     "rank 2 vs 3"),
    (lambda: list(ball(2, -1)), ValueError, "radius must be >= 0"),
    (lambda: ball_size(2, -1), ValueError, "radius must be >= 0"),
], ids=["assign-letters", "distance-ranks", "gromov-ranks", "ball-radius",
        "ball-size-radius"])
def test_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_equal_words_hash_alike():
    # equal words collapse to one set entry; ~w is w's inverse
    w = W("abA")
    assert {w, W("abA"), Word((1, 2, 2, -2, -1), 2)} == {w}
    assert ~w == w.inverse() == W("aBA")


class TestWordLength:
    def test_examples(self):
        assert word_length(Word.identity(2)) == 0
        assert word_length(W("abA")) == 3
        assert word_length(W("bbbbaBBBBaab")) == 12


class TestGromovProduct:
    def test_common_prefix(self):
        # rank 3 so that "ac" parses; product = common prefix length
        assert gromov_product(W("ab", 3), W("ac", 3)) == 1

    def test_self_product(self):
        g = W("abA")
        assert gromov_product(g, g) == word_length(g)

    def test_no_overlap(self):
        u, v = W("aab"), W("bba")
        assert distance(u, v) == 6  # |u^-1 v|, no cancellation
        assert gromov_product(u, v) == 0

    def test_nonneg_and_bounded(self):
        for g in ball(2, 4):
            for h in (W("ab"), W("bA"), W("")):
                p = gromov_product(g, h)
                assert 0 <= p <= min(word_length(g), word_length(h))

    def test_doubled_always_even_in_free_group(self):
        # the theorem that makes gromov_product an integer: d(g,b) +
        # d(h,b) - d(g,h) is even, at e and at other base points b, and
        # the product is half of it
        words = list(ball(2, 3))
        for g, h, b in itertools.product(words[:30], words[:30],
                                         (Word.identity(2), *words[1:30:4])):
            doubled = distance(g, b) + distance(h, b) - distance(g, h)
            assert doubled % 2 == 0
            assert gromov_product(g, h, base=b) == doubled // 2
            assert type(gromov_product(g, h, base=b)) is int


class TestCyclicReduce:
    def test_conjugate(self):
        dec = cyclic_reduce(W("Bab"))
        assert dec.core.to_str() == "a"
        assert dec.conjugator.to_str() == "B"

    def test_already_reduced(self):
        dec = cyclic_reduce(W("ab"))
        assert dec.core == W("ab")
        assert not dec.conjugator

    def test_long_word(self):
        dec = cyclic_reduce(W("bbbbaBBBBaab"))
        assert word_length(dec.core) == 12
        assert not dec.conjugator

    def test_invariants_exhaustive(self):
        for g in ball(2, 6):
            dec = cyclic_reduce(g)
            recon = dec.conjugator * dec.core * dec.conjugator.inverse()
            assert recon == g
            assert dec.core.is_cyclically_reduced() or not dec.core
            assert word_length(g) == (word_length(dec.core)
                                      + 2 * word_length(dec.conjugator))


class TestTranslationLengthStableNorm:
    def test_examples(self):
        assert translation_length(W("Bab")) == 1
        assert translation_length(Word.identity(2)) == 0
        assert translation_length(W("bbbbaBBBB")) == 1

    def test_brute_force_conjugation_minimum(self):
        g = W("bbbbaBBBB")
        assert oracle_translation_length(g, 6) == 1

    def test_stable_norm_examples(self):
        assert stable_norm(W("a")) == 1
        assert stable_norm(W("abAB")) == 4
        assert stable_norm(W("Bab")) == 1

    def test_stable_norm_is_power_limit(self):
        for text in ("abAB", "Bab", "aab"):
            g = W(text)
            # |g^n| grows as n * core + 2 |conjugator|
            lengths = [word_length(g ** n) for n in range(1, 9)]
            core = translation_length(g)
            pad = word_length(g) - core
            assert lengths == [n * core + pad for n in range(1, 9)]

    def test_power_length_conjugated(self):
        g = W("Bab")
        assert [word_length(g ** n) for n in range(1, 6)] == [3, 4, 5, 6, 7]

    def test_conjugation_invariance_radius_5(self):
        words5 = list(ball(2, 5))
        for g in words5[:200]:
            for h in (W("ab"), W("bA"), W("BBa")):
                assert (translation_length(h * g * h.inverse())
                        == translation_length(g))

    def test_stable_le_word_length_radius_8(self):
        for g in ball(2, 8):
            t = translation_length(g)
            assert stable_norm(g) == t <= word_length(g)


class TestFourPoint:
    def test_trivial(self):
        g = W("ab")
        assert four_point_holds(g, g, g, 0)

    def test_example(self):
        assert four_point_holds(W("ab"), W("ba"), W("aa"), 0)

    def test_exhaustive_radius_4(self):
        words = list(ball(2, 4))
        # free groups are 0-hyperbolic: every triple passes at delta = 0
        for g, h, k in itertools.product(words[:25], words[:25], words[:25]):
            assert four_point_holds(g, h, k, 0)

    def test_fractional_delta(self):
        assert four_point_holds(W("ab"), W("ba"), W("aa"), Fraction(1, 3))

    def test_negative_delta_compared_exactly(self):
        # free groups pass at every delta >= 0, so only a negative delta
        # shows a lossy comparison: here <g,k> = min(...) exactly
        g = W("ab")
        assert four_point_holds(g, g, g, 0)
        assert not four_point_holds(g, g, g, Fraction(-1, 10 ** 20))


class TestParse:
    def test_round_trip(self):
        for text in ("", "a", "bAb", "abAB", "bbbbaBBBB"):
            assert parse_word(text).to_str() == text

    def test_case_meaning(self):
        assert parse_word("bAb").letters == (2, -1, 2)

    def test_rejects_beyond_rank(self):
        with pytest.raises(InvalidGenerator):
            parse_word("abc", rank=2)
        with pytest.raises(InvalidGenerator):
            parse_word("aC", rank=2)
        parse_word("abc", rank=3)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidGenerator):
            parse_word("a b")
        with pytest.raises(InvalidGenerator):
            parse_word("a1")

    def test_parse_reduces(self):
        assert parse_word("aA").letters == ()


class TestBall:
    def test_sizes(self):
        assert ball_size(2, 0) == 1
        assert ball_size(2, 1) == 5
        assert ball_size(2, 2) == 17
        for r in range(6):
            assert sum(1 for _ in ball(2, r)) == ball_size(2, r)
        assert sum(1 for _ in ball(3, 3)) == ball_size(3, 3)

    def test_all_reduced_and_unique(self):
        seen = set()
        for g in ball(2, 5):
            assert reduce_word(g.letters, 2) == g
            assert g.letters not in seen
            seen.add(g.letters)

    def test_deterministic_order(self):
        first = [g.letters for g in ball(2, 3)]
        second = [g.letters for g in ball(2, 3)]
        assert first == second
        # length-major ordering
        lengths = [len(ls) for ls in first]
        assert lengths == sorted(lengths)
        # within a length, lexicographic in the letter order a < A < b < B
        head = [g.to_str() for g in ball(2, 1)]
        assert head == ["", "a", "A", "b", "B"]

    @pytest.mark.parametrize("rank, radius",
                             [(2, r) for r in range(9)]
                             + [(3, r) for r in range(5)]
                             + [(64, 2), (65, 2)])
    def test_order_matches_brute_force(self, rank, radius):
        # rank 65 is the first whose letter codes need int16
        # every letter tuple up to the radius, reduced ones kept, sorted by
        # length and then letter by letter in the order a < A < b < B < ...
        position = {x: 2 * abs(x) - (x > 0) for x in range(-rank, rank + 1)}
        letters = list(position)
        letters.remove(0)
        expected = sorted(
            (w for n in range(radius + 1)
             for w in itertools.product(letters, repeat=n)
             if all(x != -y for x, y in zip(w, w[1:]))),
            key=lambda w: (len(w), [position[x] for x in w]))
        assert [g.letters for g in ball(rank, radius)] == expected

    @pytest.mark.parametrize("rank", [64, 65, 127, 128, 200])
    def test_wide_ranks(self, rank):
        # codes 0..2 rank - 1, letters up to +-rank and -2 rank fit the
        # tables' dtype, and it is int8 exactly up to rank 64; the last
        # word of layer 2 is (-rank, -rank)
        tables = _LayerTables(rank, 2)
        dtype = tables.last[2].dtype
        assert np.iinfo(dtype).min <= -2 * rank
        assert (dtype == np.int8) == (rank <= 64)
        assert all(t.dtype == dtype for t in (*tables.last, *tables.peel,
                                              tables.letters))
        assert tables.last[2].max() == 2 * rank - 1
        words = [g.letters for g in ball(rank, 1)]
        assert words == [()] + [(s * i,) for i in range(1, rank + 1)
                                for s in (1, -1)]
        assert sum(1 for _ in ball(rank, 2)) == ball_size(rank, 2)
        codes = tables.codes(2, len(tables.last[2]) - 1, len(tables.last[2]))
        assert tables.letters[codes].ravel().tolist() == [-rank, -rank]

    def test_lazy(self):
        # no layer past the first is built before the identity and the
        # first letter: the tables of the radius-14 ball of F_2 take 19 MB,
        # and those of the radius-40 ball would take 4 * 3^39 bytes
        words = ball(2, 14)
        tracemalloc.start()
        try:
            assert next(words) == Word.identity(2)
            assert next(words) == Word.from_str("a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert next(ball(2, 40)) == Word.from_str("")


class TestBlockKernel:
    @pytest.mark.parametrize("w", ["", "a", "aab", "bba", "AAb", "abAB"])
    def test_matches_tuple_helpers(self, w):
        w = parse_word(w).letters
        for n in range(8):
            words = layer_words(2, n)
            rows = [tuple(g) for g in words.tolist()]
            assert _block_peel(words).tolist() == [_peel(g) for g in rows]
            lengths, peels = _block_product(words, w)
            products = [_product(g, w) for g in rows]
            assert lengths.tolist() == [len(p) for p in products]
            assert peels.tolist() == [_peel(p) for p in products]


class TestLayerTables:
    def test_tables_match_layer_blocks(self):
        # word i of layer L is the i-th row of layer_words(rank, L), with
        # its letters' codes, its last letter and its _peel in the tables,
        # in F_2 and in F_3; codes read in ranges of 7 words cut runs
        for rank, radius in ((2, 9), (3, 6)):
            tables = _LayerTables(rank, radius)
            code = {x: 2 * abs(x) - 2 + (x < 0)
                    for x in range(-rank, rank + 1)}
            for n in range(radius + 1):
                rows = [tuple(g) for g in layer_words(rank, n).tolist()]
                assert [tables.word(n, i) for i in range(len(rows))] == [
                    Word(g, rank).to_str() for g in rows]
                codes = tables.codes(n, 0, len(rows))
                assert codes.T.tolist() == [[code[x] for x in g]
                                            for g in rows]
                assert np.array_equal(codes, np.concatenate(
                    [tables.codes(n, lo, min(lo + 7, len(rows)))
                     for lo in range(0, len(rows), 7)], axis=1))
                assert tables.peel[n].tolist() == [_peel(g) for g in rows]
                if n:
                    assert tables.last[n].tolist() == [code[g[-1]]
                                                       for g in rows]
                assert all(t.dtype == np.int8 for t in (tables.last[n],
                                                        tables.peel[n]))

    @pytest.mark.parametrize("w", ["a", "aab", "bba", "AAb", "abAB",
                                   "aabAbbaBa", "bbbbbbb", "aaaaBBaaaaBB",
                                   pytest.param("a" * 65 + "b" * 65,
                                                id="a65b65")])
    @pytest.mark.parametrize("span", [_SCAN_ROWS, 27, 100, 7])
    def test_products_match_the_block_oracle(self, w, span):
        # every word of length <= 8, read in ranges of span words (whole
        # layers, runs of 3^3, or ranges that cut runs), against
        # _block_product on layer_words; at |w| = 130 the lengths and
        # peels pass the int8 range
        w = parse_word(w).letters
        tables = _LayerTables(2, 8)
        for n in range(9):
            size = len(tables.peel[n])
            want = _block_product(layer_words(2, n), w)
            got = [np.concatenate(col) for col in zip(*(
                tables.products(n, lo, min(lo + span, size), [w])[0]
                for lo in range(0, size, span)))]
            assert [x.tolist() for x in got] == [x.tolist() for x in want]


    @pytest.mark.parametrize("u, v, reads", [("aab", "bba", 10),
                                             ("ab", "aab", 13)])
    def test_each_slice_is_read_once_per_range(self, monkeypatch, u, v,
                                               reads):
        # 6 letter reads serve both words; the 4 middle reads of a word of
        # length 3 serve every word of that length, and those of ab (3)
        # and aab (4) differ
        tables = _LayerTables(2, 10)
        calls = []
        read = tables._read
        monkeypatch.setattr(tables, "_read",
                            lambda *args: calls.append(args) or read(*args))
        ws = (parse_word(u).letters, parse_word(v).letters)
        tables.products(10, 0, 32768, ws)
        assert len(calls) == reads


class TestBaseInvariance:
    def test_left_translation_exhaustive_radius_4(self):
        # <ug, uh>_u = <g, h>_e for the left-invariant word metric
        words = list(ball(2, 4))
        sub = words[::7]  # deterministic thinning keeps this test quick
        for u in sub:
            for g in sub:
                for h in sub:
                    lhs = gromov_product(u * g, u * h, base=u)
                    assert lhs == gromov_product(g, h)


@settings(max_examples=50)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20),
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20))
def test_distance_symmetric(a, b):
    g, h = reduce_word(a, 2), reduce_word(b, 2)
    assert distance(g, h) == distance(h, g)
    assert distance(g, h) == word_length(g.inverse() * h)
