from fractions import Fraction

import numpy as np
import pytest

from dispgeo.errors import (
    HypothesisViolated,
    NotAlmostCyclicallyReduced,
    NotPingPong,
    PingPongNotFound,
    RankMismatch,
)
from dispgeo.hyperbolic import (
    _acr_cut,
    _as_delta,
    _excess,
    _first_acr,
    _range_scan,
    certify_ping_pong,
    find_ping_pong_pair,
    is_almost_cyclically_reduced,
    pair_offset,
    select_acr,
    stable_length_lower_bound,
    stable_norm_length_bound,
)
from dispgeo.words import (
    Word,
    _LayerTables,
    _peel,
    _product,
    ball,
    multiply,
    parse_word,
    stable_norm,
    word_length,
)
from oracles import (
    _block_scan,
    check_chain_separation,
    conjugacy_undistortion_check,
    layer_words,
)

W = parse_word


@pytest.fixture(scope="module")
def pair():
    return certify_ping_pong(W("aab"), W("bba"), 0)


class TestAcr:
    def test_cyclically_reduced_is_acr(self):
        v = is_almost_cyclically_reduced(W("aab"), 0)
        assert v.is_acr and v.product == 0 and v.threshold == 1

    def test_deep_conjugate_is_not(self):
        # |g^2| = 10 so <g, g^-1> = (9 + 9 - 10)/2 = 4 > 9/3
        g = W("bbbbaBBBB")
        assert word_length(g * g) == 10
        v = is_almost_cyclically_reduced(g, 0)
        assert not v.is_acr and v.product == 4 and v.threshold == 3

    def test_empty_word(self):
        v = is_almost_cyclically_reduced(Word.identity(2), 0)
        assert v.is_acr and v.product == 0 and v.threshold == 0

    def test_product_equals_peeled_letters(self):
        # independent identity: <g, g^-1> = number of letters peeled by
        # cyclic reduction, via |g^2| = 2|g| - 2 peel
        for g in ball(2, 6):
            v = is_almost_cyclically_reduced(g, 0)
            peel = (word_length(g) - stable_norm(g)) // 2
            assert v.product == peel


class TestStableLengthLowerBound:
    def test_holds_for_acr(self):
        assert stable_length_lower_bound(W("aab"), 0) == 1
        assert stable_norm(W("aab")) == 3 >= 1

    def test_single_letter(self):
        assert stable_length_lower_bound(W("a"), 0) == Fraction(1, 3)

    def test_long_word(self):
        g = W("bbbbaBBBBaab")
        assert stable_length_lower_bound(g, 0) == 4
        assert stable_norm(g) == 12 >= 4

    def test_rejects_non_acr(self):
        with pytest.raises(NotAlmostCyclicallyReduced):
            stable_length_lower_bound(W("bbbbaBBBB"), 0)

    def test_exhaustive_radius_8(self):
        for g in ball(2, 8):
            v = is_almost_cyclically_reduced(g, 0)
            if v.is_acr:
                assert stable_norm(g) >= Fraction(word_length(g), 3)


class TestChainSeparation:
    def test_powers(self):
        g = W("ab")
        points = [g ** n for n in range(8)]
        assert check_chain_separation(points, 2, 0)

    def test_single_point(self):
        assert check_chain_separation([W("ab")], 5, 0)

    def test_pingpong_word_prefixes(self):
        # prefixes of (uv)^m for a ping-pong pair form a separated chain
        u, v = W("aab"), W("bba")
        w = (u * v) ** 4
        points = [Word(w.letters[:3 * i], 2) for i in range(9)]
        assert check_chain_separation(points, 3, 0)

    def test_hypothesis_violated(self):
        # constant-ish chain: d(x_0, x_2) = 0 < d(x_0, x_1) + a
        points = [Word.identity(2), W("a"), Word.identity(2)]
        with pytest.raises(HypothesisViolated) as exc:
            check_chain_separation(points, 1, 0)
        assert exc.value.index == 0


class TestCertifyPingPong:
    def test_flagship_pair(self, pair):
        assert (pair.margin1, pair.margin2, pair.margin3) == (
            Fraction(3), Fraction(3, 2), Fraction(3, 2))

    def test_too_short_for_delta(self):
        with pytest.raises(NotPingPong) as exc:
            certify_ping_pong(W("a"), W("b"), 1)
        assert exc.value.condition == 1

    @pytest.mark.parametrize("u, v", [("", ""), ("", "b"), ("aab", "")])
    @pytest.mark.parametrize("delta", [0, Fraction(1, 300)])
    def test_identity_fails_condition_1(self, u, v, delta):
        # the identity plays no ping-pong: (e, e) would pass all three
        # margins at delta = 0 and falsely refute Prop. 4.22
        with pytest.raises(NotPingPong) as exc:
            certify_ping_pong(W(u), W(v), delta)
        assert (exc.value.condition, exc.value.margin) == (1, -100 * delta)

    def test_equal_pair_fails_condition_2(self):
        with pytest.raises(NotPingPong) as exc:
            certify_ping_pong(W("ab"), W("ab"), 0)
        assert exc.value.condition == 2

    def test_self_overlap_fails_condition_3(self):
        # at delta = 0 a free group never fails condition 3 (the self
        # product is the peel count, always < |w|/2), so use delta = 1/30:
        # u = b^-2 a b^2 has self product 2 > 5/2 - 20/30, while the cross
        # products with v = b^4 a are all 0 and conditions 1-2 pass
        with pytest.raises(NotPingPong) as exc:
            certify_ping_pong(W("BBabb"), W("bbbba"), Fraction(1, 30))
        assert exc.value.condition == 3

    def test_monotone_in_delta(self, pair):
        # succeeding at delta implies succeeding at every smaller delta
        for delta in (Fraction(1, 100), Fraction(1, 50), Fraction(3, 100)):
            certify_ping_pong(pair.u, pair.v, delta)
        with pytest.raises(NotPingPong):
            certify_ping_pong(pair.u, pair.v, Fraction(4, 100))

    def test_free_subgroup_words_nontrivial(self, pair):
        # every reduced word of length <= 5 in u, v, u^-1, v^-1 is a
        # nontrivial element: the pair generates a free subgroup
        symbols = [pair.u, pair.u.inverse(), pair.v, pair.v.inverse()]
        inverse_of = {0: 1, 1: 0, 2: 3, 3: 2}
        count = 0
        frontier = [((), Word.identity(2))]
        for _ in range(5):
            nxt = []
            for idx_seq, value in frontier:
                for i, s in enumerate(symbols):
                    if idx_seq and inverse_of[idx_seq[-1]] == i:
                        continue
                    w = multiply(value, s)
                    assert w, f"trivial image for symbol word {idx_seq + (i,)}"
                    nxt.append((idx_seq + (i,), w))
                    count += 1
            frontier = nxt
        assert count == 4 * (1 + 3 + 9 + 27 + 81)


class TestFindPingPongPair:
    def test_finds_power(self):
        n, cert = find_ping_pong_pair(W("ab"), W("a"), 0, n_max=10)
        assert 1 <= n <= 10
        assert cert.u == W("ab") ** n

    def test_empty_f_rejected(self):
        with pytest.raises(ValueError):
            find_ping_pong_pair(Word.identity(2), W("a"), 0, 10)

    def test_commuting_rejected(self):
        with pytest.raises(ValueError):
            find_ping_pong_pair(W("a"), W("a"), 0, 10)

    def test_not_cyclically_reduced_rejected(self):
        with pytest.raises(ValueError):
            find_ping_pong_pair(W("Bab"), W("a"), 0, 10)

    def test_cap_exhausted(self):
        with pytest.raises(PingPongNotFound):
            find_ping_pong_pair(W("ab"), W("a"), 50, n_max=3)


class TestSelectAcr:
    def test_repairs_deep_conjugate(self, pair):
        g = W("bbbbaBBBB")
        assert select_acr(g, pair) == g * pair.u
        assert (g * pair.u).to_str() == "bbbbaBBBBaab"

    def test_keeps_acr_input(self, pair):
        g = W("a" * 9)
        assert select_acr(g, pair) == g

    def test_other_conjugate(self, pair):
        g = W("BBBBAbbbb")
        chosen = select_acr(g, pair)
        assert chosen in (g * pair.u, g * pair.v)
        assert is_almost_cyclically_reduced(chosen, 0).is_acr

    def test_hypothesis_checked(self, pair):
        with pytest.raises(HypothesisViolated):
            select_acr(W("ab"), pair)

    def test_exhaustive_lengths_9_to_10(self, pair):
        # longer lengths are covered by the acceptance suite
        for g in ball(2, 10):
            if word_length(g) >= 9:
                chosen = select_acr(g, pair)
                assert is_almost_cyclically_reduced(chosen, 0).is_acr


class TestAcrCut:
    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 300),
                                       Fraction(1, 3), Fraction(2, 3),
                                       Fraction(1), Fraction(7, 3),
                                       Fraction(5, 2)])
    def test_floor_cut_is_the_rational_test(self, delta):
        for length in range(13):
            for peel in range(length // 2 + 1):
                assert ((3 * peel - length <= _acr_cut(delta))
                        == (peel <= Fraction(length, 3) - delta))

    def test_fraction_delta_passes_through(self):
        d = Fraction(1, 300)
        assert _as_delta(d) is d
        assert _as_delta(0) == 0
        with pytest.raises(ValueError):
            _as_delta(Fraction(-1, 3))

    def test_threshold_field(self):
        for delta in (0, Fraction(1, 300), Fraction(7, 3), 2):
            verdict = is_almost_cyclically_reduced(W("abAB"), delta)
            assert verdict.threshold == Fraction(4, 3) - delta
            assert type(verdict.threshold) is Fraction


class TestBlockScan:
    @pytest.mark.parametrize("u, v", [("aab", "bba"), ("AAb", "bbA"),
                                      ("a", "b"), ("ab", "ba")])
    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 300),
                                       Fraction(1, 60), Fraction(7, 3)])
    def test_matches_tuple_helpers(self, u, v, delta):
        # the array kernel against the per-word helpers, every word of
        # length <= 7
        u, v = W(u).letters, W(v).letters
        for n in range(8):
            block = layer_words(2, n)
            excess, first = _block_scan(block, u, v, delta)
            words = [(g, _product(g, u), _product(g, v))
                     for g in map(tuple, block.tolist())]
            assert excess.tolist() == [_excess(ws) for ws in words]
            assert first.tolist() == [_first_acr(ws, delta) for ws in words]


_KERNEL_PAIRS = [("aab", "bba"), ("AAb", "bbA"), ("ab", "ba"), ("a", "b"),
                 ("ab", "AB"), ("ab", "aB"), ("aab", "abb"),
                 ("aabAbbaBa", "bAbbabAAb"), ("bbbbbbb", "a"),
                 ("aaaaBBaaaaBB", "ab")]
_DELTAS = [Fraction(0), Fraction(1, 300), Fraction(1, 60), Fraction(7, 3)]


def _scans_agree(u, v, radius, deltas):
    """_range_scan over the layer tables against _block_scan over
    layer_words, on every word of length <= radius."""
    u, v = W(u).letters, W(v).letters
    tables = _LayerTables(2, radius)
    for n in range(radius + 1):
        block = layer_words(2, n)
        for delta in deltas:
            want = _block_scan(block, u, v, delta)
            got = _range_scan(tables, n, 0, len(tables.peel[n]), u, v, delta)
            assert [x.tolist() for x in got] == [x.tolist() for x in want]


class TestRangeScan:
    @pytest.mark.parametrize("u, v", _KERNEL_PAIRS)
    def test_matches_block_oracle(self, u, v):
        # every word of length <= 9; aaaaBBaaaaBB is longer than every
        # layer, so its products take the middle from w
        _scans_agree(u, v, 9, _DELTAS)

    def test_long_pair_leaves_int8(self):
        # |g u| reaches 134 at radius 4, past what int8 sums could hold
        _scans_agree("a" * 65 + "b" * 65, "b" * 65 + "a" * 65, 4, _DELTAS)

    # the oracle tests above scan whole layers, where a memo of table
    # reads keyed by j alone, or kept from one range to the next, would
    # give the same arrays; these two tell

    @pytest.mark.parametrize("u, v", _KERNEL_PAIRS)
    def test_pair_products_are_each_words_products(self, u, v):
        # the middles of |u| != |v| are different reads at the same j
        u, v = W(u).letters, W(v).letters
        tables = _LayerTables(2, 9)
        for n in range(10):
            size = len(tables.peel[n])
            for lo in range(0, size, 1000):
                hi = min(lo + 1000, size)
                both = tables.products(n, lo, hi, (u, v))
                each = (tables.products(n, lo, hi, (u,))
                        + tables.products(n, lo, hi, (v,)))
                assert [[x.tolist() for x in p] for p in both] == [
                    [x.tolist() for x in p] for p in each]

    @pytest.mark.parametrize("span", [7, 1000])
    @pytest.mark.parametrize("u, v", _KERNEL_PAIRS)
    def test_range_scans_join_to_the_whole_layer(self, u, v, span):
        # ranges of 7 words cut every run of the tables' reads
        u, v = W(u).letters, W(v).letters
        tables = _LayerTables(2, 9)
        delta = Fraction(1, 60)
        for n in range(10):
            size = len(tables.peel[n])
            whole = _range_scan(tables, n, 0, size, u, v, delta)
            parts = [_range_scan(tables, n, lo, min(lo + span, size), u, v,
                                 delta) for lo in range(0, size, span)]
            assert [np.concatenate(col).tolist() for col in zip(*parts)] == [
                x.tolist() for x in whole]


class TestStableNormLengthBound:
    def test_example(self, pair):
        res = stable_norm_length_bound(W("bbbbaBBBB"), pair)
        assert (res.lhs, res.rhs, res.holds) == (9, Fraction(45), True)

    def test_empty(self, pair):
        res = stable_norm_length_bound(Word.identity(2), pair)
        assert res.lhs == 0 and res.holds

    def test_offset_derived(self, pair):
        assert pair_offset(pair) == 9

    def test_broken_alpha_detects_violation(self, pair):
        # at offset alpha = -100 the bound reads lhs <= rhs - offset - 100
        res = stable_norm_length_bound(W("bbbbaBBBB"), pair)
        assert res.lhs > res.rhs - pair_offset(pair) - 100

    def test_exhaustive_radius_8(self, pair):
        for g in ball(2, 8):
            assert stable_norm_length_bound(g, pair).holds

    def test_rank_mismatch(self, pair):
        g = Word((1, 3) * 5, rank=3)
        with pytest.raises(RankMismatch):
            stable_norm_length_bound(g, pair)
        with pytest.raises(RankMismatch):
            select_acr(g, pair)


def _undistortion_oracle(ws, A, B, radius):
    """The per-word loop: |g| <= A max_i ell(w_i g) + B over the ball."""
    for g in ball(ws[0].rank, radius):
        best = max(len(wg) - 2 * _peel(wg)
                   for wg in (_product(w.letters, g.letters) for w in ws))
        if len(g) > A * best + B:
            return False
    return True


class TestUndistortionCheck:
    def test_witness_family(self, pair):
        gens = [Word.identity(2), pair.u, pair.v]
        assert conjugacy_undistortion_check(gens, 3, 9, radius=10)

    def test_identity_alone_fails(self):
        assert not conjugacy_undistortion_check(
            [Word.identity(2)], 1, 0, radius=3)

    def test_radius_zero(self):
        assert conjugacy_undistortion_check([Word.identity(2)], 1, 0, 0)

    def test_mixed_ranks_rejected(self):
        with pytest.raises(RankMismatch):
            conjugacy_undistortion_check(
                [Word.identity(2), Word.identity(3)], 1, 0, radius=2)

    def test_matches_per_row_oracle(self):
        # seeded witness families of ranks 2 and 3, half with the
        # identity, rational A and B, against the per-word loop
        rng = np.random.default_rng(11)
        verdicts = []
        for case in range(60):
            rank = 2 + case % 2
            letters = [x for i in range(1, rank + 1) for x in (i, -i)]
            ws = [Word(rng.choice(letters, int(rng.integers(0, 6))).tolist(),
                       rank) for _ in range(int(rng.integers(1, 4)))]
            if case % 4 < 2:
                ws.append(Word.identity(rank))
            A = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            B = Fraction(int(rng.integers(0, 13)), int(rng.integers(1, 4)))
            radius = int(rng.integers(0, 7 if rank == 2 else 5))
            verdict = conjugacy_undistortion_check(ws, A, B, radius)
            assert verdict == _undistortion_oracle(ws, A, B, radius)
            verdicts.append(verdict)
        assert 0 < verdicts.count(False) < len(verdicts)

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            conjugacy_undistortion_check([Word.identity(2)], 0, 0, 1)
        with pytest.raises(ValueError):
            conjugacy_undistortion_check([Word.identity(2)], 1, -1, 1)
