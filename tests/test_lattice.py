import hashlib
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dispgeo
from dispgeo import lattice
from dispgeo.errors import (
    DimensionUnsupported,
    IdentityInput,
    NoModulusFound,
    ResourceExceeded,
    SingularInput,
    TorsionInput,
)
from dispgeo.lattice import (
    GeneratorSet,
    _commutant_points,
    _digits,
    _family_min_expanding,
    _largest_box,
    _log_root_moduli,
    _quadratic_log_moduli,
    _roots_by_power,
    _roots_inside,
    _row_keys,
    _strip_cyclotomic,
    _unipotent_depth,
    as_int_matrix,
    char_poly,
    contortion_witness,
    depth_root_bound,
    det_exact,
    elementary_generators,
    enumerate_ball,
    find_roots_in_box,
    has_trivial_hyperbolic_part,
    identity,
    inverse_unimodular,
    is_torsion,
    log_eigenvalue_moduli,
    mat_mod,
    mat_mul,
    mat_pow,
    mat_pow_mod,
    sl_group_order,
    translation_length_lower,
    translation_length_upper,
    unipotence_exponent,
    word_length_bfs,
)
from dispgeo.matgeo import is_unipotent
import oracles
from oracles import (
    ZeroScale,
    elementary_generators_by_faddeev_leverrier,
    is_p_unit_denominator,
    strip_cyclotomic_fixed_point,
    unipotent_conjugation_identity,
)


def E(n, i, j, t):
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][j] = t
    return tuple(tuple(r) for r in rows)


FIB = ((2, 1), (1, 1))


def companion_matrix(poly):
    """The integer companion matrix of a monic poly, leading coefficient
    first: ones below the diagonal, -poly reversed in the last column."""
    d = len(poly) - 1
    return tuple(tuple(int(j == i - 1) for j in range(d - 1)) + (-poly[d - i],)
                 for i in range(d))


def qr_log_root_moduli(poly):
    """The route that the certified counts replaced: the cyclotomic factors
    divided out exactly, then the eigenvalues of the remainder's companion
    matrix by mpmath QR at _digits(bits) digits.  QR leaves about 1e-61
    where a modulus is exactly 1 (a Salem factor); that reads as 0.0."""
    from mpmath import mp

    rest = _strip_cyclotomic(poly, len(poly) - 1)
    d = len(rest) - 1
    logs = [0.0] * (len(poly) - len(rest))
    bits = max(abs(c) for c in rest).bit_length()
    with mp.workdps(_digits(bits)):
        companion = mp.matrix([[-c for c in rest[1:]]] + [
            [int(j == i) for j in range(d)] for i in range(d - 1)])
        roots = mp.eig(companion, left=False, right=False)
        logs += [float(mp.log(abs(r))) for r in roots]
    return tuple(sorted((0.0 if abs(x) < 1e-40 else x for x in logs),
                        reverse=True))


@pytest.fixture(scope="module")
def gens2():
    return elementary_generators(2)


@pytest.fixture(scope="module")
def gens3():
    return elementary_generators(3)


@pytest.fixture(scope="module")
def ball4(gens2):
    return enumerate_ball(gens2, 4)


def oracle_totient(m):
    return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


def oracle_all_products_lengths(gens, radius):
    """Naive oracle: multiply out every generator sequence up to the
    radius and keep the first (shortest) length per matrix."""
    n = gens.dimension
    lengths = {identity(n): 0}
    layer = [identity(n)]
    for r in range(1, radius + 1):
        nxt = []
        for m in layer:
            for s in gens.elements:
                p = mat_mul(m, s)
                nxt.append(p)
                if p not in lengths:
                    lengths[p] = r
        layer = nxt
    return lengths


def oracle_bareiss_det(a):
    """Fraction-free Gaussian elimination (Bareiss), independent of the
    Faddeev-LeVerrier loop that det_exact reads."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class TestExactHelpers:
    @given(st.lists(st.integers(0, 3), max_size=10))
    def test_generator_word_properties(self, picks):
        gens = elementary_generators(2)
        m = identity(2)
        for i in picks:
            m = mat_mul(m, gens.elements[i])
        assert det_exact(m) == 1
        assert mat_mul(m, inverse_unimodular(m)) == identity(2)
        coeffs = char_poly(m)
        assert coeffs[0] == 1 and coeffs[-1] == 1  # monic, det pinned

    def test_char_poly(self):
        assert char_poly(FIB) == (1, -3, 1)
        assert char_poly(identity(3)) == (1, -3, 3, -1)
        assert char_poly(E(3, 0, 2, 5)) == (1, -3, 3, -1)

    def test_det(self):
        assert det_exact(FIB) == 1
        assert det_exact(((2, 0), (0, 2))) == 4
        assert det_exact(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0

    def test_det_matches_bareiss_oracle(self):
        rng = np.random.default_rng(2024)
        singular = 0
        for k in range(200):
            n = 1 + k % 5
            rows = rng.integers(-6, 7, size=(n, n))
            if k % 3 == 0 and n > 1:  # a dependent last row
                c = rng.integers(-3, 4, size=n - 1)
                rows[-1] = c @ rows[:-1]
            a = as_int_matrix(rows)
            expected = oracle_bareiss_det(a)
            singular += expected == 0
            assert det_exact(a) == expected
        assert singular >= 40

    def test_inverse(self):
        assert mat_mul(FIB, inverse_unimodular(FIB)) == identity(2)
        big = mat_pow(FIB, 9)
        assert mat_mul(inverse_unimodular(big), big) == identity(2)

    def test_inverse_det_minus_one_and_non_units(self):
        swap = ((0, 1), (1, 0))
        assert inverse_unimodular(swap) == swap
        signed = ((0, 0, -1), (1, 0, 0), (0, 1, 0))
        assert det_exact(signed) == -1
        assert mat_mul(signed, inverse_unimodular(signed)) == identity(3)
        with pytest.raises(ValueError, match="determinant 2"):
            inverse_unimodular(((2, 0), (0, 1)))
        with pytest.raises(ValueError, match="determinant 0"):
            inverse_unimodular(((1, 2), (2, 4)))

    def test_log_eigenvalue_moduli(self):
        top = math.log((3 + math.sqrt(5)) / 2)
        assert np.allclose(log_eigenvalue_moduli(FIB), (top, -top))
        # the cyclotomic factor x - 1 contributes an exact 0.0
        assert log_eigenvalue_moduli(((2, 0), (0, 1))) == (math.log(2), 0.0)
        assert log_eigenvalue_moduli(E(4, 0, 3, 7)) == (0.0,) * 4
        with pytest.raises(SingularInput):
            log_eigenvalue_moduli(((1, 2), (2, 4)))

    def test_log_eigenvalue_moduli_raises_without_fallback(self):
        # a root on the circle makes the Schur-Cohn count singular, and it
        # raises rather than guess: x^4 - x^3 - x^2 - x + 1, a Salem
        # quartic, has two roots of modulus exactly 1
        salem = (1, -1, -1, -1, 1)
        with pytest.raises(ArithmeticError):
            _roots_inside(salem, 1, 0)
        assert [_roots_inside(salem, num, 3) for num in (7, 9)] == [1, 3]
        # the certified route never counts on that circle, and a
        # separation bound proves the two moduli exactly 1
        companion = ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
        assert char_poly(companion) == salem
        assert log_eigenvalue_moduli(companion) == (
            0.5435350724978696, 0.0, 0.0, -0.5435350724978696)
        # a quadratic remainder is solved in closed form
        top = log_eigenvalue_moduli(((2, 1, 0), (1, 1, 0), (0, 0, 1)))[0]
        assert top == log_eigenvalue_moduli(FIB)[0] > 0
        # a fully cyclotomic polynomial gives exact zeros
        assert log_eigenvalue_moduli(E(3, 0, 2, 5)) == (0.0,) * 3

    @pytest.mark.parametrize("n, num, k, box, members", [
        (2, 167, 6, Fraction(167, 64), 11),
        (3, 147, 7, Fraction(6, 5), 63),
        (4, 147, 7, Fraction(6, 5), 1989)])
    def test_least_houses_above_one(self, n, num, k, box, members):
        # the least house h_n above 1 of a monic integer polynomial of
        # degree n with constant term (-1)^n, as the characteristic
        # polynomial of an element of SL(n, Z) has: if every root lies in
        # |z| < num / 2^k <= box, then |a_m| <= C(n, m) box^m, so the
        # polynomials counted below hold every one with house below
        # num / 2^k; each that is not a product of cyclotomics keeps a
        # root outside, so h_2 = (3 + sqrt 5)/2 > 167/64 and h_3, h_4 >
        # 147/128
        bounds = [math.floor(math.comb(n, m) * box ** m) for m in range(1, n)]
        polys = [(1, *middle, (-1) ** n) for middle in iter_product(
            *(range(-b, b + 1) for b in bounds))]
        assert len(polys) == members
        for poly in polys:
            if _strip_cyclotomic(poly, n) != (1,):
                assert _roots_inside(poly, num, k) < n, poly
        # x^3 + x^2 - 1 (Boyd) has house 1.1509..., below 1179/1024
        assert _roots_inside((1, 1, 0, -1), 1179, 10) == 3

    @staticmethod
    def count_roots_inside(monkeypatch):
        """Patch lattice._roots_inside to count its calls in the list
        returned."""
        calls = []
        roots_inside = lattice._roots_inside

        def counting(*args):
            calls.append(args)
            return roots_inside(*args)

        monkeypatch.setattr(lattice, "_roots_inside", counting)
        return calls

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_certified_moduli_match_the_qr_oracle(self, degree, monkeypatch):
        rng = random.Random(2700 + degree)
        calls = self.count_roots_inside(monkeypatch)
        checked = 0
        while checked < 300:
            poly = (1, *(rng.randint(-30, 30) for _ in range(degree - 1)),
                    rng.choice((1, -1)))
            if len(_strip_cyclotomic(poly, degree)) < len(poly):
                continue  # the remainder would have a lower degree
            assert (log_eigenvalue_moduli(companion_matrix(poly))
                    == qr_log_root_moduli(poly)), poly
            checked += 1
        # the counts that the two-pass route (a counted bracket at each
        # guess, then bisection) made on the same 300 polynomials
        assert len(calls) <= {3: 9933, 4: 12890, 5: 15840}[degree]

    def test_certified_moduli_past_the_guesses(self, monkeypatch):
        # M^100's bracket ends pass 2^53, so they are stepped half a unit
        # off the integers; M^1000's coefficients pass the float range, so
        # np.roots gives no guesses; Lehmer's degree-10 polynomial has
        # eight roots of modulus exactly 1 and gives exact zeros
        m = ((-4, -3, -4), (1, 1, 1), (7, 5, 6))
        calls = self.count_roots_inside(monkeypatch)
        for k in (17, 100, 1000):
            poly = char_poly(mat_pow(m, k))
            assert _log_root_moduli(poly) == qr_log_root_moduli(poly), k
        with pytest.raises(OverflowError):
            np.array(char_poly(mat_pow(m, 1000)), dtype=float)
        # the two-pass route made 205 counts on these three
        assert len(calls) <= 205
        lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        logs = _log_root_moduli(lehmer)
        assert logs == qr_log_root_moduli(lehmer)
        assert logs[1:9] == (0.0,) * 8 and logs[0] == -logs[9] > 0

    def test_certified_moduli_of_equal_moduli(self):
        # FIB (+) FIB repeats the factor x^2 - 3x + 1; x^4 - 3x^2 + 1 has
        # the roots +-lambda and +-1/lambda
        fib2 = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))
        assert char_poly(fib2) == (1, -6, 11, -6, 1)
        for m in (fib2, companion_matrix((1, 0, -3, 0, 1))):
            top = log_eigenvalue_moduli(m)[0]
            assert log_eigenvalue_moduli(m) == (top, top, -top, -top)
            assert log_eigenvalue_moduli(m) == qr_log_root_moduli(
                char_poly(m))

    @staticmethod
    def qr_log_moduli(b, c):
        """The QR route on the companion of x^2 + b x + c, at the digits
        the closed form works at."""
        from mpmath import mp

        with mp.workdps(_digits(max(1, abs(b), abs(c)).bit_length())):
            roots = mp.eig(mp.matrix([[-b, -c], [1, 0]]), left=False,
                           right=False)
            return tuple(sorted((float(mp.log(abs(r))) for r in roots),
                                reverse=True))

    def test_quadratic_closed_form_matches_qr(self):
        rng = random.Random(507)
        cases = [(-1002, 1000), (-(2 ** 200 + 2), 2 ** 200),  # a root near 1
                 (1002, 1000), (2 ** 200 + 2, 2 ** 200),  # ... near -1
                 (-4, 4), (4, 4),  # (x -+ 2)^2, a double root
                 (2, 4), (-3, 5)]  # conjugate pairs
        for bits in range(2, 1001, 9):
            b = rng.randrange(-2 ** bits, 2 ** bits)
            cases.append((b, rng.choice((1, -1))))  # det +-1
            cases.append((b, rng.randrange(1, 2 ** bits)
                          * rng.choice((1, -1))))
            # a conjugate pair: b^2 < 4c
            cases.append((b, b * b // 4 + rng.randrange(1, 2 ** bits)))
        for b, c in cases:
            if 1 + b + c == 0 or 1 - b + c == 0:  # a root at 1 or -1
                continue
            assert _quadratic_log_moduli(b, c) == self.qr_log_moduli(b, c), \
                (b, c)

    def test_quadratic_closed_form_is_exact_on_the_unit_circle(self):
        # cyclotomic quadratics never reach the closed form from a matrix
        # (they are divided out first), but it gives them exact zeros where
        # QR leaves ~1e-61 of noise
        for b, c in ((0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (0, -1)):
            assert _quadratic_log_moduli(b, c) == (0.0, 0.0)

    def test_log_eigenvalue_moduli_of_a_large_power_is_fast(self):
        big = mat_pow(FIB, 2 ** 13)
        assert char_poly(big)[1].bit_length() == 11375
        started = time.perf_counter()
        logs = log_eigenvalue_moduli(big)
        assert time.perf_counter() - started < 1.0
        assert logs == self.qr_log_moduli(*char_poly(big)[1:])
        top = log_eigenvalue_moduli(FIB)[0]
        assert logs[0] == pytest.approx(2 ** 13 * top, rel=1e-12)

    def test_as_int_matrix_rejects(self):
        with pytest.raises(ValueError):
            as_int_matrix([[1.5, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_int_matrix([[1, 0, 0], [0, 1, 0]])
        assert as_int_matrix(np.eye(2)) == identity(2)

    def test_as_int_matrix_rejects_non_finite(self):
        for rows in ([[math.inf, 0], [0, 1]],
                     np.array([[np.inf, 0], [0, 1]])):
            with pytest.raises(ValueError, match="non-integer entry inf"):
                as_int_matrix(rows)


def count_calls(monkeypatch, module, name):
    """Patch module.<name> to count its calls in the list returned."""
    calls = []
    wrapped = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestGeneratorSet:
    def test_elementary_count_and_bound(self, gens2, gens3):
        assert len(gens2.elements) == 4
        assert len(gens3.elements) == 12
        assert gens2.inverse_index == (1, 0, 3, 2)
        phi = (1 + math.sqrt(5)) / 2
        for g in (gens2, gens3):
            assert phi <= g.norm_bound <= 1.62

    def test_rejects_identity(self):
        with pytest.raises(ValueError):
            GeneratorSet.from_matrices([identity(2), E(2, 0, 1, 1),
                                        E(2, 0, 1, -1)])

    def test_rejects_unsymmetric(self):
        with pytest.raises(ValueError):
            GeneratorSet.from_matrices([E(2, 0, 1, 1)])

    def test_norm_bound_is_derived_not_set(self, gens2):
        # a bound below the generators' norms would make
        # translation_length_lower overstate word lengths
        with pytest.raises(TypeError, match="norm_bound"):
            GeneratorSet(elements=gens2.elements, norm_bound=1.01)
        assert GeneratorSet(gens2.elements).norm_bound == gens2.norm_bound

    def test_frobenius_fallback(self):
        gs = GeneratorSet.from_matrices([FIB, inverse_unimodular(FIB)])
        # operator norm of FIB is (3 + sqrt 5)/2 = 2.618; Frobenius sqrt(7)
        assert 2.618 <= gs.norm_bound <= math.sqrt(7) * (1 + 1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_elementary_matches_faddeev_leverrier_oracle(self, n,
                                                         monkeypatch):
        calls = count_calls(monkeypatch, lattice, "_faddeev_leverrier")
        elements, inverse_index, norm_bound = (
            elementary_generators_by_faddeev_leverrier(n))
        # one loop per generator: 24 at n = 4
        assert len(calls) == len(elements) == 2 * n * (n - 1)
        calls.clear()
        gens = elementary_generators(n)
        assert calls == []
        assert gens.elements == elements
        assert gens.inverse_index == inverse_index
        assert gens.norm_bound.hex() == norm_bound.hex()

    def test_other_generators_take_faddeev_leverrier(self, monkeypatch,
                                                     gens3):
        pair = [FIB, inverse_unimodular(FIB)]
        h = ((2, 1, 0), (1, 1, 0), (0, 0, 1))  # FIB (+) 1
        conj = [mat_mul(mat_mul(h, g), inverse_unimodular(h))
                for g in gens3.elements]
        assert all(lattice._is_elementary(g) is None for g in pair + conj)
        calls = count_calls(monkeypatch, lattice, "_det_and_inverse")
        GeneratorSet.from_matrices(pair)
        assert len(calls) == 2
        calls.clear()
        gs = GeneratorSet.from_matrices(conj)
        assert len(calls) == len(conj)
        assert gs.inverse_index == gens3.inverse_index

    def test_elementary_without_its_inverse(self):
        with pytest.raises(ValueError, match="not closed under inversion"):
            GeneratorSet.from_matrices([E(2, 0, 1, 2), E(2, 1, 0, 1),
                                        E(2, 1, 0, -1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError,
                           match="generating set must be nonempty"):
            GeneratorSet(elements=())
        with pytest.raises(ValueError,
                           match="generating set must be nonempty"):
            GeneratorSet.from_matrices([])


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


class TestOnePassArithmetic:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_strip_matches_fixed_point_oracle(self, n):
        rng = random.Random(330 + n)
        orders = lattice._orders(n)
        for _ in range(60):
            poly = (1,)
            for _ in range(rng.randint(0, 4)):
                f = lattice._cyclotomic(rng.choice(orders))
                for _ in range(rng.randint(1, 3)):
                    poly = poly_mul(poly, f)
            for _ in range(rng.randint(0, 2)):
                degree = rng.randint(1, 3)
                g = (1, *(rng.randint(-4, 4) for _ in range(degree)))
                if strip_cyclotomic_fixed_point(g, degree) == g:
                    poly = poly_mul(poly, g)  # no cyclotomic factor
            assert (_strip_cyclotomic(poly, n)
                    == strip_cyclotomic_fixed_point(poly, n)), poly

    @pytest.mark.parametrize("poly, n, old, new", [
        ((1, -4, 6, -4, 1), 4, 13, 4),  # (x - 1)^4
        (char_poly(((2, 1, 0), (1, 1, 0), (0, 0, 1))), 3, 10, 6),  # FIB + 1
    ])
    def test_strip_divisions(self, poly, n, old, new, monkeypatch):
        want = strip_cyclotomic_fixed_point(poly, n)  # warms _cyclotomic
        old_calls = count_calls(monkeypatch, oracles, "_poly_divmod")
        new_calls = count_calls(monkeypatch, lattice, "_poly_divmod")
        assert strip_cyclotomic_fixed_point(poly, n) == want
        assert _strip_cyclotomic(poly, n) == want
        assert (len(old_calls), len(new_calls)) == (old, new)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mat_mul_matches_generator_product(self, n):
        rng = random.Random(2 ** 200 + n)
        for _ in range(20):
            a, b = (tuple(tuple(rng.randint(-2 ** 200, 2 ** 200)
                                for _ in range(n)) for _ in range(n))
                    for _ in range(2))
            bt = tuple(zip(*b))
            want = tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                for row in a)
            assert mat_mul(a, b) == want


class TestEnumerateBall:
    def test_radius_zero(self, gens2):
        table = enumerate_ball(gens2, 0)
        assert table.index == {identity(2): 0}

    def test_radius_one(self, gens2):
        table = enumerate_ball(gens2, 1)
        assert len(table.index) == 5

    def test_fib_has_length_two(self, ball4):
        assert ball4.index[FIB] == 2

    def test_matches_naive_oracle(self, gens2, ball4):
        assert ball4.index == oracle_all_products_lengths(gens2, 4)

    @pytest.mark.parametrize("n, radius", [(3, 1), (3, 2), (3, 3), (4, 1),
                                           (4, 2)])
    def test_matches_naive_oracle_above_rank_two(self, n, radius):
        gens = elementary_generators(n)
        assert enumerate_ball(gens, radius).index == \
            oracle_all_products_lengths(gens, radius)

    @pytest.mark.parametrize("n, radius, size, digest", [
        (2, 8, 2284,
         "550004c0d59e0d95edbc9c480b16db7143d51db5b2b46a1061415ad568be08ff"),
        (3, 5, 30163,
         "8598e5746f78029c6b90cb89c383f86c4f14ff64040b87ebf77a7a0d1b1751b6"),
        (4, 3, 6149,
         "7937d20ba3bb0812e3edfe1969f68717078358a2df33a5a0ea9fc25f770d636a"),
    ])
    def test_pinned_insertion_order(self, n, radius, size, digest):
        # digests of the tuple-of-tuples BFS, order included
        items = list(enumerate_ball(elementary_generators(n),
                                    radius).index.items())
        assert len(items) == size
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest

    def test_stacks_match_index(self, gens2):
        table = enumerate_ball(gens2, 4)
        assert table.offsets == (0, 1, 5, 17, 47, 115)
        assert [as_int_matrix(m) for m in table.elements] == \
            list(table.index)
        eye = np.eye(2, dtype=np.int64)
        assert (table.inverses @ table.elements == eye).all()

    def test_resource_cap(self, gens2):
        with pytest.raises(ResourceExceeded) as exc:
            enumerate_ball(gens2, 8, max_size=50)
        # raised as soon as the table holds max_size + 1 entries
        assert str(exc.value) == "ball table exceeded 50 entries at radius 4"
        assert exc.value.count == 51

    def test_int64_overflow_is_refused(self):
        # 1 * n * 2^61 = 2^62: the radius-1 product is not certified
        gens = GeneratorSet.from_matrices([E(2, 0, 1, 2 ** 61),
                                           E(2, 0, 1, -2 ** 61)])
        with pytest.raises(ResourceExceeded):
            enumerate_ball(gens, 1)
        assert enumerate_ball(gens, 0).index == {identity(2): 0}

    def test_just_inside_the_int64_bound(self):
        # layer 1 has entries 2^30, so layer 2 is certified
        # (2^30 * 2 * 2^30 = 2^61) and matches the big-int oracle; its
        # entries reach 2^31, so layer 3 is not (2^31 * 2 * 2^30 = 2^62)
        t = 2 ** 30
        gens = GeneratorSet.from_matrices([E(2, 0, 1, t), E(2, 0, 1, -t),
                                           E(2, 1, 0, 1), E(2, 1, 0, -1)])
        table = enumerate_ball(gens, 2)
        assert table.index == oracle_all_products_lengths(gens, 2)
        assert max(abs(x) for m in table.index for row in m
                   for x in row) == 2 * t
        with pytest.raises(ResourceExceeded):
            enumerate_ball(gens, 3)

    def test_byte_keys_match_naive_oracle(self):
        # (2 * 2^30 + 1)^4 > 2^63 leaves no int64 packing, so every layer
        # is deduplicated on the matrices' bytes
        t = 2 ** 30
        gens = GeneratorSet.from_matrices([E(2, 0, 1, t), E(2, 0, 1, -t),
                                           E(2, 1, 0, 1), E(2, 1, 0, -1)])
        table = enumerate_ball(gens, 2)
        assert _row_keys(table.elements)[0].dtype.kind == "V"
        assert table.index == oracle_all_products_lengths(gens, 2)

    def test_key_route_switches_between_layers(self):
        # layers 1 and 2 have entries <= 10^4 and pack into int64; layer
        # 3 reaches 5000^2, past the n = 2 packing limit B = 27553
        gens = GeneratorSet.from_matrices([E(2, 0, 1, 5000),
                                           E(2, 0, 1, -5000),
                                           E(2, 1, 0, 1), E(2, 1, 0, -1)])
        table = enumerate_ball(gens, 4)
        assert _row_keys(table.elements[:table.offsets[3]])[0].dtype.kind \
            == "i"
        assert _row_keys(table.elements)[0].dtype.kind == "V"
        assert table.index == oracle_all_products_lengths(gens, 4)

    def test_deterministic(self, gens2):
        a = list(enumerate_ball(gens2, 3).index.items())
        b = list(enumerate_ball(gens2, 3).index.items())
        assert a == b

    def test_neighbor_consistency(self, gens2):
        # multiplying a table entry by a generator moves the length by at
        # most 1, or leaves the ball from the boundary layer only
        table = enumerate_ball(gens2, 3)
        for m, length in table.index.items():
            for s in gens2.elements:
                child_length = table.index.get(mat_mul(m, s))
                if child_length is None:
                    assert length == table.radius
                else:
                    assert abs(child_length - length) <= 1


def packing_limit(n):
    """Largest B with (2B + 1)^(n^2) < 2^63."""
    b = int((2 ** (63 / n ** 2) - 1) / 2) + 2
    while (2 * b + 1) ** (n * n) >= 2 ** 63:
        b -= 1
    return b


class TestRowKeys:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("past_limit, kind", [(0, "i"), (1, "V")])
    def test_keys_agree_with_matrix_equality(self, n, past_limit, kind):
        # entries at and next to +-B, where a wrong base or offset would
        # carry one digit into the next; the matrices are split over two
        # stacks and each appears in both
        bound = packing_limit(n) + past_limit
        rng = np.random.default_rng(n)
        alphabet = np.array([-bound, -bound + 1, 0, bound - 1, bound])
        mats = alphabet[rng.integers(0, 5, size=(3000, n, n))]
        perm = rng.permutation(len(mats))
        keys, permuted = _row_keys(mats, mats[perm])
        assert keys.dtype.kind == kind
        assert (keys[perm] == permuted).all()
        assert len(set(keys.tolist())) == len({m.tobytes() for m in mats})


class TestWordLengthBfs:
    def test_identity(self, gens2):
        assert word_length_bfs(identity(2), gens2, 3) == 0

    def test_generator(self, gens2):
        assert word_length_bfs(E(2, 0, 1, 1), gens2, 3) == 1

    def test_shear_power(self, gens2):
        assert word_length_bfs(E(2, 0, 1, 3), gens2, 6) == 3

    def test_not_in_ball(self, gens2):
        assert word_length_bfs(E(2, 0, 1, 9), gens2, 3) is None

    def test_agrees_with_table(self, gens2, gens3):
        oracle = oracle_all_products_lengths(gens2, 4)
        for m, length in list(oracle.items())[::17]:
            assert word_length_bfs(m, gens2, 4) == length
        # at n = 3 a radius-2 search misses every element of length 3
        oracle = oracle_all_products_lengths(gens3, 3)
        misses = 0
        for m, length in list(oracle.items())[::23]:
            found = word_length_bfs(m, gens3, 2)
            assert found == (length if length <= 2 else None)
            misses += found is None
        assert misses > 0

    @pytest.mark.parametrize("radius", [6, 8])
    def test_entries_past_the_half_table_bound(self, gens2, radius):
        # the "no conjugate in the ball" test must bound the word ball,
        # not the half-radius table: these have entries above n^2 B_half
        full = enumerate_ball(gens2, radius)
        half_bound = int(np.abs(
            enumerate_ball(gens2, (radius + 1) // 2).elements).max())
        far = [(m, length) for m, length in full.index.items()
               if max(map(abs, sum(m, ()))) > 4 * half_bound]
        assert far
        for m, length in far:
            assert word_length_bfs(m, gens2, radius) == length

    def test_far_products_are_certified(self):
        # the full radius-2 table is refused at its second layer
        # (2 * 2^31 * 2^31 = 2^63); the half table refuses the products
        # c y^-1 instead
        gens = GeneratorSet.from_matrices(
            [E(2, 0, 1, 2 ** 31), E(2, 0, 1, -2 ** 31),
             E(2, 1, 0, 1), E(2, 1, 0, -1)])
        with pytest.raises(ResourceExceeded):
            enumerate_ball(gens, 2)
        assert word_length_bfs(E(2, 0, 1, 2 ** 31), gens, 1) == 1
        with pytest.raises(ResourceExceeded, match="meet-in-the-middle"):
            word_length_bfs(E(2, 0, 1, 2 ** 40), gens, 2)

    def test_negative_radius_rejected(self, gens2):
        with pytest.raises(ValueError):
            word_length_bfs(identity(2), gens2, -1)

    def test_huge_target_is_not_in_the_ball(self, gens3):
        # 2^70 has no int64 form; the entry bound answers first
        assert word_length_bfs(E(3, 0, 2, 2 ** 70), gens3, 3) is None

    def test_target_near_the_int64_bound(self):
        # at conjugator radius 0 the product bound is max|m| = 2^60 itself
        gens = GeneratorSet.from_matrices(
            [E(2, 0, 1, 2 ** 60), E(2, 0, 1, -2 ** 60),
             E(2, 1, 0, 1), E(2, 1, 0, -1)])
        assert word_length_bfs(E(2, 0, 1, 2 ** 60), gens, 1) == 1
        assert word_length_bfs(E(2, 1, 0, 2 ** 60), gens, 1) is None

    def test_least_layer_reads_the_stacks(self, gens3):
        table = enumerate_ball(gens3, 3)
        mats = [E(3, 0, 2, 1), mat_mul(E(3, 0, 1, 1), E(3, 1, 2, 1)),
                E(3, 2, 0, 9)]
        stack = np.array(mats, dtype=np.int64)
        assert table.least_layer(stack, 3) == 1
        assert table.least_layer(stack[1:], 3) == 2
        assert table.least_layer(stack[1:], 1) is None
        assert table.least_layer(stack[2:], 3) is None
        assert table.least_layer(np.eye(3, dtype=np.int64)[None], 0) == 0
        for m in mats[:2]:
            assert table.least_layer(np.array([m], dtype=np.int64), 3) == (
                table.index.get(m))

    def test_least_layer_with_repeats_and_outsiders(self, gens3):
        table = enumerate_ball(gens3, 3)
        two = mat_mul(E(3, 0, 1, 1), E(3, 1, 2, 1))
        repeats = np.array([two, E(3, 2, 0, 9), two, two], dtype=np.int64)
        assert table.least_layer(repeats, 3) == 2
        # entries past every ball entry, within and past the int64 packing
        for t in (20, 2 ** 40):
            mixed = np.array([E(3, 1, 0, t), E(3, 0, 2, -1), E(3, 1, 0, t)],
                             dtype=np.int64)
            assert table.least_layer(mixed, 3) == 1
            assert table.least_layer(mixed[:1], 3) is None
        assert table.least_layer(np.empty((0, 3, 3), dtype=np.int64),
                                 3) is None

    @pytest.mark.parametrize("radius", [-1, 4])
    def test_least_layer_radius_outside_the_table(self, gens3, radius):
        table = enumerate_ball(gens3, 3)
        with pytest.raises(ValueError, match="outside 0..3"):
            table.least_layer(np.eye(3, dtype=np.int64)[None], radius)

    @staticmethod
    def least_layer_per_call(table, stack, radius):
        """Keys the ball prefix with the stack on every call and looks the
        ball keys up in the sorted stack keys."""
        ball_keys, stack_keys = _row_keys(
            table.elements[:table.offsets[radius + 1]], stack)
        stack_keys = np.sort(stack_keys)
        hits = (np.searchsorted(stack_keys, ball_keys, "right")
                > np.searchsorted(stack_keys, ball_keys))
        if not hits.any():
            return None
        return int(np.searchsorted(table.offsets, hits.argmax(),
                                   "right")) - 1

    @pytest.mark.parametrize("n, radius, big", [
        (2, 4, 1), (3, 5, 1), (4, 3, 1), (2, 3, 256)])
    def test_least_layer_matches_the_per_call_keys(self, n, radius, big):
        # big = 256 puts the ball's B past the int64 packing, on the byte
        # keys, while conjugates by the generators stay below 2^62
        mats = []
        for i, j in iter_product(range(n), repeat=2):
            if i != j:
                t = big if (i, j) == (0, 1) else 1
                mats += [E(n, i, j, t), E(n, i, j, -t)]
        table = enumerate_ball(GeneratorSet.from_matrices(mats), radius)
        bound = int(np.abs(table.elements).max())
        kind = "V" if big > 1 else "i"
        assert _row_keys(table.elements)[0].dtype.kind == kind
        rng = np.random.default_rng(n * radius)
        picks = rng.choice(len(table.elements),
                           size=min(60, len(table.elements)), replace=False)
        # conjugates by the generators leave the ball and, at the edge,
        # reach entries past B
        gens = table.elements[1:table.offsets[2]]
        conj = (gens[:, None] @ table.elements[picks]
                @ table.inverses[1:table.offsets[2]][:, None]
                ).reshape(-1, n, n)
        beyond = np.array([E(n, 1, 0, bound + 1), E(n, 0, n - 1, -bound - 1),
                           E(n, n - 1, 0, 2 ** 40)], dtype=np.int64)
        assert (np.abs(conj).max() > bound) and (np.abs(beyond).max()
                                                 > bound)
        stacks = ([table.elements[[k]] for k in picks]
                  + [conj[k:k + 40] for k in range(0, len(conj), 40)]
                  + [beyond, np.concatenate([beyond,
                                             table.elements[picks[:3]]])])
        for stack in stacks:
            for r in range(radius + 1):
                assert table.least_layer(stack, r) == (
                    self.least_layer_per_call(table, stack, r))
        assert all(table.least_layer(m[None], radius) is None
                   for m in beyond)

    @pytest.mark.parametrize("n, half, big", [
        (2, 3, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1), (2, 3, 256)])
    def test_least_length_matches_the_full_table(self, n, half, big):
        # the half table meets in the middle what the full-radius table
        # reads off its layers, for every radius up to twice its own
        mats = []
        for i, j in iter_product(range(n), repeat=2):
            if i != j:
                t = big if (i, j) == (0, 1) else 1
                mats += [E(n, i, j, t), E(n, i, j, -t)]
        gens = GeneratorSet.from_matrices(mats)
        table = enumerate_ball(gens, half)
        full = enumerate_ball(gens, 2 * half)
        kind = "V" if big > 1 else "i"
        assert _row_keys(table.elements)[0].dtype.kind == kind
        bound = int(np.abs(full.elements).max())
        rng = np.random.default_rng(10 * n + half)
        # picks from every layer of the full table, the far ones included
        picks = np.concatenate([
            rng.choice(np.arange(a, b), size=min(8, b - a), replace=False)
            for a, b in zip(full.offsets, full.offsets[1:])])
        # conjugates by the generators of the full ball's edge leave it
        layer1 = full.elements[1:full.offsets[2]]
        conj = (layer1[:, None] @ full.elements[picks[-20:]]
                @ full.inverses[1:full.offsets[2]][:, None]
                ).reshape(-1, n, n)
        beyond = np.array([E(n, 1, 0, bound + 1), E(n, 0, n - 1, -bound - 1),
                           E(n, n - 1, 0, 2 ** 40)], dtype=np.int64)
        assert any(full.least_layer(c[None], 2 * half) is None
                   for c in conj)
        repeats = full.elements[np.repeat(picks[-4:], 3)]
        stacks = ([full.elements[[k]] for k in picks]
                  + [conj[k:k + 40] for k in range(0, len(conj), 40)]
                  + [beyond, repeats, np.concatenate([beyond, repeats]),
                     np.empty((0, n, n), dtype=np.int64)])
        for stack in stacks:
            for r in range(2 * half + 1):
                assert table.least_length(stack, r) == (
                    full.least_layer(stack, r))
        for radius in (-1, 2 * half + 1):
            with pytest.raises(ValueError,
                               match=f"outside 0..{2 * half}"):
                table.least_length(stack, radius)

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="np.unique imports numpy.ma on numpy >= 2 "
                               "only")
    def test_ball_search_leaves_numpy_ma_unimported(self):
        script = (
            "import sys\n"
            "from dispgeo.lattice import elementary_generators, "
            "enumerate_ball\n"
            "table = enumerate_ball(elementary_generators(3), 5)\n"
            "print(table.least_layer(table.elements[5:9], 5))\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(dispgeo.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "False"]


class TestTranslationLength:
    def test_conjugate_of_generator(self, gens2):
        h = mat_mul(E(2, 0, 1, 1), E(2, 1, 0, -1))
        m = mat_mul(mat_mul(h, E(2, 0, 1, 1)), inverse_unimodular(h))
        assert translation_length_upper(m, gens2, 3, 6) == 1

    def test_identity_upper(self, gens2):
        assert translation_length_upper(identity(2), gens2, 2, 2) == 0

    def test_negative_conj_radius_builds_no_ball(self):
        # these generators' radius-1 ball is refused (2^61 * 2 = 2^62)
        gens = GeneratorSet.from_matrices([E(2, 0, 1, 2 ** 61),
                                           E(2, 0, 1, -2 ** 61)])
        assert translation_length_upper(identity(2), gens, -1, 1) is None

    def test_fib_at_most_two(self, gens2):
        assert translation_length_upper(FIB, gens2, 3, 6) <= 2

    @pytest.mark.parametrize("conj_radius, word_radius", [(3, 1), (4, 2)])
    def test_wide_conjugators_match_naive_oracle(self, gens2, conj_radius,
                                                 word_radius):
        # conj_radius > word_radius: the conjugators reach past the ball
        # that measures the conjugates
        conjugators = oracle_all_products_lengths(gens2, conj_radius)
        lengths = oracle_all_products_lengths(gens2, word_radius)
        found = 0
        for m in list(conjugators)[::7]:
            conj_lengths = [
                lengths.get(mat_mul(mat_mul(h, m), inverse_unimodular(h)))
                for h in conjugators]
            known = [x for x in conj_lengths if x is not None]
            expected = min(known) if known else None
            assert translation_length_upper(
                m, gens2, conj_radius, word_radius) == expected
            found += expected is not None
        assert found > 0

    @pytest.mark.parametrize("conj_radius, word_radius", [(3, 4), (2, 3)])
    def test_conjugate_search_matches_naive_oracle(self, gens3, conj_radius,
                                                   word_radius):
        # per-conjugator big-int products and Faddeev-LeVerrier inverses
        conjugators = oracle_all_products_lengths(gens3, conj_radius)
        lengths = oracle_all_products_lengths(gens3, word_radius)
        rng = np.random.default_rng(8)
        found = 0
        for _ in range(20):
            m = identity(3)
            for _ in range(int(rng.integers(2, 5))):
                m = mat_mul(m, gens3.elements[int(rng.integers(12))])
            known = [x for x in (
                lengths.get(mat_mul(mat_mul(h, m), inverse_unimodular(h)))
                for h in conjugators) if x is not None]
            expected = min(known) if known else None
            assert translation_length_upper(
                m, gens3, conj_radius, word_radius) == expected
            found += expected is not None
        assert found > 0

    def test_far_products_run_in_blocks(self, gens3):
        # no conjugate of E_13(8) by |h| <= 3 has length <= 6, so all
        # three far layers are searched; in one block their products
        # with the conjugates peak at about 50 MB
        tracemalloc.start()
        try:
            found = translation_length_upper(E(3, 0, 2, 8), gens3, 3, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is None
        assert peak < 24 * 2 ** 20

    def test_huge_target_has_no_conjugate_in_the_ball(self, gens3):
        # entries past int64: no conjugate of length <= 4 exists
        assert translation_length_upper(E(3, 0, 2, 2 ** 70), gens3,
                                        3, 4) is None

    def test_negative_conj_radius_has_no_conjugators(self, gens2):
        assert translation_length_upper(FIB, gens2, -1, 3) is None
        assert translation_length_upper(identity(2), gens2, -2, 0) is None

    def test_negative_word_radius_rejected(self, gens2):
        with pytest.raises(ValueError):
            translation_length_upper(FIB, gens2, 2, -1)

    def test_lower_examples(self, gens3):
        e13p = E(3, 0, 2, 7)
        expected = math.log(7) / math.log(gens3.norm_bound)
        assert abs(translation_length_lower(e13p, gens3) - expected) < 1e-12
        assert translation_length_lower(E(3, 0, 2, 1), gens3) == 0.0

    def test_lower_rejects_identity(self, gens2):
        with pytest.raises(IdentityInput):
            translation_length_lower(identity(2), gens2)

    def test_lower_below_upper_on_ball(self, gens2, ball4):
        for m in ball4.index:
            if m == identity(2):
                continue
            upper = translation_length_upper(m, gens2, 2, 4)
            if upper is not None and upper > 0:
                assert translation_length_lower(m, gens2) <= upper

    def test_gcd_invariant_under_conjugation(self, gens2, ball4):
        def gcd_shift(m):
            d = 0
            for i in range(2):
                for j in range(2):
                    d = math.gcd(d, abs(m[i][j] - (1 if i == j else 0)))
            return d

        rng = np.random.default_rng(20)
        mats = list(ball4.index)
        for _ in range(1000):
            m = mats[rng.integers(len(mats))]
            h = mats[rng.integers(len(mats))]
            conj = mat_mul(mat_mul(h, m), inverse_unimodular(h))
            assert gcd_shift(conj) == gcd_shift(m)

    def test_lower_diverges_on_shear_powers(self, gens3):
        values = [translation_length_lower(E(3, 0, 2, 2 ** j), gens3)
                  for j in range(1, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 10.0


class TestUnipotenceExponent:
    def test_known_values(self):
        assert unipotence_exponent(2) == 12
        assert unipotence_exponent(3) == 12
        assert unipotence_exponent(4) == 120

    def test_against_totient_oracle(self):
        for n in (2, 3, 4, 5):
            orders = [m for m in range(1, 2 * n * n + 1)
                      if oracle_totient(m) <= n]
            assert unipotence_exponent(n) == math.lcm(*orders)


class TestTrivialHyperbolicPart:
    def test_unipotent(self):
        assert has_trivial_hyperbolic_part(E(2, 0, 1, 5))

    def test_rotation(self):
        assert has_trivial_hyperbolic_part(((0, -1), (1, 0)))

    def test_fib(self):
        assert not has_trivial_hyperbolic_part(FIB)

    def test_matches_float_spectral_radius(self, ball4):
        for m in list(ball4.index)[::5]:
            moduli = np.abs(np.linalg.eigvals(np.array(m, dtype=float)))
            assert has_trivial_hyperbolic_part(m) == bool(
                np.max(moduli) < 1.5)  # tiny integer matrices: gap at 1

    @staticmethod
    def oracle_nilpotent(nil, n):
        """nil^n == 0 by repeated products: the power route the
        characteristic-polynomial tests replaced."""
        power = nil
        for _ in range(n - 1):
            power = mat_mul(power, nil)
        return all(x == 0 for row in power for x in row)

    @staticmethod
    def minus_identity(a):
        return tuple(tuple(x - (i == j) for j, x in enumerate(row))
                     for i, row in enumerate(a))

    @staticmethod
    def seeded_matrices(count):
        """Integer matrices of size 1-5: unimodular conjugates of signed
        permutations times unitriangular matrices (spectrum on the unit
        circle), and matrices with small random entries (mostly
        hyperbolic, some singular)."""
        rng = random.Random(20261018)
        mats = []
        for _ in range(count):
            n = rng.randint(1, 5)
            if n == 1 or rng.random() < 0.5:
                mats.append(tuple(
                    tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(n)))
                continue
            perm = list(range(n))
            if rng.random() < 0.5:
                rng.shuffle(perm)
            signs = [rng.choice((1, 1, -1)) for _ in range(n)]
            core = tuple(tuple(signs[i] * int(j == perm[i]) for j in range(n))
                         for i in range(n))
            upper = tuple(tuple(int(i == j) if j <= i else rng.randint(-3, 3)
                                for j in range(n)) for i in range(n))
            g = identity(n)
            for _ in range(rng.randint(0, 4)):
                i, j = rng.sample(range(n), 2)
                g = mat_mul(g, E(n, i, j, rng.choice((1, -1))))
            mats.append(mat_mul(mat_mul(g, mat_mul(core, upper)),
                                inverse_unimodular(g)))
        return mats

    def test_char_poly_tests_match_power_oracle(self):
        singular = unipotent = trivial = 0
        for a in self.seeded_matrices(2400):
            n = len(a)
            power = mat_pow(a, unipotence_exponent(n))
            want_trivial = self.oracle_nilpotent(self.minus_identity(power),
                                                 n)
            want_unipotent = self.oracle_nilpotent(self.minus_identity(a), n)
            assert has_trivial_hyperbolic_part(a) == want_trivial, a
            if n == 1:
                # matgeo refuses 1x1 input, as every projection does
                with pytest.raises(ValueError, match="at least 2x2"):
                    is_unipotent(a)
            else:
                assert is_unipotent(a) == want_unipotent, a
            singular += det_exact(a) == 0
            trivial += want_trivial
            unipotent += want_unipotent
        # every branch is exercised, both ways
        assert singular >= 100 and 300 <= trivial <= 2000
        assert 100 <= unipotent < trivial

    def test_torsion_detection(self):
        assert is_torsion(identity(2))
        assert is_torsion(((0, -1), (1, 0)))
        assert not is_torsion(E(2, 0, 1, 1))
        assert not is_torsion(FIB)


class TestDepthRootBound:
    def test_fib_certificate(self):
        cert = depth_root_bound(FIB)
        golden2 = (3 + math.sqrt(5)) / 2
        assert cert.branch == "hyperbolic"
        assert abs(cert.K - golden2) < 1e-9
        assert cert.K1 == 6
        assert abs(cert.b - golden2) < 1e-6
        assert cert.q == 2 and cert.depth == 2
        assert cert.M == 12
        assert cert.box_bound == 4
        assert cert.roots_found == ()

    def test_largest_box_fits_the_cap(self):
        # 65^4 and 5^9 fit the 2e7 cap, 67^4 and 7^9 do not
        assert (_largest_box(2), _largest_box(3)) == (32, 2)

    def test_torsion_rejected(self):
        with pytest.raises(TorsionInput):
            depth_root_bound(identity(2))
        with pytest.raises(TorsionInput):
            depth_root_bound(((0, -1), (1, 0)))

    def test_unipotent_branch(self):
        cert = depth_root_bound(E(2, 0, 1, 1))
        assert cert.branch == "quasi_unipotent"
        assert cert.b is None and cert.q is None
        assert cert.depth == 13  # divisor bound from U = A^12 = E(12)
        assert cert.roots_found == ()

    def test_shear_with_real_square_root(self):
        cert = depth_root_bound(E(2, 0, 1, 4))
        ks = {k for k, _ in cert.roots_found}
        assert 2 in ks  # E12(2) squares to E12(4)
        for k, root in cert.roots_found:
            assert k < cert.depth
            assert mat_pow(root, k) == E(2, 0, 1, 4)

    def test_three_by_three_unipotent(self):
        cert = depth_root_bound(E(3, 0, 2, 1))
        assert cert.branch == "quasi_unipotent"
        # involution-twisted square roots exist inside the box
        assert len(cert.roots_found) == 4
        for k, root in cert.roots_found:
            assert k == 2 and mat_pow(root, 2) == E(3, 0, 2, 1)

    def test_dimension_guard(self):
        with pytest.raises(DimensionUnsupported):
            depth_root_bound(E(4, 0, 3, 1))
        with pytest.raises(DimensionUnsupported):
            find_roots_in_box(E(4, 0, 3, 1), 2, 1)

    @pytest.mark.parametrize("n, length", [(2, 6), (3, 4)])
    def test_k_is_the_exact_spectral_radius(self, n, length):
        # K comes from the route of log_eigenvalue_moduli, bit for bit
        gens = elementary_generators(n).elements
        rng = random.Random(7)
        products = []
        while len(products) < 30:
            m = identity(n)
            for _ in range(length):
                m = mat_mul(m, rng.choice(gens))
            if not has_trivial_hyperbolic_part(m) and m not in products:
                products.append(m)
        for m in products:
            want = math.exp(log_eigenvalue_moduli(m)[0])
            assert depth_root_bound(m).K == want

    def test_k_of_a_cubic_takes_qr(self):
        # the companion of x^3 - x - 1 is irreducible, so its K comes from
        # QR: the plastic number, rounded to a double
        cert = depth_root_bound(((0, 0, 1), (1, 0, 1), (0, 1, 0)))
        assert cert.branch == "hyperbolic"
        assert cert.K == 1.324717957244746

    def test_closed_form_depth_matches_the_linear_search(self):
        # the linear search the closed form replaced, as the oracle
        def linear(a_max, c_max):
            k_max = 1
            while 2 * (k_max + 1) ** 2 - a_max * (k_max + 1) - c_max <= 0:
                k_max += 1
            return k_max + 1

        grid = list(range(60)) + [97, 255, 1000, 4096, 12345]
        for a_max in grid:
            for c_max in grid:
                assert _unipotent_depth(a_max, c_max) == linear(a_max, c_max)

    def test_large_shear_depth(self):
        # U = A^12 = E12(12 * 10^9), so a = 24 * 10^9 and c = 0
        cert = depth_root_bound(E(2, 0, 1, 10 ** 9))
        assert cert.branch == "quasi_unipotent"
        assert cert.depth == 12 * 10 ** 9 + 1
        assert cert.roots_found == ()

    @pytest.mark.parametrize("m", [FIB, E(3, 0, 2, 1),
                                   ((1, 1, 2), (0, 1, 1), (0, 1, 2))])
    def test_one_commutant_walk_per_certificate(self, m, monkeypatch):
        # the checked powers (2, 3, depth and depth + 1) share one echelon
        # form and one walk of the commutant points
        calls = []
        commutant = lattice._commutant

        def counting(a):
            calls.append(a)
            return commutant(a)

        monkeypatch.setattr(lattice, "_commutant", counting)
        depth_root_bound(m)
        assert calls == [m]

    def test_soundness_on_small_hyperbolic_family(self, ball4):
        hyperbolic = [m for m in ball4.index
                      if abs(m[0][0] + m[1][1]) >= 3][:20]
        assert len(hyperbolic) == 20
        for m in hyperbolic:
            cert = depth_root_bound(m)  # raises on any root above depth
            assert cert.branch == "hyperbolic"
            assert cert.depth >= 2

    def test_soundness_on_quasi_unipotent_family(self, ball4):
        family = [m for m in ball4.index
                  if has_trivial_hyperbolic_part(m)
                  and not is_torsion(m)][:15]
        assert len(family) >= 10
        for m in family:
            cert = depth_root_bound(m)  # raises on any root above depth
            assert cert.branch == "quasi_unipotent"
            for k, root in cert.roots_found:
                assert k < cert.depth
                assert mat_pow(root, k) == m


class TestFindRootsInBox:
    def test_finds_known_root(self):
        roots = find_roots_in_box(E(2, 0, 1, 2), 2, 2)
        assert E(2, 0, 1, 1) in roots
        assert ((-1, -1), (0, -1)) in roots

    def test_exact_power_fallback(self):
        # n^k box^(k+1) is far past 2^62; the powers run mod p and the
        # survivors are confirmed in Python ints
        roots = find_roots_in_box(E(2, 0, 1, 64), 64, 2)
        assert E(2, 0, 1, 1) in roots

    def test_congruent_target_is_not_a_root(self):
        # E12(1)^2 = E12(2) = E12(2 + p) mod p: the modular filter keeps
        # E12(1), and only the exact confirmation rejects it
        p = 1_000_000_007
        assert find_roots_in_box(E(2, 0, 1, 2 + p), 2, 2) == []
        assert find_roots_in_box(E(3, 0, 2, 2 - p), 2, 1) == []
        assert E(2, 0, 1, 1) in find_roots_in_box(E(2, 0, 1, 2), 2, 2)

    def test_no_roots_of_fib(self):
        assert find_roots_in_box(FIB, 2, 4) == []
        assert find_roots_in_box(FIB, 3, 4) == []

    def test_enumeration_cap_is_an_error(self):
        # E_13(1) has a rank-5 commutant: 31^5 points at box 15
        with pytest.raises(ResourceExceeded) as exc:
            find_roots_in_box(E(3, 0, 2, 1), 2, 15)
        assert exc.value.count == 31 ** 5 == 28_629_151

    @pytest.mark.parametrize("n, box", [(2, 3), (3, 1)])
    def test_commutant_matches_brute_force(self, n, box):
        minus = tuple(tuple(-x for x in row) for row in identity(n))
        # the last fixed target has echelon denominator 2
        targets = [identity(n), minus, E(n, 0, 1, 1)]
        targets += ([E(3, 0, 2, 2), ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
                     ((1, 0, 1), (0, 1, 0), (2, 0, 3))]
                    if n == 3 else [FIB, ((1, 1), (2, 3))])
        rng = random.Random(f"seeded:{n}")
        for _ in range(2):
            m = identity(n)
            for _ in range(rng.randint(2, 4)):
                i, j = rng.sample(range(n), 2)
                m = mat_mul(m, E(n, i, j, rng.choice((1, -1))))
            targets.append(m)
        matrices = [tuple(tuple(entries[i * n:(i + 1) * n])
                          for i in range(n))
                    for entries in iter_product(range(-box, box + 1),
                                                repeat=n * n)]
        for a in targets:
            want = {x for x in matrices if mat_mul(a, x) == mat_mul(x, a)}
            got = [as_int_matrix(x) for block in _commutant_points(a, box)
                   for x in block]
            assert len(got) == len(set(got)) and set(got) == want, a

    def test_large_commutant_weights(self):
        # X -> aX - Xa has echelon weight 2^61 here: the pivot entries are
        # solved mod p, so the walk needs no int64 bound on the weights
        a = ((2 ** 61, 1), (-1, 0))
        assert find_roots_in_box(a, 2, 2) == []
        # a denominator that p divides has no inverse mod p: an error
        p = 1_000_000_007
        with pytest.raises(ResourceExceeded):
            find_roots_in_box(((1, 1), (p, p + 1)), 2, 2)

    def test_blocked_enumeration_memory(self):
        # 17^5 commutant points at box 8, walked in blocks of 2^16
        tracemalloc.start()
        try:
            roots = find_roots_in_box(E(3, 0, 2, 1), 2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert all(det_exact(b) == 1 and mat_pow(b, 2) == E(3, 0, 2, 1)
                   for b in roots)
        small = find_roots_in_box(E(3, 0, 2, 1), 2, 2)
        assert len(small) == 4 and set(small) <= set(roots)

    @staticmethod
    def oracle_roots(n, box, ks):
        """Naive oracle: every det-1 matrix of the box, entry (0, 0)
        varying fastest, raised to each power k by mat_pow; roots[k] maps
        each power to its roots in that order."""
        roots = {k: {} for k in ks}
        for entries in iter_product(range(-box, box + 1), repeat=n * n):
            entries = entries[::-1]
            b = tuple(entries[i * n:(i + 1) * n] for i in range(n))
            if det_exact(b) == 1:
                for k in ks:
                    roots[k].setdefault(mat_pow(b, k), []).append(b)
        return roots

    @pytest.mark.parametrize("n, box", [(2, 1), (2, 2), (2, 3), (3, 1)])
    def test_matches_naive_oracle(self, n, box):
        ks = (1, 2, 3, 4, 6, 12, 24, 61)
        rng = random.Random(f"roots:{n}:{box}")
        minus = tuple(tuple(-x for x in row) for row in identity(n))
        targets = [identity(n), minus, E(n, 0, n - 1, 1), E(n, n - 1, 0, 4),
                   E(n, 0, 1, 12), E(n, 1, 0, -2)]
        for _ in range(3):
            m = identity(n)
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2)
                m = mat_mul(m, E(n, i, j, rng.choice((1, -1))))
            targets.append(m)
        oracle = self.oracle_roots(n, box, ks)
        hits = 0
        for target in targets:
            want = {k: oracle[k].get(target, []) for k in ks}
            for k in ks:
                got = find_roots_in_box(target, k, box)
                assert got == want[k], (target, k)
                hits += len(got)
            # one walk for every power at once, k = 1 included
            assert _roots_by_power(target, ks, box) == want, target
        assert hits > 0

    def test_target_beyond_int64(self):
        # B^46 has entries above 2^63, so the target has no int64 form: it
        # is reduced mod p in Python ints, and the roots confirmed exactly
        b = ((1, 1), (1, 2))
        target = mat_pow(b, 46)
        assert max(x for row in target for x in row) > 2 ** 63
        minus_b = tuple(tuple(-x for x in row) for row in b)
        assert find_roots_in_box(target, 46, 2) == [minus_b, b]
        assert find_roots_in_box(target, 45, 2) == []

    def test_object_path_matches_recorded_roots(self):
        # 6^24 > 2^62; the digest is of the 20 roots found by the
        # object-dtype powers that the modular filter replaced
        roots = find_roots_in_box(E(3, 0, 2, 24), 24, 2)
        assert len(roots) == 20
        assert all(mat_pow(b, 24) == E(3, 0, 2, 24) for b in roots)
        assert hashlib.sha256(repr(roots).encode()).hexdigest() == (
            "afd8e95385dcd1939efd03cdf4a1e0ab7f5f3c3ab8c17593988c1c38d8e05584")


@lru_cache(maxsize=None)
def _expanding_moduli(poly: tuple[int, ...], n: int) -> tuple[float, ...]:
    """Moduli > 1 among the roots, after exact cyclotomic stripping.

    For degrees <= 3 the stripped remainder has no roots of modulus
    exactly 1 (a unit-circle pair would force an integer quadratic factor
    x^2 - tx + 1 with |t| < 2, all of which are cyclotomic), so a root
    within 1e-6 of the circle only needs more precision, not a tie-break:
    those are recomputed with 60-digit arithmetic.
    """
    stripped = _strip_cyclotomic(poly, n)
    if len(stripped) <= 1:
        return ()
    roots = np.roots(np.array(stripped, dtype=float))
    moduli = list(np.abs(roots))
    if any(abs(m - 1.0) < 1e-6 for m in moduli):
        from mpmath import mp
        with mp.workdps(60):
            roots = mp.polyroots(list(stripped), maxsteps=200,
                                 extraprec=200)
            moduli = [float(abs(r)) for r in roots]
    return tuple(sorted(m for m in moduli if m > 1.0))


def family(n, k1):
    """The family's polynomials, in iter_product order."""
    constant = 1 if n % 2 == 0 else -1
    for middle in iter_product(range(-k1, k1 + 1), repeat=n - 1):
        yield (1,) + middle + (constant,)


def family_minima(n, k1):
    """The least expanding modulus of each polynomial of the family that
    has one, by _expanding_moduli, the np.roots route that the package's
    exact _log_root_moduli replaced."""
    minima = {}
    for poly in family(n, k1):
        moduli = _expanding_moduli(poly, n)
        if moduli:
            minima[poly] = moduli[0]
    return minima


class TestFamilyMinExpanding:
    # the lemma in _family_min_expanding's docstring, checked against the
    # whole family: the closed form's polynomial holds the minimum, and
    # its root is the float nearest to the exact one
    @pytest.mark.parametrize("n, k1", [(2, 3), (2, 4), (2, 8), (2, 60),
                                       (3, 6), (3, 12), (3, 27), (3, 48)])
    def test_matches_per_polynomial_loop(self, n, k1):
        from mpmath import mp

        minima = family_minima(n, k1)
        argmin = min(minima, key=minima.get)
        # x^2 + 3x + 1 has the roots of x^2 - 3x + 1 negated: a tie
        closed = ((1, -3, 1), (1, 3, 1)) if n == 2 else ((1, k1 - 1, -k1, -1),)
        assert argmin in closed
        got = _family_min_expanding(n, k1)
        assert abs(minima[argmin] - got) <= 4 * math.ulp(got)
        with mp.workdps(50):
            roots = mp.polyroots(list(closed[0]), maxsteps=200, extraprec=200)
            want = min(abs(r) for r in roots if abs(r) > 1)
            assert abs(got - want) <= math.ulp(got)

    @pytest.mark.parametrize("n, k1", [(2, 2), (3, 3), (3, 5)])
    def test_below_the_lemma_raises(self, n, k1):
        with pytest.raises(ValueError, match=f"got K1 = {k1} at n = {n}"):
            _family_min_expanding(n, k1)

    def test_lemma_stops_below_six(self):
        # at k1 = 4 the minimum is Boyd's h_3 = 1.15096..., the house of
        # x^3 + x^2 - 1, below the root of x^3 + 3 x^2 - 4 x - 1
        minima = family_minima(3, 4)
        argmin = min(minima, key=minima.get)
        assert argmin == (1, 1, 0, -1)
        assert minima[argmin] == pytest.approx(1.150964, abs=1e-6)

    @pytest.mark.parametrize("k1", [12, 27])
    def test_cyclotomic_rows_never_hold_the_minimum(self, k1):
        # the premise of dropping them: their expanding moduli are at least
        # the golden ratio, and x^3 - x - 1 keeps the minimum below it
        golden = (1 + math.sqrt(5)) / 2
        cyclotomic = [poly for poly in family(3, k1)
                      if _strip_cyclotomic(poly, 3) != poly]
        assert len(cyclotomic) > 2 * k1
        for poly in cyclotomic:
            assert all(m > golden - 1e-12
                       for m in _expanding_moduli(poly, 3)), poly
        assert _family_min_expanding(3, k1) < 1.3248 < golden


class TestQuotient:
    def test_orders_by_enumeration(self):
        for n, m in ((2, 2), (2, 3), (3, 2)):
            count = 0
            for entries in iter_product(range(m), repeat=n * n):
                mat = tuple(tuple(entries[i * n + j] for j in range(n))
                            for i in range(n))
                if det_exact(mat) % m == 1 % m:
                    count += 1
            assert count == sl_group_order(n, m)

    def test_reduction_is_homomorphism(self, ball4):
        rng = np.random.default_rng(30)
        mats = list(ball4.index)
        for _ in range(200):
            a = mats[rng.integers(len(mats))]
            b = mats[rng.integers(len(mats))]
            for m in (2, 3, 5):
                assert mat_mod(mat_mul(a, b), m) == mat_mod(
                    mat_mul(mat_mod(a, m), mat_mod(b, m)), m)

    def test_witness_example(self):
        # k is the order of gamma mod 2, not |SL(2, 2)| = 6
        w = contortion_witness(E(2, 0, 1, 1), [E(2, 0, 1, 1)])
        assert w.modulus == 2 and w.k == 2
        assert mat_pow(E(2, 0, 1, 1), 2) == E(2, 0, 1, 2)
        assert mat_mod(E(2, 0, 1, 2), 2) == identity(2)
        assert mat_mod(E(2, 0, 1, 1), 2) != identity(2)

    def test_witness_skips_vanishing_modulus(self):
        # E13(2) is the identity mod 2, so the smallest usable prime is 3;
        # E13(1) has order 3 in SL(3, 3), a group of order 5616
        w = contortion_witness(E(3, 0, 2, 1), [E(3, 0, 2, 1), E(3, 0, 2, 2)])
        assert w.modulus == 3
        assert w.k == 3 and sl_group_order(3, 3) == 5616

    @pytest.mark.parametrize("gamma", [
        E(2, 0, 1, 1), FIB, ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
        ((2, 1, 0), (1, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 1, 1))])
    @pytest.mark.parametrize("cap", [2, 3, 5, 7])
    def test_witness_power_is_the_least(self, gamma, cap):
        # the reps are I + 2*3*5 e_12 (dropping the primes >= cap), so the
        # modulus is the least prime >= cap; k matches a direct search
        n = len(gamma)
        rep = E(n, 0, 1, math.prod(p for p in (2, 3, 5) if p < cap))
        w = contortion_witness(gamma, [rep])
        one = mat_mod(identity(n), w.modulus)
        least = next(j for j in range(1, sl_group_order(n, w.modulus) + 1)
                     if mat_pow_mod(gamma, j, w.modulus) == one)
        assert w.modulus == cap and w.k == least

    def test_witness_rejects_identity_rep(self):
        with pytest.raises(ValueError):
            contortion_witness(E(2, 0, 1, 1), [identity(2)])

    def test_witness_rejects_torsion(self):
        with pytest.raises(TorsionInput):
            contortion_witness(((0, -1), (1, 0)), [E(2, 0, 1, 1)])

    def test_no_modulus_found(self):
        # E_12(P), P the product of the primes up to the 10 000 cap, is the
        # identity mod every prime the search tries
        primes = [p for p in range(2, 10_001)
                  if all(p % q for q in range(2, math.isqrt(p) + 1))]
        with pytest.raises(NoModulusFound, match="no prime <= 10000 "):
            contortion_witness(E(2, 0, 1, 1), [E(2, 0, 1, math.prod(primes))])


class TestZpConjugation:
    def test_identity_scale(self):
        _, res = unipotent_conjugation_identity(1)
        assert res == ((1, 1), (0, 1))

    def test_integer_scale(self):
        conj, res = unipotent_conjugation_identity(3)
        assert conj == ((3, 0), (0, Fraction(1, 3)))
        assert res == ((1, 9), (0, 1))

    def test_fractional_scale(self):
        _, res = unipotent_conjugation_identity(Fraction(1, 2))
        assert res == ((1, Fraction(1, 4)), (0, 1))
        _, res = unipotent_conjugation_identity(Fraction(-2, 9))
        assert res == ((1, Fraction(4, 81)), (0, 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroScale):
            unipotent_conjugation_identity(0)

    def test_p_unit_denominators(self):
        assert is_p_unit_denominator(Fraction(3, 8), 2)
        assert is_p_unit_denominator(Fraction(7), 5)
        assert not is_p_unit_denominator(Fraction(1, 6), 2)
        assert is_p_unit_denominator(Fraction(1, 125), 5)

    def test_membership_enforced_with_p(self):
        # diag(t, 1/t) lies in SL(2, Z[1/p]) iff t is a unit +-p^k
        unipotent_conjugation_identity(Fraction(125), p=5)
        unipotent_conjugation_identity(Fraction(1, 2), p=2)
        with pytest.raises(ValueError):
            unipotent_conjugation_identity(Fraction(3), p=5)
        with pytest.raises(ValueError):
            unipotent_conjugation_identity(Fraction(1, 6), p=2)
