"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
The radius-12 free-group scan backing criteria 1-3 runs once (module
fixture) and stays under its two-minute budget.
"""

import math
import time
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest

from dispgeo import experiments as X
from dispgeo.errors import SelectionFailed
from dispgeo.hyperbolic import (
    certify_ping_pong,
    is_almost_cyclically_reduced,
    select_acr,
    stable_norm_length_bound,
)
from dispgeo.lattice import (
    contortion_witness,
    depth_root_bound,
    det_exact,
    elementary_generators,
    find_roots_in_box,
    identity,
    mat_mod,
    mat_mul,
    mat_pow,
    sl_group_order,
    translation_length_lower,
    unipotence_exponent,
)
from dispgeo.matgeo import (
    cartan_jordan_gap,
    jordan_projection,
    random_special_linear,
    renormalized_cartan_average,
    symmetric_space_displacement,
)
from dispgeo.words import (
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
from oracles import four_point_holds, unipotent_conjugation_identity

W = parse_word
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def verdict(num: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def scan12():
    """Single exhaustive pass over the radius-12 ball of F_2."""
    pair = certify_ping_pong(W("aab"), W("bba"), 0)
    started = time.monotonic()
    stats = {
        "total": 0,
        "bound_violations": 0,
        "selector_checked": 0,
        "selector_falsified": 0,
        "acr_count": 0,
        "acr_violations": 0,
        "acr_oracle_mismatches": 0,
    }
    for g in ball(2, 12):
        stats["total"] += 1
        res = stable_norm_length_bound(g, pair)
        if not res.holds:
            stats["bound_violations"] += 1
        length = word_length(g)
        # the ACR predicate and the stable norm share the peel of matching
        # end letters, so <g, g^-1> is recomputed here from the product
        # itself: 2 <g, g^-1> = 2|g| - |g g|
        pred = is_almost_cyclically_reduced(g, 0)
        doubled = 2 * length - word_length(multiply(g, g))
        is_acr = 3 * doubled <= 2 * length
        if 2 * pred.product != doubled or pred.is_acr != is_acr:
            stats["acr_oracle_mismatches"] += 1
        if is_acr:
            stats["acr_count"] += 1
            if 3 * stable_norm(g) < length:
                stats["acr_violations"] += 1
        if length >= 9:
            stats["selector_checked"] += 1
            try:
                chosen = select_acr(g, pair)
            except SelectionFailed:
                stats["selector_falsified"] += 1
                continue
            if not is_almost_cyclically_reduced(chosen, 0).is_acr:
                stats["selector_falsified"] += 1
    stats["elapsed"] = time.monotonic() - started
    return stats


def test_criterion_1_exhaustive_length_bound(scan12):
    ok = (scan12["total"] == ball_size(2, 12) == 1_062_881
          and scan12["bound_violations"] == 0
          and scan12["elapsed"] < 120.0)
    verdict(1, ok, f"|g| <= 3 max stable norms + 9 for all "
                   f"{scan12['total']} words of length <= 12 "
                   f"({scan12['bound_violations']} violations, "
                   f"{scan12['elapsed']:.0f}s)")


def test_criterion_2_selector_never_falsified(scan12):
    ok = (scan12["selector_checked"] > 1_000_000
          and scan12["selector_falsified"] == 0)
    verdict(2, ok, f"ACR selector verified on {scan12['selector_checked']} "
                   f"words with 9 <= |g| <= 12 "
                   f"({scan12['selector_falsified']} falsifications)")


def test_criterion_3_acr_lower_bound(scan12):
    ok = (scan12["acr_count"] > 0 and scan12["acr_violations"] == 0
          and scan12["acr_oracle_mismatches"] == 0)
    verdict(3, ok, f"stable norm >= |g|/3 for all {scan12['acr_count']} "
                   f"almost cyclically reduced words of length <= 12 "
                   f"({scan12['acr_oracle_mismatches']} disagreements "
                   f"with <g, g^-1> = (2|g| - |g g|)/2)")


def test_prop422_kernel_agrees_with_scan12(scan12):
    # run_prop422 reads the same ball off its int8 layer tables; the
    # fixture walks it word by word through the public API
    rep = X.run_prop422(radius=12)
    selector = sum(int(row[rep.columns.index(name)]) for row in rep.rows
                   for name in ("selector_kept_g", "selector_gu",
                                "selector_gv"))
    assert int(rep.summary["total_words"]) == scan12["total"]
    assert rep.summary["total_violations"] == "0"
    assert rep.summary["selector_falsified"] == "0"
    assert selector == scan12["selector_checked"]


def _packed_ball(radius: int):
    """Ball as a padded int8 array plus lengths, for vectorized checks."""
    words = list(ball(2, radius))
    lengths = np.array([word_length(g) for g in words], dtype=np.int16)
    arr = np.zeros((len(words), radius), dtype=np.int8)
    for i, g in enumerate(words):
        arr[i, :len(g.letters)] = g.letters
    return words, arr, lengths


def _pairwise_distance(arr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """d(g,h) = |g| + |h| - 2 cp(g,h) for all pairs, vectorized."""
    n, width = arr.shape
    eq = arr[:, None, :] == arr[None, :, :]
    valid = (np.arange(width)[None, None, :]
             < np.minimum(lengths[:, None], lengths[None, :])[:, :, None])
    agree = eq & valid
    cp = np.argmin(agree, axis=2)
    all_agree = agree.all(axis=2)
    cp[all_agree] = np.minimum(lengths[:, None],
                               lengths[None, :])[all_agree]
    return lengths[:, None] + lengths[None, :] - 2 * cp.astype(np.int16)


def test_criterion_4_free_group_identities():
    # (a) translation length = stable norm = cyclic core length, and
    #     conjugation invariance, exhaustively at radius 5
    words5 = list(ball(2, 5))
    core_ok = all(
        translation_length(g) == stable_norm(g)
        == word_length(cyclic_reduce(g).core) for g in words5)
    conj_ok = all(
        translation_length(multiply(multiply(h, g), h.inverse()))
        == translation_length(g)
        for g in words5 for h in words5)
    length_ok = all(stable_norm(g) <= word_length(g) for g in ball(2, 8))

    # (b) base invariance of the Gromov product under left translation,
    #     exhaustively at radius 5 (vectorized) and through the public
    #     API at radius 3
    words, arr, lengths = _packed_ball(5)
    dist = _pairwise_distance(arr, lengths)
    base_ok = True
    for a, u in enumerate(words):
        translated = [multiply(u, g) for g in words]
        d_to_u = np.array([distance(t, u) for t in translated],
                          dtype=np.int16)
        t_arr = np.zeros((len(words), 10), dtype=np.int8)
        t_len = np.empty(len(words), dtype=np.int16)
        for i, t in enumerate(translated):
            t_arr[i, :len(t.letters)] = t.letters
            t_len[i] = len(t.letters)
        d_trans = _pairwise_distance(t_arr, t_len)
        # doubled <ug, uh>_u == doubled <g, h>_e for every pair (g, h)
        lhs = d_to_u[:, None] + d_to_u[None, :] - d_trans
        rhs = lengths[:, None] + lengths[None, :] - dist
        if not np.array_equal(lhs, rhs):
            base_ok = False
            break
    words3 = list(ball(2, 3))
    api_ok = all(
        gromov_product(multiply(u, g), multiply(u, h), base=u)
        == gromov_product(g, h)
        for u in words3 for g in words3 for h in words3)

    # (c) four-point condition at delta = 0, exhaustively at radius 5
    #     (vectorized) and through the public API at radius 3
    doubled = lengths[:, None] + lengths[None, :] - dist
    four_ok = True
    for b in range(len(words)):
        if not np.all(doubled
                      >= np.minimum.outer(doubled[:, b], doubled[b, :])):
            four_ok = False
            break
    four_api_ok = all(four_point_holds(g, h, k, 0)
                      for g in words3 for h in words3 for k in words3)

    ok = (core_ok and conj_ok and length_ok and base_ok and api_ok
          and four_ok and four_api_ok)
    verdict(4, ok, "translation = stable = cyclic length, conjugation "
                   "invariance, base invariance, four-point at delta=0 "
                   "(exhaustive, radius <= 5)")


def test_criterion_5_unipotent_dichotomy():
    started = time.monotonic()
    gens = elementary_generators(3)
    c = gens.norm_bound
    gamma = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    displacements_zero = True
    lower = []
    for j in range(21):
        m = mat_pow(gamma, 2 ** j)
        displacements_zero &= symmetric_space_displacement(m) == 0.0
        value = translation_length_lower(m, gens)
        expected = math.log(2 ** j) / math.log(c) if j else 0.0
        displacements_zero &= abs(value - expected) < 1e-9
        lower.append(value)
    increasing = all(b > a for a, b in zip(lower, lower[1:]))
    elapsed = time.monotonic() - started
    ok = (displacements_zero and increasing and lower[-1] > 10.0
          and c <= 1.62 and elapsed < 10.0)
    verdict(5, ok, f"displacement exactly 0 along 2^0..2^20 powers while "
                   f"the word-length lower bound rises to "
                   f"{lower[-1]:.1f} > 10 (c = {c:.5f}, {elapsed:.1f}s)")


def test_criterion_6_jordan_as_cartan_limit():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        g = random_special_linear(3, rng, max_eigenbasis_condition=2.7)
        err = float(np.max(np.abs(renormalized_cartan_average(g, 10)
                                  - jordan_projection(g))))
        worst = max(worst, err)
    limit_ok = worst <= 1e-3

    diag_ok = all(cartan_jordan_gap(np.diag([math.exp(t), math.exp(-t)]))
                  <= 1e-10 for t in (0.0, 0.5, 2.0, 5.0))
    shear_gap = cartan_jordan_gap(np.array([[1.0, 1.0], [0.0, 1.0]]))
    shear_ok = abs(shear_gap - math.sqrt(2.0) * math.log(PHI)) <= 1e-8

    ok = limit_ok and diag_ok and shear_ok
    verdict(6, ok, f"|mu(g^1024)/1024 - lambda(g)| <= 1e-3 over 100 seeded "
                   f"samples (worst {worst:.2e}); diagonal gap <= 1e-10; "
                   f"shear gap = sqrt(2) log(phi) within 1e-8")


def test_criterion_7_depth_roots():
    started = time.monotonic()
    fib = ((2, 1), (1, 1))
    cert = depth_root_bound(fib)
    cert_ok = cert.depth == 2 and cert.branch == "hyperbolic"

    # independent exhaustive search, not through find_roots_in_box
    solutions = 0
    for entries in iter_product(range(-4, 5), repeat=4):
        b = ((entries[0], entries[1]), (entries[2], entries[3]))
        if det_exact(b) != 1:
            continue
        if mat_mul(b, b) == fib:
            solutions += 1
        if mat_mul(mat_mul(b, b), b) == fib:
            solutions += 1
    search_ok = solutions == 0
    box_ok = (find_roots_in_box(fib, 2, 4) == []
              and find_roots_in_box(fib, 3, 4) == [])

    def totient(m):
        return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)

    expected = {}
    for n in (2, 3, 4):
        orders = [m for m in range(1, 200) if totient(m) <= n]
        expected[n] = math.lcm(*orders)
    exponent_ok = (expected == {2: 12, 3: 12, 4: 120}
                   and all(unipotence_exponent(n) == expected[n]
                           for n in (2, 3, 4)))
    elapsed = time.monotonic() - started
    ok = cert_ok and search_ok and box_ok and exponent_ok and elapsed < 30.0
    verdict(7, ok, f"no k-th roots of [[2,1],[1,1]] for k >= 2 (certified "
                   f"+ exhaustive |entries| <= 4, k in {{2,3}}); unipotence "
                   f"exponents 12/12/120 ({elapsed:.1f}s)")


def test_criterion_8_contortion_witness():
    shear = ((1, 1), (0, 1))
    w = contortion_witness(shear, [shear])
    witness_ok = (w.modulus == 2 and w.k == 2
                  and mat_pow(shear, 2) == ((1, 2), (0, 1))
                  and mat_mod(mat_pow(shear, 2), 2) == identity(2)
                  and mat_mod(shear, 2) != identity(2))

    orders_ok = True
    for n, m, expected in ((2, 2, 6), (2, 3, 24), (3, 2, 168)):
        count = 0
        for entries in iter_product(range(m), repeat=n * n):
            mat = tuple(tuple(entries[i * n + j] for j in range(n))
                        for i in range(n))
            if det_exact(mat) % m == 1:
                count += 1
        orders_ok &= count == sl_group_order(n, m) == expected

    verdict(8, witness_ok and orders_ok,
            "gamma^2 = I mod 2 with the shear rep nontrivial mod 2; "
            "|SL(2,F2)| = 6, |SL(2,F3)| = 24, |SL(3,F2)| = 168 by "
            "enumeration")


def test_criterion_9_rescaling_identity():
    ok = True
    for t in (Fraction(1), Fraction(3), Fraction(1, 2), Fraction(5 ** 3)):
        conj, result = unipotent_conjugation_identity(t)
        ok &= result == ((1, t * t), (0, 1))
        ok &= conj == ((t, 0), (0, 1 / t))
    verdict(9, ok, "diag(t, 1/t) u(1) diag(1/t, t) = u(t^2) exactly for "
                   "t in {1, 3, 1/2, 125}")


def test_criterion_10_deterministic_reports():
    pairs = [
        (X.run_prop422(radius=5), X.run_prop422(radius=5)),
        (X.run_prop507(power_max=2 ** 8), X.run_prop507(power_max=2 ** 8)),
        (X.run_ams_gap(samples=40, seed=42), X.run_ams_gap(samples=40,
                                                           seed=42)),
        (X.run_depth_roots([((2, 1), (1, 1)), ((1, 1), (0, 1))]),
         X.run_depth_roots([((2, 1), (1, 1)), ((1, 1), (0, 1))])),
    ]
    ok = True
    for first, second in pairs:
        for fmt in ("csv", "report"):
            ok &= (X.render_report(first, fmt).encode()
                   == X.render_report(second, fmt).encode())
    verdict(10, ok, "re-running every experiment with an identical config "
                    "reproduces the report byte for byte")
