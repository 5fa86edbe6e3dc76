import hashlib
import json
import math
import time
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispgeo.cli import main
from dispgeo.experiments import _PROXIMAL_SAMPLES, _gap_draws
from dispgeo.errors import (
    ContractionFailed,
    EigenFailure,
    NoDominantEigenvalue,
    SeparationFailed,
    SingularInput,
)
from dispgeo.lattice import (
    char_poly,
    det_exact,
    elementary_generators,
    identity,
    inverse_unimodular,
    log_eigenvalue_moduli,
    mat_mul,
    mat_pow,
)
from dispgeo.matgeo import (
    _as_matrix,
    _certify_block,
    _dominant_real_eigenvector,
    _last_axis_norms,
    _SAMPLE_CHUNK,
    _projective_samples,
    _row_norms,
    _square,
    cartan_jordan_gap,
    cartan_projection,
    certify_proximal,
    is_unipotent,
    jordan_projection,
    random_special_linear,
    renormalized_cartan_average,
    symmetric_space_displacement,
    symmetric_space_norm,
)
from dispgeo.serialize import render_real
from oracles import (
    ZeroVector,
    certify_block_every_row,
    check_special_linear,
    point_hyperplane_distance,
    projective_metric,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
FIB = ((2, 1), (1, 1))
# det 1; M^17 has entries below 6e4 and singular-value ratio 1.6e-14
M = ((-4, -3, -4), (1, 1, 1), (7, 5, 6))


def worst_contraction_distance(diag, eps):
    """Closed-form worst case of d(g x, e1) over unit x with |x_1| >= eps,
    for diagonal g: put all remaining mass on the second-largest entry."""
    d = np.abs(np.asarray(diag, dtype=float))
    d2 = np.max(d[1:])
    num = d2 * math.sqrt(1.0 - eps * eps)
    den = math.sqrt(d[0] ** 2 * eps ** 2 + d2 ** 2 * (1.0 - eps * eps))
    return num / den


def mpmath_cartan_average(g, squarings: int) -> np.ndarray:
    """Independent oracle: renormalized squaring of g itself in mpmath, at
    60 digits plus 1.3 m / ln 10 per unit of Jordan projection spread,
    then the log singular values of the renormalized power."""
    from mpmath import mp, mpf, matrix as mp_matrix, svd_r

    m = _as_matrix(g)
    if squarings < 0:
        raise ValueError("squarings must be >= 0")
    n = m.shape[0]
    try:
        lam = jordan_projection(m)
        spread = float(lam[0] - lam[-1])
    except (SingularInput, EigenFailure):
        spread = 2.0 * n * np.log(max(2.0, float(np.max(np.abs(m)))))
    dps = int(1.3 * (2 ** squarings) * spread / np.log(10.0)) + 60
    with mp.workdps(dps):
        h = mp_matrix(m.tolist())
        # g^(2^k) = c_k H_k with H_k at unit scale; track log(c_k)/2^k
        log_scale = mpf(0)
        for k in range(1, squarings + 1):
            h = h * h
            f = max(abs(h[i, j]) for i in range(n) for j in range(n))
            if f == 0:
                raise SingularInput("renormalized power degenerated")
            h = h / f
            log_scale += mp.log(f) / (2 ** k)
        sv = svd_r(h, compute_uv=False)
        if min(sv) == 0:
            raise SingularInput("renormalized power is singular")
        scale = 2 ** squarings
        vals = [float(log_scale + mp.log(sv[i]) / scale) for i in range(n)]
    return np.array(sorted(vals, reverse=True))


def _cartan_from_integer_rows(rows: list[list[int]]) -> np.ndarray:
    """High-precision route for integer matrices whose singular values
    exceed double-precision dynamic range (e.g. large exact powers)."""
    from mpmath import mp, svd_r

    mat = tuple(tuple(r) for r in rows)
    if det_exact(mat) == 0:
        raise SingularInput("integer matrix is singular")
    bits = max(abs(x) for row in rows for x in row).bit_length()
    with mp.workdps(max(60, 2 * len(rows) * bits // 3 + 40)):
        h = mp.matrix(rows)
        sv = svd_r(h, compute_uv=False)
        logs = sorted((float(mp.log(sv[i])) for i in range(len(rows))),
                      reverse=True)
    return np.array(logs)


def qr_cartan_power_average(g, m):
    """Independent oracle: QR accumulation over m sequential steps."""
    q = np.eye(g.shape[0])
    acc = np.zeros(g.shape[0])
    for _ in range(m):
        q, r = np.linalg.qr(g @ q)
        acc += np.log(np.abs(np.diag(r)))
    return np.sort(acc / m)[::-1]


class TestCartanProjection:
    def test_identity(self):
        assert np.allclose(cartan_projection(np.eye(3)), 0.0)

    def test_diagonal(self):
        mu = cartan_projection(np.diag([2.0, 0.5]))
        assert np.allclose(mu, [math.log(2), -math.log(2)])

    def test_shear(self):
        # eigenvalues of g^T g are (3 +- sqrt 5)/2, so log sv = +- log phi
        mu = cartan_projection(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(mu, [math.log(PHI), -math.log(PHI)])

    def test_sorted_and_tracefree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_special_linear(3, rng)
            mu = cartan_projection(g)
            assert np.all(np.diff(mu) <= 1e-12)
            assert abs(mu.sum()) < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(SingularInput):
            cartan_projection(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_integer_route_matches_mpmath_svd_oracle(self, n):
        # seeded products of elementary generators and their powers; a
        # singular value of exactly 1 is 0.0 on the exterior-power route,
        # where the SVD leaves a residue far below double precision
        rng = np.random.default_rng(n)
        gens = elementary_generators(n).elements
        for _ in range(8):
            w = identity(n)
            for i in rng.integers(len(gens), size=rng.integers(3, 13)):
                w = mat_mul(w, gens[i])
            for p in (1, 3, 17, 200):
                g = [list(row) for row in mat_pow(w, p)]
                mine = cartan_projection(g)
                oracle = _cartan_from_integer_rows(g)
                for x, y in zip(mine.tolist(), oracle.tolist()):
                    if x == 0.0:
                        assert abs(y) < 1e-50
                    else:
                        assert x == y

    # the vectors as `dispgeo matgeo cartan|jordan` prints them
    @pytest.mark.parametrize("denom, cartan, jordan", [
        (1, "[11.5314863249, 8.68416748027, -20.2156538052]",
         "[9.74724968892, 9.74724968892, -19.4944993778]"),
        (1024, "[4.60001451935, 1.75269567467, -27.1471256108]",
         "[2.81577788332, 2.81577788332, -26.4259711834]"),
    ], ids=["M17", "M17_over_1024"])
    def test_integer_power_below_lapack_conditioning(self, denom, cartan,
                                                     jordan):
        # M^17 has singular-value ratio 1.6e-14; M^17/1024 is a float
        # matrix, exact in binary, split exactly as M^17 over 1024: LAPACK
        # put its smallest components at -27.1485377332 and -26.4276539585
        g = mat_pow(M, 17)
        assert max(abs(x) for row in g for x in row) < 6 * 10 ** 4
        gap = cartan_jordan_gap(g)
        if denom > 1:
            g = np.array(g, dtype=float) / denom
        mu, lam = cartan_projection(g), jordan_projection(g)
        assert "[" + ", ".join(map(render_real, mu)) + "]" == cartan
        assert abs(mu.sum() + 3 * math.log(denom)) < 1e-12
        assert "[" + ", ".join(map(render_real, lam)) + "]" == jordan
        # the gap does not change under scaling
        scaled_gap = cartan_jordan_gap(g)
        assert abs(scaled_gap - gap) <= 1e-12
        assert render_real(gap) == render_real(scaled_gap) == "2.19856950398"

    @pytest.mark.parametrize("n", [2, 3])
    def test_float_route_matches_lapack(self, n):
        # well-conditioned draws, where LAPACK's logs keep their digits
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            g = random_special_linear(n, rng)
            sv = np.linalg.svd(g, compute_uv=False)
            moduli = np.abs(np.linalg.eigvals(g))
            assert np.max(np.abs(cartan_projection(g)
                                 - np.sort(np.log(sv))[::-1])) <= 1e-12
            assert np.max(np.abs(jordan_projection(g)
                                 - np.sort(np.log(moduli))[::-1])) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 40, 300, 3000])
    def test_symmetric_power_cartan_is_jordan(self, k):
        g = mat_pow(FIB, k)
        assert np.allclose(cartan_projection(g), jordan_projection(g),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("op, want", [
        ("jordan", "[38.4969460048, -38.4969460048]"),
        ("displacement", "54.4429031499"),
        ("cartan", "[38.4969460048, -38.4969460048]"),
    ])
    @pytest.mark.parametrize("source", ["--matrix", "--file"])
    def test_cli_keeps_integers_exact(self, op, want, source, tmp_path,
                                      capsys):
        # FIB^40 has entries beyond 2^53, which floats would round
        text = json.dumps([list(row) for row in mat_pow(FIB, 40)])
        if source == "--file":
            path = tmp_path / "fib40.json"
            path.write_text(text)
            text = str(path)
        assert main(["matgeo", op, source, text]) == 0
        assert capsys.readouterr().out == want + "\n"


class TestJordanProjection:
    def test_unipotent_exact_zero(self):
        lam = jordan_projection([[1, 5], [0, 1]])
        assert lam.tolist() == [0.0, 0.0]
        # conjugated unipotents with entries far beyond float range
        for n in (3, 4):
            gens = elementary_generators(n).elements
            h = mat_mul(mat_mul(gens[0], gens[-1]), gens[3])
            jordan_block = tuple(tuple(int(j in (i, i + 1)) for j in range(n))
                                 for i in range(n))
            u = mat_pow(jordan_block, 10 ** 40)
            g = mat_mul(mat_mul(h, u), inverse_unimodular(h))
            assert max(abs(x) for row in g for x in row) > 10 ** 60
            assert jordan_projection(g).tolist() == [0.0] * n

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_integer_homogeneity(self, data):
        # lambda(g^p) = p lambda(g) on elementary products in SL(n, Z)
        n = data.draw(st.integers(2, 4), label="n")
        gens = elementary_generators(n).elements
        picks = data.draw(st.lists(st.integers(0, len(gens) - 1),
                                   min_size=1, max_size=8), label="word")
        p = data.draw(st.integers(1, 256), label="p")
        g = identity(n)
        for i in picks:
            g = mat_mul(g, gens[i])
        lam = jordan_projection(g)
        assert np.allclose(jordan_projection(mat_pow(g, p)), p * lam,
                           rtol=1e-12, atol=1e-12)

    def test_diagonal(self):
        lam = jordan_projection(np.diag([2.0, 0.5]))
        assert np.allclose(lam, [math.log(2), -math.log(2)])

    def test_fibonacci_matrix(self):
        # characteristic polynomial x^2 - 3x + 1
        lam = jordan_projection(np.array([[2.0, 1.0], [1.0, 1.0]]))
        top = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert np.allclose(lam, [top, -top])

    def test_matches_cartan_power_limit(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_special_linear(3, rng, max_eigenbasis_condition=2.7)
            err = np.max(np.abs(renormalized_cartan_average(g, 10)
                                - jordan_projection(g)))
            assert err <= 1e-3


class TestNorms:
    def test_identity(self):
        assert symmetric_space_norm(np.eye(2)) == 0.0

    def test_diagonal_values(self):
        assert np.isclose(symmetric_space_norm(np.diag([2.0, 0.5])),
                          math.sqrt(2) * math.log(2))
        assert np.isclose(symmetric_space_norm(np.diag([4.0, 1.0, 0.25])),
                          math.sqrt(2) * math.log(4))

    def test_subadditive(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            g = random_special_linear(3, rng)
            h = random_special_linear(3, rng)
            assert (symmetric_space_norm(g @ h)
                    <= symmetric_space_norm(g) + symmetric_space_norm(h)
                    + 1e-9)

    def test_displacement_at_most_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = random_special_linear(3, rng)
            assert (symmetric_space_displacement(g)
                    <= symmetric_space_norm(g) + 1e-9)


class TestDisplacement:
    def test_unipotent_exactly_zero(self):
        assert symmetric_space_displacement([[1, 7], [0, 1]]) == 0.0

    @pytest.mark.parametrize("poly", [
        (1, 1, 1, 1, 1),    # Phi_5
        (1, 0, 0, 0, 1),    # Phi_8
        (1, -1, 1, -1, 1),  # Phi_10
        (1, 0, -1, 0, 1),   # Phi_12
    ])
    def test_torsion_companion_exactly_zero(self, poly):
        # the cyclotomic factors of degree 4 are stripped exactly, so their
        # roots give exact zeros, never ~1e-60 of noise
        companion = tuple(
            tuple(int(j == i - 1) for j in range(3)) + (-poly[4 - i],)
            for i in range(4))
        assert char_poly(companion) == poly
        assert log_eigenvalue_moduli(companion) == (0.0,) * 4
        assert symmetric_space_displacement(companion) == 0.0

    def test_diagonal(self):
        assert np.isclose(symmetric_space_displacement(np.diag([2.0, 0.5])),
                          math.sqrt(2) * math.log(2))

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(9)
        target = math.sqrt(2) * math.log(2)
        for _ in range(25):
            h = rng.standard_normal((2, 2))
            while abs(np.linalg.det(h)) < 0.3:
                h = rng.standard_normal((2, 2))
            g = h @ np.diag([2.0, 0.5]) @ np.linalg.inv(h)
            assert abs(symmetric_space_displacement(g) - target) < 1e-8

    def test_conjugation_invariance_random_elements(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            g = random_special_linear(3, rng)
            h = random_special_linear(3, rng)
            d1 = symmetric_space_displacement(g)
            d2 = symmetric_space_displacement(h @ g @ np.linalg.inv(h))
            assert abs(d1 - d2) < 1e-7


class TestProjectiveMetric:
    def test_same_line(self):
        assert projective_metric([1, 0], [1, 0]) == 0.0
        assert projective_metric([1, 0], [-2, 0]) < 1e-15

    def test_orthogonal(self):
        assert projective_metric([1, 0], [0, 1]) == 1.0

    def test_diagonal_line(self):
        assert np.isclose(projective_metric([1, 0], [1, 1]),
                          math.sqrt(2) / 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            projective_metric([0, 0], [1, 0])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            d1 = projective_metric(x, y)
            d2 = projective_metric(-3.0 * y, x)
            assert abs(d1 - d2) < 1e-12
            assert 0.0 <= d1 <= 1.0


class TestPointHyperplaneDistance:
    def test_point_in_hyperplane(self):
        assert point_hyperplane_distance([0, 1, 1], [1, 0, 0]) == 0.0

    def test_point_on_normal(self):
        assert point_hyperplane_distance([2, 0], [1, 0]) == 1.0

    def test_diagonal(self):
        assert np.isclose(point_hyperplane_distance([1, 1], [0, 1]),
                          math.sqrt(2) / 2)


def _rotation_stack() -> np.ndarray:
    """Scaled rotations (complex spectra) every fourth row, proximal
    conjugated diagonals between them."""
    rng = np.random.default_rng(3)
    ms = []
    for k in range(60):
        if k % 4 == 0:
            c, s = np.cos(k), np.sin(k)
            ms.append(np.array([[c, -s], [s, c]]) * (1 + k))
        else:
            h = rng.standard_normal((2, 2))
            d = np.exp(rng.uniform(1.0, 5.0))
            ms.append(h @ np.diag([d, 1 / d]) @ np.linalg.inv(h))
    return np.stack(ms)


def _assert_block_matches_every_row_oracle(ms, r, epsilon, pts) -> list:
    """_certify_block against the kernel that ran the sample test on
    every row and took the repelling normal from a second eig, of M^T.
    Bit for bit: the error types and texts, the attracting rows, the
    moduli, and the margin and sample count wherever a row certifies.
    Within 1e-12, since adj(M - lam I) and eig(M^T) round differently:
    the normal (up to sign) and the separation of each row with a
    dominant real eigenvalue, and the value of each SeparationFailed.
    Returns the errors."""
    got = _certify_block(ms, r, epsilon, pts)
    want = certify_block_every_row(ms, r, epsilon, pts)
    assert [type(e) for e in got.errors] == [type(e) for e in want.errors]
    for e, f in zip(got.errors, want.errors):
        if isinstance(e, SeparationFailed):
            assert abs(e.separation - f.separation) <= 1e-12
            assert e.r == f.r
        else:
            assert str(e) == str(f)
    for field in ("attracting", "moduli"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    with np.errstate(divide="ignore", invalid="ignore"):
        eigen_errors = _dominant_real_eigenvector(ms)[1]
    dominant = [i for i, e in enumerate(eigen_errors) if e is None]
    normal = got.repelling_normal[dominant]
    oracle = want.repelling_normal[dominant]
    assert np.all(np.minimum(np.abs(normal - oracle),
                             np.abs(normal + oracle)) <= 1e-12)
    assert np.all(np.abs(got.separation[dominant]
                         - want.separation[dominant]) <= 1e-12)
    ok = [i for i, e in enumerate(got.errors) if e is None]
    assert (got.contraction_margin[ok].tobytes()
            == want.contraction_margin[ok].tobytes())
    assert np.all(got.samples_tested[ok] == want.samples_tested[ok])
    return got.errors


def _run_stack(dimension: int, seed: int) -> np.ndarray:
    """The 1000 draws of a seeded ams-gap run, in one stack."""
    return _gap_draws(dimension, 1000, np.random.default_rng(seed), False)


class TestCertifyBlockOracle:
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_every_block_of_an_ams_gap_run(self, dimension, seed):
        # 64-row stacks cut from the draws run_ams_gap certifies at 1000
        # samples, r = 0.5, epsilon = 0.05
        ms = _run_stack(dimension, seed)
        pts = _projective_samples(dimension, _PROXIMAL_SAMPLES)
        kinds = set()
        for start in range(0, 1000, 64):
            block = ms[start:start + 64]
            errors = _assert_block_matches_every_row_oracle(
                block, 0.5, 0.05, pts)
            kinds.update(type(e).__name__ for e in errors)
        assert {"NoneType", "SeparationFailed"} <= kinds

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_the_whole_stack_of_an_ams_gap_run(self, dimension, seed):
        # run_ams_gap certifies all its draws at once, the sample test
        # in chunks of _SAMPLE_CHUNK rows past the eigen and separation
        # checks; the last chunk is partial
        errors = _assert_block_matches_every_row_oracle(
            _run_stack(dimension, seed), 0.5, 0.05,
            _projective_samples(dimension, _PROXIMAL_SAMPLES))
        tested = sum(e is None or isinstance(e, ContractionFailed)
                     for e in errors)
        assert tested > 2 * _SAMPLE_CHUNK and tested % _SAMPLE_CHUNK
        assert {type(None), SeparationFailed, ContractionFailed} <= {
            type(e) for e in errors}

    @pytest.mark.parametrize("chunks", [0, 1, 2])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_stacks_ending_at_and_past_a_chunk_boundary(self, chunks,
                                                        extra):
        # the stack is cut right after the row that brings the rows
        # reaching the sample test to chunks * _SAMPLE_CHUNK + extra
        ms = _run_stack(3, 42)
        pts = _projective_samples(3, _PROXIMAL_SAMPLES)
        want = certify_block_every_row(ms, 0.5, 0.05, pts).errors
        tested = [i for i, e in enumerate(want)
                  if e is None or isinstance(e, ContractionFailed)]
        count = chunks * _SAMPLE_CHUNK + extra
        ms = ms[:tested[count - 1] + 1] if count else ms[:tested[0]]
        errors = _assert_block_matches_every_row_oracle(ms, 0.5, 0.05, pts)
        assert sum(e is None or isinstance(e, ContractionFailed)
                   for e in errors) == count

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_eig_and_eigvals_give_the_same_moduli(self, dimension, seed):
        # the gap reads the moduli of the certificate's eig call instead
        # of calling eigvals: LAPACK takes the same path either way, and
        # a matrix gets the same bits in any stack (the gap's is a subset)
        run = _run_stack(dimension, seed)
        stacks = [run[start:start + 64] for start in range(0, 1000, 64)]
        for ms in stacks + [run, _rotation_stack()]:
            moduli = np.abs(np.linalg.eig(ms)[0])
            assert moduli.tobytes() == np.abs(np.linalg.eigvals(ms)).tobytes()
            assert (moduli[1::3].tobytes()
                    == np.abs(np.linalg.eigvals(ms[1::3])).tobytes())

    def test_rotation_stack(self):
        errors = _assert_block_matches_every_row_oracle(
            _rotation_stack(), 0.3, 0.05, _projective_samples(2, 400))
        assert {type(e) for e in errors} >= {type(None),
                                             NoDominantEigenvalue}

    def test_rows_whose_samples_collapse(self):
        # unscaled, images of g near 1e-168 would square to zero, tested
        # samples would get norm 0.0 and each such row past the
        # separation check would be SingularInput; the sample test reads
        # g scaled by a power of two near 1 / spectral radius, so each
        # row keeps its scale-1 verdict, between rows that certify or
        # fail
        pts = _projective_samples(2, 400)
        ms = _rotation_stack()
        before = [type(e) for e in _certify_block(ms, 0.3, 0.05, pts).errors]
        ms[1::5] *= 1e-170
        kinds = [type(e) for e in _assert_block_matches_every_row_oracle(
            ms, 0.3, 0.05, pts)]
        assert kinds == before
        assert type(None) in kinds[1::5]
        assert SingularInput not in kinds

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_three_by_three_rows_at_the_ends_of_the_float_range(self,
                                                                scale):
        # unscaled, the 2 x 2 minors of adj(M - lam I) would underflow to
        # 0 or overflow to inf, and the normal would be NaN; and the
        # squared images of the sample test would be 0 or inf, so rows
        # that certify at scale 1 would be SingularInput or
        # ContractionFailed
        ms = _run_stack(3, 42)[:64]
        pts = _projective_samples(3, _PROXIMAL_SAMPLES)
        want = [type(e) for e in _certify_block(ms, 0.5, 0.05, pts).errors]
        errors = _assert_block_matches_every_row_oracle(ms * scale, 0.5,
                                                        0.05, pts)
        assert [type(e) for e in errors] == want
        assert {type(None), SeparationFailed} <= set(want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_sample_lattice_tests_nothing(self, n):
        # the lone sample lies in the epsilon band of the repelling
        # hyperplane of a diagonal g that expands the sample's smallest
        # coordinate axis, so that row is rejected as untested
        pts = _projective_samples(n, 1)
        diag = np.full(n, 0.5)
        diag[np.argmin(np.abs(pts[0]))] = 4.0
        rng = np.random.default_rng(5)
        ms = [np.diag(diag)]
        for _ in range(20):
            h = rng.standard_normal((n, n))
            d = np.exp(rng.uniform(-2.0, 2.0, n))
            ms.append(h @ np.diag(d) @ np.linalg.inv(h))
        errors = _assert_block_matches_every_row_oracle(
            np.stack(ms), 0.3, 0.05, pts)
        assert type(errors[0]) is ValueError
        assert "no sample point clears the epsilon band" in str(errors[0])

    def test_one_eig_per_stack(self, monkeypatch):
        # the attracting point, the moduli and the normal share one solve
        eig, shapes = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: shapes.append(a.shape) or eig(a))
        _certify_block(_run_stack(3, 42), 0.5, 0.05,
                       _projective_samples(3, _PROXIMAL_SAMPLES))
        assert shapes == [(1000, 3, 3)]

    def test_normal_with_defective_lower_eigenvalues(self):
        # the eigenvalue 1 has one eigenvector, so V^-1 has no row for
        # the normal; adj(M - 7 I) has rows proportional to (36, -6, -1)
        g = np.array([[7.0, -1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        out = _certify_block(g[None], 0.5, 0.05, _projective_samples(3, 400))
        want = np.array([36.0, -6.0, -1.0]) / math.sqrt(36 ** 2 + 6 ** 2 + 1)
        assert np.all(np.abs(out.repelling_normal[0] - want) <= 1e-15)

    def test_four_by_four_conjugated_diagonals(self):
        # n = 4 takes 3 x 3 minors, and the sample lattice is Gaussian
        rng = np.random.default_rng(8)
        ms = []
        for _ in range(200):
            h = rng.standard_normal((4, 4))
            d = np.exp(rng.uniform(-2.0, 2.0, 4))
            ms.append(h @ np.diag(d) @ np.linalg.inv(h))
        errors = _assert_block_matches_every_row_oracle(
            np.stack(ms), 0.3, 0.05, _projective_samples(4, 400))
        assert {type(e) for e in errors} == {SeparationFailed,
                                             ContractionFailed}

    @pytest.mark.parametrize("diagonal", [
        [30.0, 1 / 30.0], [1 / 30.0, -30.0], [-1 / 8.0, 8.0],
        [1000.0, 1.0, 1e-3], [1.0, -1e-3, 1000.0], [0.5, 20.0, 0.1]])
    def test_diagonal_certificates_have_no_negative_zero(self, diagonal):
        # a zero minor times -1 is -0.0, which a certificate renders as
        # "-0"; eig gives a diagonal matrix unit vectors with +0.0 entries
        out = _certify_block(np.diag(diagonal)[None], 0.5, 0.05,
                             _projective_samples(len(diagonal), 1000))
        for field in out[1:-1]:
            assert not np.any(np.signbit(field) & (field == 0.0)), field


class TestCertifyProximal:
    def test_strong_diagonal_certifies(self):
        cert = certify_proximal(np.diag([30.0, 1 / 30.0]), 0.5, 0.05, 1000)
        assert np.isclose(cert.separation, 1.0)
        oracle = 0.05 - worst_contraction_distance([30.0, 1 / 30.0], 0.05)
        assert cert.contraction_margin >= oracle - 1e-12
        assert abs(cert.contraction_margin - oracle) < 5e-3
        assert cert.samples_tested > 900

    def test_weak_diagonal_fails_contraction(self):
        # worst-case image distance is ~0.196 > epsilon = 0.05, so the
        # contraction condition genuinely fails for diag(10, 0.1)
        assert worst_contraction_distance([10.0, 0.1], 0.05) > 0.19
        with pytest.raises(ContractionFailed):
            certify_proximal(np.diag([10.0, 0.1]), 0.5, 0.05, 1000)

    def test_rotation_has_no_dominant_eigenvalue(self):
        with pytest.raises(NoDominantEigenvalue):
            certify_proximal(np.array([[0.0, -1.0], [1.0, 0.0]]), 0.5, 0.05)

    def test_three_by_three(self):
        cert = certify_proximal(np.diag([1000.0, 1.0, 0.001]), 0.5, 0.05,
                                samples=2000)
        assert np.isclose(cert.separation, 1.0)
        assert cert.contraction_margin > 0

    @pytest.mark.parametrize("g, kind", [
        ([[30.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1 / 30.0]],
         ContractionFailed),
        ([[5000.0, -40.0, 9.0], [3.0, 0.5, 2.0], [-2.0, 1.0, 0.25]], None)],
        ids=["diagonal", "dense"])
    def test_outcome_is_independent_of_the_scale_of_g(self, g, kind):
        # g and c g act alike on P(V); unscaled, the squared sample
        # images of 1e-170 g would underflow to 0 (SingularInput) and
        # those of 1e170 g overflow to inf, with a warning
        # (ContractionFailed)
        margins = []
        for scale in (1e-170, 1e-120, 1.0, 1e120, 1e170):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if kind is None:
                    margins.append(certify_proximal(
                        np.array(g) * scale, 0.5, 0.05).contraction_margin)
                else:
                    with pytest.raises(kind):
                        certify_proximal(np.array(g) * scale, 0.5, 0.05)
        assert all(abs(m - margins[2]) <= 1e-12 for m in margins)

    def test_separation_failure(self):
        # skewed shear: attracting line nearly inside the repelling plane
        g = np.array([[10.0, 100.0], [0.0, 0.1]])
        with pytest.raises(SeparationFailed):
            certify_proximal(g, 0.5, 0.05)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            certify_proximal(np.diag([30.0, 1 / 30.0]), 0.1, 0.05)
        with pytest.raises(ValueError):
            certify_proximal(np.diag([30.0, 1 / 30.0]), 0.5, 0.05, samples=0)

    def test_proximal_implies_spectral_dominance(self):
        rng = np.random.default_rng(12)
        found = 0
        for _ in range(50):
            h = rng.standard_normal((2, 2))
            if abs(np.linalg.det(h)) < 0.5 or np.linalg.cond(h) > 4:
                continue
            g = h @ np.diag([40.0, 1 / 40.0]) @ np.linalg.inv(h)
            try:
                certify_proximal(g, 0.4, 0.05, 500)
            except (ContractionFailed, SeparationFailed):
                continue
            lam = jordan_projection(g)
            assert lam[0] > lam[1]
            found += 1
        assert found > 5

    def test_no_sample_clears_the_band(self):
        # the one sample, at angle pi/2, is (0, 1): inside the 0.44 band
        # around the repelling line x_1 = 0
        with pytest.raises(ValueError, match="clears the epsilon band"):
            certify_proximal(np.diag([30.0, 1 / 30.0]), 0.9, 0.44, samples=1)

    @pytest.mark.parametrize("g", [
        [[1.0, 1e200, 0.0], [0.0, 0.5, 1e200], [0.0, 0.0, 0.25]],
        [[1.0, 1.7e308, 1.7e308], [0.0, 0.5, 1e308], [0.0, 0.0, 0.25]],
        [[1.5e308, 1.5e308], [1.5e308, 1.5e308]]])
    def test_overflowing_minors_are_an_eigen_failure(self, g, capsys):
        # finite entries whose adjugate minors overflow give a NaN
        # repelling normal, which would fail every band test and read
        # as "no sample point clears the epsilon band"; so does a real
        # top eigenvalue that eig gives as inf; no overflow warning
        # escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenFailure,
                               match="repelling normal is not finite"):
                certify_proximal(np.array(g), 0.5, 0.05)
            assert main(["matgeo", "proximal", "--matrix",
                         json.dumps(g)]) == 1
        assert "EigenFailure: repelling normal is not finite" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("g, r, kind, message", [
        ([[30.0, 0.0], [0.0, 1 / 30]], 1.5, ValueError,
         "r must be <= 1, the largest separation, got 1.5"),
        # the moduli overflow to inf, so only the reality test fires
        ([[1.7e308, -1.7e308], [1.7e308, 1.7e308]], 0.5,
         NoDominantEigenvalue, "is not real"),
        # 1e-9 * radius underflows to 0, so only the reality test fires
        ([[0.0, -1e-315], [1e-315, 0.0]], 0.5, NoDominantEigenvalue,
         "is not real"),
        # det is about -1, but eig gives the eigenvalues [0, 0]; the exact
        # moduli are both about 1 (eigenvalues about +-1)
        ([[1e-300, 1e300], [1e-300, 1e-300]], 0.5, NoDominantEigenvalue,
         "exact top moduli are not separated"),
        ([[0, 1], [0, 0]], 0.5, SingularInput, "zero spectral radius"),
        ([[0, 0], [0, 0]], 0.5, SingularInput, "zero spectral radius")],
        ids=["r-above-one", "overflowing-pair", "subnormal-rotation",
             "radius-zero-nonsingular", "nilpotent", "zero"])
    def test_verdicts_at_the_ends_of_the_float_range(self, g, r, kind,
                                                     message, capsys):
        # the library and the CLI give one verdict, and no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(kind, match=message):
                certify_proximal(np.array(g, dtype=float), r, 0.05)
            assert main(["matgeo", "proximal", "--matrix", json.dumps(g),
                         f"--r={r}"]) == 1
        err = capsys.readouterr().err
        assert f"dispgeo matgeo: {kind.__name__}: " in err and message in err

    @pytest.mark.parametrize("g, kind, message", [
        ([[2.0, 0.0], [0.0, 0.5]], EigenFailure,
         "eig gave spectral radius 0 for a nonsingular matrix"),
        ([[0.0, 2.0], [0.5, 0.0]], NoDominantEigenvalue,
         "exact top moduli are not separated")])
    def test_zero_radius_from_eig_reads_the_exact_moduli(self, g, kind,
                                                         message,
                                                         monkeypatch):
        # eig patched to lose the spectrum, as it does off the float
        # range: exact moduli 2 and 1/2 leave LAPACK at fault, while the
        # eigenvalues +-1 have no dominant one
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: (
            np.zeros_like(eig(a)[0]), eig(a)[1]))
        with pytest.raises(kind, match=message):
            certify_proximal(np.array(g), 0.5, 0.05)

    def test_cli_certificate_is_pinned(self, capsys):
        assert main(["matgeo", "proximal", "--matrix",
                     '[[30,0],[0,"1/30"]]', "--r", "0.5",
                     "--epsilon", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "contraction_margin = 0.0285891022411\n" in out
        assert "samples_tested = 968\n" in out

    @pytest.mark.parametrize("matrix, doc, margin", [
        # non-normal 3x3
        ('[[5000,-40,9],[3,"1/2",2],[-2,1,"1/4"]]',
         "attracting = [0.999999740097, 0.000599903184426, "
         "-0.000399902117588]\n"
         "repelling_normal = [0.999966383392, -0.00800021587449, "
         "0.00179683916256]\n"
         "separation = 0.999960605584\n"
         "contraction_margin = 0.0423162861142\n"
         "samples_tested = 949\n", 0.04231628611415811),
        # non-diagonal 2x2
        ('[[40,3],[1,"1/8"]]',
         "attracting = [0.999686865893, 0.0250233922759]\n"
         "repelling_normal = [0.997192337642, 0.0748828534934]\n"
         "separation = 0.998753905728\n"
         "contraction_margin = 0.0257651330486\n"
         "samples_tested = 968\n", 0.02576513304855138),
    ])
    def test_cli_certificates_of_non_diagonal_matrices_are_pinned(
            self, capsys, matrix, doc, margin):
        # the single-matrix path of the sample test, byte for byte, and
        # the margin to the last bit
        assert main(["matgeo", "proximal", "--matrix", matrix]) == 0
        assert capsys.readouterr().out == (
            "type = ProximalityCertificate\nr = 0.5\nepsilon = 0.05\n" + doc)
        rows = [[float(Fraction(x)) for x in row]
                for row in json.loads(matrix)]
        assert certify_proximal(rows, 0.5, 0.05).contraction_margin == margin

    def test_sample_lattice_mutation_cannot_change_certificates(self):
        gs = []
        for h, d in (([[1.0, 0.3], [0.2, 1.0]], [40.0, 1 / 40.0]),
                     ([[1.0, 0.3, 0.1], [0.2, 1.0, 0.0], [0.0, 0.1, 1.0]],
                      [1000.0, 1.0, 1 / 1000.0])):
            h = np.array(h)
            gs.append(h @ np.diag(d) @ np.linalg.inv(h))
        before = [certify_proximal(g, 0.5, 0.05, 400) for g in gs]
        for n in (2, 3):
            pts = _projective_samples(n, 400)
            try:
                pts[:] = 0.0
            except ValueError:  # read-only
                pass
        assert [certify_proximal(g, 0.5, 0.05, 400) for g in gs] == before
        assert _projective_samples(2, 400)[0, 0] > 0.99

    def test_row_norms_are_bitwise_linalg_norms(self):
        # einsum sums in another order and differs in the last bit on
        # 15-30% of such rows
        rng = np.random.default_rng(4)
        for n in (2, 3):
            x = rng.standard_normal((2000, n)) * 10.0
            assert _row_norms(x).tolist() == [float(np.linalg.norm(v))
                                              for v in x]

    def test_last_axis_norms_are_bitwise_linalg_norms(self):
        # the sample test's image norms: zeros, squares near overflow and
        # underflow, and NaN; from 8 terms numpy sums pairwise instead
        rng = np.random.default_rng(5)
        for n in range(2, 10):
            x = rng.standard_normal((64, 400, n))
            x[0, :5] = 0.0
            x[1, :, 0] = 0.0
            x[2] *= 1e150
            x[3] *= 1e-150
            x[4, :, -1] *= 1e150
            x[5, ::7, n // 2] = np.nan
            got = _last_axis_norms(x)
            want = np.linalg.norm(x, axis=-1)
            assert got.tobytes() == want.tobytes(), n

    def test_block_rows_equal_single_certificates(self):
        # rotations give the stack complex eigenvalues, so its real-spectrum
        # rows must still be normalised as a real one-matrix eig would be
        ms = list(_rotation_stack())
        out = _certify_block(np.stack(ms), 0.3, 0.05,
                             _projective_samples(2, 400))
        certified = 0
        for i, m in enumerate(ms):
            try:
                cert = certify_proximal(m, 0.3, 0.05, 400)
            except (NoDominantEigenvalue, SeparationFailed,
                    ContractionFailed) as exc:
                assert type(out.errors[i]) is type(exc)
                assert str(out.errors[i]) == str(exc)
                continue
            assert out.errors[i] is None
            assert cert.attracting == tuple(out.attracting[i].tolist())
            assert cert.repelling_normal == tuple(
                out.repelling_normal[i].tolist())
            assert cert.separation == out.separation[i]
            assert cert.contraction_margin == out.contraction_margin[i]
            assert cert.samples_tested == out.samples_tested[i]
            certified += 1
        assert certified > 10

    def test_deterministic(self):
        a = certify_proximal(np.diag([30.0, 1 / 30.0]), 0.5, 0.05, 777)
        b = certify_proximal(np.diag([30.0, 1 / 30.0]), 0.5, 0.05, 777)
        assert a == b

    def test_matches_closed_form_across_strengths(self):
        # sweep the contraction strength through the decision boundary
        # and compare with the exact diagonal worst case; skip draws
        # whose true margin is within the angular sampling resolution
        eps, samples = 0.05, 2000
        resolution = np.pi / samples
        for s in (5.0, 10.0, 15.0, 20.0, 25.0, 40.0, 80.0, 300.0):
            true_margin = eps - worst_contraction_distance([s, 1 / s], eps)
            if abs(true_margin) < resolution:
                continue
            try:
                cert = certify_proximal(np.diag([s, 1 / s]), 0.5, eps,
                                        samples)
                assert true_margin > 0
                assert abs(cert.contraction_margin - true_margin) < 0.01
            except ContractionFailed:
                assert true_margin < 0


class TestCartanJordanGap:
    def test_normal_matrix_zero(self):
        assert cartan_jordan_gap(np.diag([10.0, 0.1])) < 1e-10
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert cartan_jordan_gap(rot) < 1e-10

    def test_shear_value(self):
        gap = cartan_jordan_gap(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert abs(gap - math.sqrt(2) * math.log(PHI)) < 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_special_linear(2, rng)
            assert cartan_jordan_gap(g) >= 0.0


class TestIsUnipotent:
    def test_identity(self):
        assert is_unipotent(np.eye(3))

    def test_integer_shear(self):
        assert is_unipotent([[1, 5], [0, 1]])

    def test_fibonacci_not(self):
        assert not is_unipotent([[2, 1], [1, 1]])

    def test_big_integer_entries_exact(self):
        # would overflow a fixed-width integer power
        n = 10 ** 40
        assert is_unipotent([[1, n], [0, 1]])
        assert not is_unipotent([[1 + n, n], [0, 1]])

    def test_float_conjugated_unipotent(self):
        # h U h^-1 in floats only approximates a unipotent: as the exact
        # binary fractions it holds, it is not one
        h = np.array([[1.3, 0.2], [-0.4, 0.9]])
        g = h @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ np.linalg.inv(h)
        assert not is_unipotent(g)

    def test_float_exactly_unipotent(self):
        u = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert is_unipotent(u)
        # a dyadic conjugate is exact in floats: h = [[1, 0.25], [0.5, 1.125]]
        # has determinant 1 and a dyadic inverse
        h = np.array([[1.0, 0.25], [0.5, 1.125]])
        h_inv = np.array([[1.125, -0.25], [-0.5, 1.0]])
        assert np.array_equal(h @ h_inv, np.eye(2))
        assert is_unipotent(h @ u @ h_inv)
        assert not is_unipotent(np.array([[1.0, 0.5], [2.0 ** -60, 1.0]]))


class TestRenormalizedCartanAverage:
    def test_diagonal_exact(self):
        avg = renormalized_cartan_average(np.diag([2.0, 1.0, 0.5]), 6)
        assert np.allclose(avg, [math.log(2), 0.0, -math.log(2)], atol=1e-12)

    def test_zero_squarings_is_cartan(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(renormalized_cartan_average(g, 0),
                           cartan_projection(g), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bit_identical_to_mpmath_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(6):
            g = random_special_linear(n, rng)
            for squarings in (0, 3, 10):
                assert np.array_equal(
                    renormalized_cartan_average(g, squarings),
                    mpmath_cartan_average(g, squarings))

    def test_exact_zero_components(self):
        c, s = math.cos(1.0), math.sin(1.0)
        for squarings in (0, 3, 10):
            assert renormalized_cartan_average(
                np.eye(3), squarings).tolist() == [0.0, 0.0, 0.0]
            avg = renormalized_cartan_average(np.diag([2.0, 1.0, 0.5]),
                                              squarings)
            assert avg[1] == 0.0 and avg[0] == -avg[2] > 0.0
            shear = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0]])
            avg = renormalized_cartan_average(shear, squarings)
            assert avg[1] == 0.0 and avg[0] == -avg[2] > 0.0
            # singular values sqrt(c^2 + s^2) (twice) and 1, with
            # c^2 + s^2 = 1 + 4.8e-17 for these two doubles
            rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            avg = renormalized_cartan_average(rotation, squarings)
            assert avg[2] == 0.0 and avg[0] == avg[1] > 0.0

    @pytest.mark.parametrize("g", [
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    ])
    def test_singular_input_raises(self, g):
        with pytest.raises(SingularInput):
            renormalized_cartan_average(np.array(g), 3)

    def test_negative_squarings_raise(self):
        with pytest.raises(ValueError):
            renormalized_cartan_average(np.eye(2), -1)

    def test_cancelling_squaring_raises(self):
        # h @ h keeps 1e-50 of terms of size 1: 50 of the 80 digits lost
        with localcontext(Context(prec=80)):
            h = [[Decimal(1), Decimal(1)],
                 [Decimal(-1), Decimal(-1) + Decimal("1e-50")]]
            with pytest.raises(SingularInput):
                _square(h)

    def test_forty_squarings_reach_jordan_projection(self):
        g = random_special_linear(3, np.random.default_rng(42),
                                  max_eigenbasis_condition=2.7)
        start = time.perf_counter()
        avg = renormalized_cartan_average(g, 40)
        assert time.perf_counter() - start < 1.0
        assert np.max(np.abs(avg - jordan_projection(g))) <= 1e-9

    def test_matches_qr_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            g = random_special_linear(3, rng)
            mine = renormalized_cartan_average(g, 10)
            oracle = qr_cartan_power_average(g, 1024)
            assert np.max(np.abs(mine - oracle)) < 0.01


class TestRandomSpecialLinear:
    # the first 8 draws, entries at the 12 significant digits reports
    # print; the perfbench proximal-gap inputs and digest keys come from
    # the first of these streams
    @pytest.mark.parametrize("n, seed, cap, digest", [
        (3, 42, 2.7,
         "81d925fdc9b12264f37c8372f20fc93f4c0662f22bb1d47a3b13519ff2ffead5"),
        (2, 7, None,
         "0ea972be5279bef037ca8f12e99b31a5ab82a99cb7efbd7aca48d1c5eb0138f1"),
    ])
    def test_pinned_stream(self, n, seed, cap, digest):
        rng = np.random.default_rng(seed)
        draws = [random_special_linear(n, rng, max_eigenbasis_condition=cap)
                 for _ in range(8)]
        text = ",".join(render_real(x) for g in draws for x in g.ravel())
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        for g in draws:
            check_special_linear(g)


class TestValidation:
    @pytest.mark.parametrize("call, exc, message", [
        (lambda: certify_proximal([[math.inf, 0], [0, 1]], 0.5, 0.05),
         ValueError, "matrix entries must be finite"),
        (lambda: random_special_linear(1, np.random.default_rng(0)),
         ValueError, "n must be >= 2"),
        (lambda: cartan_projection([[math.inf, 0], [0, 1]]), ValueError,
         "matrix entries must be finite"),
    ], ids=["proximal-infinite", "random-n1", "cartan-infinite"])
    def test_refusals(self, call, exc, message):
        with pytest.raises(exc) as info:
            call()
        assert str(info.value) == message

    def test_check_special_linear(self):
        check_special_linear(np.diag([2.0, 0.5]))
        with pytest.raises(ValueError):
            check_special_linear(np.diag([2.0, 1.0]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            cartan_projection(np.ones((2, 3)))
        with pytest.raises(ValueError):
            cartan_projection(np.array([[1.0]]))
        for projection in (cartan_projection, jordan_projection):
            with pytest.raises(ValueError):
                projection([1, 2])

    @pytest.mark.parametrize("g", [[[5]], [[5.0]]], ids=["int", "float"])
    @pytest.mark.parametrize("projection", [
        cartan_projection, jordan_projection, symmetric_space_norm,
        symmetric_space_displacement, cartan_jordan_gap, is_unipotent,
        lambda g: renormalized_cartan_average(g, 0),
        lambda g: certify_proximal(g, 0.5, 0.1)],
        ids=["cartan", "jordan", "norm", "displacement", "gap", "unipotent",
             "average", "proximal"])
    def test_one_by_one_is_refused(self, projection, g):
        # one shape rule for every projection, exact and LAPACK alike
        with pytest.raises(ValueError, match="matrices must be at least 2x2"):
            projection(g)
