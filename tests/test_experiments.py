import gc
import hashlib
import json
import math
import os
import re
import stat
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from dispgeo import cli
from dispgeo import experiments as X
from dispgeo import matgeo
from dispgeo.cli import main
from dispgeo.errors import (
    DispgeoError,
    EigenFailure,
    NotPingPong,
    ParseError,
    RankMismatch,
    ResourceExceeded,
    SingularInput,
    SoundnessFailure,
)
from dispgeo.lattice import (
    depth_root_bound,
    elementary_generators,
    translation_length_upper,
)
from dispgeo.matgeo import cartan_jordan_gap
from dispgeo.serialize import (
    certificate_document,
    load_matrix_file,
    parse_int_matrix_text,
    parse_matrix_text,
    parse_rational,
    render_rational,
    render_real,
    write_atomic,
)
from dispgeo.words import _SCAN_ROWS, Word, parse_word
from oracles import _block_scan, layer_words



# Independent oracle for run_ams_gap: the one-sample-at-a-time loop with
# its own draws, lattice, eigenvector route and per-matrix products; it
# shares no code with the batched kernel, only the report renderer.

def _lapack_ok(h):
    return abs(np.linalg.det(h)) > 0.2 and np.linalg.cond(h) <= 8.0


def _oracle_draw(dimension, rng, diagonal_only, accept=_lapack_ok):
    if dimension == 2:
        t = rng.uniform(1.5, 4.5)
        diag = np.diag([math.exp(t), math.exp(-t)])
    else:
        t1 = rng.uniform(4.0, 7.0)
        t2 = rng.uniform(-1.0, 1.0)
        diag = np.diag([math.exp(t1), math.exp(t2), math.exp(-t1 - t2)])
    if diagonal_only:
        return diag
    while True:
        h = rng.standard_normal((dimension, dimension))
        if accept(h):
            return h @ diag @ np.linalg.inv(h)


def _oracle_lattice(n, count):
    j = np.arange(count)
    if n == 2:
        theta = np.pi * (j + 0.5) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    z = 2.0 * (j + 0.5) / count - 1.0
    phi = 2.0 * np.pi * j / ((1.0 + np.sqrt(5.0)) / 2.0)
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _oracle_eigenvector(m):
    """Dominant real unit eigenvector, or None when there is none."""
    vals, vecs = np.linalg.eig(m)
    moduli = np.abs(vals)
    order = np.argsort(moduli)[::-1]
    top = moduli[order[0]]
    if (moduli[order[1]] > top - 1e-9 * top
            or abs(vals[order[0]].imag) > 1e-9 * top):
        return None
    vec = vecs[:, order[0]]
    vec = np.real(vec / vec[np.argmax(np.abs(vec))])
    return vec / np.linalg.norm(vec)


def _oracle_status(m, r, eps, pts):
    x, normal = _oracle_eigenvector(m), _oracle_eigenvector(m.T)
    if x is None or normal is None:
        return "NoDominantEigenvalue"
    ux, un = x / np.linalg.norm(x), normal / np.linalg.norm(normal)
    if min(1.0, abs(float(np.dot(ux, un)))) < r:
        return "SeparationFailed"
    images = pts[np.abs(pts @ normal) >= eps] @ m.T
    cos = np.abs(images @ x) / np.linalg.norm(images, axis=1)
    dist = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, cos) ** 2))
    return "certified" if eps - dist.max() >= 0.0 else "ContractionFailed"


def _oracle_gap(m):
    sv = np.sort(np.log(np.linalg.svd(m, compute_uv=False)))[::-1]
    lam = np.sort(np.log(np.abs(np.linalg.eigvals(m))))[::-1]
    return float(np.linalg.norm(sv - lam))


def _oracle_report(dimension, samples, seed, r=0.5, epsilon=0.05,
                   diagonal_only=False):
    rng = np.random.default_rng(seed)
    pts = _oracle_lattice(dimension, 400)
    bound = X.DEFAULT_GAP_BOUNDS[dimension]
    rows, gaps = [], []
    for i in range(samples):
        g = _oracle_draw(dimension, rng, diagonal_only)
        status = _oracle_status(g, r, epsilon, pts)
        if status != "certified":
            rows.append((str(i), status, ""))
            continue
        gaps.append(_oracle_gap(g))
        rows.append((str(i), "certified", render_real(gaps[-1])))
    config = {
        "dimension": str(dimension), "samples": str(samples),
        "r": render_real(r), "epsilon": render_real(epsilon),
        "seed": str(seed),
        "diagonal_only": "true" if diagonal_only else "false",
        "gap_bound": render_real(bound), "prng": "numpy-default-PCG64"}
    summary = {
        "certified": str(len(gaps)), "rejected": str(samples - len(gaps)),
        "max_gap": render_real(max(gaps)) if gaps else "none",
        "mean_gap": render_real(sum(gaps) / len(gaps)) if gaps else "none",
        "gap_bound": render_real(bound)}
    return X.ExperimentReport(
        name="ams-gap", config=config, columns=("sample", "status", "gap"),
        rows=rows, summary=summary,
        passed=bool(gaps) and max(gaps) <= bound)


class TestSerialize:
    def test_rational_round_trip(self):
        assert render_rational(Fraction(3, 2)) == "3/2"
        assert render_rational(Fraction(4, 2)) == "2"
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == -7

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            parse_rational("x/y")
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_real_rendering(self):
        assert render_real(0.0) == "0"
        assert render_real(28.80840180821177) == "28.8084018082"

    def test_matrix_parsing(self):
        assert parse_matrix_text("[[1, 2], [3, 4]]") == [[1, 2], [3, 4]]
        m = parse_matrix_text('[[1, "1/2"], [0, 1]]')
        assert m[0][1] == Fraction(1, 2)

    def test_matrix_errors_carry_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_matrix_text("[[1, 2], [3, ")
        with pytest.raises(ParseError, match="row 1"):
            parse_matrix_text("[[1, 2], [3]]")

    def test_int_matrix_rejects_fractions(self):
        with pytest.raises(ParseError):
            parse_int_matrix_text('[[1, "1/2"], [0, 1]]')
        assert parse_int_matrix_text("[[1, 2.0], [0, 1]]") == ((1, 2), (0, 1))

    def test_load_single_and_batch(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text("[[2, 1], [1, 1]]")
        batch = tmp_path / "many.json"
        batch.write_text("[[[2, 1], [1, 1]], [[1, 0], [0, 1]]]")
        assert load_matrix_file(str(single), integer=True) == [
            ((2, 1), (1, 1))]
        assert len(load_matrix_file(str(batch), integer=True)) == 2

    def test_write_atomic(self, tmp_path):
        target = tmp_path / "report.csv"
        write_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []
        # the mode a plain open() leaves, not mkstemp's owner-only 0o600
        plain = tmp_path / "plain.csv"
        with open(plain, "w") as fh:
            fh.write("hello\n")
        mode = stat.S_IMODE(target.stat().st_mode)
        assert mode == stat.S_IMODE(plain.stat().st_mode)
        # rewriting an existing file keeps its mode, as open() does
        os.chmod(target, 0o640)
        write_atomic(str(target), "again\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        # through a symlink, as open() writes: the link stays a link
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        write_atomic(str(link), "linked\n")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == "linked\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_write_atomic_failure_leaves_the_target(self, tmp_path):
        # a lone surrogate fails the utf-8 write: the old bytes stay and
        # the temp file goes
        target = tmp_path / "report.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(str(target), "x\ud800y")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["report.csv"]

    @pytest.mark.parametrize("text, call, exc, message", [
        (None, lambda path: parse_matrix_text("[[true, 1], [0, 1]]"),
         ParseError, "row 0: boolean entry"),
        (None, lambda path: parse_matrix_text('[[1, 1], [{"a": 1}, 1]]'),
         ParseError, "row 1: unsupported entry {{'a': 1}}"),
        (None, lambda path: parse_matrix_text("[]"), ParseError,
         "matrix document must be a nonempty array of rows"),
        ("[[1, 2],\n [3, ]]", load_matrix_file, ParseError,
         "{path}: line 2, column 6: Expecting value"),
        ('{"a": 1}', load_matrix_file, ParseError,
         "{path}: expected a matrix or array of matrices"),
    ], ids=["bool-entry", "dict-entry", "empty-document", "bad-json",
            "not-a-matrix"])
    def test_refusals(self, text, call, exc, message, tmp_path):
        # each call reads the file m.json, which holds text; the message
        # is a format string of its path
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(exc) as info:
            call(str(path))
        assert str(info.value) == message.format(path=path)

    def test_certificate_document(self):
        from dispgeo.hyperbolic import certify_ping_pong
        from dispgeo.words import parse_word
        cert = certify_ping_pong(parse_word("aab"), parse_word("bba"), 0)
        doc = certificate_document(cert)
        assert "type = PingPongCertificate" in doc
        assert "margin2 = 3/2" in doc
        assert doc.endswith("\n")

    @pytest.mark.parametrize("word, flag", [("aab", "true"),
                                            ("abaBA", "false")])
    def test_certificate_document_prints_flags(self, word, flag, capsys):
        # a bool field prints true/false, as the word op prints it; the
        # op prints the document's lines without its type line
        from dispgeo.hyperbolic import is_almost_cyclically_reduced
        doc = certificate_document(
            is_almost_cyclically_reduced(parse_word(word)))
        assert doc.splitlines()[-1] == f"is_acr = {flag}"
        assert main(["word", "acr", word]) == 0
        assert "type = AcrVerdict\n" + capsys.readouterr().out == doc

    @pytest.mark.parametrize("value", [None, "text", {"a": 1}, [1, 2]])
    def test_certificate_document_rejects_other_fields(self, value):
        # certificates hold Fractions, floats, ints, Words and tuples
        cert = NamedTuple("Odd", [("field", object)])(value)
        with pytest.raises(TypeError, match="no certificate rendering"):
            certificate_document(cert)

    def test_certificate_document_refuses_a_dataclass(self):
        # a certificate is a record, a NamedTuple; fields alone do not make
        # one
        from dataclasses import make_dataclass
        with pytest.raises(TypeError, match="expected a record"):
            certificate_document(make_dataclass("Odd", [("field", int)])(1))


def _oracle_prop422(radius, u, v, alpha):
    """run_prop422's rows at delta = 0, and its violations as (length,
    index in the layer, example text), from _block_scan on layer_words."""
    u, v = parse_word(u).letters, parse_word(v).letters
    selects = 3 * max(len(u), len(v))
    rows, examples = [], []
    for n in range(radius + 1):
        letters = layer_words(2, n)
        excess, first = _block_scan(letters, u, v, Fraction(0))
        chosen = np.bincount(first, minlength=4) * (n >= selects)
        bad = np.flatnonzero(excess > math.floor(alpha))
        rows.append((str(n), str(len(excess)), str(len(bad)),
                     render_rational(alpha - int(excess.max())),
                     *map(str, chosen[:3]),
                     str(len(excess) * (n < selects)), str(chosen[3])))
        examples += [(n, i, f"{Word(letters[i].tolist()).to_str()}:lhs={n}:"
                      f"rhs={render_rational(n - int(excess[i]) + alpha)}")
                     for i in bad[:20].tolist()]
    return rows, examples[:20]


@pytest.mark.parametrize("call, exc, message", [
    (lambda: X.render_report(X.run_prop422(radius=1), "xml"), ValueError,
     "unknown format 'xml' (use csv or report)"),
    (lambda: X.run_prop507(n=1), ValueError, "n must be >= 2"),
    (lambda: X.run_prop507(power_max=0), ValueError,
     "power_max must be >= 1"),
    (lambda: X.run_ams_gap(dimension=4), ValueError,
     "gap experiment supports dimensions 2 and 3"),
    (lambda: X.run_ams_gap(samples=-1), ValueError, "samples must be >= 0"),
], ids=["report-format", "prop507-n1", "prop507-power-max0", "ams-gap-dim4",
        "ams-gap-negative-samples"])
def test_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestProp422Runner:
    def test_small_radius_clean(self):
        from dispgeo.words import ball_size
        rep = X.run_prop422(radius=6)
        assert rep.passed
        assert rep.summary["total_violations"] == "0"
        assert rep.summary["selector_falsified"] == "0"
        assert int(rep.summary["total_words"]) == ball_size(2, 6) == 1457

    def test_radius_zero(self):
        rep = X.run_prop422(radius=0)
        assert rep.passed and int(rep.summary["total_words"]) == 1

    def test_broken_alpha_reports_violations(self):
        rep = X.run_prop422(radius=6, alpha_override=-100)
        assert not rep.passed
        assert int(rep.summary["total_violations"]) > 0
        assert rep.summary["example_violations"] != "none"

    def test_non_pingpong_pair_propagates(self):
        with pytest.raises(NotPingPong):
            X.run_prop422(radius=3, u="ab", v="ab")

    @pytest.mark.parametrize("u, v", [("", ""), ("", "b"), ("b", "")])
    def test_identity_pair_refused(self, u, v):
        # (e, e) once certified, and its radius-6 scan reported 24 bound
        # violations and 24 selector falsifications of a theorem
        with pytest.raises(NotPingPong) as exc:
            X.run_prop422(radius=6, u=u, v=v)
        assert exc.value.condition == 1

    def test_split_layers_match_the_block_oracle(self):
        # at radius 11 layers 10 and 11 are scanned in 3 and 8 ranges of
        # at most 2^15 words, which cut runs of words with one prefix
        rep = X.run_prop422(radius=11)
        rows, examples = _oracle_prop422(11, "aab", "bba", Fraction(9))
        assert rep.rows == rows
        assert examples == [] and rep.summary["example_violations"] == "none"

    def test_examples_past_the_first_range(self):
        # the README pair's largest excess is at length 1, so no override
        # lists a word of a split layer first.  This pair's largest, -8,
        # first occurs at word 57833 of layer 10, in its second range: at
        # alpha = -9 every example is decoded past the first
        rep = X.run_prop422(radius=11, u="aaaBBB", v="bbbbbA",
                            alpha_override=-9)
        rows, examples = _oracle_prop422(11, "aaaBBB", "bbbbbA",
                                         Fraction(-9))
        assert rep.rows == rows
        assert examples and all(n >= 10 and i >= _SCAN_ROWS
                                for n, i, _ in examples)
        assert rep.summary["example_violations"] == ";".join(
            text for *_, text in examples)

    def test_words_of_another_rank_are_refused(self):
        # a ping-pong pair of F_3 must not be scanned against the F_2 ball
        with pytest.raises(RankMismatch):
            X.run_prop422(radius=3, u=Word.from_str("ccb", 3),
                          v=Word.from_str("bbc", 3))
        with pytest.raises(RankMismatch):
            X.run_prop422(radius=3, u="aab", v=Word.from_str("bba", 3))

    @pytest.mark.parametrize("word_radius", [-1, -2])
    def test_negative_word_radius_rejected(self, word_radius):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            X.run_prop507(power_max=4, word_radius=word_radius)

    def test_ball_cap_is_an_error(self):
        with pytest.raises(ResourceExceeded):
            X.run_prop422(radius=20)
        with pytest.raises(ResourceExceeded):
            X.run_prop422(radius=8, max_ball=100)

    @pytest.mark.parametrize("cfg, digest", [
        (dict(radius=8),
         "2bb00cf0cc048dbe80a7dc882bd570f36f1d5881aa699cc15339c8467cc4ce1d"),
        # the selector is active and the ACR threshold is not an integer
        (dict(radius=7, u="a", v="b", delta=Fraction(1, 200)),
         "6f8a396c176b425fa9d522ad6119300cf86b4828bb098de667d981c4485c4b5c"),
        (dict(radius=6, alpha_override=-100),
         "a25842b07641ccc46bfd1485b742a71a3a926554d2175f9ef36c78bc39478549"),
        (dict(radius=7, u="a", v="b", delta=Fraction(1, 300),
              alpha_override=Fraction(5, 2)),
         "1769055ed8399c1046f85557e26a2339cdc131734ba43356e44cf824005de1bf"),
        # the README config
        (dict(radius=12),
         "b3db919964584110e3f770f8bd05643d3b6f4db5bbf9303deacd6ab5b01e3ab5"),
    ])
    def test_pinned_report_bytes(self, cfg, digest):
        # digests of the reports of the Fraction-based scan this one replaced
        text = X.render_report(X.run_prop422(**cfg), "csv")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_no_fraction_per_word(self, monkeypatch):
        # thresholds are compared as scaled integers, so the Fractions built
        # are a fixed few per run and per length, not per word (1457 words)
        built = 0
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        # the scan reads letter tuples, so it builds no Word per word either;
        # every Word comes from __init__ or _trusted
        wrapped = 0
        init, trusted = Word.__init__, Word._trusted.__func__

        def counting_init(self, *args, **kwargs):
            nonlocal wrapped
            wrapped += 1
            init(self, *args, **kwargs)

        def counting_trusted(cls, *args, **kwargs):
            nonlocal wrapped
            wrapped += 1
            return trusted(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(Word, "__init__", counting_init)
        monkeypatch.setattr(Word, "_trusted", classmethod(counting_trusted))
        rep = X.run_prop422(radius=6, u="a", v="b", delta=Fraction(1, 200))
        monkeypatch.undo()
        assert rep.passed
        assert 0 < built < 200
        assert 0 < wrapped < 50


class TestProp507Runner:
    def test_dichotomy_columns(self):
        rep = X.run_prop507(power_max=2 ** 10)
        assert rep.passed
        assert rep.summary["displacement_column"] == "all_zero"
        assert rep.summary["lower_bound_strictly_increasing"] == "true"
        assert rep.summary["well_displacing_falsified"] == "true"
        assert all(row[1] == "0" for row in rep.rows)

    def test_single_power(self):
        # one row holds no evidence: gamma's own lower bound is 0, and
        # "strictly increasing" is vacuous over one value
        rep = X.run_prop507(power_max=1)
        assert len(rep.rows) == 1 and not rep.passed
        assert rep.summary["well_displacing_falsified"] == "false"
        assert main(["prop507", "--power-max", "1"]) == 1
        rep = X.run_prop507(power_max=2)
        assert len(rep.rows) == 2 and rep.passed
        assert rep.summary["well_displacing_falsified"] == "true"

    def test_negative_control_positive_displacement(self):
        # the default power_max runs the powers to the cap of 256, where the
        # entries are far beyond float range
        for n, word_radius in ((2, 4), (3, 4), (4, 4)):
            rep = X.run_prop507(n=n, negative_control=True,
                                word_radius=word_radius)
            assert rep.passed
            assert rep.summary["displacement_column"] == "all_positive"
            assert rep.summary["well_displacing_falsified"] == "false"
            powers = [int(row[0]) for row in rep.rows]
            assert powers[-1] == 256
            disp = [float(row[1]) for row in rep.rows]
            assert disp[0] > 0
            for p, d in zip(powers, disp):
                assert d == pytest.approx(p * disp[0], rel=1e-6)

    PINNED = [
        (dict(power_max=4),
         "f71daa6412471d3288bcf03bf1e95de21d7bdf8677e749574f2b2be095ae62e0"),
        (dict(power_max=2 ** 8),
         "940e74135f46739d5a7b84c4cd252f6a8126bed2837259236bdbbe32946d96cd"),
        (dict(negative_control=True, n=2, word_radius=6),
         "ab1a5adc11d7b99217e836c260f1d58a417b57f1c82446875ca022a983ed41af"),
        # the negative controls before their quadratic left mpmath QR
        (dict(negative_control=True),
         "babac23ebaf1438bd4208c682da06c199361921ff4fdff90691b8592eb2b3bf3"),
        (dict(negative_control=True, n=4, word_radius=2),
         "ff3c0f3cafd8a19e116c8889fbba0d5b99680cb198cac95b779c7f4c8f52e368"),
        # recorded with the full-radius ball table
        (dict(n=3, word_radius=6),
         "2e0a16e24f22c58d5c92bc293dbb594d59e1bdc026c87e3ab91fa37625b1a907"),
        (dict(n=4, word_radius=4),
         "f3dc1f33756632b8a23a6de6c715fde8841aedf7d48fe87559c8c6cb32963f13"),
    ]

    # cfg2, (n=4, word_radius=3), is pinned by perfbench/digests.json;
    # the other rows keep their ids
    @pytest.mark.parametrize("cfg, digest", PINNED, ids=[
        f"cfg{i}-{digest}" for i, (_, digest) in zip((0, 1, 3, 4, 5, 6, 7),
                                                     PINNED)])
    def test_pinned_report_bytes(self, cfg, digest):
        # digests of the reports of the one-search-per-row runner this one
        # replaced
        text = X.render_report(X.run_prop507(**cfg), "csv")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_one_ball_search(self, monkeypatch):
        calls = []
        enumerate_ball = X.enumerate_ball

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_ball(*args, **kwargs)

        monkeypatch.setattr(X, "enumerate_ball", counting)
        rep = X.run_prop507(power_max=2 ** 8)
        assert rep.passed
        assert len(calls) == 1
        # the table reaches half the word radius, rounded up
        assert calls[0][1] == 2
        X.run_prop507(power_max=4, word_radius=5)
        assert len(calls) == 2 and calls[1][1] == 3

    @pytest.mark.parametrize("word_radius", [-1, -2])
    def test_negative_word_radius_rejected(self, word_radius):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            X.run_prop507(power_max=4, word_radius=word_radius)

    def test_ball_cap_is_an_error(self):
        with pytest.raises(ResourceExceeded):
            X.run_prop507(power_max=4, max_ball=100)
        # the cap bounds the radius-2 ball that serves word radius 4, which
        # has 121 elements at n = 3
        with pytest.raises(ResourceExceeded):
            X.run_prop507(power_max=4, word_radius=4, max_ball=120)
        rep = X.run_prop507(power_max=4, word_radius=4, max_ball=121)
        assert [row[3] for row in rep.rows] == ["1", "2", "4"]


class TestGapRunner:
    def test_seeded_run(self):
        rep = X.run_ams_gap(dimension=2, samples=60, seed=42)
        assert rep.passed
        assert int(rep.summary["certified"]) > 0
        assert float(rep.summary["max_gap"]) <= X.DEFAULT_GAP_BOUNDS[2]

    def test_zero_samples(self):
        # no certified draw is no evidence, so the run does not pass
        rep = X.run_ams_gap(dimension=2, samples=0, seed=1)
        assert rep.rows == [] and not rep.passed
        assert rep.summary["max_gap"] == "none"
        assert main(["ams-gap", "--seed", "1", "--samples", "0"]) == 1

    @pytest.mark.parametrize("r", [2.0, math.inf])
    def test_separation_above_one_is_refused(self, r, capsys):
        # the separation of two unit vectors is at most 1
        message = f"r must be <= 1, the largest separation, got {r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            X.run_ams_gap(samples=3, seed=1, r=r)
        assert main(["ams-gap", "--seed", "1", "--samples", "3",
                     f"--r={r}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dispgeo ams-gap: ValueError: {message}\n"

    @pytest.mark.parametrize("seed", [-1, True])
    def test_bad_seed_is_refused_before_drawing(self, seed, capsys,
                                                monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew from a bad seed")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            X.run_ams_gap(2, 3, seed=seed)
        if seed == -1:
            assert main(["ams-gap", "--seed", "-1", "--samples", "3"]) == 1
            assert capsys.readouterr().err == (
                f"dispgeo ams-gap: ValueError: {message}\n")

    def test_band_wider_than_r_is_refused(self, capsys):
        message = "need r > 2 epsilon > 0, got r=0.1, epsilon=0.05"
        with pytest.raises(ValueError, match=re.escape(message)):
            X.run_ams_gap(samples=3, seed=1, r=0.1)
        assert main(["ams-gap", "--seed", "1", "--samples", "3",
                     "--r", "0.1"]) == 1
        assert capsys.readouterr().err == (
            f"dispgeo ams-gap: ValueError: {message}\n")

    def test_separation_one_is_valid(self):
        # only draws with coincident eigenvector and normal certify at
        # r = 1: some diagonal ones, and no conjugated one here
        rep = X.run_ams_gap(2, 200, r=1.0, seed=42, diagonal_only=True)
        assert rep.summary["certified"] == "96" and rep.passed
        rep = X.run_ams_gap(2, 200, r=1.0, seed=42)
        assert rep.summary["certified"] == "0" and not rep.passed

    def test_diagonal_only_gap_zero(self):
        rep = X.run_ams_gap(dimension=2, samples=50, seed=7,
                            diagonal_only=True)
        assert rep.passed
        gaps = [float(r[2]) for r in rep.rows if r[1] == "certified"]
        assert gaps and max(gaps) <= 1e-10

    def test_dimension_three(self):
        rep = X.run_ams_gap(dimension=3, samples=40, seed=42)
        assert rep.passed and int(rep.summary["certified"]) > 0

    def test_tight_bound_fails(self):
        rep = X.run_ams_gap(dimension=2, samples=60, seed=42,
                            gap_bound=1e-6)
        assert not rep.passed

    @pytest.mark.parametrize("cfg", [
        dict(dimension=d, samples=1000, seed=s)
        for d in (2, 3) for s in (42, 7, 18000096)] + [
        dict(dimension=2, samples=300, seed=42, r=0.9),
        dict(dimension=3, samples=300, seed=7, r=0.9),
        dict(dimension=2, samples=200, seed=7, diagonal_only=True),
        dict(dimension=3, samples=200, seed=42, diagonal_only=True),
        dict(dimension=3, samples=0, seed=1),
        dict(dimension=2, samples=150, seed=18000096),
    ])
    def test_blocks_match_the_one_sample_oracle(self, cfg):
        # 150 is no multiple of the block size; r = 0.9 rejects rows for
        # both separation and contraction
        got = X.run_ams_gap(**cfg)
        want = _oracle_report(**cfg)
        for fmt in ("csv", "report"):
            assert X.render_report(got, fmt) == X.render_report(want, fmt)
        if cfg.get("r") == 0.9:
            status = {row[1] for row in got.rows}
            assert {"SeparationFailed", "ContractionFailed"} <= status

    def test_rows_off_the_float_route_take_the_scalar_gap(self, monkeypatch):
        h = np.array([[1.0, 0.3], [0.2, 1.0]])
        proximal = h @ np.diag([40.0, 1 / 40.0]) @ np.linalg.inv(h)
        integral = np.diag([1000.0, 1.0])   # exact spectral route
        singular = np.full((2, 2), 1.5)     # certifies, gap raises
        ms = np.stack([proximal, integral, singular])
        gaps = matgeo._gap_block(ms, np.abs(np.linalg.eigvals(ms)))
        assert gaps[0] == _oracle_gap(proximal)
        assert abs(gaps[0] - cartan_jordan_gap(proximal)) <= 1e-12
        assert gaps[1:] == [None, None]

        def run(*draws):
            it = iter(draws)
            monkeypatch.setattr(
                X, "_gap_draws",
                lambda dimension, count, rng, diagonal_only: np.stack(
                    [next(it) for _ in range(count)]))
            return X.run_ams_gap(dimension=2, samples=len(draws))

        rep = run(proximal, integral)
        assert rep.rows[1] == ("1", "certified",
                               render_real(cartan_jordan_gap(integral)))
        # the first uncaught error in sample order is the one raised
        with pytest.raises(SingularInput, match="matrix is singular"):
            run(proximal, integral, singular, np.zeros((2, 2)))
        with pytest.raises(SingularInput, match="zero spectral radius"):
            run(proximal, np.zeros((2, 2)), singular)

    @staticmethod
    def _fail_on(monkeypatch, name, draw):
        """Make ``np.linalg.<name>`` raise LinAlgError on every stack
        holding ``draw``; returns the sizes of the stacks it refused."""
        real, refused = getattr(np.linalg, name), []

        def solve(a, *args, **kwargs):
            a = np.asarray(a)
            if np.all(a.reshape(-1, *draw.shape) == draw, axis=(1, 2)).any():
                refused.append(len(a) if a.ndim == 3 else 1)
                raise np.linalg.LinAlgError(f"{name} did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, solve)
        return refused

    @staticmethod
    def _seed42_run(dimension, status):
        """A clean 200-draw seed-42 run, its draws, and the index of a
        draw past the first 100 whose report status is ``status``."""
        clean = X.run_ams_gap(dimension=dimension, samples=200, seed=42)
        ms = X._gap_draws(dimension, 200, np.random.default_rng(42), False)
        i = next(i for i, row in enumerate(clean.rows)
                 if i >= 100 and row[1] == status)
        return clean, ms, i

    @pytest.mark.parametrize("status", ["certified", "SeparationFailed"])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_a_failed_eig_fails_only_its_row(self, monkeypatch, dimension,
                                             status):
        # the batched eig fails on a stack holding draw i, so each matrix
        # is solved alone: row i alone gets EigenFailure, every other row
        # keeps its certificate bits, and nothing takes the exact gap
        clean, ms, i = self._seed42_run(dimension, status)
        pts = matgeo._projective_samples(dimension, X._PROXIMAL_SAMPLES)
        want = matgeo._certify_block(ms, 0.5, 0.05, pts)
        refused = self._fail_on(monkeypatch, "eig", ms[i])
        got = matgeo._certify_block(ms, 0.5, 0.05, pts)
        assert refused == [200, 1]
        assert isinstance(got.errors[i], EigenFailure)
        assert str(got.errors[i]) == "eig did not converge"
        assert isinstance(got.errors[i].__cause__, np.linalg.LinAlgError)
        others = [j for j in range(200) if j != i]
        assert ([repr(got.errors[j]) for j in others]
                == [repr(want.errors[j]) for j in others])
        for field in want._fields[1:]:
            assert (getattr(got, field)[others].tobytes()
                    == getattr(want, field)[others].tobytes())
        exact = []
        monkeypatch.setattr(X, "cartan_jordan_gap", exact.append)
        with pytest.raises(EigenFailure, match="eig did not converge"):
            X.run_ams_gap(dimension=dimension, samples=200, seed=42)
        assert exact == []

    @pytest.mark.parametrize("status", ["certified", "SeparationFailed"])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_a_failed_svd_sends_only_its_row_to_the_exact_gap(
            self, monkeypatch, dimension, status):
        # the gap's batched SVD fails on a stack holding draw i, so each
        # certified matrix is solved alone: a certified row i alone takes
        # cartan_jordan_gap, and a rejected one is never in the gap's stack
        clean, ms, i = self._seed42_run(dimension, status)
        refused = self._fail_on(monkeypatch, "svd", ms[i])
        exact = []

        def exact_gap(g):
            exact.append(g)
            return cartan_jordan_gap(g)

        monkeypatch.setattr(X, "cartan_jordan_gap", exact_gap)
        got = X.run_ams_gap(dimension=dimension, samples=200, seed=42)
        assert got.rows[:i] + got.rows[i + 1:] == (clean.rows[:i]
                                                   + clean.rows[i + 1:])
        if status == "certified":
            assert refused == [int(clean.summary["certified"]), 1]
            assert [g.tobytes() for g in exact] == [ms[i].tobytes()]
            assert got.rows[i] == (str(i), "certified",
                                   render_real(cartan_jordan_gap(ms[i])))
        else:
            assert refused == [] and exact == []
            assert X.render_report(got) == X.render_report(clean)

    @pytest.mark.parametrize("lo, hi", [(1.5, 4.5), (4.0, 7.0), (-1.0, 1.0)])
    def test_affine_spectrum_draws_are_bitwise_uniform(self, lo, hi):
        # _gap_draws reads lo + (hi - lo) * rng.random() where the
        # oracle reads rng.uniform(lo, hi): the same bits and the same
        # stream position
        affine_rng = np.random.default_rng(int(100 * (lo + hi)))
        uniform_rng = np.random.default_rng(int(100 * (lo + hi)))
        affine = [lo + (hi - lo) * affine_rng.random()
                  for _ in range(10 ** 5)]
        uniform = [uniform_rng.uniform(lo, hi) for _ in range(10 ** 5)]
        assert np.array(affine).tobytes() == np.array(uniform).tobytes()
        assert (affine_rng.bit_generator.state
                == uniform_rng.bit_generator.state)

    @pytest.mark.parametrize("diagonal_only", [False, True])
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_one_draw_call_equals_consecutive_64_draw_calls(
            self, seed, dimension, diagonal_only):
        # a run's draws in one call are those of 64 draws per call, to the
        # bit and to the final stream position
        whole_rng = np.random.default_rng(seed)
        split_rng = np.random.default_rng(seed)
        whole = X._gap_draws(dimension, 1000, whole_rng, diagonal_only)
        split = np.concatenate([
            X._gap_draws(dimension, min(64, 1000 - start), split_rng,
                         diagonal_only) for start in range(0, 1000, 64)])
        assert whole.tobytes() == split.tobytes()
        assert (whole_rng.bit_generator.state
                == split_rng.bit_generator.state)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0])
    def test_gap_bound_must_be_finite_and_nonnegative(self, bound, capsys):
        message = f"gap_bound must be finite and >= 0, got {bound}"
        with pytest.raises(ValueError, match=re.escape(message)):
            X.run_ams_gap(samples=3, seed=1, gap_bound=bound)
        assert main(["ams-gap", "--seed", "1", "--samples", "3",
                     f"--gap-bound={bound}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dispgeo ams-gap: ValueError: {message}\n"
        rep = X.run_ams_gap(samples=3, seed=1, gap_bound=0.0)
        assert rep.summary["gap_bound"] == render_real(0.0)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_draws_equal_a_per_candidate_loop_under_a_strict_rule(
            self, monkeypatch, dimension):
        # the first 3 * 64 candidates are rejected, so the first draw's
        # row is overwritten 192 times; the draws are those of a plain
        # loop over the same rule, to the bit and to the final stream
        # position
        def reject_first():
            calls = iter(range(10 ** 9))
            right = X._conjugator_ok
            return lambda rows: next(calls) >= 3 * 64 and right(rows)

        plain_rng = np.random.default_rng(11)
        accept = reject_first()
        plain = np.stack([
            _oracle_draw(dimension, plain_rng, False,
                         lambda h: accept(h.tolist()))
            for _ in range(70)])
        monkeypatch.setattr(X, "_conjugator_ok", reject_first())
        rng = np.random.default_rng(11)
        got = X._gap_draws(dimension, 70, rng, False)
        assert got.tobytes() == plain.tobytes()
        assert rng.bit_generator.state == plain_rng.bit_generator.state

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_every_decided_candidate_agrees_with_lapack(self, monkeypatch,
                                                        dimension):
        # the closed form is the rule: on the README seed 42, seed 7 and
        # two benchmark cycle seeds, one batched LAPACK det and cond over
        # every candidate it decided must give the same answers
        right, candidates, answers = X._conjugator_ok, [], []

        def recording(rows):
            candidates.append(rows)
            answers.append(right(rows))
            return answers[-1]

        monkeypatch.setattr(X, "_conjugator_ok", recording)
        for seed in (42, 7, 1000045, 18000096):
            X._gap_draws(dimension, 1000, np.random.default_rng(seed), False)
        hs = np.array(candidates)
        lapack = ((np.abs(np.linalg.det(hs)) > 0.2)
                  & (np.linalg.cond(hs) <= 8.0))
        assert sum(answers) == 4000 < len(answers)
        assert answers == lapack.tolist()

    @pytest.mark.parametrize("rows, accept", [
        ([[8.0, 0.0], [0.0, 1.0]], True),      # cond exactly 8
        ([[8.0, 0.0], [0.0, 0.999]], False),   # cond just past 8
        ([[0.2, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False),
        ([[0.21, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], True),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], True),
        ([[8.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], True),
        ([[8.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.999]], False),
    ])
    def test_closed_form_agrees_with_lapack_at_the_boundaries(self, rows,
                                                              accept):
        h = np.array(rows)
        lapack = abs(np.linalg.det(h)) > 0.2 and np.linalg.cond(h) <= 8.0
        assert X._conjugator_ok(rows) == lapack == accept

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_closed_form_agrees_with_lapack_on_normal_draws(self,
                                                            dimension):
        hs = np.random.default_rng(dimension).standard_normal(
            (20000, dimension, dimension))
        lapack = ((np.abs(np.linalg.det(hs)) > 0.2)
                  & (np.linalg.cond(hs) <= 8.0))
        assert [X._conjugator_ok(h) for h in hs.tolist()] == lapack.tolist()


class TestDepthRootsRunner:
    def test_mixed_batch(self):
        rep = X.run_depth_roots([((2, 1), (1, 1)), ((1, 0), (0, 1)),
                                 ((1, 1), (0, 1))])
        assert rep.passed
        status = {row[0]: row[2] for row in rep.rows}
        assert status["0"] == "hyperbolic"
        assert status["1"] == "torsion"
        assert status["2"] == "quasi_unipotent"

    def test_root_listing(self):
        rep = X.run_depth_roots([((1, 4), (0, 1))])
        assert rep.passed
        row = dict(zip(rep.columns, rep.rows[0]))
        assert "k=2" in row["roots_below_depth"]
        assert row["M"] == "12" and row["K"] == "1"

    # the depth-roots files of cycles 0 and 3 of the seed-42 sl3-lattice
    # benchmark workload (cycle 3 holds a 3x3 hyperbolic matrix), then
    # single matrices: FIB, E_12(4), E_13(2) and FIB (+) 1; last two 3x3
    # hyperbolic rows whose expanding-root families have K1 = 75 and 48
    PINNED_FILES = {
        "cycle0": [((1, 1), (0, 1)), ((1, 0), (2, 1)),
                   ((1, -1, 0), (0, 1, 0), (0, 0, 1)),
                   ((1, 0, 0), (1, 1, -1), (0, 0, 1)),
                   ((1, 0, 1), (0, 1, 0), (0, 0, 1))],
        "cycle3": [((1, 2), (0, 1)), ((1, 0), (1, 1)),
                   ((1, 1, 2), (0, 1, 1), (0, 1, 2)),
                   ((1, 0, 0), (-2, 1, 0), (-1, 0, 1)),
                   ((1, 0, 1), (0, 1, 0), (0, 0, 1))],
        "fib": [((2, 1), (1, 1))],
        "shear2": [((1, 4), (0, 1))],
        "shear3": [((1, 0, 2), (0, 1, 0), (0, 0, 1))],
        "fib3": [((2, 1, 0), (1, 1, 0), (0, 0, 1))],
        "expanding3": [((5, 1, 0), (-1, 0, 0), (0, 0, 1)),
                       ((4, 1, 0), (-1, 0, 0), (0, 0, 1))],
        # int64 pivots and powers mod p in the commutant box search at the
        # numpy floor: E_13(1), E_12(4) at k = 49, 50, [[34,1],[-1,0]] at
        # the automatic box 32, E_12(10^9) at depth 12000000001, and the
        # closed-form family minimum at K1 = 75 (past the benchmark's
        # K1 <= 27)
        "floor": [((1, 0, 1), (0, 1, 0), (0, 0, 1)), ((1, 4), (0, 1)),
                  ((34, 1), (-1, 0)), ((1, 10 ** 9), (0, 1)),
                  ((5, 1, 0), (-1, 0, 0), (0, 0, 1))],
    }

    @pytest.mark.parametrize("name, box_bound, digest, fmt", [
        ("cycle0", None,
         "e2a2187d78fa2234be8c254d448a89381fa7016f1eeac174e23f6f9a8d6b556e",
         "csv"),
        ("cycle3", None,
         "aaad1a15d99e50f438e39bd45e0d828083d399b24deac3edef510535f0247331",
         "csv"),
        ("fib", None,
         "77b5a0fc0597e35a9b08dfc61e6c079e7a980d212fd2306b684062e400401872",
         "csv"),
        ("fib", 3,
         "f66185db09b74cdc99af9a965620f7fffeeb6ebafe1ae01f960ca9ae1b3031ff",
         "csv"),
        ("shear2", None,
         "e9180c1b631e7491bdf9f96e63806d2ba8e000e67ac47ff4051490f8669679dc",
         "csv"),
        ("shear2", 3,
         "a2cc4cf7b5c5e9db28cf1dce989088356023175a1628f09033e66a623c27bf60",
         "csv"),
        ("shear3", None,
         "d5419cae8d53ca7adfa02bd52662323643eca9bddc7a29722a889d8a2fb3fa8d",
         "csv"),
        ("fib3", None,
         "5e71f6eadcbadbff5ddb4456c64a4b3b70982587d50768307f19208b98645a56",
         "csv"),
        # b = 1.01298698389, q = 122 and b = 1.01999984212, q = 67
        ("expanding3", None,
         "0c857cd2e612039c1b394b201d7a7d2b9dcdd8b7f26612aa295aabb750331ef0",
         "csv"),
        ("floor", None,
         "0421488182522b3c769c59f1e2298601d0b648ba4247c052792fbdc85c38b5d0",
         "report"),
    ])
    def test_pinned_report_bytes(self, name, box_bound, digest, fmt):
        # digests of the reports of the chunked box search with per-
        # candidate big-int powers and power-based spectral tests that the
        # one box enumeration, one power loop and char-poly test replaced;
        # expanding3's is of the per-polynomial family loop and the one
        # commutant walk per checked power that the stacked eigvals and
        # the single walk replaced
        rep = X.run_depth_roots(self.PINNED_FILES[name], box_bound=box_bound)
        text = X.render_report(rep, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["cycle0", "cycle3", "shear3", "fib3"])
    def test_box_over_the_cap_raises(self, name):
        # a 3x3 shear's rank-5 commutant has 31^5 points at box 15, and
        # the rank-3 commutant of FIB (+) 1 has 273^3 at box 136, both
        # past the 2e7 cap: a resource error for the whole run, not a
        # SOUNDNESS-FAILURE row
        box_bound, count = ((136, 273 ** 3) if name == "fib3"
                            else (15, 31 ** 5))
        with pytest.raises(ResourceExceeded) as exc:
            X.run_depth_roots(self.PINNED_FILES[name], box_bound=box_bound)
        assert exc.value.count == count

    def test_automatic_box_stops_at_the_cap(self):
        # K = 33.97..., so ceil(K) + 1 = 35 is past the n = 2 cap; the
        # automatic box is the largest that fits, 32
        rep = X.run_depth_roots([((34, 1), (-1, 0))])
        row = dict(zip(rep.columns, rep.rows[0]))
        assert rep.passed
        assert (row["branch_or_status"], row["depth"], row["box_bound"]) \
            == ("hyperbolic", "4", "32")

    def test_large_shear_finishes(self):
        # a linear depth search would take 12 * 10^12 steps here
        rep = X.run_depth_roots([((1, 0, 10 ** 12), (0, 1, 0), (0, 0, 1))])
        row = dict(zip(rep.columns, rep.rows[0]))
        assert rep.passed
        assert row["branch_or_status"] == "quasi_unipotent"
        assert row["depth"] == str(12 * 10 ** 12 + 1)
        assert row["roots_below_depth"] == "none"

    def test_large_spectral_radius_finishes(self):
        # K1 = 3 * 30^2 = 2700, a family of 5401^2 polynomials: the closed-
        # form minimum and the log start of q make it milliseconds
        started = time.perf_counter()
        rep = X.run_depth_roots([((30, 1, 0), (-1, 0, 0), (0, 0, 1))])
        assert time.perf_counter() - started < 60
        assert rep.passed
        assert [line for line in X.render_report(rep, "csv").splitlines()
                if line.startswith("0,")] == [
            "0,[[30,1,0],[-1,0,0],[0,0,1]],hyperbolic,29.9666295471,2700,"
            "1.00037009522,9189,12,9189,2,2,3,9189,9190,none"]

    @staticmethod
    def linear_q(cert):
        return next(q for q in range(1, 10 ** 8)
                    if cert.b ** q > cert.K * (1.0 + 1e-9))

    # every t at n = 2; at n = 3 the linear search takes about 3 t^2 log t
    # steps, so t runs to 60 and then samples the rest up to 300
    @pytest.mark.parametrize("n, ts", [
        (2, range(3, 301)),
        (3, [*range(3, 61), 97, 150, 211, 300])], ids=["n2", "n3"])
    def test_q_matches_linear_search(self, n, ts):
        for t in ts:
            m = (((t, 1), (-1, 0)) if n == 2
                 else ((t, 1, 0), (-1, 0, 0), (0, 0, 1)))
            cert = depth_root_bound(m)
            assert cert.q == cert.depth == self.linear_q(cert), (n, t)

    def test_q_is_least_at_t_1000(self):
        # q = 20785638: a linear search from 1 takes seconds here
        cert = depth_root_bound(((1000, 1, 0), (-1, 0, 0), (0, 0, 1)))
        target = cert.K * (1.0 + 1e-9)
        assert cert.b ** cert.q > target >= cert.b ** (cert.q - 1)
        assert cert.q == 20785638

    def test_shaved_b_at_one_raises(self):
        # K1 = 3 * 20000^2: the family minimum is within 1e-9 of 1, so the
        # shaved b is not above 1 and no power of it passes K
        with pytest.raises(ValueError, match="K1 = 1200000000"):
            X.run_depth_roots([((20000, 1, 0), (-1, 0, 0), (0, 0, 1))])

    def test_pinned_reports_take_no_eigvals(self, monkeypatch):
        want = {name: X.render_report(X.run_depth_roots(files), "csv")
                for name, files in self.PINNED_FILES.items()}

        def refuse(a):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for name, files in self.PINNED_FILES.items():
            assert X.render_report(X.run_depth_roots(files), "csv") \
                == want[name], name

    def test_soundness_failure_is_a_row(self, monkeypatch):
        def found_root(m, box_bound=None):
            raise SoundnessFailure("found a root past the depth")
        monkeypatch.setattr(X, "depth_root_bound", found_root)
        rep = X.run_depth_roots([((2, 1), (1, 1))])
        assert not rep.passed
        assert rep.rows[0][2] == "SOUNDNESS-FAILURE:found a root past the depth"
        assert rep.summary["soundness_failures"] == "1"


class TestDeterminism:
    def test_prop422_bytes(self):
        a = X.render_report(X.run_prop422(radius=5), "csv")
        b = X.render_report(X.run_prop422(radius=5), "csv")
        assert a == b

    def test_prop507_bytes(self):
        a = X.render_report(X.run_prop507(power_max=2 ** 8), "report")
        b = X.render_report(X.run_prop507(power_max=2 ** 8), "report")
        assert a == b

    def test_gap_bytes_and_seed_sensitivity(self):
        a = X.render_report(X.run_ams_gap(samples=40, seed=42), "csv")
        b = X.render_report(X.run_ams_gap(samples=40, seed=42), "csv")
        c = X.render_report(X.run_ams_gap(samples=40, seed=43), "csv")
        assert a == b
        assert a != c

    def test_header_and_footer_structure(self):
        text = X.render_report(X.run_prop507(power_max=4), "csv")
        lines = text.splitlines()
        assert lines[0] == "# dispgeo-report v1"
        assert lines[1] == "# experiment: prop507"
        assert lines[2].startswith("# tool_version:")
        assert lines[-1] == "# passed: true"
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].split(",")[0] == "power"


# the report digests the benchmark's correctness check compares, keyed by
# the op that printed them; an op that failed when they were recorded has
# a null digest and no report to keep
RECORDED = {key: want for key, want in json.loads(
    (Path(__file__).parent.parent / "perfbench" / "digests.json")
    .read_text(encoding="utf-8")).items() if want is not None}


def _recorded_id(key: str) -> str:
    # from the key alone, so an id stays when other keys come or go
    digest = hashlib.sha256(key.encode()).hexdigest()[:8]
    return f"{key.partition(' ')[0]}-{digest}"


class TestRecordedDigests:
    """Every recorded digest of ``perfbench/digests.json``, reproduced in
    this process: the CLI keys through ``main`` (depth-roots through a
    temp file), the two library calls rendered as the benchmark's child
    renders them.

    The 82 ams-gap streams check that the closed-form conjugator test
    reads the same PCG64 stream and gives the same draws at this numpy as
    where the digests were recorded, and that the batched draws,
    certification and gap give the bits of one draw at a time (the README
    configs and the proximal-gap seed 1000045 among them).  The 6 f2-scan
    prop422 keys are the byte check of the layer-table scan
    (``words._LayerTables.products``, ``hyperbolic._range_scan``) at the
    numpy 1.24 floor, where int8 tables promote by value.  The prop507 and
    depth-roots keys cover those subcommands' README and sl3-lattice
    configs.
    """

    @pytest.mark.parametrize("key", list(RECORDED), ids=_recorded_id)
    def test_digest(self, key, tmp_path, capsys):
        kind, _, rest = key.partition(" ")
        if kind == "renormalized_cartan_average":
            matrix, squarings = rest.rsplit(" ", 1)
            avg = matgeo.renormalized_cartan_average(
                np.array(json.loads(matrix), dtype=float), int(squarings))
            text = "[" + ", ".join(format(float(x), ".12g")
                                   for x in avg) + "]\n"
        elif kind == "translation_length_upper":
            matrix, conj_radius, word_radius = rest.rsplit(" ", 2)
            m = tuple(map(tuple, json.loads(matrix)))
            length = translation_length_upper(
                m, elementary_generators(len(m)), int(conj_radius),
                int(word_radius))
            text = f"{length}\n"
        else:
            argv = key.split()
            if kind == "depth-roots":
                path = tmp_path / "matrices.json"
                path.write_text(rest.partition("--file ")[2],
                                encoding="utf-8")
                argv = [kind, "--file", str(path)]
            main(argv)
            text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == RECORDED[key]

    def test_kinds_and_the_redrawn_matrix(self):
        assert Counter(key.partition(" ")[0] for key in RECORDED) == {
            "ams-gap": 82, "renormalized_cartan_average": 41,
            "depth-roots": 10, "translation_length_upper": 10,
            "prop422": 6, "prop507": 4}
        # the proximal-gap cycle-0 input, drawn again at this numpy: its
        # key is recorded, so test_digest reproduces its digest
        g = matgeo.random_special_linear(3, np.random.default_rng(42),
                                         max_eigenbasis_condition=2.7)
        assert (f"renormalized_cartan_average {json.dumps(g.tolist())} 12"
                in RECORDED)


# one valid call of each word and matgeo op; then ab * BA is the
# identity, <aab, aba> = 1, and an integer unipotent's displacement is 0;
# then the README contortion call, and with a second --rep
OP_ARGVS = [
    ["word", "length", "bbbbaBBBB"], ["word", "multiply", "ab", "ba", "AB"],
    ["word", "invert", "aab"], ["word", "cyclic", "bAabaB"],
    ["word", "translation", "bbbbaBBBB"], ["word", "stable", "bbbbaBBBB"],
    ["word", "gromov", "aab", "bba", "ab"],
    ["word", "acr", "aab", "--delta", "1/2"],
    ["word", "bound", "bbbbaBBBB", "aab", "bba"],
    ["matgeo", "cartan", "--matrix", "[[2,1],[1,1]]"],
    ["matgeo", "jordan", "--matrix", "[[1,1],[0,1]]"],
    ["matgeo", "norm", "--matrix", "[[1,1],[0,1]]"],
    ["matgeo", "displacement", "--matrix", "[[2,1],[1,1]]"],
    ["matgeo", "gap", "--matrix", "[[1,1],[0,1]]"],
    ["matgeo", "unipotent", "--matrix", "[[1,1],[0,1]]"],
    ["matgeo", "proximal", "--matrix", '[[30,0],[0,"1/30"]]'],
    ["word", "multiply", "ab", "BA"], ["word", "gromov", "aab", "aba"],
    ["matgeo", "displacement", "--matrix", "[[1, 9], [0, 1]]"],
    ["contortion", "--gamma", "[[1,1],[0,1]]", "--rep", "[[1,1],[0,1]]"],
    ["contortion", "--gamma", "[[1,1],[0,1]]", "--rep", "[[1,1],[0,1]]",
     "--rep", "[[1,0],[2,1]]"]]
# pingpong's two modes: a pair that fails condition 2, an empty word that
# reaches the certifier and fails condition 1, the search with its
# default conjugator a, the README search call, the default 32 powers,
# and an empty --find-conjugator or --find-f that reaches the search
PINGPONG_ARGVS = [
    ["pingpong", "--u", "ab", "--v", "ab"],
    ["pingpong", "--u", "", "--v", "b"],
    ["pingpong", "--find-f", "ab"],
    ["pingpong", "--find-f", "ab", "--find-conjugator", "a", "--n-max", "10"],
    ["pingpong", "--find-f", "ab", "--delta", "1"],
    ["pingpong", "--find-f", "ab", "--find-conjugator", ""],
    ["pingpong", "--find-f", ""]]
# calls a handler refuses, and refusals of the scan that no other row
# reaches: a missing or doubled source, search flags in certify mode, a
# missing flag value, no words for an op, a converter's or a choice's
# error, a zero denominator, a dropped flag, an ambiguous prefix, and an
# explicit value on a switch
REFUSAL_ARGVS = [
    ["pingpong", "--u", "ab"], ["pingpong", "--v", "ab"],
    *(["pingpong", "--u", "aab", "--v", "bba", *flags] for flags in (
        ["--find-conjugator", "b", "--n-max", "1"], ["--find-conjugator", ""],
        ["--n-max", "32"])),
    *(["pingpong", "--find-f", "ab", *words] for words in (
        ["--u", "aab", "--v", "bba"], ["--v", "bba"], ["--u", ""])),
    ["matgeo", "cartan"],
    ["matgeo", "cartan", "--matrix", "[[2,1],[1,1]]", "--file", "m.json"],
    ["matgeo", "cartan", "--file", "m.json", "--matrix", "[[2,1],[1,1]]"],
    ["matgeo", "cartan", "--matrix", "[[1]]", "--file", "m.json"],
    ["matgeo", "jordan", "--matrix", "[[5]]"],
    ["word", "gromov", "a"], ["word", "length"], ["word", "x"],
    ["word", "acr", "bbbbaBBBB", "--delta", "x"],
    ["word", "acr", "ab", "--delta", "1/0"],
    ["prop422", "--radius"], ["prop422", "--radius", "x"],
    ["prop422", "--out", "--format", "csv"], ["prop422", "--delta", "1/0"],
    ["prop422", "--alpha-override", "1/0"],
    ["prop507", "--format", "xml"],
    ["ams-gap", "--seed", "1", "--dim", "4"],
    ["ams-gap", "--seed", "1", "--r", "x"],
    ["contortion", "--gamma", "[[1,1],[0,1]]", "--rep", "[[1,1],[0,1]]",
     "--prime-cap", "3"],
    ["pingpong", "--find", "ab"], ["prop507", "--negative-control=yes"],
    ["prop507", "--help=x"], ["--version=1"]]
# the flag forms argparse accepts: a prefix, --flag=value, a negative
# number as a value, -r as the unique prefix of --rank
FORM_ARGVS = [
    ["prop422", "--rad", "3"], ["prop422", "--radius=3"],
    ["prop422", "--radius", "1", "--alpha-override", "-100"],
    ["pingpong", "--r", "2", "--u", "ab", "--v", "ba"]]
# every subcommand's help, usage errors, stray top-level flag and bare
# run, the top-level calls, and the rows above
CLI_ARGVS = [[name, *tail] for name in cli._COMMANDS
             for tail in (["--help"], ["--bogus"], ["x", "y"], ["--version"],
                          [])] + [
    [], ["--help"], ["--version"], ["-h", "prop507"],
    ["--version", "prop507"], ["bogus"]] + (
    OP_ARGVS + PINGPONG_ARGVS + REFUSAL_ARGVS + FORM_ARGVS)
# " ".join(argv) -> exit code, the first 16 hex digits of stdout's sha256
# ("" for no stdout) and the last stderr line, timing dropped
CLI_PINS = {
    "prop422 --help": (0, "a0ecdd5850ef4ceb", ""),
    "prop422 --bogus": (2, "",
        "dispgeo: error: unrecognized arguments: --bogus"),
    "prop422 x y": (2, "", "dispgeo: error: unrecognized arguments: x y"),
    "prop422 --version": (2, "",
        "dispgeo: error: unrecognized arguments: --version"),
    "prop422": (0, "b3db919964584110", ""),
    "prop507 --help": (0, "2469c7befbd69f4f", ""),
    "prop507 --bogus": (2, "",
        "dispgeo: error: unrecognized arguments: --bogus"),
    "prop507 x y": (2, "", "dispgeo: error: unrecognized arguments: x y"),
    "prop507 --version": (2, "",
        "dispgeo: error: unrecognized arguments: --version"),
    "prop507": (0, "5f04fe9af8cea980", ""),
    "ams-gap --help": (0, "c6b1815a74abc4cd", ""),
    "ams-gap --bogus": (2, "",
        "dispgeo ams-gap: error: the following arguments are required: "
        "--seed"),
    "ams-gap x y": (2, "",
        "dispgeo ams-gap: error: the following arguments are required: "
        "--seed"),
    "ams-gap --version": (2, "",
        "dispgeo ams-gap: error: the following arguments are required: "
        "--seed"),
    "ams-gap": (2, "",
        "dispgeo ams-gap: error: the following arguments are required: "
        "--seed"),
    "depth-roots --help": (0, "f317e743c35b27d3", ""),
    "depth-roots --bogus": (2, "",
        "dispgeo depth-roots: error: the following arguments are required: "
        "--file"),
    "depth-roots x y": (2, "",
        "dispgeo depth-roots: error: the following arguments are required: "
        "--file"),
    "depth-roots --version": (2, "",
        "dispgeo depth-roots: error: the following arguments are required: "
        "--file"),
    "depth-roots": (2, "",
        "dispgeo depth-roots: error: the following arguments are required: "
        "--file"),
    "pingpong --help": (0, "528ac4b5b13a57d1", ""),
    "pingpong --bogus": (2, "",
        "dispgeo: error: unrecognized arguments: --bogus"),
    "pingpong x y": (2, "", "dispgeo: error: unrecognized arguments: x y"),
    "pingpong --version": (2, "",
        "dispgeo: error: unrecognized arguments: --version"),
    "pingpong": (2, "",
        "dispgeo pingpong: error: need --u and --v, or --find-f"),
    "contortion --help": (0, "f9b098fb6aa13c59", ""),
    "contortion --bogus": (2, "",
        "dispgeo contortion: error: the following arguments are required: "
        "--gamma, --rep"),
    "contortion x y": (2, "",
        "dispgeo contortion: error: the following arguments are required: "
        "--gamma, --rep"),
    "contortion --version": (2, "",
        "dispgeo contortion: error: the following arguments are required: "
        "--gamma, --rep"),
    "contortion": (2, "",
        "dispgeo contortion: error: the following arguments are required: "
        "--gamma, --rep"),
    "word --help": (0, "b65a36b74132a662", ""),
    "word --bogus": (2, "",
        "dispgeo word: error: the following arguments are required: op, "
        "args"),
    "word x y": (2, "",
        "dispgeo word: error: argument op: invalid choice: 'x' (choose "
        "from 'length', 'multiply', 'invert', 'cyclic', 'translation', "
        "'stable', 'gromov', 'acr', 'bound')"),
    "word --version": (2, "",
        "dispgeo word: error: the following arguments are required: op, "
        "args"),
    "word": (2, "",
        "dispgeo word: error: the following arguments are required: op, "
        "args"),
    "matgeo --help": (0, "5e9bef09aeb6553b", ""),
    "matgeo --bogus": (2, "",
        "dispgeo matgeo: error: the following arguments are required: op"),
    "matgeo x y": (2, "",
        "dispgeo matgeo: error: argument op: invalid choice: 'x' (choose "
        "from 'cartan', 'jordan', 'norm', 'displacement', 'gap', "
        "'unipotent', 'proximal')"),
    "matgeo --version": (2, "",
        "dispgeo matgeo: error: the following arguments are required: op"),
    "matgeo": (2, "",
        "dispgeo matgeo: error: the following arguments are required: op"),
    "": (2, "",
        "dispgeo: error: the following arguments are required: command"),
    "--help": (0, "7d3f55fe2b12ebed", ""),
    "--version": (0, "b09cf68fcdf26b09", ""),
    "-h prop507": (0, "7d3f55fe2b12ebed", ""),
    "--version prop507": (0, "b09cf68fcdf26b09", ""),
    "bogus": (2, "",
        "dispgeo: error: argument command: invalid choice: 'bogus' (choose "
        "from 'prop422', 'prop507', 'ams-gap', 'depth-roots', 'pingpong', "
        "'contortion', 'word', 'matgeo')"),
    "word length bbbbaBBBB": (0, "2e6d31a5983a9125", ""),
    "word multiply ab ba AB": (0, "a63d8014dba89134", ""),
    "word invert aab": (0, "0382c0d11b12ccfd", ""),
    "word cyclic bAabaB": (0, "f295c2393abfb708", ""),
    "word translation bbbbaBBBB": (0, "4355a46b19d348dc", ""),
    "word stable bbbbaBBBB": (0, "4355a46b19d348dc", ""),
    "word gromov aab bba ab": (0, "4355a46b19d348dc", ""),
    "word acr aab --delta 1/2": (0, "b1595d58da4c04e8", ""),
    "word bound bbbbaBBBB aab bba": (0, "e9e3dcc5463a555b", ""),
    "matgeo cartan --matrix [[2,1],[1,1]]": (0, "246b49f14cd2162d", ""),
    "matgeo jordan --matrix [[1,1],[0,1]]": (0, "7211ad359c55dcd7", ""),
    "matgeo norm --matrix [[1,1],[0,1]]": (0, "f91f961ed3b159a2", ""),
    "matgeo displacement --matrix [[2,1],[1,1]]": (0, "ecb62a39f2e8ef3d", ""),
    "matgeo gap --matrix [[1,1],[0,1]]": (0, "f91f961ed3b159a2", ""),
    "matgeo unipotent --matrix [[1,1],[0,1]]": (0, "a17fcf0a2f50e2d4", ""),
    'matgeo proximal --matrix [[30,0],[0,"1/30"]]': (0, "4c1391c8ec8e3dc6",
        ""),
    "pingpong --u ab": (2, "",
        "dispgeo pingpong: error: need --u and --v, or --find-f"),
    "matgeo cartan --matrix [[2,1],[1,1]] --file m.json": (2, "",
        "dispgeo matgeo: error: argument --file: not allowed with argument "
        "--matrix"),
    "matgeo cartan --file m.json --matrix [[2,1],[1,1]]": (2, "",
        "dispgeo matgeo: error: argument --file: not allowed with argument "
        "--matrix"),
    "word gromov a": (2, "",
        "dispgeo word: error: gromov expects 2-3 word argument(s), got 1"),
    "word length": (2, "",
        "dispgeo word: error: the following arguments are required: args"),
    "word acr bbbbaBBBB --delta x": (2, "",
        "dispgeo word: error: argument --delta: invalid rational value: 'x'"),
    "contortion --gamma [[1,1],[0,1]] --rep [[1,1],[0,1]] --prime-cap 3": (
        2, "", "dispgeo: error: unrecognized arguments: --prime-cap 3"),
    "pingpong --find ab": (2, "",
        "dispgeo pingpong: error: ambiguous option: --find could match "
        "--find-f, --find-conjugator"),
    "prop507 --negative-control=yes": (2, "",
        "dispgeo prop507: error: argument --negative-control: ignored "
        "explicit argument 'yes'"),
    "prop507 --help=x": (2, "",
        "dispgeo prop507: error: argument -h/--help: ignored explicit "
        "argument 'x'"),
    "--version=1": (2, "",
        "dispgeo: error: argument --version: ignored explicit argument '1'"),
    "word multiply ab BA": (0, "f3346a06df41ddae", ""),
    "word gromov aab aba": (0, "4355a46b19d348dc", ""),
    "matgeo displacement --matrix [[1, 9], [0, 1]]": (0, "9a271f2a916b0b6e",
        ""),
    "contortion --gamma [[1,1],[0,1]] --rep [[1,1],[0,1]]": (
        0, "0103289bcc29ce7b", ""),
    "contortion --gamma [[1,1],[0,1]] --rep [[1,1],[0,1]] --rep "
    "[[1,0],[2,1]]": (0, "50b6fd30538d320d", ""),
    "pingpong --u ab --v ab": (1, "",
        "not a ping-pong pair: condition 2, margin -1"),
    "pingpong --u  --v b": (1, "",
        "not a ping-pong pair: condition 1, margin 0"),
    "pingpong --find-f ab": (0, "0ac62c76ad310cd5", ""),
    "pingpong --find-f ab --find-conjugator a --n-max 10": (
        0, "0ac62c76ad310cd5", ""),
    "pingpong --find-f ab --delta 1": (1, "",
        "dispgeo pingpong: PingPongNotFound: no power up to 32 works at "
        "delta 1"),
    "pingpong --find-f ab --find-conjugator ": (1, "",
        "dispgeo pingpong: ValueError: a must be a single generator or "
        "inverse"),
    "pingpong --find-f ": (1, "",
        "dispgeo pingpong: ValueError: f must have positive translation "
        "length"),
    "pingpong --v ab": (2, "",
        "dispgeo pingpong: error: need --u and --v, or --find-f"),
    "pingpong --u aab --v bba --find-conjugator b --n-max 1": (2, "",
        "dispgeo pingpong: error: --find-conjugator and --n-max need "
        "--find-f"),
    "pingpong --u aab --v bba --find-conjugator ": (2, "",
        "dispgeo pingpong: error: --find-conjugator and --n-max need "
        "--find-f"),
    "pingpong --u aab --v bba --n-max 32": (2, "",
        "dispgeo pingpong: error: --find-conjugator and --n-max need "
        "--find-f"),
    "pingpong --find-f ab --u aab --v bba": (2, "",
        "dispgeo pingpong: error: --find-f excludes --u and --v"),
    "pingpong --find-f ab --v bba": (2, "",
        "dispgeo pingpong: error: --find-f excludes --u and --v"),
    "pingpong --find-f ab --u ": (2, "",
        "dispgeo pingpong: error: --find-f excludes --u and --v"),
    "matgeo cartan": (2, "",
        "dispgeo matgeo: error: one of the arguments --matrix --file is "
        "required"),
    "matgeo cartan --matrix [[1]] --file m.json": (2, "",
        "dispgeo matgeo: error: argument --file: not allowed with argument "
        "--matrix"),
    "matgeo jordan --matrix [[5]]": (1, "",
        "dispgeo matgeo: ValueError: matrices must be at least 2x2"),
    "word acr ab --delta 1/0": (2, "",
        "dispgeo word: error: argument --delta: invalid rational value: "
        "'1/0'"),
    "prop422 --delta 1/0": (2, "",
        "dispgeo prop422: error: argument --delta: invalid rational value: "
        "'1/0'"),
    "prop422 --alpha-override 1/0": (2, "",
        "dispgeo prop422: error: argument --alpha-override: invalid "
        "rational value: '1/0'"),
    "prop422 --radius": (2, "",
        "dispgeo prop422: error: argument --radius: expected one argument"),
    "prop422 --radius x": (2, "",
        "dispgeo prop422: error: argument --radius: invalid int value: 'x'"),
    "prop422 --out --format csv": (2, "",
        "dispgeo prop422: error: argument --out: expected one argument"),
    "ams-gap --seed 1 --dim 4": (2, "",
        "dispgeo ams-gap: error: argument --dim: invalid choice: 4 (choose "
        "from 2, 3)"),
    "ams-gap --seed 1 --r x": (2, "",
        "dispgeo ams-gap: error: argument --r: invalid float value: 'x'"),
    "prop507 --format xml": (2, "",
        "dispgeo prop507: error: argument --format: invalid choice: 'xml' "
        "(choose from 'csv', 'report')"),
    "word x": (2, "",
        "dispgeo word: error: argument op: invalid choice: 'x' (choose "
        "from 'length', 'multiply', 'invert', 'cyclic', 'translation', "
        "'stable', 'gromov', 'acr', 'bound')"),
    "prop422 --rad 3": (0, "6eb1535447428dd6", ""),
    "prop422 --radius=3": (0, "6eb1535447428dd6", ""),
    "prop422 --radius 1 --alpha-override -100": (1, "454f811e22e454fc", ""),
    "pingpong --r 2 --u ab --v ba": (0, "16f06bbb58f3185f", ""),
}
TIMING = re.compile(r"^\[dispgeo\] .* finished in .*\n", re.M)


def _pinned(argv, capsys) -> tuple:
    """Exit code, the first 16 hex digits of stdout's sha256 ("" for no
    stdout) and the last stderr line of one CLI call, timing dropped.  A
    refused call (exit 2) prints its usage line first and starts no run,
    so it prints no timing line."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code != 2 or (err.startswith("usage: dispgeo")
                         and not TIMING.search(err)), err
    digest = hashlib.sha256(out.encode()).hexdigest()[:16] if out else ""
    return code, digest, (TIMING.sub("", err).splitlines() or [""])[-1]


class TestCli:
    @pytest.mark.parametrize("argv", CLI_ARGVS, ids=" ".join)
    def test_pinned_calls(self, argv, capsys):
        assert _pinned(argv, capsys) == CLI_PINS[" ".join(argv)]

    @pytest.mark.parametrize("name", [None, *cli._COMMANDS])
    def test_every_help_row_has_text(self, name, capsys):
        # below the usage and help lines, each row is a flag, positional or
        # subcommand, two or more spaces, then its help text
        with pytest.raises(SystemExit):
            main(["--help"] if name is None else [name, "--help"])
        rows = capsys.readouterr().out.split("\n\n", 2)[2].splitlines()
        assert rows
        for row in rows:
            assert len(re.split(r"\s{2,}", row.strip())) == 2, row

    def test_every_subparser_has_a_handler(self, capsys):
        # main calls the handler of the subcommand's table entry; one that
        # is not callable would raise there, outside main's error handling
        for name, (_, run, _) in cli._COMMANDS.items():
            assert callable(run), name
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0, name
            assert capsys.readouterr().out.startswith(
                f"usage: dispgeo {name} [-h]"), name

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["prop422", "--bogus"], ["prop422", "x", "y"],
        ["prop507", "--version"], ["ams-gap"], ["word"], ["matgeo"],
        ["contortion"], ["depth-roots"]],
        ids=lambda argv: " ".join(argv) or "no-args")
    def test_parser_contract(self, argv, capsys):
        # a bare or malformed call is refused by the parser it reached: the
        # usage line first, the error line last, both under one prog
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        usage, *_, error = err.splitlines()
        prog = error.split(": error: ")[0]
        assert (exc.value.code, out) == (2, "")
        assert usage.startswith(f"usage: {prog} [-h]"), err
        assert error == CLI_PINS[" ".join(argv)][2]

    @pytest.mark.parametrize("argv, code", [
        (["word", "length", "a"], 0), (["word", "invert", "a"], 1),
        (["word", "bogus", "a"], 2)], ids=["ran", "refused", "usage"])
    def test_command_runs_on_a_frozen_heap(self, argv, code, monkeypatch,
                                           capsys):
        # the handler sees the import heap frozen; main unfreezes it on
        # every exit, or the suite's later garbage cycles would be kept
        seen = []

        def run(args):
            seen.append(gc.get_freeze_count())
            if args.op == "invert":
                raise DispgeoError("refused")
            return 0

        help_line, _, flags = cli._COMMANDS["word"]
        monkeypatch.setitem(cli._COMMANDS, "word", (help_line, run, flags))
        before = gc.get_freeze_count()
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert (exc.value.code, seen) == (2, [])
        else:
            assert main(argv) == code
            assert len(seen) == 1 and seen[0] > 0
        assert gc.get_freeze_count() == before

    def test_seed_required_for_gap(self, capsys):
        # every other ams-gap flag given: --seed alone is still required
        for argv in (["ams-gap"],
                     ["ams-gap", "--dim", "3", "--samples", "1", "--r", "2",
                      "--epsilon", "0.1", "--diagonal-only"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                "error: the following arguments are required: --seed\n")

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        # the console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["dispgeo", "word", "length",
                                          "abAB"])
        assert main() == 0
        assert capsys.readouterr().out == "4\n"
        monkeypatch.setattr(sys, "argv", ["dispgeo", "--version"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("dispgeo ")

    def test_prop507_exit_and_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["prop507", "--power-max", "256", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("# dispgeo-report v1")

    def test_determinism_via_cli(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["ams-gap", "--seed", "11", "--samples", "30",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failing_run_exits_nonzero(self, tmp_path):
        code = main(["prop422", "--radius", "4", "--alpha-override",
                     "-100", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_depth_roots_file(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[2, 1], [1, 1]]))
        assert main(["depth-roots", "--file", str(f)]) == 0

    def test_depth_roots_box_over_the_cap_exits_1(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[2, 1, 0], [1, 1, 0], [0, 0, 1]]))
        assert main(["depth-roots", "--file", str(f),
                     "--box-bound", "136"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("ResourceExceeded: box 136 on the rank-3 commutant in "
                "dimension 3 has 20346417 candidates") in captured.err
        assert "SOUNDNESS" not in captured.err

    def test_depth_roots_beyond_dimension_three_exits_1(self, tmp_path,
                                                         capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0],
                                 [0, 0, 0, 1]]))
        assert main(["depth-roots", "--file", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("DimensionUnsupported: depth_root_bound supports n in "
                "{2, 3}, got 4") in captured.err
        assert "Traceback" not in captured.err

    def test_matgeo_file_with_two_matrices_exits_1(self, tmp_path, capsys):
        f = tmp_path / "two.json"
        f.write_text(json.dumps([[[2, 1], [1, 1]], [[1, 1], [0, 1]]]))
        for op in ("cartan", "unipotent"):
            assert main(["matgeo", op, "--file", str(f)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "ParseError: expected one matrix, got 2" in captured.err
            assert "Traceback" not in captured.err

    def test_parse_error_exit(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("[[1, 2], [3]]")
        assert main(["depth-roots", "--file", str(f)]) == 1

    def test_non_finite_entry_is_a_parse_error(self, tmp_path, capsys):
        # JSON's Infinity and NaN parse to floats; they must not reach int()
        f = tmp_path / "nan.json"
        f.write_text("[[NaN, 1], [0, 1]]")
        for argv in (["matgeo", "unipotent", "--matrix",
                      "[[Infinity, 1], [0, 1]]"],
                     ["matgeo", "jordan", "--matrix", "[[NaN, 1], [0, 1]]"],
                     ["depth-roots", "--file", str(f)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "ParseError: row 0: non-finite entry" in err
            assert "Traceback" not in err

    def test_float_overflow_is_a_parse_error(self, tmp_path, capsys):
        # exact entries beyond float range must not reach float() unguarded
        huge = "1" + "0" * 400
        f = tmp_path / "huge.json"
        f.write_text(f'[[1, 0], ["{huge}/3", 1]]')
        for argv, row in ((["matgeo", "norm", "--matrix",
                            f"[[{huge}, 0], [0, 1]]"], 0),
                          (["matgeo", "norm", "--file", str(f)], 1)):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"ParseError: row {row}: entry beyond float range" in err
            assert "Traceback" not in err
