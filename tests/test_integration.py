import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dispgeo
from dispgeo.hyperbolic import (
    certify_ping_pong,
    find_ping_pong_pair,
    is_almost_cyclically_reduced,
    pair_offset,
    select_acr,
    stable_norm_length_bound,
)
from dispgeo.words import Word, ball, parse_word
from oracles import conjugacy_undistortion_check


def test_pair_to_bound_workflow():
    """Search a pair, repair a deep conjugate, and confirm the length
    bound and the undistortion witness it produces."""
    n, cert = find_ping_pong_pair(parse_word("ab"), parse_word("a"),
                                  delta=0, n_max=10)
    assert cert.u == parse_word("ab") ** n

    # b^8 a b^-8: peel count 8 exceeds a third of the length 17
    deep = parse_word("b" * 8 + "a" + "B" * 8)
    assert not is_almost_cyclically_reduced(deep, 0).is_acr
    repaired = select_acr(deep, cert)
    assert is_almost_cyclically_reduced(repaired, 0).is_acr

    res = stable_norm_length_bound(deep, cert)
    assert res.holds

    gens = [Word.identity(2), cert.u, cert.v]
    assert conjugacy_undistortion_check(gens, 3, pair_offset(cert),
                                        radius=6)


def test_offset_scales_with_the_pair():
    # the additive offset is derived from the certified pair, never taken
    # on faith: longer pair words push it up, delta pushes it up further
    short = certify_ping_pong(parse_word("aab"), parse_word("bba"), 0)
    long_u = parse_word("aab") * parse_word("aab")
    long_v = parse_word("bba") * parse_word("bba")
    longer = certify_ping_pong(long_u, long_v, 0)
    assert pair_offset(short) == 9
    assert pair_offset(longer) == 18
    from fractions import Fraction
    with_delta = certify_ping_pong(long_u, long_v, Fraction(1, 25))
    assert pair_offset(with_delta) == 22
    for g in ball(2, 5):
        assert stable_norm_length_bound(g, longer).holds


@pytest.mark.skipif(shutil.which("dispgeo") is None,
                    reason="console script not on PATH")
def test_console_script_end_to_end(tmp_path):
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        ["dispgeo", "prop507", "--power-max", "256", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert text.startswith("# dispgeo-report v1")
    assert text.rstrip().endswith("# passed: true")
    assert "finished in" in proc.stderr

    bad = subprocess.run(
        ["dispgeo", "prop422", "--radius", "3", "--alpha-override", "-99"],
        capture_output=True, text=True)
    assert bad.returncode == 1


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "dispgeo.cli", "word", "stable", "Bab"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def _run_python(script: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this dispgeo."""
    src = str(Path(dispgeo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("extra", [[], ["--n", "2"]])
def test_negative_control_leaves_mpmath_unimported(extra):
    # the control's Jordan projections have quadratic remainders, which
    # are solved in closed form
    script = (
        "import sys\n"
        "from dispgeo.cli import main\n"
        f"code = main(['prop507', '--negative-control'] + {extra!r})\n"
        "print(code, 'mpmath' in sys.modules)\n")
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_renormalized_cartan_average_leaves_mpmath_unimported():
    script = (
        "import sys\n"
        "from dispgeo.lattice import mat_pow\n"
        "from dispgeo.matgeo import cartan_projection, "
        "renormalized_cartan_average\n"
        "avg = renormalized_cartan_average([[2.0, 1.0], [1.0, 1.0]], 12)\n"
        "cartan_projection(mat_pow(((2, 1), (1, 1)), 3000))\n"
        "print(len(avg), 'mpmath' in sys.modules)\n")
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["2", "False"]


def test_a_cli_run_imports_no_argparse_gettext_or_locale():
    # argparse's messages go through gettext, whose first call imports
    # locale: together 1-2 ms of each fresh-process CLI call.  A fresh
    # interpreter, because pytest itself imports argparse
    script = (
        "import sys\n"
        "from dispgeo.cli import main\n"
        "code = main(['word', 'length', 'ab'])\n"
        "print(code, [name for name in ('argparse', 'gettext', 'locale')\n"
        "             if name in sys.modules])\n")
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2", "0 []"]


def test_commands_without_draws_leave_numpy_random_unimported(tmp_path):
    # numpy.random takes about 6 ms to import, which would land in the
    # set-up and every op of a benchmark run: only seeded draws load it
    import numpy

    if int(numpy.__version__.split(".")[0]) < 2:
        pytest.skip("numpy < 2 imports numpy.random with numpy itself")
    matrices = tmp_path / "matrices.json"
    matrices.write_text("[[[1, 2], [0, 1]], [[1, 0, 1], [0, 1, 0], "
                        "[0, 0, 1]], [[1, 1, 2], [0, 1, 1], [0, 1, 2]]]")
    commands = [
        ["prop422", "--radius", "4"],
        ["prop507"],
        ["depth-roots", "--file", str(matrices)],
        ["matgeo", "proximal", "--matrix", '[[30,0],[0,"1/30"]]'],
    ]
    script = (
        "import importlib, pkgutil, sys\n"
        "import numpy, dispgeo\n"
        "for module in pkgutil.iter_modules(dispgeo.__path__):\n"
        "    importlib.import_module('dispgeo.' + module.name)\n"
        "from dispgeo.cli import main\n"
        f"codes = [main(args) for args in {commands!r}]\n"
        "print(*codes, 'numpy.random' in sys.modules)\n")
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-5:] == ["0", "0", "0", "0", "False"]


# every CLI command of the README, with its files under the test's tmp dir
README_COMMANDS = [
    "prop422 --radius 12 --u aab --v bba --delta 0 --out {tmp}/scan.csv",
    "prop507 --power-max 1048576 --format report",
    "prop507 --n 3 --word-radius 12 --format report",
    "ams-gap --dim 2 --samples 1000 --seed 42 --out {tmp}/gap.csv",
    "depth-roots --file {tmp}/matrices.json --box-bound 2",
    "pingpong --u aab --v bba --delta 0",
    "pingpong --find-f ab --find-conjugator a --n-max 10",
    "contortion --gamma [[1,1],[0,1]] --rep [[1,1],[0,1]]",
    "word length bbbbaBBBB",
    "word gromov aab bba",
    "word acr bbbbaBBBB --delta 0",
    "word bound bbbbaBBBB aab bba",
    "matgeo cartan --matrix [[1,1],[0,1]]",
    'matgeo proximal --matrix [[30,0],[0,"1/30"]] --r 0.5 --epsilon 0.05',
    "prop507 --negative-control",
    "prop507 --negative-control --n 2",
]


def test_runs_without_mpmath(tmp_path):
    # mpmath is a test dependency only: with its import blocked, every
    # README command and each public projection still runs
    (tmp_path / "matrices.json").write_text(
        "[[[2, 1], [1, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]], "
        "[[2, 1, 0], [1, 1, 0], [0, 0, 1]]]")
    commands = [c.format(tmp=tmp_path).split() for c in README_COMMANDS]
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None  # import mpmath raises ImportError\n"
        "import contextlib, io\n"
        "from dispgeo.cli import main\n"
        "from dispgeo.lattice import mat_pow\n"
        "from dispgeo.matgeo import (cartan_jordan_gap, cartan_projection,\n"
        "                            jordan_projection,\n"
        "                            renormalized_cartan_average)\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "avg = renormalized_cartan_average([[2.0, 1.0], [1.0, 1.0]], 12)\n"
        "print(len(avg))\n"
        "cartan_projection(mat_pow(((2, 1), (1, 1)), 3000))\n"
        "float_m17 = [[57.37109375, 44.3818359375, 26.5302734375],\n"
        "             [-17.76171875, -13.630859375, -8.8583984375],\n"
        "             [-44.2021484375, -35.388671875, -13.40625]]\n"
        "salem = [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]\n"
        "for g in (float_m17, salem):\n"
        "    print([format(x, '.12g') for x in jordan_projection(g)],\n"
        "          format(cartan_jordan_gap(g), '.12g'))\n")
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "2"
    assert lines[1] == ("['2.81577788332', '2.81577788332', "
                        "'-26.4259711834'] 2.19856950398")
    assert lines[2].startswith(
        "['0.543535072498', '0', '0', '-0.543535072498'] ")
