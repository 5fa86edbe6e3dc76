"""Command-line harness.

Subcommands map one-to-one onto the experiment runners plus ad-hoc word
and matrix queries.  Reports are written atomically when --out is given,
otherwise to stdout; wall-clock timing goes to stderr so report bytes
depend only on the config.  Exit status is 0 exactly when every assertion
of the run passed, and 2 on usage errors.  ``_COMMANDS`` gives each
subcommand its help line, handler and flag table.  ``build_parser`` reads
argv once, through ``_scan``, against the tables as the standard
library's option parser would, and ``_help`` renders them.  ``_fail``
refuses every bad call, from the scan or a handler, before any run: the
usage line of the subcommand, ``dispgeo NAME: error: ...``, exit 2.
``_WORD_OPS`` and ``_MATGEO_OPS`` name each op once, with its arity or
matrix kind and its output.
"""

from __future__ import annotations

import functools
import gc
import operator
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import __version__, experiments
from .errors import DispgeoError, NotPingPong, ParseError
from .hyperbolic import (
    certify_ping_pong,
    find_ping_pong_pair,
    is_almost_cyclically_reduced,
    stable_norm_length_bound,
)
from .lattice import contortion_witness
from .matgeo import (
    cartan_jordan_gap,
    cartan_projection,
    certify_proximal,
    is_unipotent,
    jordan_projection,
    symmetric_space_displacement,
    symmetric_space_norm,
)
from .serialize import (
    _real_rows,
    _value_text,
    certificate_document,
    load_matrix_file,
    parse_int_matrix_text,
    parse_matrix_text,
    parse_rational,
    write_atomic,
)
from .words import (
    Word,
    cyclic_reduce,
    gromov_product,
    parse_word,
    stable_norm,
    translation_length,
)

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _emit_report(report, args) -> int:
    _emit(experiments.render_report(report, args.format), args.out)
    return 0 if report.passed else 1


def _cmd_pingpong(args) -> int:
    fail = functools.partial(_fail, "dispgeo pingpong",
                             _COMMANDS["pingpong"][2])
    if args.find_f is not None:
        if args.u is not None or args.v is not None:
            fail("--find-f excludes --u and --v")
        f = parse_word(args.find_f, args.rank)
        a = parse_word("a" if args.find_conjugator is None
                       else args.find_conjugator, args.rank)
        n, cert = find_ping_pong_pair(
            f, a, args.delta, 32 if args.n_max is None else args.n_max)
        doc = f"power = {n}\n" + certificate_document(cert)
        _emit(doc, args.out)
        return 0
    if args.find_conjugator is not None or args.n_max is not None:
        fail("--find-conjugator and --n-max need --find-f")
    if args.u is None or args.v is None:
        fail("need --u and --v, or --find-f")
    try:
        cert = certify_ping_pong(parse_word(args.u, args.rank),
                                 parse_word(args.v, args.rank), args.delta)
    except NotPingPong as exc:
        sys.stderr.write(f"not a ping-pong pair: condition "
                         f"{exc.condition}, margin {exc.margin}\n")
        return 1
    _emit(certificate_document(cert), args.out)
    return 0


def _cmd_contortion(args) -> int:
    gamma = parse_int_matrix_text(args.gamma)
    reps = [parse_int_matrix_text(r) for r in args.rep]
    witness = contortion_witness(gamma, reps)
    _emit(certificate_document(witness), args.out)
    return 0


# word op -> (fewest words, most words or None, value of the parsed
# words and the args, printed by _value_text)
_WORD_OPS = {
    "length": (1, 1, lambda w, a: len(w[0])),
    "multiply": (1, None, lambda w, a: functools.reduce(
        operator.mul, w, Word.identity(a.rank))),
    "invert": (1, 1, lambda w, a: w[0].inverse()),
    "cyclic": (1, 1, lambda w, a: cyclic_reduce(w[0])),
    "translation": (1, 1, lambda w, a: translation_length(w[0])),
    "stable": (1, 1, lambda w, a: stable_norm(w[0])),
    "gromov": (2, 3, lambda w, a: gromov_product(*w)),
    "acr": (1, 1, lambda w, a: is_almost_cyclically_reduced(w[0], a.delta)),
    "bound": (3, 3, lambda w, a: stable_norm_length_bound(
        w[0], certify_ping_pong(w[1], w[2], a.delta))),
}


def _cmd_word(args) -> int:
    low, high, value = _WORD_OPS[args.op]
    if not low <= len(args.args) <= (high or len(args.args)):
        bounds = low if high == low else f"{low}-{high}"
        _fail("dispgeo word", _COMMANDS["word"][2], f"{args.op} expects "
              f"{bounds} word argument(s), got {len(args.args)}")
    _emit(_value_text(value([parse_word(a, args.rank) for a in args.args],
                            args)), args.out)
    return 0


def _load_one_matrix(args, integer: bool):
    if (args.matrix is None) == (args.file is None):
        _fail("dispgeo matgeo", _COMMANDS["matgeo"][2],
              "one of the arguments --matrix --file is required"
              if args.matrix is None
              else "argument --file: not allowed with argument --matrix")
    if args.file is None:
        if integer:
            return parse_int_matrix_text(args.matrix)
        return _real_rows(parse_matrix_text(args.matrix))
    matrices = load_matrix_file(args.file, integer=integer)
    if len(matrices) != 1:
        raise ParseError(f"expected one matrix, got {len(matrices)}")
    return matrices[0]


# matgeo op -> (reads an integer matrix, output of the matrix and the
# args)
_MATGEO_OPS = {
    "cartan": (False, lambda m, a: _value_text(tuple(cartan_projection(m)))),
    "jordan": (False, lambda m, a: _value_text(tuple(jordan_projection(m)))),
    "norm": (False, lambda m, a: _value_text(symmetric_space_norm(m))),
    "displacement": (False, lambda m, a: _value_text(
        symmetric_space_displacement(m))),
    "gap": (False, lambda m, a: _value_text(cartan_jordan_gap(m))),
    "unipotent": (True, lambda m, a: _value_text(is_unipotent(m))),
    "proximal": (False, lambda m, a: certificate_document(certify_proximal(
        m, a.r, a.epsilon, a.samples))),
}


def _cmd_matgeo(args) -> int:
    integer, output = _MATGEO_OPS[args.op]
    _emit(output(_load_one_matrix(args, integer), args), args.out)
    return 0


# Each flag maps to (converter, default, help).  The converter is a
# callable, a tuple of choices (of its first entry's type), bool for a
# switch or list for a repeatable flag; the default may be _REQUIRED.
# Names without dashes are positionals, after the flags: a list one takes
# the values left, and a dict one names the subcommand, whose table reads
# the rest.
_REQUIRED = object()
_ABOUT = ("Displacement geometry toolkit: word metrics, ping-pong certificates,"
          " matrix projections, and the experiments built on them.")
_OUT = (str, None, "write to this path, not stdout (atomic temp-file + "
        "rename)")
_OUTPUT = {"--out": _OUT, "--format": (("csv", "report"), "csv", "csv with "
                                       "#-prefixed header and summary lines, "
                                       "or an indented text report")}
_DELTA = (parse_rational, Fraction(0), "hyperbolicity constant, an exact "
          "rational such as 1/2")
_RANK = (int, 2, "rank k of the free group F_k (letters a..z)")
_R = (float, 0.5, "separation r of (r, epsilon)-proximality, at most 1")
_EPSILON = (float, 0.05, "contraction epsilon of (r, epsilon)-proximality, "
            "below r/2")

_COMMANDS = {
    "prop422": (
        "exhaustive word-length vs stable-norm bound scan over a free-group "
        "ball", lambda a: _emit_report(experiments.run_prop422(
            radius=a.radius, u=a.u, v=a.v, delta=a.delta,
            alpha_override=a.alpha_override, max_ball=a.max_ball), a),
        {"--radius": (int, 12, "scan every word of F_2 up to this length"),
         "--u": (str, "aab", "first word of the ping-pong pair (u, v)"),
         "--v": (str, "bba", "second word of the ping-pong pair (u, v)"),
         "--delta": _DELTA,
         "--alpha-override": (parse_rational, None, "negative-control hook: "
                              "replace the derived additive offset"),
         "--max-ball": (int, 2_000_000, "error out (never truncate) beyond "
                        "this ball size"), **_OUTPUT}),
    "prop507": (
        "zero displacement vs divergent translation length along unipotent "
        "powers", lambda a: _emit_report(experiments.run_prop507(
            n=a.n, power_max=a.power_max, negative_control=a.negative_control,
            word_radius=a.word_radius, max_ball=a.max_ball), a),
        {"--n": (int, 3, "size n of the unipotent shear E_1n(1) in SL(n,Z)"),
         "--power-max": (int, 2 ** 20, "last power checked; the rows are "
                         "the powers 1, 2, 4, ... up to it"),
         "--negative-control": (bool, False, "replace the shear by a "
                                "hyperbolic element, which displaces"),
         "--word-radius": (int, 4, "word lengths up to this radius give the "
                           "word_length column (rows p <= 16), from one ball "
                           "table of half the radius, rounded up"),
         "--max-ball": (int, 1_000_000, "size cap of that half-radius ball "
                        "table; a larger ball is an error"), **_OUTPUT}),
    "ams-gap": (
        "Cartan-Jordan gap distribution over certified proximal samples",
        lambda a: _emit_report(experiments.run_ams_gap(
            dimension=a.dim, samples=a.samples, r=a.r, epsilon=a.epsilon,
            seed=a.seed, diagonal_only=a.diagonal_only,
            gap_bound=a.gap_bound), a),
        {"--dim": ((2, 3), 2, "dimension d of the SL(d,R) draws"),
         "--samples": (int, 1000, "number of random draws"),
         "--r": _R, "--epsilon": _EPSILON,
         "--seed": (int, _REQUIRED, "mandatory: the run is randomized"),
         "--diagonal-only": (bool, False, "draw diagonal matrices, with no "
                             "random conjugator"),
         "--gap-bound": (float, None, "pass bound on the largest gap "
                         "(default: calibrated per dimension)"), **_OUTPUT}),
    "depth-roots": (
        "bounded-depth-roots certificates for integer matrices from a file",
        lambda a: _emit_report(experiments.run_depth_roots(
            load_matrix_file(a.file, integer=True), box_bound=a.box_bound), a),
        {"--file": (str, _REQUIRED, "JSON matrix or array of matrices"),
         "--box-bound": (int, None, "entry bound of the exhaustive root "
                         "search (default: min(ceil(K) + 1, b_max(n)))"),
         **_OUTPUT}),
    "pingpong": (
        "certify a ping-pong pair or search for a certified power",
        _cmd_pingpong,
        {"--u": (str, None, "first word (certify mode)"),
         "--v": (str, None, "second word (certify mode)"),
         "--find-f": (str, None, "cyclically reduced word f (search mode)"),
         "--find-conjugator": (str, None, "generator a for the pair "
                               "(f^N, a f^N a^-1) (search mode; default a)"),
         "--n-max": (int, None, "largest power N tried (search mode; "
                     "default 32)"),
         "--delta": _DELTA, "--rank": _RANK, "--out": _OUT}),
    "contortion": (
        "finite-quotient witness that a power escapes the given conjugacy "
        "classes", _cmd_contortion,
        {"--gamma": (str, _REQUIRED, "JSON integer matrix"),
         "--rep": (list, _REQUIRED, "JSON class representative (repeatable)"),
         "--out": _OUT}),
    "word": (
        "ad-hoc word-algebra queries", _cmd_word,
        {"--rank": _RANK, "--delta": _DELTA, "--out": _OUT,
         "op": (tuple(_WORD_OPS), _REQUIRED, "multiply takes one or more "
                "words, gromov two and an optional base point, bound three "
                "(g u v), the others one"),
         "args": (list, _REQUIRED, "word arguments in a..z/A..Z notation")}),
    "matgeo": (
        "ad-hoc matrix projections", _cmd_matgeo,
        {"--matrix": (str, None, "JSON rows, entries int/float/'p/q'"),
         "--file": (str, None, "read the matrix from this JSON file"),
         "--r": _R, "--epsilon": _EPSILON,
         "--samples": (int, 1000, "projective sample points that proximal "
                       "tests"), "--out": _OUT,
         "op": (tuple(_MATGEO_OPS), _REQUIRED, "cartan and jordan print a "
                "vector, norm, displacement and gap a real, unipotent "
                "true/false of an integer matrix, proximal a certificate")}),
}


def _help(prog: str, about: str, flags: dict) -> str:
    """The --help text of one flag table; its first line is the usage."""
    usage = ["[-h]"]
    rows = [("-h, --help", "show this help message and exit")]
    for name, (conv, default, text) in flags.items():
        if isinstance(conv, (tuple, dict)):
            meta = "{" + ",".join(map(str, conv)) + "}"
        else:
            meta = name.lstrip("-").upper().replace("-", "_")
        if name[0] == "-":
            shown = name if conv is bool else f"{name} {meta}"
        else:
            shown = (f"[{name} ...]" if conv is list else f"{meta} ..."
                     if isinstance(conv, dict) else meta)
        usage.append(shown if default is _REQUIRED or name[0] != "-"
                     else f"[{shown}]")
        if isinstance(conv, dict):
            rows += [(command, spec[0]) for command, spec in conv.items()]
        else:
            rows.append((shown, text))
    width = max(len(left) for left, _ in rows) + 2
    return f"usage: {prog} {' '.join(usage)}\n\n{about}\n\n" + "".join(
        f"  {left:{width}}{right}".rstrip() + "\n" for left, right in rows)


def _fail(prog: str, flags: dict, message: str):
    """Refuse a call: the table's usage line, the error, exit 2."""
    usage = _help(prog, "", flags).partition("\n")[0]
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _scan(prog: str, about: str, flags: dict, argv: list) -> tuple:
    """Read argv against one flag table as the standard library's option
    parser does: the values by name, defaults included, and the strings
    nothing read, which the table that names a subcommand reports, its
    own and the subcommand's, as unrecognized.  A usage error exits 2 in
    that parser's words; -h, --help and --version print and exit 0 where
    they are read."""
    names = ["-h", "--help", *(name for name in flags if name[0] == "-")]
    fail = functools.partial(_fail, prog, flags)

    def read(arg: str):  # None for a value, else (flag, its =value or None)
        flag, eq, value = arg.partition("=")
        if arg in names:
            return arg, None
        if eq and flag in names:
            return flag, value
        hits = [name for name in names
                if arg[:2] == "--" and len(flag) > 2 and name.startswith(flag)]
        if len(hits) > 1:
            fail(f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
        if (arg[:1] != "-" or len(arg) == 1 or " " in arg
                or re.fullmatch(r"-\d+|-\d*\.\d+", arg)):
            return None
        return arg, None  # a flag of no table here

    reads = [read(arg) for arg in argv] + [("", None)]  # no value at the end
    places = [name for name in flags if name[0] != "-"]
    values, extras, i = {}, [], 0
    while i < len(argv):
        arg, hit, i = argv[i], reads[i], i + 1
        if hit is None and not places:
            extras.append(arg)
            continue
        name, value = hit or (places[0], arg)
        conv = flags.get(name, (None,))[0]
        if name in ("-h", "--help") or conv is bool:
            if value is not None:
                fail(f"argument {name if conv else '-h/--help'}: ignored "
                     f"explicit argument {value!r}")
            if conv is None or name == "--version":
                sys.stdout.write(f"dispgeo {__version__}\n" if conv
                                 else _help(prog, about, flags))
                raise SystemExit(0)
            values[name] = True
            continue
        if conv is None:
            extras.append(arg)
            continue
        if value is None:
            if reads[i] is not None:
                fail(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        kind = (type(next(iter(conv))) if isinstance(conv, (tuple, dict))
                else str if conv is list else conv)
        try:
            converted = kind(value)
        except (TypeError, ValueError):
            fail(f"argument {name}: invalid "
                 f"{kind.__name__.removeprefix('parse_')} value: {value!r}")
        if isinstance(conv, (tuple, dict)) and converted not in conv:
            fail(f"argument {name}: invalid choice: {converted!r} (choose "
                 f"from {', '.join(map(repr, conv))})")
        values[name] = (values.get(name, []) + [converted] if conv is list
                        else converted)
        if hit is None and conv is not list:
            places.pop(0)
        if isinstance(conv, dict):  # the subcommand reads the rest
            found, rest = _scan(f"{prog} {value}", conv[value][0],
                                conv[value][2], argv[i:])
            if extras + rest:
                fail(f"unrecognized arguments: {' '.join(extras + rest)}")
            return {**found, **values}, []
    missing = [name for name, spec in flags.items()
               if spec[1] is _REQUIRED and name not in values]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    defaults = {name: spec[1] for name, spec in flags.items()}
    return {**defaults, **values}, extras


def build_parser(argv) -> SimpleNamespace:
    """The namespace the handlers read, from one scan of argv against the
    command table.  It parses rather than builds a parser; the name stays
    because ``perfbench/tracer.py`` traces the parse under it."""
    top = {"--version": (bool, False, "show program's version number and "
                         "exit"), "command": (_COMMANDS, _REQUIRED, "")}
    values = _scan("dispgeo", _ABOUT, top, list(argv))[0]
    return SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value
                              for name, value in values.items()})


def main(argv=None) -> int:
    # the command's collections skip the heap that importing built; the
    # unfreeze hands it back on every exit, SystemExit included
    gc.freeze()
    try:
        args = build_parser(sys.argv[1:] if argv is None else argv)
        started = time.monotonic()
        try:
            code = _COMMANDS[args.command][1](args)
        except (DispgeoError, ValueError, OSError) as exc:
            sys.stderr.write(f"dispgeo {args.command}: "
                             f"{type(exc).__name__}: {exc}\n")
            return 1
        sys.stderr.write(f"[dispgeo] {args.command} finished in "
                         f"{time.monotonic() - started:.2f}s\n")
        return code
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
