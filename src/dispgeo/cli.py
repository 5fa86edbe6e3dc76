"""Command-line harness.

Subcommands map one-to-one onto the experiment runners plus ad-hoc word
and matrix queries.  Reports are written atomically when --out is given,
otherwise to stdout; wall-clock timing goes to stderr so report bytes
depend only on the config.  Exit status is 0 exactly when every assertion
of the run passed, and 2 on usage errors.  A call that names a subcommand
first builds that subparser alone; help and errors read the same.  Each
subparser names its handler as its ``run`` default, and ``main`` calls it.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

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
    certificate_document,
    load_matrix_file,
    parse_int_matrix_text,
    parse_matrix_text,
    parse_rational,
    render_rational,
    render_real,
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


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report to this path "
                                 "(atomic temp-file + rename)")
    p.add_argument("--format", choices=("csv", "report"), default="csv")


_WORD_ARITY = {"length": (1, 1), "multiply": (1, None), "invert": (1, 1),
               "cyclic": (1, 1), "translation": (1, 1), "stable": (1, 1),
               "gromov": (2, 3), "acr": (1, 1), "bound": (3, 3)}


_COMMANDS = ("prop422", "prop507", "ams-gap", "depth-roots", "pingpong",
             "contortion", "word", "matgeo")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a subcommand name, with that subparser only."""
    parser = argparse.ArgumentParser(
        prog="dispgeo",
        description="Displacement geometry toolkit: word metrics, "
                    "ping-pong certificates, matrix projections, and the "
                    "experiments built on them.")
    parser.add_argument("--version", action="version",
                        version=f"dispgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(_COMMANDS) + "}" if command else None))

    if command in (None, "prop422"):
        p = sub.add_parser("prop422", help="exhaustive word-length vs stable-"
                           "norm bound scan over a free-group ball")
        p.add_argument("--radius", type=int, default=12)
        p.add_argument("--u", default="aab")
        p.add_argument("--v", default="bba")
        p.add_argument("--delta", type=parse_rational, default=Fraction(0))
        p.add_argument("--alpha-override", type=parse_rational, default=None,
                       help="negative-control hook: replace the derived "
                            "additive offset")
        p.add_argument("--max-ball", type=int, default=2_000_000,
                       help="error out (never truncate) beyond this ball size")
        _add_output_flags(p)
        p.set_defaults(run=lambda a: _emit_report(experiments.run_prop422(
            radius=a.radius, u=a.u, v=a.v, delta=a.delta,
            alpha_override=a.alpha_override, max_ball=a.max_ball), a))

    if command in (None, "prop507"):
        p = sub.add_parser("prop507", help="zero displacement vs divergent "
                           "translation length along unipotent powers")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--power-max", type=int, default=2 ** 20)
        p.add_argument("--negative-control", action="store_true")
        p.add_argument("--word-radius", type=int, default=4,
                       help="word lengths up to this radius give the "
                       "word_length column (rows p <= 16), from one ball "
                       "table of half the radius, rounded up")
        p.add_argument("--max-ball", type=int, default=1_000_000,
                       help="size cap of that half-radius ball table; a "
                       "larger ball is an error")
        _add_output_flags(p)
        p.set_defaults(run=lambda a: _emit_report(experiments.run_prop507(
            n=a.n, power_max=a.power_max, negative_control=a.negative_control,
            word_radius=a.word_radius, max_ball=a.max_ball), a))

    if command in (None, "ams-gap"):
        p = sub.add_parser("ams-gap", help="Cartan-Jordan gap distribution "
                           "over certified proximal samples")
        p.add_argument("--dim", type=int, default=2, choices=(2, 3))
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--r", type=float, default=0.5)
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--seed", type=int, required=True,
                       help="mandatory: the run is randomized")
        p.add_argument("--diagonal-only", action="store_true")
        p.add_argument("--gap-bound", type=float, default=None)
        _add_output_flags(p)
        p.set_defaults(run=lambda a: _emit_report(experiments.run_ams_gap(
            dimension=a.dim, samples=a.samples, r=a.r, epsilon=a.epsilon,
            seed=a.seed, diagonal_only=a.diagonal_only,
            gap_bound=a.gap_bound), a))

    if command in (None, "depth-roots"):
        p = sub.add_parser("depth-roots", help="bounded-depth-roots "
                           "certificates for integer matrices from a file")
        p.add_argument("--file", required=True,
                       help="JSON matrix or array of matrices")
        p.add_argument("--box-bound", type=int, default=None)
        _add_output_flags(p)
        p.set_defaults(run=lambda a: _emit_report(experiments.run_depth_roots(
            load_matrix_file(a.file, integer=True), box_bound=a.box_bound), a))

    if command in (None, "pingpong"):
        p = sub.add_parser("pingpong", help="certify a ping-pong pair or "
                           "search for a certified power")
        p.add_argument("--u", help="first word (certify mode)")
        p.add_argument("--v", help="second word (certify mode)")
        p.add_argument("--find-f", help="cyclically reduced word f "
                                        "(search mode)")
        p.add_argument("--find-conjugator",
                       help="generator a for the pair (f^N, a f^N a^-1) "
                            "(search mode; default a)")
        p.add_argument("--n-max", type=int,
                       help="largest power N tried (search mode; default 32)")
        p.add_argument("--delta", type=parse_rational, default=Fraction(0))
        p.add_argument("--rank", type=int, default=2)
        p.add_argument("--out")
        p.set_defaults(run=_cmd_pingpong)

    if command in (None, "contortion"):
        p = sub.add_parser("contortion", help="finite-quotient witness that "
                           "a power escapes the given conjugacy classes")
        p.add_argument("--gamma", required=True, help="JSON integer matrix")
        p.add_argument("--rep", action="append", required=True,
                       help="JSON class representative (repeatable)")
        p.add_argument("--prime-cap", type=int, default=10_000)
        p.add_argument("--out")
        p.set_defaults(run=_cmd_contortion)

    if command in (None, "word"):
        p = sub.add_parser("word", help="ad-hoc word-algebra queries")
        p.add_argument("op", choices=tuple(_WORD_ARITY))
        p.add_argument("args", nargs="*", help="word arguments in a..z/A..Z "
                                               "notation")
        p.add_argument("--rank", type=int, default=2)
        p.add_argument("--delta", type=parse_rational, default=Fraction(0))
        p.add_argument("--out")
        p.set_defaults(run=_cmd_word)

    if command in (None, "matgeo"):
        p = sub.add_parser("matgeo", help="ad-hoc matrix projections")
        p.add_argument("op", choices=("cartan", "jordan", "norm",
                                      "displacement", "gap", "unipotent",
                                      "proximal"))
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--matrix", help="JSON rows, entries int/float/'p/q'")
        g.add_argument("--file", help="read the matrix from this JSON file")
        p.add_argument("--r", type=float, default=0.5)
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--out")
        p.set_defaults(run=_cmd_matgeo)
    return parser


def _cmd_pingpong(args) -> int:
    if args.find_f is not None:
        if args.u is not None or args.v is not None:
            sys.stderr.write("pingpong: --find-f excludes --u and --v\n")
            return 2
        f = parse_word(args.find_f, args.rank)
        a = parse_word("a" if args.find_conjugator is None
                       else args.find_conjugator, args.rank)
        n, cert = find_ping_pong_pair(
            f, a, args.delta, 32 if args.n_max is None else args.n_max)
        doc = f"power = {n}\n" + certificate_document(cert)
        _emit(doc, args.out)
        return 0
    if args.find_conjugator is not None or args.n_max is not None:
        sys.stderr.write("pingpong: --find-conjugator and --n-max need "
                         "--find-f\n")
        return 2
    if args.u is None or args.v is None:
        sys.stderr.write("pingpong: need --u and --v, or --find-f\n")
        return 2
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
    witness = contortion_witness(gamma, reps, prime_cap=args.prime_cap)
    _emit(certificate_document(witness), args.out)
    return 0


def _cmd_word(args) -> int:
    rank = args.rank
    low, high = _WORD_ARITY[args.op]
    if len(args.args) < low or (high is not None and len(args.args) > high):
        bounds = str(low) if high == low else (
            f"{low}+" if high is None else f"{low}-{high}")
        sys.stderr.write(f"word {args.op}: expected {bounds} word "
                         f"argument(s), got {len(args.args)}\n")
        return 2
    words = [parse_word(a, rank) for a in args.args]
    op = args.op
    if op == "length":
        out = str(len(words[0]))
    elif op == "multiply":
        acc = Word.identity(rank)
        for w in words:
            acc = acc * w
        out = acc.to_str() or "<identity>"
    elif op == "invert":
        out = words[0].inverse().to_str() or "<identity>"
    elif op == "cyclic":
        dec = cyclic_reduce(words[0])
        out = (f"core = {dec.core.to_str() or '<identity>'}\n"
               f"conjugator = {dec.conjugator.to_str() or '<identity>'}")
    elif op == "translation":
        out = str(translation_length(words[0]))
    elif op == "stable":
        out = str(stable_norm(words[0]))
    elif op == "gromov":
        base = words[2] if len(words) > 2 else None
        out = render_rational(gromov_product(words[0], words[1], base).value)
    elif op == "acr":
        v = is_almost_cyclically_reduced(words[0], args.delta)
        out = (f"product = {render_rational(v.product)}\n"
               f"threshold = {render_rational(v.threshold)}\n"
               f"is_acr = {'true' if v.is_acr else 'false'}")
    else:  # bound
        pair = certify_ping_pong(words[1], words[2], args.delta)
        res = stable_norm_length_bound(words[0], pair)
        out = (f"lhs = {res.lhs}\nrhs = {render_rational(res.rhs)}\n"
               f"holds = {'true' if res.holds else 'false'}")
    _emit(out + "\n", args.out)
    return 0


def _load_one_matrix(args, integer: bool = False):
    if args.file is None:
        if integer:
            return parse_int_matrix_text(args.matrix)
        return _real_rows(parse_matrix_text(args.matrix))
    matrices = load_matrix_file(args.file, integer=integer)
    if len(matrices) != 1:
        raise ParseError(f"expected one matrix, got {len(matrices)}")
    return matrices[0]


def _cmd_matgeo(args) -> int:
    op = args.op
    if op == "unipotent":
        m = _load_one_matrix(args, integer=True)
        _emit(("true" if is_unipotent(m) else "false") + "\n", args.out)
        return 0
    m = _load_one_matrix(args)
    if op == "proximal":
        cert = certify_proximal(m, args.r, args.epsilon, args.samples)
        _emit(certificate_document(cert), args.out)
        return 0
    if op == "cartan":
        vec = cartan_projection(m)
    elif op == "jordan":
        vec = jordan_projection(m)
    elif op == "norm":
        _emit(render_real(symmetric_space_norm(m)) + "\n", args.out)
        return 0
    elif op == "displacement":
        _emit(render_real(symmetric_space_displacement(m)) + "\n", args.out)
        return 0
    else:  # gap
        _emit(render_real(cartan_jordan_gap(m)) + "\n", args.out)
        return 0
    _emit("[" + ", ".join(render_real(x) for x in vec) + "]\n", args.out)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    started = time.monotonic()
    try:
        code = args.run(args)
    except (DispgeoError, ValueError, OSError) as exc:
        sys.stderr.write(f"dispgeo {args.command}: "
                         f"{type(exc).__name__}: {exc}\n")
        return 1
    sys.stderr.write(f"[dispgeo] {args.command} finished in "
                     f"{time.monotonic() - started:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
