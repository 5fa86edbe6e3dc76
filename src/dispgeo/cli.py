"""Command-line harness.

Subcommands map one-to-one onto the experiment runners plus ad-hoc word
and matrix queries.  Reports are written atomically when --out is given,
otherwise to stdout; wall-clock timing goes to stderr so report bytes
depend only on the config.  Exit status is 0 exactly when every assertion
of the run passed, and 2 on usage errors.  ``_COMMANDS`` gives each
subcommand its help line, handler and flag table; ``_scan`` reads argv
against the tables as the standard library's option parser would, and
``_help`` renders them.
"""

from __future__ import annotations

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


_WORD_ARITY = {"length": (1, 1), "multiply": (1, None), "invert": (1, 1),
               "cyclic": (1, 1), "translation": (1, 1), "stable": (1, 1),
               "gromov": (2, 3), "acr": (1, 1), "bound": (3, 3)}


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


# Each flag maps to (converter, default, help).  The converter is a
# callable, a tuple of choices (of its first entry's type), bool for a
# switch or list for a repeatable flag; the default may be _REQUIRED, or
# _ONE_OF for each flag of a required either/or group.  Names without
# dashes are positionals, after the flags: a list one takes the values
# left, and a dict one names the subcommand, whose table reads the rest.
_REQUIRED, _ONE_OF = object(), object()
_ABOUT = ("Displacement geometry toolkit: word metrics, ping-pong certificates,"
          " matrix projections, and the experiments built on them.")
_OUTPUT = {"--out": (str, None, "write the report to this path "
                     "(atomic temp-file + rename)"),
           "--format": (("csv", "report"), "csv", "")}

_COMMANDS = {
    "prop422": (
        "exhaustive word-length vs stable-norm bound scan over a free-group "
        "ball", lambda a: _emit_report(experiments.run_prop422(
            radius=a.radius, u=a.u, v=a.v, delta=a.delta,
            alpha_override=a.alpha_override, max_ball=a.max_ball), a),
        {"--radius": (int, 12, ""), "--u": (str, "aab", ""),
         "--v": (str, "bba", ""), "--delta": (parse_rational, Fraction(0), ""),
         "--alpha-override": (parse_rational, None, "negative-control hook: "
                              "replace the derived additive offset"),
         "--max-ball": (int, 2_000_000, "error out (never truncate) beyond "
                        "this ball size"), **_OUTPUT}),
    "prop507": (
        "zero displacement vs divergent translation length along unipotent "
        "powers", lambda a: _emit_report(experiments.run_prop507(
            n=a.n, power_max=a.power_max, negative_control=a.negative_control,
            word_radius=a.word_radius, max_ball=a.max_ball), a),
        {"--n": (int, 3, ""), "--power-max": (int, 2 ** 20, ""),
         "--negative-control": (bool, False, ""),
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
        {"--dim": ((2, 3), 2, ""), "--samples": (int, 1000, ""),
         "--r": (float, 0.5, ""), "--epsilon": (float, 0.05, ""),
         "--seed": (int, _REQUIRED, "mandatory: the run is randomized"),
         "--diagonal-only": (bool, False, ""),
         "--gap-bound": (float, None, ""), **_OUTPUT}),
    "depth-roots": (
        "bounded-depth-roots certificates for integer matrices from a file",
        lambda a: _emit_report(experiments.run_depth_roots(
            load_matrix_file(a.file, integer=True), box_bound=a.box_bound), a),
        {"--file": (str, _REQUIRED, "JSON matrix or array of matrices"),
         "--box-bound": (int, None, ""), **_OUTPUT}),
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
         "--delta": (parse_rational, Fraction(0), ""), "--rank": (int, 2, ""),
         "--out": (str, None, "")}),
    "contortion": (
        "finite-quotient witness that a power escapes the given conjugacy "
        "classes", _cmd_contortion,
        {"--gamma": (str, _REQUIRED, "JSON integer matrix"),
         "--rep": (list, _REQUIRED, "JSON class representative (repeatable)"),
         "--prime-cap": (int, 10_000, ""), "--out": (str, None, "")}),
    "word": (
        "ad-hoc word-algebra queries", _cmd_word,
        {"--rank": (int, 2, ""), "--delta": (parse_rational, Fraction(0), ""),
         "--out": (str, None, ""), "op": (tuple(_WORD_ARITY), _REQUIRED, ""),
         "args": (list, _REQUIRED, "word arguments in a..z/A..Z notation")}),
    "matgeo": (
        "ad-hoc matrix projections", _cmd_matgeo,
        {"--matrix": (str, _ONE_OF, "JSON rows, entries int/float/'p/q'"),
         "--file": (str, _ONE_OF, "read the matrix from this JSON file"),
         "--r": (float, 0.5, ""), "--epsilon": (float, 0.05, ""),
         "--samples": (int, 1000, ""), "--out": (str, None, ""),
         "op": (("cartan", "jordan", "norm", "displacement", "gap",
                 "unipotent", "proximal"), _REQUIRED, "")}),
}


def _help(prog: str, about: str, flags: dict) -> str:
    """The --help text of one flag table; its first line is the usage."""
    usage, either = ["[-h]"], []
    rows = [("-h, --help", "show this help message and exit")]
    for name, (conv, default, text) in flags.items():
        if isinstance(conv, (tuple, dict)):
            # a parser built for one subcommand still shows every name
            choices = _COMMANDS if isinstance(conv, dict) else conv
            meta = "{" + ",".join(map(str, choices)) + "}"
        else:
            meta = name.lstrip("-").upper().replace("-", "_")
        if name[0] == "-":
            shown = name if conv is bool else f"{name} {meta}"
        else:
            shown = (f"[{name} ...]" if conv is list else f"{meta} ..."
                     if isinstance(conv, dict) else meta)
        if default is _ONE_OF:
            either.append(shown)
        else:
            usage.append(shown if default is _REQUIRED or name[0] != "-"
                         else f"[{shown}]")
        if isinstance(conv, dict):
            rows += [(command, spec[0]) for command, spec in _COMMANDS.items()]
        else:
            rows.append((shown, text))
    if either:
        usage.insert(1, f"({' | '.join(either)})")
    width = max(len(left) for left, _ in rows) + 2
    return f"usage: {prog} {' '.join(usage)}\n\n{about}\n\n" + "".join(
        f"  {left:{width}}{right}".rstrip() + "\n" for left, right in rows)


def _scan(prog: str, about: str, flags: dict, argv: list) -> tuple:
    """Read argv against one flag table as the standard library's option
    parser does: the values by name, defaults included, and the strings
    nothing read, which the table that names a subcommand reports, its
    own and the subcommand's, as unrecognized.  A usage error exits 2 in
    that parser's words; -h, --help and --version print and exit 0 where
    they are read."""
    names = ["-h", "--help", *(name for name in flags if name[0] == "-")]
    either = [name for name, spec in flags.items() if spec[1] is _ONE_OF]

    def fail(message: str):
        usage = _help(prog, about, flags).partition("\n")[0]
        sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
        raise SystemExit(2)

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
            fail(f"argument {name}: invalid {kind.__name__} value: {value!r}")
        if isinstance(conv, (tuple, dict)) and converted not in conv:
            fail(f"argument {name}: invalid choice: {converted!r} (choose "
                 f"from {', '.join(map(repr, conv))})")
        rivals = [other for other in either if other != name
                  and other in values]
        if name in either and rivals:
            fail(f"argument {name}: not allowed with argument {rivals[0]}")
        values[name] = (values.get(name, []) + [converted] if conv is list
                        else converted)
        if hit is None and conv is not list:
            places.pop(0)
            if places and flags[places[0]][0] is list:
                values[places[0]] = []  # given now, even if it stays empty
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
    if either and not any(name in values for name in either):
        fail(f"one of the arguments {' '.join(either)} is required")
    defaults = {name: None if spec[1] is _ONE_OF else spec[1]
                for name, spec in flags.items()}
    return {**defaults, **values}, extras


def build_parser(command: str | None = None) -> SimpleNamespace:
    """The CLI parser; given a subcommand name, with that subcommand only.
    Its ``parse_args(argv)`` returns the namespace the handlers read."""
    commands = _COMMANDS if command is None else {command: _COMMANDS[command]}
    top = {"--version": (bool, False, "show program's version number and "
                         "exit"), "command": (commands, _REQUIRED, "")}

    def parse_args(argv) -> SimpleNamespace:
        values = _scan("dispgeo", _ABOUT, top, list(argv))[0]
        return SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value
                                  for name, value in values.items()})

    return SimpleNamespace(parse_args=parse_args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
