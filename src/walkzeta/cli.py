"""Command line interface.

Usage examples::

    walkzeta charpoly --target U --graph6 'C~'
    walkzeta spectrum --target U+ --input petersen.edges --format csv
    walkzeta zeta --graph6 'Bw' --order 8 --oracle
    walkzeta verify --corpus builtin
    walkzeta distinguish shrikhande rook44

Exit codes: 0 success, 2 bad input, an option the command does not take
or failed validation, 3 identity violation, 4 size-guard violation, 5
numeric root finding or an eigenvalue solver did not converge, 141 a
reader closed stdout before the output was written (nothing goes to
stderr).  JSON output has a fixed key order and no wall-clock data, so
identical invocations are byte identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import groupby
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .exact import charpoly_exact
from .graphs import Graph, GraphFormatError, SizeGuardError, adjacency_matrix, parse_edge_list, parse_graph6
from .identities import vertex_determinant
from .operators import TARGETS, coin_weights, nonbacktracking_matrix, operator_matrix
from .spectra import DEFAULT_TOLERANCE, RootConvergenceError, compare, roots
from .spectra import map_adjacency_spectrum, map_random_walk_spectrum
from .zeta import (
    MAX_SERIES_ORDER,
    _check_oracle_size,
    edge_reciprocal,
    euler_product_oracle,
    ihara_reciprocal_bass_form,
    series_inverse,
)
from .experiments import (
    DEFAULT_SEED,
    DEFAULT_WEIGHT_TRIALS,
    builtin_corpus,
    named_graph,
    run_identity_suite,
    srg_distinguish,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IDENTITY = 3
EXIT_SIZE = 4
EXIT_ROOTS = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader closed

DEFAULT_ORDER = 8


# the options echoed as settings, each declared by the one command that reads it
_ECHOED = ("tolerance", "order", "seed")


def _settings(args) -> dict:
    """The echoed options this command declares, as the JSON and the text header show them."""
    return {name: getattr(args, name) for name in _ECHOED if hasattr(args, name)}


def _envelope(args, **fields) -> dict:
    return {"command": args.command, "settings": _settings(args), **fields}


def _header(args, *words) -> str:
    """The first line of text output: the command, its words, then its settings."""
    return " ".join([args.command, *words, *(f"{k}={v}" for k, v in _settings(args).items())])


def _load_graph(args) -> Graph:
    given = [s for s in (args.graph6, args.input) if s is not None]
    if len(given) != 1:
        raise GraphFormatError("provide exactly one of --graph6 or --input")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    return _read_graph_file(args.input)


def _read_graph_file(path: str) -> Graph:
    """Parse a graph file by its content, whatever its name.

    A graph6 string holds no whitespace, and every edge-list data line has
    two tokens, so a file with at most one token is graph6 and any other
    file an edge list.  A leading UTF-8 byte-order mark is skipped.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    return parse_graph6(text) if len(text.split()) <= 1 else parse_edge_list(text)


def _resolve_graph_spec(spec: str) -> Graph:
    """Name, file path or literal graph6 string, tried in that order."""
    try:
        return named_graph(spec)
    except KeyError:
        pass
    if os.path.exists(spec):
        return _read_graph_file(spec)
    try:
        return parse_graph6(spec)
    except GraphFormatError as exc:
        spec_error = f"{spec!r} is not a built-in graph name, an existing file or a graph6 string"
        raise GraphFormatError(f"{spec_error} ({exc})") from None


# the reprs json spells otherwise
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "True": "true", "False": "false", "None": "null"}


def _json(value, pad: str = "\n") -> str:
    """value as json.dumps(value, indent=2) writes it, pad the newline and indent it starts at,
    for dicts with str keys, lists, tuples, str, int, float, bool and None: one recursive
    pass, where json.dumps runs a pure-Python generator chain whenever indent is set."""
    if isinstance(value, float):
        text = float.__repr__(value)
    elif isinstance(value, str):
        return _json_string(value)
    elif isinstance(value, dict):
        inner = pad + "  "
        items = [f"{_json_string(k)}: {_json(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        items = [_json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"
    elif isinstance(value, bool) or value is None:
        text = repr(value)
    elif isinstance(value, int):
        text = int.__repr__(value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return _JSON_WORDS.get(text, text)


def cmd_charpoly(args) -> int:
    g = _load_graph(args)
    poly = charpoly_exact(operator_matrix(g, args.target))
    doc = _envelope(args, target=args.target, n=g.n, m=g.m, charpoly=poly.to_strings())
    if args.target == "U":
        exponent, det = g.m - g.n, vertex_determinant(g, coin_weights(g))
        doc["factored"] = {
            "circle_exponent": exponent,
            "walk_determinant": det.to_strings(),
        }
    if args.format == "json":
        print(_json(doc))
    else:
        print(_header(args, f"target={args.target}", f"n={g.n}", f"m={g.m}"))
        print(poly.format("x"))
        if args.target == "U":
            print(f"factored: (x^2 - 1)^{exponent} * ({det.format('x')})")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError("tolerance must be finite and positive")
    g = _load_graph(args)
    poly = charpoly_exact(operator_matrix(g, args.target))
    spectrum = roots(poly)

    mapped = verdict = None
    if args.target == "U" and g.m >= g.n or (
        args.target == "U+" and g.simple and g.connected and min(g.degrees) == max(g.degrees) >= 2
    ):
        # the closed form's vertex side, from LAPACK's symmetric solver: A for U+, and for U
        # D^(-1/2) A D^(-1/2), similar to T, whose spectrum lies in [-1, 1]
        a = np.array(adjacency_matrix(g).ints, dtype=np.float64)
        if args.target == "U":
            root_d = np.sqrt(g.degrees)
            walk = np.clip(np.linalg.eigvalsh(a / np.outer(root_d, root_d)), -1.0, 1.0)
            mapped = map_random_walk_spectrum(walk, g.m, g.n, args.tolerance)
        else:
            mapped = map_adjacency_spectrum(np.linalg.eigvalsh(a), g.degrees[0], g.m, g.n)
        verdict = compare(spectrum, mapped, args.tolerance)

    if args.format == "csv":
        print("re,im,operator")
        for z in spectrum.values:
            print(f"{z.real!r},{z.imag!r},{args.target}")
        return EXIT_IDENTITY if verdict is not None and not verdict.equal else EXIT_OK

    doc = _envelope(
        args, target=args.target, n=g.n, m=g.m, charpoly=poly.to_strings(),
        spectrum=[{"re": z.real, "im": z.imag} for z in spectrum.values],
        max_residual=spectrum.max_residual,
        mapped=None if mapped is None else [{"re": z.real, "im": z.imag} for z in mapped.values],
        verdict=None if verdict is None
        else {"equal": verdict.equal, "max_pair_distance": verdict.max_pair_distance},
    )
    if args.format == "json":
        print(_json(doc))
    else:
        print(_header(args, f"target={args.target}", f"n={g.n}", f"m={g.m}"))
        for z, copies in groupby(spectrum.values):  # a multiple root is copies of one double
            print(f"  {z.real:+.10f} {z.imag:+.10f}i  x{len(list(copies))}")
        if verdict is not None:
            status = "agrees" if verdict.equal else "DISAGREES"
            print(f"closed-form map {status} (max pair distance {verdict.max_pair_distance:.3e})")
    if verdict is not None and not verdict.equal:
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_zeta(args) -> int:
    if args.order < 1:
        raise ValueError("order must be >= 1")
    if args.order > MAX_SERIES_ORDER:
        raise SizeGuardError(f"zeta series limited to order {MAX_SERIES_ORDER}, got {args.order}")
    g = _load_graph(args)
    if args.oracle:
        _check_oracle_size(2 * g.m, args.order)
    nb = nonbacktracking_matrix(g)  # B - J0, for the edge form and the oracle
    edge = edge_reciprocal(g, charpoly_exact(nb))
    bass = ihara_reciprocal_bass_form(g)
    agree = bass == edge
    series = series_inverse(edge, args.order)

    # the vertex form is always a polynomial; its denominator of 1 stays for readers of the output
    doc = _envelope(
        args, n=g.n, m=g.m, edge_form=edge.to_strings(),
        bass_form={"numerator": bass.to_strings(), "denominator": ["1"]},
        forms_agree=agree, series=[str(c) for c in series],
    )
    oracle_matches = None
    if args.oracle:
        oracle = euler_product_oracle(nb, args.order)
        oracle_matches = oracle == series
        doc["oracle_series"] = [str(c) for c in oracle]
        doc["oracle_matches"] = oracle_matches

    if args.format == "json":
        print(_json(doc))
    else:
        print(_header(args, f"n={g.n}", f"m={g.m}"))
        print(f"edge form: {edge.format('t')}")
        print(f"vertex form: ({bass.format('t')}) / (1)")
        print(f"forms agree: {agree}")
        print("series:", " ".join(doc["series"]))
        if args.oracle:
            print("oracle:", " ".join(doc["oracle_series"]))
            print(f"oracle matches: {oracle_matches}")
    if not agree or oracle_matches is False:
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise ValueError("trials must be >= 0")
    corpus = builtin_corpus(args.seed)
    if args.corpus == "smoke":
        corpus = [e for e in corpus if e.graph.n <= 4]
    report = run_identity_suite(corpus, seed=args.seed, weight_trials=args.trials)
    if args.format == "json":
        print(_json(_envelope(args, corpus=args.corpus, report=report.to_dict())))
    else:
        print(_header(args, f"corpus={args.corpus}"))
        print(report.to_text())
    return EXIT_OK if report.passed else EXIT_IDENTITY


def cmd_distinguish(args) -> int:
    g = _resolve_graph_spec(args.left)
    h = _resolve_graph_spec(args.right)
    result = srg_distinguish(g, h)
    if args.format == "json":
        print(_json(_envelope(args, left=args.left, right=args.right, result=result.to_dict())))
    else:
        print(_header(args, args.left, "vs", args.right))
        if result.distinguished:
            print(f"distinguished at level {result.level} ({result.level_name})")
        else:
            print("indistinct through support of U^3")
    return EXIT_OK


def _add_input(sub):
    sub.add_argument("--graph6", help="graph6 string")
    sub.add_argument("--input", help="graph file: graph6 if it is one token, else an edge list")


def _add_format(sub, *extra):
    sub.add_argument("--format", choices=("json", "text", *extra), default="json",
                     help="output format (default json)")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="walkzeta",
        description="exact quantum-walk matrices, graph zeta functions and spectra",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("charpoly", help="characteristic polynomial of a walk matrix")
    p.add_argument("--target", choices=TARGETS, default="U")
    _add_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_charpoly)

    p = subs.add_parser("spectrum", help="numeric spectrum with closed-form cross-check")
    p.add_argument("--target", choices=TARGETS, default="U")
    _add_input(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="numeric comparison tolerance (default 1e-8)")
    _add_format(p, "csv")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("zeta", help="zeta reciprocal in both determinant forms")
    _add_input(p)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help="series truncation order (default 8)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the prime-cycle Euler product oracle")
    _add_format(p)
    p.set_defaults(func=cmd_zeta)

    p = subs.add_parser("verify", help="run the identity suite on the corpus")
    p.add_argument("--corpus", choices=("builtin", "smoke"), default="builtin")
    p.add_argument("--trials", type=int, default=DEFAULT_WEIGHT_TRIALS,
                   help=f"random per-arc weight lists per graph (default {DEFAULT_WEIGHT_TRIALS})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized corpus members (default 42)")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("distinguish", help="lowest support level separating two graphs")
    p.add_argument("left", help="graph name, file path or graph6 string")
    p.add_argument("right", help="graph name, file path or graph6 string")
    _add_format(p)
    p.set_defaults(func=cmd_distinguish)

    return parser, subs.choices


_PARSER, _COMMAND_PARSERS = _build_parser()


def main(argv=None) -> int:
    args, unknown = _PARSER.parse_known_args(argv)
    if unknown:  # reported against the command, whose usage lists what it takes
        _COMMAND_PARSERS[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except BrokenPipeError:  # a reader that closed stdout: not bad input, see entry_point
        raise
    except (ValueError, KeyError, OSError, RootConvergenceError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SizeGuardError):
            return EXIT_SIZE
        return EXIT_ROOTS if isinstance(exc, (RootConvergenceError, np.linalg.LinAlgError)) else EXIT_INPUT


def entry_point():
    """main() as a command: a reader that closes stdout early ends it quietly with EXIT_PIPE.

    Python's recipe (the signal module's notes on SIGPIPE): stdout is pointed
    at devnull, so the interpreter's last flush has nowhere to fail.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
