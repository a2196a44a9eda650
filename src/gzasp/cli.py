"""Command-line front end.

Five subcommands: models (enumerate stable models), rewrite (apply one of
the five transformations), query (coherence and cautious/brave atom tests),
stats (sizes, classifications, fragment, growth bounds), and parse (format
normalization). Output is byte-deterministic for fixed input and flags; the
only nondeterministic field, wall-clock time, appears only under --timing.

Exit codes: 0 for success (true/coherent), 1 for a negative answer
(false/incoherent), 2 for any error, unexpected exceptions included.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .core import AggregateSpec, Atom, Program, atoms_of
from .errors import GzaspError
from .parser import parse, render, render_literal, emit_core2
from .reasoner import (
    DEFAULT_MAX_ATOMS,
    Semantics,
    brave,
    cautious,
    check_coherence,
    solve_via_rewriting,
    stable_models,
)
from .rewriter import (
    check_size_bounds,
    rewrite_c,
    rewrite_m,
    rewrite_n,
    rewrite_rew,
    rewrite_str,
)
from .semantics import AggregateClass, classify_aggregate

MAX_ATOMS_ENV = "GZASP_MAX_ATOMS"


class CliError(Exception):
    """User-facing invocation error; rendered to stderr with exit code 2."""


def _read_input(path: str) -> tuple[Program, bytes]:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        data = Path(path).read_bytes()
    return parse(data), data


def _max_atoms(args) -> int:
    if args.max_atoms is not None:
        return args.max_atoms
    raw = os.environ.get(MAX_ATOMS_ENV)
    if raw is None:
        return DEFAULT_MAX_ATOMS
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{MAX_ATOMS_ENV} must be an integer, got {raw!r}") from None


def _format_model(model) -> str:
    return "{" + ",".join(atom.name for atom in sorted(model)) + "}"


def _cmd_models(args) -> int:
    program, data = _read_input(args.file)
    semantics = Semantics(args.semantics)
    if args.via != "direct" and semantics is not Semantics.G:
        raise CliError(
            f"--via {args.via} computes G-stable models; use --semantics g"
        )
    limit = _max_atoms(args)
    started = time.perf_counter()
    if args.via == "direct":
        models = stable_models(program, semantics, max_atoms=limit)
    else:
        models = solve_via_rewriting(program, args.via, max_atoms=limit)
    wall_ms = (time.perf_counter() - started) * 1000
    if args.json:
        report = {
            "command": "models",
            "input_sha256": hashlib.sha256(data).hexdigest(),
            "semantics": semantics.value,
            "via": args.via,
            "models": [[atom.name for atom in sorted(model)] for model in models],
            "count": len(models),
        }
        if args.timing:
            report["wall_ms"] = round(wall_ms, 3)
        print(json.dumps(report))
    else:
        for model in models:
            print(_format_model(model))
        if args.timing:
            print(f"% wall_ms {wall_ms:.3f}")
    return 0 if len(models) else 1


_REWRITINGS = {
    "c": rewrite_c,
    "n": rewrite_n,
    "m": rewrite_m,
    "rew": rewrite_rew,
    "str": rewrite_str,
}


def _cmd_rewrite(args) -> int:
    program, _ = _read_input(args.file)
    rewriting = _REWRITINGS[args.method]
    if args.method in ("rew", "str"):
        result = rewriting(program, minimal_copies=args.minimal_copies)
    elif args.minimal_copies:
        raise CliError("--minimal-copies only applies to methods rew and str")
    else:
        result = rewriting(program)
    text = emit_core2(result) if args.dialect == "core2" else render(result)
    sys.stdout.write(text)
    return 0


def _cmd_query(args) -> int:
    program, _ = _read_input(args.file)
    semantics = Semantics(args.semantics)
    limit = _max_atoms(args)
    if args.mode == "coherent":
        if args.atom is not None:
            raise CliError("--atom only applies to cautious and brave queries")
        answer = check_coherence(program, semantics, max_atoms=limit)
    else:
        if args.atom is None:
            raise CliError(f"--atom is required for {args.mode} queries")
        atom = Atom(args.atom)
        if atom not in atoms_of(program):
            raise CliError(f"atom {args.atom!r} does not occur in the program")
        query = cautious if args.mode == "cautious" else brave
        answer = query(program, atom, semantics, max_atoms=limit)
    print("true" if answer else "false")
    return 0 if answer else 1


def _fragment_label(program: Program, classes: list) -> str:
    """Syntactic fragment of the program: negation and disjunction use,
    plus the strongest of the aggregate classes that occur."""
    constructs = []
    if any(
        getattr(lit, "negation_depth", 0) for rule in program for lit in rule.body
    ):
        constructs.append("~")
    if any(len(rule.head) > 1 for rule in program):
        constructs.append("∨")
    if not classes:
        aggregate_part = "∅"
    elif AggregateClass.NONCONVEX in classes:
        aggregate_part = "N"
    elif AggregateClass.CONVEX in classes:
        aggregate_part = "C"
    else:
        aggregate_part = "M"
    return "{" + ",".join(constructs) + "} × " + aggregate_part


def _cmd_stats(args) -> int:
    program, _ = _read_input(args.file)
    report = check_size_bounds(program)
    specs = [lit for rule in program for lit in rule.body if isinstance(lit, AggregateSpec)]
    classes = [classify_aggregate(spec) for spec in specs]
    lines = [
        f"atoms {report.atoms}",
        f"size {report.size_in}",
        f"fragment {_fragment_label(program, classes)}",
    ]
    for spec, found in zip(specs, classes):
        lines.append(f"aggregate {render_literal(spec)} {found.name}")
    lines.append(f"size_rew {report.size_rew}")
    lines.append(f"size_str {report.size_str}")
    lines.append(f"bound_rew {report.rew_bound} {'ok' if report.rew_ok else 'exceeded'}")
    lines.append(f"bound_str {report.str_bound} {'ok' if report.str_ok else 'exceeded'}")
    print("\n".join(lines))
    return 0


def _cmd_parse(args) -> int:
    program, _ = _read_input(args.file)
    sys.stdout.write(render(program))
    return 0


@functools.cache  # built on the first call, not at import; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gzasp",
        description="Stable models of ground programs with aggregates, "
        "under both the aggregate-keeping and aggregate-grounding reducts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_input(sub):
        sub.add_argument("file", help="program file, or - for stdin")

    models = commands.add_parser("models", help="enumerate stable models")
    add_input(models)
    models.add_argument(
        "--semantics",
        choices=("g", "f"),
        default="g",
        help="which reduct defines stability (default: g)",
    )
    models.add_argument(
        "--via",
        choices=("direct", "rew", "str"),
        default="direct",
        help="solve directly, or compile through an aggregate-guarding "
        "rewriting (G-semantics only)",
    )
    models.add_argument("--max-atoms", type=int, default=None)
    models.add_argument("--json", action="store_true")
    models.add_argument("--timing", action="store_true")
    models.set_defaults(handler=_cmd_models)

    rewrite = commands.add_parser("rewrite", help="apply a transformation")
    add_input(rewrite)
    rewrite.add_argument("--method", choices=tuple(_REWRITINGS), required=True)
    rewrite.add_argument(
        "--minimal-copies",
        action="store_true",
        help="copy rules only for aggregate-domain atoms (rew and str)",
    )
    rewrite.add_argument("--dialect", choices=("canonical", "core2"), default="canonical")
    rewrite.set_defaults(handler=_cmd_rewrite)

    query = commands.add_parser("query", help="decision queries")
    add_input(query)
    query.add_argument("--mode", choices=("coherent", "cautious", "brave"), required=True)
    query.add_argument("--atom", default=None)
    query.add_argument(
        "--semantics",
        choices=("g", "f"),
        default="g",
        help="which reduct defines stability (default: g)",
    )
    query.add_argument("--max-atoms", type=int, default=None)
    query.set_defaults(handler=_cmd_query)

    stats = commands.add_parser("stats", help="sizes, classes, growth bounds")
    add_input(stats)
    stats.set_defaults(handler=_cmd_stats)

    normalize = commands.add_parser("parse", help="parse and re-render")
    add_input(normalize)
    normalize.set_defaults(handler=_cmd_parse)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, GzaspError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a crash must not read as exit 1, "false"
        detail = " ".join(str(err).split())
        name = type(err).__name__
        print(f"error: internal {name}{': ' + detail if detail else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
