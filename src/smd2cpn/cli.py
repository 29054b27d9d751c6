"""Command-line pipeline: translate / check / simulate / equiv.

Exit codes: 0 success (or equivalent), 1 usage error, 2 parse or
validation error, 3 property violation or inequivalence.  Results go to
stdout or the output files; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import emit, oracle, smdl
from .translator import ModelInvalidError, TranslationConfig, translate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PROPERTY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="smd2cpn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate an .smdl file to CPN Tools XML")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output .cpn path")
    p.add_argument("--dot", help="also write a DOT rendering")
    p.add_argument("--event-capacity", type=_at_least_one, default=1,
                   help="environment tokens per event (default 1)")

    p = sub.add_parser("check", help="validate, translate and build the XML, writing nothing")
    p.add_argument("input")

    p = sub.add_parser("simulate", help="translate and explore the reachable markings")
    p.add_argument("input")
    p.add_argument("--bound", type=_at_least_one, default=100_000,
                   help="exploration cap in distinct markings (default 100000)")
    p.add_argument("--event-capacity", type=_at_least_one, default=1)

    p = sub.add_parser("equiv", help="check trace equivalence against the translation")
    p.add_argument("input")
    p.add_argument("--depth", type=_at_least_one, default=8,
                   help="lockstep move bound (default 8); a pair is checked once at any depth")
    p.add_argument("--event-capacity", type=_at_least_one, default=1)
    return parser


def _load_model(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _InputError(f"cannot read {path}: {err}")
    try:
        model = smdl.parse(text)
    except smdl.SmdlSyntaxError as err:
        raise _InputError(f"{path}: {err}")
    return model


class _InputError(Exception):
    pass


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise _InputError(f"cannot write {path}: {err}")


def _translate(path: str, model, event_capacity: int = 1):
    try:
        return translate(model, TranslationConfig(event_capacity=event_capacity))
    except ModelInvalidError as err:
        raise _InputError(f"{path}: {err}")


def _cmd_translate(args) -> int:
    model = _load_model(args.input)
    started = time.perf_counter()
    net, _ = _translate(args.input, model, args.event_capacity)
    positions = emit.layout(net)
    document = emit.emit_cpn_xml(net, positions)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    _write(args.output, document)
    if args.dot:
        _write(args.dot, emit.emit_dot(net))
    print(f"places={len(net.places)} transitions={len(net.transitions)} "
          f"arcs={len(net.arcs)} time_ms={elapsed_ms:.1f}")
    return EXIT_OK


def _cmd_check(args) -> int:
    net, _ = _translate(args.input, _load_model(args.input))
    emit.emit_cpn_xml(net)
    print("ok")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = _load_model(args.input)
    net, tmap = _translate(args.input, model, args.event_capacity)
    result = oracle.check_control_safety(net, tmap, bound=args.bound)
    safety = "held" if result.ok else "violated"
    suffix = " (truncated)" if result.truncated else ""
    print(f"reachable_states={result.explored}{suffix} one_safety={safety}")
    if not result.ok:
        for line in result.violations[:20]:
            print(line, file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def _cmd_equiv(args) -> int:
    model = _load_model(args.input)
    net, tmap = _translate(args.input, model, args.event_capacity)
    result = oracle.check_trace_equivalence(
        model, net, tmap, depth=args.depth, event_capacity=args.event_capacity)
    if result.equivalent:
        print(f"equivalent depth={args.depth}")
        return EXIT_OK
    print(oracle.format_counterexample(model, result))
    return EXIT_PROPERTY


_COMMANDS = {
    "translate": _cmd_translate,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "equiv": _cmd_equiv,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _InputError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INPUT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        # the parser and the expression walkers recurse on the model's depth
        print(f"error: {args.input}: model is nested too deeply to process",
              file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
