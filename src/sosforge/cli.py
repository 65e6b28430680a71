"""Command line entry point. Each command imports the engine modules it runs."""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import BudgetExceeded, SosError, StateCapExceeded
from .parser import parse_spec, parse_term
from .terms import render_term
from .validator import check_all, violations_to_json

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _read_spec(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise OSError(f"cannot decode {path!r} as UTF-8: {e.reason} at byte {e.start}") from None
    return parse_spec(text)


def _load_spec(path: str):
    """Parse a spec file and refuse it unless it meets the rule format."""
    spec = _read_spec(path)
    spec.check()
    return spec


def _emit(data) -> None:
    import json

    print(json.dumps(data, indent=2))


def cmd_validate(args) -> int:
    spec = _read_spec(args.spec)
    violations = check_all(spec)
    if args.json:
        _emit(violations_to_json(violations))
    elif not violations:
        print("no violations")
    else:
        for v in violations:
            print(v)
    return EXIT_OK if not violations else EXIT_FALSE


def cmd_simulate(args) -> int:
    from . import simulator

    spec = _load_spec(args.spec)
    term = parse_term(args.term, spec)
    steps = simulator.step(spec, term)
    if args.json:
        _emit(simulator.steps_to_json(steps))
        return EXIT_OK
    print("Possible steps:")
    for s in steps:
        print(f" {s}")
    return EXIT_OK


def cmd_bisim(args) -> int:
    from . import bisim

    spec = _load_spec(args.spec)
    p = parse_term(args.term1, spec)
    q = parse_term(args.term2, spec)
    ok, witness = bisim.bisimilar(spec, p, q, args.state_cap)
    if args.json:
        _emit({"bisimilar": ok, "witness": witness.to_json() if witness else None})
    elif ok:
        assert witness is not None
        lines = ["true\n"]
        lines += [f" < {render_term(p)} ; {render_term(q)} >\n" for p, q in witness.pairs]
        sys.stdout.write("".join(lines))
    else:
        print("false")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_eq(args) -> int:
    from . import bisim

    spec = _load_spec(args.spec)
    ok, witness = bisim.are_equal(spec, args.const1, args.const2, args.state_cap)
    if args.json:
        _emit({"bisimilar": ok, "witness": witness.to_json() if witness else None})
    elif ok:
        assert witness is not None
        print(f"< true ; {witness} >")
    else:
        print("< false >")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_normalize(args) -> int:
    from . import axioms

    spec = _load_spec(args.spec)
    term = parse_term(args.term, spec)
    budget = axioms.NormalizeBudget(max_rewrites=args.budget) if args.budget is not None else None
    result = axioms.normalize(spec, term, budget)
    if args.json:
        _emit({"term": render_term(result)})
    else:
        print(render_term(result))
    return EXIT_OK


def cmd_axioms(args) -> int:
    from . import axioms

    spec = _load_spec(args.spec)
    if args.json:
        _emit(axioms.axiom_report_json(spec))
    else:
        print(axioms.axiom_report_text(spec), end="")
    return EXIT_OK


def cmd_comm(args) -> int:
    from . import commform

    spec = _load_spec(args.spec)
    report = commform.check_comm(spec)
    if args.emit_formats:
        derived = commform.formats_spec(spec, report)
        with open(args.emit_formats, "w", encoding="utf-8") as f:
            f.write(commform.render_spec(derived))
    if args.json:
        _emit(commform.comm_report_json(report))
    else:
        print(commform.comm_report_text(spec, report), end="")
    return EXIT_OK if not report.failed else EXIT_FALSE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls of `main`."""
    ap = argparse.ArgumentParser(
        prog="sosforge",
        description="Workbench for rule-based language specifications",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="specification file (.sos)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check rule and definition well-formedness")

    p = add("simulate", cmd_simulate, "list the one-step transitions of a term")
    p.add_argument("term")

    p = add("bisim", cmd_bisim, "decide strong bisimilarity of two terms")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--state-cap", type=_positive_int, default=None, metavar="N")

    p = add("eq", cmd_eq, "decide bisimilarity of two defined constants")
    p.add_argument("const1")
    p.add_argument("const2")
    p.add_argument("--state-cap", type=_positive_int, default=None, metavar="N")

    p = add("normalize", cmd_normalize, "rewrite a term to its normal form")
    p.add_argument("term")
    p.add_argument("--budget", type=_positive_int, default=None, metavar="N",
                   help="rewrite budget (default 10000)")

    add("axioms", cmd_axioms, "print the equation schema instance")

    p = add("comm", cmd_comm, "check binary operators for commutativity")
    p.add_argument("--emit-formats", metavar="PATH", default=None,
                   help="write the spec with proved attributes to PATH")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (StateCapExceeded, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return EXIT_BUDGET
    except (SosError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
