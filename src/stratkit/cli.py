"""Command-line surface: run, query, analyze, laws, lint.

Exit codes, shared by every subcommand:
  0  success
  1  analysis findings (dead cases, NOT PROVEN, law failure, lint hits)
  2  usage or parse errors, or a stdout closed by its reader
  3  the run ended in Failure (or a query had no result)
  4  fuel ran out

Each command prints its results and returns its exit code. It imports
the analyses it uses itself, so `run` and `query` start without them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dsl import load_program, load_query_program
from .errors import SignatureError, StratkitError
from .files import load_term, term_to_sexpr
from .interp import DEFAULT_FUEL, Failure, FuelExhausted, Success, evaluate
from .queries import NO_RESULT, get_monoid, MONOIDS, run_query
from .terms import validate_term


def run(args) -> int:
    """Apply PROGRAM's main strategy to TERM."""
    prog = load_program(args.signature, args.program)
    t = load_term(args.term)
    validate_term(prog.signature, t)
    out = evaluate(prog.main, t, prog.signature, fuel=args.fuel)
    if isinstance(out, Success):
        print(term_to_sexpr(out.term))
        return 0
    if isinstance(out, Failure):
        print("FAIL")
        return 3
    assert isinstance(out, FuelExhausted)
    print(f"DIVERGENT? steps={out.steps}")
    return 4


def query(args) -> int:
    """Run QUERYFILE's main query over TERM, combining with a monoid."""
    qprog = load_query_program(args.signature, args.queryfile)
    t = load_term(args.term)
    validate_term(qprog.signature, t)
    monoid = get_monoid(args.monoid)
    # constants are kind-checked as the query compiles, whole-term
    # extractions only once the extracted value exists
    result = run_query(qprog.signature, qprog.main, t, monoid)
    if result is NO_RESULT:
        print("NO-RESULT")
        return 3
    if isinstance(result, list):
        print("[" + ", ".join(term_to_sexpr(x) for x in result) + "]")
    elif result is None:
        print("none")
    else:
        print(result)
    return 0


def _type_text(t) -> str:
    return "untypable" if t is None else str(bool(t))


def _definitions(prog) -> list:
    """(label, body, params) of each definition, in order, then main."""
    items = [(f"def {name}", d.body, d.params) for name, d in prog.defs.items()]
    items.append(("main", prog.main, ()))
    return items


def _dead_choices(label: str, found: list) -> int:
    """Print each dead choice found in label's body; their number."""
    for path, left in found:
        print(f"{label}: dead choice at {path}: left operand {left} cannot fail")
    return len(found)


def _measure(text: str, sig):
    """The --measure option; each constructor it counts is declared in sig."""
    from .termination import parse_measure

    m = parse_measure(text)
    for constr in m.counts:
        if constr not in sig.by_constr:
            raise SignatureError(f"measure {text!r} counts an unknown constructor {constr!r}")
    return m


def fallibility(args) -> int:
    """Success/failure behavior of each definition and of main."""
    from .fallibility import Sf, scan_dead_choices, sf_analyse, sf_type_of

    prog = load_program(args.signature, args.program)
    findings = 0
    for label, body, params in _definitions(prog):
        value = sf_analyse(body, {p: Sf.ANY for p in params})
        ctx = {p: False for p in params}
        verdict = sf_type_of(body, ctx, strict=args.strict)
        found = scan_dead_choices(body, ctx) if args.strict else []
        print(f"{label}: sf={value} type={_type_text(verdict)}")
        findings += _dead_choices(label, found)
    return 1 if findings else 0


def reach(args) -> int:
    """Which rules can fire, per root sort; dead cases from --root."""
    from .reachability import OVER_REPORT_NOTE, reach_report

    prog = load_program(args.signature, args.program)
    rmap, dead = reach_report(prog.signature, prog.main, args.root)
    for sort in sorted(rmap):
        cases = ", ".join(sorted(rmap[sort]))
        print(f"{sort}: {{{cases}}}")
    for _case, diagnostic in dead:
        print(diagnostic)
    print(OVER_REPORT_NOTE)
    return 1 if dead else 0


def _termination_vectors(prog, m):
    """(label, termination vector under m) of each definition, in order,
    then main; parameters are unknown."""
    from .termination import ANY, term_type_of

    unknown = ((ANY,) * len(m), False)
    for label, body, params in _definitions(prog):
        yield label, term_type_of(body, m, {p: unknown for p in params})


def termination(args) -> int:
    """Prove (or fail to prove) termination under a measure."""
    from .termination import show_vec, verify_annotations

    prog = load_program(args.signature, args.program)
    m = _measure(args.measure, prog.signature)
    findings = 0
    for label, vec in _termination_vectors(prog, m):
        if vec is None:
            findings += 1
        print(f"{label}: {show_vec(vec)}")
    for diagnostic in verify_annotations(prog.rules.values(), m):
        findings += 1
        print(diagnostic)
    return 1 if findings else 0


def laws(args) -> int:
    """Check the algebraic laws against the interpreter."""
    from .laws import GenConfig, builtin_rules, builtin_signature, check_laws
    from .laws import check_scheme_properties, check_soundness, find_nonlaw_counterexamples

    cfg = GenConfig(seed=args.seed, cases=args.cases)
    sig = builtin_signature()
    rules = builtin_rules()
    checks = (
        lambda: check_laws(sig, rules, cfg),
        lambda: find_nonlaw_counterexamples(sig, rules, fuel=cfg.fuel),
        lambda: check_scheme_properties(sig, rules, cfg),
        lambda: [check_soundness(sig, rules, cfg, runs=max(10 * args.cases, 1000))],
    )
    failed = False
    for check in checks:
        for result in check():  # each group is printed once it is computed
            print(result.line())
            failed = failed or not result.passed
    return 1 if failed else 0


def lint(args) -> int:
    """All load checks, lints, and analysis findings in one pass."""
    from .fallibility import scan_dead_choices
    from .reachability import dead_case_report
    from .termination import verify_annotations

    prog = load_program(args.signature, args.program)
    # a bad --root or --measure is reported before any finding is printed
    dead = [] if args.root is None else dead_case_report(prog.signature, prog.main, args.root)
    m = _measure(args.measure, prog.signature)
    findings = 0
    for line in prog.lints:
        findings += 1
        print(f"lint: {line}")
    for label, body, params in _definitions(prog):
        findings += _dead_choices(label, scan_dead_choices(body, {p: False for p in params}))
    for _case, diagnostic in dead:
        findings += 1
        print(diagnostic)
    for label, vec in _termination_vectors(prog, m):
        if vec is None:
            findings += 1
            print(f"{label}: termination NOT PROVEN under {args.measure}")
    for diagnostic in verify_annotations(prog.rules.values(), m):
        findings += 1
        print(diagnostic)
    if not findings:
        print("clean")
    return 1 if findings else 0


def positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as "invalid positive_int value"
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    def new(make, name: str, doc: str, **kw) -> argparse.ArgumentParser:
        # --help only, as before: -h would be a new flag
        p = make(name, description=doc, allow_abbrev=False, add_help=False, **kw)
        p.add_argument("--help", action="help", help="Show this message and exit.")
        return p

    def command(group, fn, *files: str) -> argparse.ArgumentParser:
        p = new(group.add_parser, fn.__name__, fn.__doc__, help=fn.__doc__)
        p.set_defaults(command=fn)
        for name in files:
            p.add_argument(name, metavar=name.upper())
        return p

    parser = new(argparse.ArgumentParser, "stratkit",
                 "Strategic term rewriting with static analyses.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    p = command(commands, run, "signature", "program", "term")
    p.add_argument("--fuel", type=positive_int, default=DEFAULT_FUEL,
                   help="Evaluation step budget (default: %(default)s).")
    p = command(commands, query, "signature", "queryfile", "term")
    p.add_argument("--monoid", default="int-sum", choices=sorted(MONOIDS),
                   help="Result monoid (default: %(default)s).")

    doc = "Static analyses over a loaded program."
    analyze = new(commands.add_parser, "analyze", doc, help=doc).add_subparsers(
        title="analyses", metavar="ANALYSIS", required=True)
    p = command(analyze, fallibility, "signature", "program")
    p.add_argument("--strict", action="store_true",
                   help="Reject choices whose left operand cannot fail.")
    p = command(analyze, reach, "signature", "program")
    p.add_argument("--root", required=True, help="Sort of the run's root terms.")
    p = command(analyze, termination, "signature", "program")
    p.add_argument("--measure", default="depth",
                   help='Measure components, e.g. "count:Lam,depth" (default: %(default)s).')

    p = command(commands, laws)
    p.add_argument("--seed", type=int, default=2026, help="(default: %(default)s)")
    p.add_argument("--cases", type=positive_int, default=1000,
                   help="Cases per law and per scheme property; a case of a law is one "
                        "strategy per argument with a term. The non-laws always get "
                        "1000 (default: %(default)s).")
    p = command(commands, lint, "signature", "program")
    p.add_argument("--root", help="Root sort for the dead-case check.")
    p.add_argument("--measure", default="depth", help="(default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command in argv (default: the process's arguments) and
    return its exit code. A usage error exits 2 from inside argparse;
    a stdout closed by its reader exits 2 silently; every other error is
    one stderr line and exit 2."""
    try:
        try:
            args = _parser().parse_args(argv)  # --help prints here
            return args.command(args)
        finally:
            sys.stdout.flush()  # a closed pipe is seen here, not at shutdown
    except BrokenPipeError:
        # see "Note on SIGPIPE" in the signal module's documentation:
        # output still buffered goes to devnull when Python exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except StratkitError as exc:
        message = str(exc)
    except RecursionError:
        # strategies are walked on an explicit stack; the parser on nested
        # forms and the functions on nested rule patterns, rule_choice and
        # rule_seq recurse on the Python stack
        message = ("input nested too deeply: it exceeds the Python recursion "
                   f"limit of {sys.getrecursionlimit()} frames")
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
