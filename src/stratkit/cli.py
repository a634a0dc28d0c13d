"""Command-line surface: run, query, analyze, laws, lint.

Exit codes, shared by every subcommand:
  0  success
  1  analysis findings (dead cases, NOT PROVEN, law failure, lint hits)
  2  usage or parse errors
  3  the run ended in Failure (or a query had no result)
  4  fuel ran out
"""

from __future__ import annotations

import sys

import click

from .dsl import load_program, load_query_program
from .errors import StratkitError
from .files import load_term, term_to_sexpr
from .interp import DEFAULT_FUEL, Failure, FuelExhausted, Success, evaluate
from .queries import NO_RESULT, check_query_kinds, get_monoid, MONOIDS
from .terms import validate_term


def _die(message: str, code: int) -> None:
    click.echo(message, err=True)
    sys.exit(code)


class _Main(click.Group):
    """The command group. Only the parser on nested forms recurses on the
    Python stack; input too deep for it is a usage error (exit 2) on one
    stderr line, not a traceback under the findings code. Each command
    imports the analyses it uses itself, so `run` and `query` start without them."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except RecursionError:
            _die(
                "input nested too deeply: it exceeds the Python recursion "
                f"limit of {sys.getrecursionlimit()} frames",
                2,
            )


@click.group(cls=_Main)
def main() -> None:
    """Strategic term rewriting with static analyses."""


@main.command()
@click.argument("signature", type=click.Path(exists=True, dir_okay=False))
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.argument("term", type=click.Path(exists=True, dir_okay=False))
@click.option("--fuel", default=DEFAULT_FUEL, show_default=True,
              type=click.IntRange(min=1), help="Evaluation step budget.")
def run(signature: str, program: str, term: str, fuel: int) -> None:
    """Apply PROGRAM's main strategy to TERM."""
    try:
        prog = load_program(signature, program)
        t = load_term(term)
        validate_term(prog.signature, t)
    except StratkitError as exc:
        _die(str(exc), 2)
    out = evaluate(prog.main, t, prog.signature, fuel=fuel)
    if isinstance(out, Success):
        click.echo(term_to_sexpr(out.term))
        return
    if isinstance(out, Failure):
        click.echo("FAIL")
        sys.exit(3)
    assert isinstance(out, FuelExhausted)
    click.echo(f"DIVERGENT? steps={out.steps}")
    sys.exit(4)


@main.command()
@click.argument("signature", type=click.Path(exists=True, dir_okay=False))
@click.argument("queryfile", type=click.Path(exists=True, dir_okay=False))
@click.argument("term", type=click.Path(exists=True, dir_okay=False))
@click.option("--monoid", "monoid_name", default="int-sum", show_default=True,
              type=click.Choice(sorted(MONOIDS)), help="Result monoid.")
def query(signature: str, queryfile: str, term: str, monoid_name: str) -> None:
    """Run QUERYFILE's main query over TERM, combining with a monoid."""
    from .queries import run_query

    try:
        qprog = load_query_program(signature, queryfile)
        t = load_term(term)
        validate_term(qprog.signature, t)
        monoid = get_monoid(monoid_name)
        check_query_kinds(qprog.main, monoid)
    except StratkitError as exc:
        _die(str(exc), 2)
    try:
        # whole-term extractions are only kind-checked against the
        # monoid once the extracted value exists
        result = run_query(qprog.signature, qprog.main, t, monoid)
    except StratkitError as exc:
        _die(str(exc), 2)
    if result is NO_RESULT:
        click.echo("NO-RESULT")
        sys.exit(3)
    if isinstance(result, list):
        click.echo("[" + ", ".join(term_to_sexpr(x) for x in result) + "]")
    elif result is None:
        click.echo("none")
    else:
        click.echo(str(result))


@main.group()
def analyze() -> None:
    """Static analyses over a loaded program."""


def _usage(fn, *args):
    """fn(*args), with a StratkitError from it reported as a usage error."""
    try:
        return fn(*args)
    except StratkitError as exc:
        _die(str(exc), 2)
        raise AssertionError  # unreachable


def _type_text(t) -> str:
    if t is None:
        return "untypable"
    return "True" if t else "False"


def _definitions(prog) -> list:
    """(label, body, params) of each definition, in order, then main."""
    items = [(f"def {name}", d.body, d.params) for name, d in prog.defs.items()]
    items.append(("main", prog.main, ()))
    return items


def _dead_choices(label: str, found: list) -> int:
    """Echo each dead choice found in label's body; their number."""
    for path, left in found:
        click.echo(f"{label}: dead choice at {path}: left operand {left} cannot fail")
    return len(found)


@analyze.command()
@click.argument("signature", type=click.Path(exists=True, dir_okay=False))
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--strict", is_flag=True,
              help="Reject choices whose left operand cannot fail.")
def fallibility(signature: str, program: str, strict: bool) -> None:
    """Success/failure behavior of each definition and of main."""
    from .fallibility import Sf, sf_analyse, sf_strict, sf_type_of

    prog = _usage(load_program, signature, program)
    findings = 0
    for label, body, params in _definitions(prog):
        value = sf_analyse(body, {p: Sf.ANY for p in params})
        ctx = {p: False for p in params}
        verdict, found = sf_strict(body, ctx) if strict else (sf_type_of(body, ctx), [])
        click.echo(f"{label}: sf={value} type={_type_text(verdict)}")
        findings += _dead_choices(label, found)
    sys.exit(1 if findings else 0)


@analyze.command()
@click.argument("signature", type=click.Path(exists=True, dir_okay=False))
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--root", required=True, help="Sort of the run's root terms.")
def reach(signature: str, program: str, root: str) -> None:
    """Which rules can fire, per root sort; dead cases from --root."""
    from .reachability import OVER_REPORT_NOTE, dead_case_report, reach_analyse

    prog = _usage(load_program, signature, program)
    rmap = _usage(reach_analyse, prog.signature, prog.main)
    dead = _usage(dead_case_report, prog.signature, prog.main, root)
    for sort in sorted(rmap):
        cases = ", ".join(sorted(rmap[sort]))
        click.echo(f"{sort}: {{{cases}}}")
    for _case, diagnostic in dead:
        click.echo(diagnostic)
    click.echo(OVER_REPORT_NOTE)
    sys.exit(1 if dead else 0)


@analyze.command()
@click.argument("signature", type=click.Path(exists=True, dir_okay=False))
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--measure", "measure_spec", default="depth", show_default=True,
              help='Measure components, e.g. "count:Lam,depth".')
def termination(signature: str, program: str, measure_spec: str) -> None:
    """Prove (or fail to prove) termination under a measure."""
    from .termination import ANY, parse_measure, show_vec, term_type_of, verify_annotations

    prog = _usage(load_program, signature, program)
    m = _usage(parse_measure, measure_spec)
    findings = 0
    unknown = ((ANY,) * len(m), False)
    for label, body, params in _definitions(prog):
        vec = term_type_of(body, m, {p: unknown for p in params})
        if vec is None:
            findings += 1
        click.echo(f"{label}: {show_vec(vec)}")
    for diagnostic in verify_annotations(prog.rules.values(), m):
        findings += 1
        click.echo(diagnostic)
    sys.exit(1 if findings else 0)


@main.command()
@click.option("--seed", default=2026, show_default=True, type=int)
@click.option("--cases", default=1000, show_default=True,
              type=click.IntRange(min=1))
def laws(seed: int, cases: int) -> None:
    """Check the algebraic laws against the interpreter."""
    from .laws import GenConfig, builtin_rules, builtin_signature, check_laws
    from .laws import check_scheme_properties, check_soundness, find_nonlaw_counterexamples

    cfg = GenConfig(seed=seed, cases=cases)
    sig = builtin_signature()
    rules = builtin_rules()
    failed = 0
    for result in check_laws(sig, rules, cfg):
        click.echo(result.line())
        if not result.passed:
            failed += 1
    for nonlaw in find_nonlaw_counterexamples(sig, rules, fuel=cfg.fuel):
        click.echo(nonlaw.line())
        if nonlaw.counterexample is None:
            failed += 1
    for prop in check_scheme_properties(sig, rules, cfg):
        click.echo(prop.line())
        if not prop.passed:
            failed += 1
    soundness = check_soundness(sig, rules, cfg, runs=max(10 * cases, 1000))
    click.echo(soundness.line())
    if soundness.failures:
        failed += 1
    sys.exit(1 if failed else 0)


@main.command()
@click.argument("signature", type=click.Path(exists=True, dir_okay=False))
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--root", default=None, help="Root sort for the dead-case check.")
@click.option("--measure", "measure_spec", default="depth", show_default=True)
def lint(signature: str, program: str, root: str | None, measure_spec: str) -> None:
    """All load checks, lints, and analysis findings in one pass."""
    from .fallibility import scan_dead_choices
    from .reachability import dead_case_report
    from .termination import ANY, parse_measure, term_type_of, verify_annotations

    prog = _usage(load_program, signature, program)
    findings = 0
    for line in prog.lints:
        findings += 1
        click.echo(f"lint: {line}")
    items = _definitions(prog)
    for label, body, params in items:
        findings += _dead_choices(label, scan_dead_choices(body, {p: False for p in params}))
    if root is not None:
        dead = _usage(dead_case_report, prog.signature, prog.main, root)
        for _case, diagnostic in dead:
            findings += 1
            click.echo(diagnostic)
    m = _usage(parse_measure, measure_spec)
    unknown = ((ANY,) * len(m), False)
    for label, body, params in items:
        if term_type_of(body, m, {p: unknown for p in params}) is None:
            findings += 1
            click.echo(f"{label}: termination NOT PROVEN under {measure_spec}")
    for diagnostic in verify_annotations(prog.rules.values(), m):
        findings += 1
        click.echo(diagnostic)
    if not findings:
        click.echo("clean")
    sys.exit(1 if findings else 0)


if __name__ == "__main__":
    main()
