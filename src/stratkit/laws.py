"""Checks of the algebraic laws of the core combinators and of the
traversal schemes.

The laws are equalities between strategy expressions (some guarded by a
constant/non-constant side condition on the term). Each is checked on
one stream of cases: first every tuple of small strategies with every
small term, in ascending size, then seeded random draws of larger
shapes. Both sides of a case run through the interpreter, and outcomes
compare as Failure equals Failure, while successes must agree
structurally. Runs that exhaust fuel are discarded and counted; the
discard rate is part of the report. The first mismatching case in the
stream is the counterexample, so one found among the small cases is
already minimal and nothing is shrunk.

Three putative equalities are known to be false; the same search runs
for them, and they pass when it finds a counterexample. The scheme
properties are equations on one argument, checked by the same search:
a strategy `s` never fails exactly when s = try(s), so "never fails"
is an equation that holds and "can fail" one that must be refuted.
Laws, non-laws and properties are rows of one table shape, `Law`, and
every check reports results whose `passed` says whether the check met
its expectation. Only the soundness sweep of the fallibility typing
draws its own random cases.

Everything here is seeded. random.Random with a string seed hashes the
string, so per-law generators are stable across processes.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Callable
from itertools import islice

from .interp import CompiledStrategy, Failure, FuelExhausted, Success, evaluate
from .records import mutable_record, record
from .strategies import (
    FAIL,
    ID,
    Adhoc,
    All,
    BogusSchemeWarning,
    Choice,
    One,
    Rule,
    RuleDef,
    RuleRef,
    Seq,
    Strategy,
    full_bu,
    full_td,
    innermost,
    once_bu,
    once_td,
    print_strategy,
    stop_bu,
    stop_td,
    try_,
)
from .terms import (
    Lit,
    Node,
    PNode,
    PVar,
    Signature,
    Symbol,
    Term,
    term_eq,
)


@record
class GenConfig:
    seed: int = 2026
    cases: int = 1000

    # not fields: every run samples within these bounds and this fuel
    max_term_depth = 5
    max_strategy_size = 7
    fuel = 2000


# ---------------------------------------------------------------------------
# Built-in corpus
#
# The laws are engine properties, not program properties, so the
# harness carries its own small world: Peano naturals, booleans, and
# rose trees over both, plus a handful of rules with varied failure
# behavior.


def builtin_signature() -> Signature:
    sorts = ["Nat", "Bool", "NatTree", "BoolTree", "[NatTree]", "[BoolTree]"]
    symbols = [
        Symbol("Zero", (), "Nat"),
        Symbol("Succ", ("Nat",), "Nat"),
        Symbol("True", (), "Bool"),
        Symbol("False", (), "Bool"),
        Symbol("Node", ("Nat", "[NatTree]"), "NatTree"),
        Symbol("BNode", ("Bool", "[BoolTree]"), "BoolTree"),
        Symbol("Cons_NatTree", ("NatTree", "[NatTree]"), "[NatTree]"),
        Symbol("Nil_NatTree", (), "[NatTree]"),
        Symbol("Cons_BoolTree", ("BoolTree", "[BoolTree]"), "[BoolTree]"),
        Symbol("Nil_BoolTree", (), "[BoolTree]"),
    ]
    return Signature(sorts, symbols)


def builtin_rules() -> list[RuleDef]:
    n = PVar("n")
    succ_n = PNode("Succ", (n,))
    return [
        RuleDef("increment", "Nat", n, succ_n, infallible=True),
        RuleDef("dropSucc", "Nat", succ_n, n),
        RuleDef("atEven", "Nat", n, PNode("Succ", (succ_n,)), guard="even_nat"),
        RuleDef("atOdd", "Nat", n, succ_n, guard="odd_nat"),
        RuleDef("flipTrue", "Bool", PNode("True"), PNode("False")),
    ]


# ---------------------------------------------------------------------------
# Generators


def _random_lit(sig: Signature, rng: random.Random, sort: str) -> Lit:
    kind = sig.prim_sorts[sort]
    if kind == "int":
        return Lit(rng.randrange(-8, 9), sort)
    if kind == "float":
        return Lit(float(rng.randrange(0, 64)) / 2.0, sort)
    return Lit(rng.choice("abcdef"), sort)


def gen_term(
    sig: Signature,
    rng: random.Random,
    max_depth: int,
    sort: str | None = None,
) -> Term:
    md = sig.min_depths
    if sort is None:
        sort = rng.choice(sorted(s for s in sig.sorts if md[s] <= max_depth))

    def need(sym: Symbol) -> int:
        if not sym.arg_sorts:
            return 1
        return 1 + max(md[a] for a in sym.arg_sorts)

    def build(so: str, budget: int) -> Term:
        if so in sig.prim_sorts:
            return _random_lit(sig, rng, so)
        options = sig.by_result.get(so, ())
        fitting = [sym for sym in options if need(sym) <= budget]
        if not fitting:
            fitting = [min(options, key=need)]
        sym = rng.choice(fitting)
        return Node(sym.constr, tuple(build(a, budget - 1) for a in sym.arg_sorts))

    return build(sort, max(max_depth, md[sort]))


def gen_strategy(
    rules: list[Rule], rng: random.Random, size: int
) -> Strategy:
    """Size-bounded, closed, recursion-free expression. Every shape
    terminates, which keeps fuel discards rare."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.3:
            return ID
        if roll < 0.5:
            return FAIL
        return RuleRef(rng.choice(rules))
    shape = (Seq, Choice, All, One, Adhoc)[rng.randrange(5)]
    if shape is Seq or shape is Choice:
        cut = rng.randrange(1, size - 1) if size > 2 else 1
        left = gen_strategy(rules, rng, cut)
        return shape(left, gen_strategy(rules, rng, size - 1 - cut))
    if shape is Adhoc:
        return Adhoc(gen_strategy(rules, rng, size - 1), rng.choice(rules))
    return shape(gen_strategy(rules, rng, size - 1))


def _draw(rules: list[Rule], rng: random.Random) -> Strategy:
    """A sampled strategy of random size up to GenConfig.max_strategy_size."""
    return gen_strategy(rules, rng, rng.randrange(1, GenConfig.max_strategy_size + 1))


# ---------------------------------------------------------------------------
# Law table


@record
class Law:
    """A putative equality between two strategy expressions over `slots`
    strategy arguments; LAWS hold, NONLAWS do not, and PROPERTIES hold
    unless `refuted`."""

    name: str
    slots: int
    #: None | "constant" | "nonconstant"; None for every non-law
    term_condition: str | None
    lhs: Callable[..., Strategy]
    rhs: Callable[..., Strategy]
    #: True for a property that passes when its equation is refuted
    refuted: bool = False


LAWS: tuple[Law, ...] = (
    Law("seq-unit-left", 1, None, lambda a: Seq(ID, a), lambda a: a),
    Law("seq-unit-right", 1, None, lambda a: Seq(a, ID), lambda a: a),
    Law("seq-zero-left", 1, None, lambda a: Seq(FAIL, a), lambda a: FAIL),
    Law("seq-zero-right", 1, None, lambda a: Seq(a, FAIL), lambda a: FAIL),
    Law("choice-unit-left", 1, None, lambda a: Choice(FAIL, a), lambda a: a),
    Law("choice-unit-right", 1, None, lambda a: Choice(a, FAIL), lambda a: a),
    Law("choice-left-zero", 1, None, lambda a: Choice(ID, a), lambda a: ID),
    Law(
        "seq-assoc",
        3,
        None,
        lambda a, b, c: Seq(a, Seq(b, c)),
        lambda a, b, c: Seq(Seq(a, b), c),
    ),
    Law(
        "choice-assoc",
        3,
        None,
        lambda a, b, c: Choice(a, Choice(b, c)),
        lambda a, b, c: Choice(Choice(a, b), c),
    ),
    Law(
        "seq-left-dist",
        3,
        None,
        lambda a, b, c: Seq(a, Choice(b, c)),
        lambda a, b, c: Choice(Seq(a, b), Seq(a, c)),
    ),
    Law("all-identity", 0, None, lambda: All(ID), lambda: ID),
    Law("one-failure", 0, None, lambda: One(FAIL), lambda: FAIL),
    Law(
        "all-fusion",
        2,
        None,
        lambda a, b: Seq(All(a), All(b)),
        lambda a, b: All(Seq(a, b)),
    ),
    Law("all-on-constant", 1, "constant", lambda a: All(a), lambda a: ID),
    Law("one-on-constant", 1, "constant", lambda a: One(a), lambda a: FAIL),
    Law(
        "all-fail-on-nonconstant",
        0,
        "nonconstant",
        lambda: All(FAIL),
        lambda: FAIL,
    ),
    Law(
        "one-id-on-nonconstant",
        0,
        "nonconstant",
        lambda: One(ID),
        lambda: ID,
    ),
)


NONLAWS: tuple[Law, ...] = (
    Law("seq-commutative", 2, None, lambda a, b: Seq(a, b), lambda a, b: Seq(b, a)),
    Law("choice-commutative", 2, None, lambda a, b: Choice(a, b), lambda a, b: Choice(b, a)),
    Law(
        "seq-right-dist",
        3,
        None,
        lambda a, b, c: Seq(Choice(a, b), c),
        lambda a, b, c: Choice(Seq(a, c), Seq(b, c)),
    ),
)


def _quiet_stop_bu(s: Strategy) -> Strategy:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BogusSchemeWarning)
        return stop_bu(s)


#: each an equation on one argument: `s` never fails exactly when s = try(s);
#: each scheme is looked up when a case is built, so a test can swap it
PROPERTIES: tuple[Law, ...] = (
    # stop_td and innermost can never fail, whatever the argument
    Law("stop_td-never-fails", 1, None, lambda a: stop_td(a), lambda a: try_(stop_td(a))),
    Law("innermost-never-fails", 1, None, lambda a: innermost(a), lambda a: try_(innermost(a))),
    # full_td and full_bu preserve infallibility of the argument
    Law("full_td-infallible-arg", 1, None,
        lambda a: full_td(try_(a)), lambda a: try_(full_td(try_(a)))),
    Law("full_bu-infallible-arg", 1, None,
        lambda a: full_bu(try_(a)), lambda a: try_(full_bu(try_(a)))),
    # once_td and once_bu are fallible: some input must fail
    Law("once_td-failure-witnessed", 1, None,
        lambda a: once_td(a), lambda a: try_(once_td(a)), refuted=True),
    Law("once_bu-failure-witnessed", 1, None,
        lambda a: once_bu(a), lambda a: try_(once_bu(a)), refuted=True),
    # the descend-first bottom-up scheme is a deep identity traversal
    Law("stop_bu-deep-identity", 1, None, lambda a: _quiet_stop_bu(a), lambda a: ID),
)


LAW, PROPERTY = "LAW", "PROPERTY"


@mutable_record
class SampledResult:
    """A law (kind LAW) or scheme property (kind PROPERTY) checked on
    `cases` cases; `detail` is the counterexample, "" if none."""

    kind: str
    name: str
    passed: bool
    cases: int
    discards: int
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"{self.kind} {self.name} {verdict}"
        if self.detail:
            out += f" {self.detail}"
        return out


@mutable_record
class NonlawResult:
    name: str
    counterexample: str | None

    @property
    def passed(self) -> bool:
        """A non-law passes when it is refuted."""
        return self.counterexample is not None

    def line(self) -> str:
        if self.counterexample is None:
            return f"NONLAW {self.name} NO-COUNTEREXAMPLE"
        return f"NONLAW {self.name} COUNTEREXAMPLE {self.counterexample}"


# ---------------------------------------------------------------------------
# One size-ordered search for laws, non-laws and scheme properties


def check_laws(
    sig: Signature, rules: list[Rule], cfg: GenConfig = GenConfig()
) -> list[SampledResult]:
    """Each law on the first cfg.cases cases of its stream."""
    return _check(LAW, LAWS, sig, rules, cfg)


def check_scheme_properties(
    sig: Signature, rules: list[Rule], cfg: GenConfig = GenConfig()
) -> list[SampledResult]:
    """Each scheme property on the first cfg.cases cases of its stream;
    one that must be refuted is searched as a non-law is."""
    return _check(PROPERTY, PROPERTIES, sig, rules, cfg)


def _check(kind: str, table: tuple[Law, ...], sig: Signature, rules: list[Rule], cfg: GenConfig):
    results = []
    for law in table:
        # a refutation needs one witness, whatever the case count
        budget = GenConfig(cfg.seed) if law.refuted else cfg
        discards, failure = _search(law, sig, rules, budget, cfg.fuel)
        passed = bool(failure) == law.refuted
        detail = "" if law.refuted else failure
        results.append(SampledResult(kind, law.name, passed, cfg.cases, discards, detail))
    return results


def find_nonlaw_counterexamples(
    sig: Signature, rules: list[Rule], fuel: int = GenConfig.fuel
) -> list[NonlawResult]:
    """Each non-law on the first GenConfig().cases cases of its stream,
    whatever a caller checks the laws with, so that every non-law is
    refuted at any case count."""
    return [
        NonlawResult(law.name, _search(law, sig, rules, GenConfig(), fuel)[1] or None)
        for law in NONLAWS
    ]


def _search(
    law: Law, sig: Signature, rules: list[Rule], cfg: GenConfig, fuel: int
) -> tuple[int, str]:
    """The fuel discards among the first cfg.cases cases of law's
    stream, and the first case whose sides differ, rendered; "" if none.

    Consecutive cases share a strategy tuple for up to 5 terms, so each
    side is compiled once per tuple, the right only once it is run."""
    discards = 0
    strategies = None
    for case, t in islice(_cases(law, sig, rules, cfg.seed), cfg.cases):
        if case is not strategies:
            strategies = case
            lhs = CompiledStrategy(law.lhs(*strategies), sig)
            rhs = None
        left = right = lhs.run(t, fuel)
        if not isinstance(left, FuelExhausted):
            if rhs is None:
                rhs = CompiledStrategy(law.rhs(*strategies), sig)
            right = rhs.run(t, fuel)
        if isinstance(right, FuelExhausted):  # either side ran out of fuel
            discards += 1
        elif type(left) is not type(right) or (
            isinstance(left, Success) and not term_eq(left.term, right.term)
        ):
            from .files import term_to_sexpr

            parts = [f"s{i + 1}={print_strategy(s)}" for i, s in enumerate(strategies)]
            parts.append(f"t={term_to_sexpr(t)}")
            # each outcome as the CLI prints it
            for side, o in (("left", left), ("right", right)):
                shown = term_to_sexpr(o.term) if isinstance(o, Success) else "FAIL"
                parts.append(f"{side}={shown}")
            return discards, " ".join(parts)
    return discards, ""


#: whether a term meeting each condition has children; None: either way
_HAS_CHILDREN = {"constant": False, "nonconstant": True}


def _cases(law: Law, sig: Signature, rules: list[Rule], seed: int):
    """Every strategy tuple of the small universe, in `_candidates`
    order, with every small term that meets law's condition; then
    seeded random draws, without end."""
    has_children = _HAS_CHILDREN.get(law.term_condition)
    terms = [t for t in _term_universe() if has_children in (None, bool(t.children))]
    for strategies in _candidates(_strategy_universe(rules), law.slots):
        for t in terms:
            yield strategies, t
    rng = random.Random(f"{seed}:{law.name}")
    while True:
        strategies = tuple(_draw(rules, rng) for _ in range(law.slots))
        yield strategies, _gen_case_term(law, sig, rng)


def _gen_case_term(law: Law, sig: Signature, rng: random.Random) -> Term:
    """The first of 64 gen_term draws that meets law's condition."""
    has_children = _HAS_CHILDREN.get(law.term_condition)
    for _ in range(64):
        t = gen_term(sig, rng, GenConfig.max_term_depth)
        if has_children in (None, bool(t.children)):
            return t
    raise RuntimeError(f"signature generates no {law.term_condition} terms")


def _strategy_universe(rules: list[Rule]) -> list[tuple[int, Strategy]]:
    """All expressions up to size 3 over the rule pool, size-tagged."""
    atoms: list[Strategy] = [ID, FAIL] + [RuleRef(r) for r in rules]
    out: list[tuple[int, Strategy]] = [(1, a) for a in atoms]
    for a in atoms:
        out.append((2, All(a)))
        out.append((2, One(a)))
    for a in atoms:
        for r in rules:
            out.append((2, Adhoc(a, r)))
    for a in atoms:
        for b in atoms:
            out.append((3, Seq(a, b)))
            out.append((3, Choice(a, b)))
    return out


def _term_universe() -> list[Term]:
    zero = Node("Zero")
    one = Node("Succ", (zero,))
    two = Node("Succ", (one,))
    tree1 = Node("Node", (zero, Node("Nil_NatTree")))
    return [zero, one, two, tree1, Node("True")]


def _candidates(universe, slots):
    """Every `slots`-tuple over the size-tagged `universe`, by ascending
    total size and, within one total, in product order: the order of a
    stable sort of the product by size, generated lazily, because the
    first counterexample sits among the smallest of about 3.7M triples."""
    lo = min(n for n, _ in universe)
    hi = max(n for n, _ in universe)

    def fill(total, k):
        if k == 0:
            yield ()
            return
        for n, s in universe:
            if (k - 1) * lo <= total - n <= (k - 1) * hi:
                for rest in fill(total - n, k - 1):
                    yield (s,) + rest

    for total in range(slots * lo, slots * hi + 1):
        yield from fill(total, slots)


# ---------------------------------------------------------------------------
# Empirical soundness


@mutable_record
class SoundnessResult:
    runs: int
    failures: int
    exhausted: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"PROPERTY typed-infallible-never-fails {verdict} "
            f"runs={self.runs} failures={self.failures} "
            f"exhausted={self.exhausted}"
        )


def check_soundness(
    sig: Signature,
    rules: list[Rule],
    cfg: GenConfig = GenConfig(),
    runs: int = 10000,
) -> SoundnessResult:
    """Strategies that type as infallible must never produce Failure.
    Each draw, bare rules included, runs under a scheme, or under `try`
    if that does not type True; runs that exhaust fuel are counted."""
    from .fallibility import sf_type_of

    rng = random.Random(f"{cfg.seed}:soundness")
    failures = 0
    exhausted = 0
    wrappers = (stop_td, innermost, lambda s: s, try_)
    for _ in range(runs):
        base = _draw(rules, rng)
        s = rng.choice(wrappers)(base)
        if sf_type_of(s) is not True:
            s = try_(base)
        t = gen_term(sig, rng, cfg.max_term_depth)
        out = evaluate(s, t, sig, cfg.fuel)
        if isinstance(out, Failure):
            failures += 1
        elif isinstance(out, FuelExhausted):
            exhausted += 1
    return SoundnessResult(runs, failures, exhausted)
