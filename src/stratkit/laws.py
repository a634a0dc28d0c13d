"""Randomized validation of the algebraic laws of the core combinators.

The laws are equalities between strategy expressions (some guarded by a
constant/non-constant side condition on the term). We sample closed
strategies and well-formed terms, run both sides through the
interpreter, and compare outcomes: Failure equals Failure, successes
must agree structurally. Runs that exhaust fuel are discarded and
counted; the discard rate is part of the report.

Three putative equalities are known to be false; for those the harness
does the opposite and searches a small, deterministic universe for a
concrete counterexample.

Everything here is seeded. random.Random with a string seed hashes the
string, so per-law generators are stable across processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .interp import CompiledStrategy, Failure, FuelExhausted, Outcome, Success
from .strategies import (
    FAIL,
    ID,
    Adhoc,
    All,
    Choice,
    One,
    Rec,
    Rule,
    RuleDef,
    RuleRef,
    Seq,
    Strategy,
    children,
    full_bu,
    full_td,
    innermost,
    once_bu,
    once_td,
    print_strategy,
    rebuild,
    stop_td,
    try_,
    walk,
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


@dataclass(frozen=True)
class GenConfig:
    seed: int = 2026
    cases: int = 1000
    max_term_depth: int = 5
    max_strategy_size: int = 7
    fuel: int = 2000


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


def _min_depths(sig: Signature) -> dict[str, int]:
    inf = 10**9
    md = {s: (1 if s in sig.prim_sorts else inf) for s in sig.sorts}
    changed = True
    while changed:
        changed = False
        for sym in sig.symbols:
            need = 1
            if sym.arg_sorts:
                worst = max(md[a] for a in sym.arg_sorts)
                if worst >= inf:
                    continue
                need = 1 + worst
            if need < md[sym.result_sort]:
                md[sym.result_sort] = need
                changed = True
    return md


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
    sort: Optional[str] = None,
) -> Term:
    md = _min_depths(sig)
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


def gen_constant_term(sig: Signature, rng: random.Random) -> Term:
    nullary = sorted(sym.constr for sym in sig.symbols if not sym.arg_sorts)
    prims = sorted(sig.prim_sorts)
    if prims and (not nullary or rng.random() < 0.3):
        return _random_lit(sig, rng, rng.choice(prims))
    return Node(rng.choice(nullary))


def gen_nonconstant_term(
    sig: Signature, rng: random.Random, max_depth: int
) -> Term:
    for _ in range(64):
        t = gen_term(sig, rng, max_depth)
        if t.children:
            return t
    raise RuntimeError("signature generates no non-constant terms")


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


# ---------------------------------------------------------------------------
# Law table


@dataclass(frozen=True)
class Law:
    name: str
    slots: int
    #: None | "constant" | "nonconstant"
    term_condition: Optional[str]
    lhs: Callable[..., Strategy]
    rhs: Callable[..., Strategy]


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


@dataclass
class LawResult:
    name: str
    passed: bool
    cases: int
    discards: int
    counterexample: Optional[str] = None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"LAW {self.name} {verdict}"
        if self.counterexample:
            out += f" {self.counterexample}"
        return out


def _outcomes_equal(a: Outcome, b: Outcome) -> bool:
    if isinstance(a, Success) and isinstance(b, Success):
        return term_eq(a.term, b.term)
    return isinstance(a, Failure) and isinstance(b, Failure)


def _eval(s: Strategy, t: Term, sig: Signature, fuel: int) -> Outcome:
    return CompiledStrategy(s, sig).run(t, fuel)


def _gen_case_term(law: Law, sig: Signature, rng: random.Random, cfg: GenConfig):
    if law.term_condition == "constant":
        return gen_constant_term(sig, rng)
    if law.term_condition == "nonconstant":
        return gen_nonconstant_term(sig, rng, cfg.max_term_depth)
    return gen_term(sig, rng, cfg.max_term_depth)


def _case_mismatch(
    law: Law,
    strategies: tuple[Strategy, ...],
    t: Term,
    sig: Signature,
    fuel: int,
) -> Optional[bool]:
    """True: counterexample. False: sides agree. None: fuel discard."""
    left = _eval(law.lhs(*strategies), t, sig, fuel)
    right = _eval(law.rhs(*strategies), t, sig, fuel)
    if isinstance(left, FuelExhausted) or isinstance(right, FuelExhausted):
        return None
    return not _outcomes_equal(left, right)


def _shrink(
    law: Law,
    strategies: tuple[Strategy, ...],
    t: Term,
    sig: Signature,
    fuel: int,
) -> tuple[tuple[Strategy, ...], Term]:
    """Greedy minimization keeping the mismatch alive."""
    improved = True
    while improved:
        improved = False
        for child in t.children:
            if law.term_condition == "nonconstant" and not child.children:
                continue
            if _case_mismatch(law, strategies, child, sig, fuel):
                t = child
                improved = True
                break
        if improved:
            continue
        for i, s in enumerate(strategies):
            # a rec's body alone would leave its binder unbound
            for repl in (ID, FAIL, *(() if isinstance(s, Rec) else children(s))):
                if repl == s:
                    continue
                candidate = strategies[:i] + (repl,) + strategies[i + 1 :]
                if _case_mismatch(law, candidate, t, sig, fuel):
                    strategies = candidate
                    improved = True
                    break
            if improved:
                break
    return strategies, t


def _render_case(strategies: tuple[Strategy, ...], t: Term) -> str:
    from .files import term_to_sexpr

    parts = [f"s{i + 1}={print_strategy(s)}" for i, s in enumerate(strategies)]
    parts.append(f"t={term_to_sexpr(t)}")
    return " ".join(parts)


def check_laws(
    sig: Signature, rules: list[Rule], cfg: GenConfig = GenConfig()
) -> list[LawResult]:
    results = []
    for law in LAWS:
        rng = random.Random(f"{cfg.seed}:{law.name}")
        discards = 0
        failure: Optional[str] = None
        for _ in range(cfg.cases):
            strategies = tuple(
                gen_strategy(rules, rng, rng.randrange(1, cfg.max_strategy_size + 1))
                for _ in range(law.slots)
            )
            t = _gen_case_term(law, sig, rng, cfg)
            verdict = _case_mismatch(law, strategies, t, sig, cfg.fuel)
            if verdict is None:
                discards += 1
            elif verdict:
                strategies, t = _shrink(law, strategies, t, sig, cfg.fuel)
                failure = _render_case(strategies, t)
                break
        results.append(
            LawResult(law.name, failure is None, cfg.cases, discards, failure)
        )
    return results


# ---------------------------------------------------------------------------
# Non-laws: bounded deterministic counterexample search


@dataclass(frozen=True)
class Nonlaw:
    name: str
    slots: int
    lhs: Callable[..., Strategy]
    rhs: Callable[..., Strategy]


NONLAWS: tuple[Nonlaw, ...] = (
    Nonlaw(
        "seq-commutative",
        2,
        lambda a, b: Seq(a, b),
        lambda a, b: Seq(b, a),
    ),
    Nonlaw(
        "choice-commutative",
        2,
        lambda a, b: Choice(a, b),
        lambda a, b: Choice(b, a),
    ),
    Nonlaw(
        "seq-right-dist",
        3,
        lambda a, b, c: Seq(Choice(a, b), c),
        lambda a, b, c: Choice(Seq(a, c), Seq(b, c)),
    ),
)


def _strategy_universe(rules: list[Rule]) -> list[tuple[int, Strategy]]:
    """All expressions up to size 3 over the rule pool, size-tagged."""
    atoms: list[Strategy] = [ID, FAIL] + [RuleRef(r) for r in rules]
    out: list[tuple[int, Strategy]] = [(1, a) for a in atoms]
    for a in atoms:
        out.append((2, All(a)))
        out.append((2, One(a)))
    for a in atoms:
        for b in atoms:
            out.append((3, Seq(a, b)))
            out.append((3, Choice(a, b)))
    return out


def _term_universe(sig: Signature) -> list[Term]:
    zero = Node("Zero")
    one = Node("Succ", (zero,))
    two = Node("Succ", (one,))
    tree1 = Node("Node", (zero, Node("Nil_NatTree")))
    return [zero, one, two, tree1, Node("True")]


@dataclass
class NonlawResult:
    name: str
    counterexample: Optional[str]

    def line(self) -> str:
        if self.counterexample is None:
            return f"NONLAW {self.name} NO-COUNTEREXAMPLE"
        return f"NONLAW {self.name} COUNTEREXAMPLE {self.counterexample}"


def find_nonlaw_counterexamples(
    sig: Signature, rules: list[Rule], fuel: int = 2000
) -> list[NonlawResult]:
    universe = _strategy_universe(rules)
    terms = _term_universe(sig)
    results = []
    for nonlaw in NONLAWS:
        found: Optional[str] = None
        for strategies in _candidates(universe, nonlaw.slots):
            for t in terms:
                left = _eval(nonlaw.lhs(*strategies), t, sig, fuel)
                right = _eval(nonlaw.rhs(*strategies), t, sig, fuel)
                if isinstance(left, FuelExhausted) or isinstance(
                    right, FuelExhausted
                ):
                    continue
                if not _outcomes_equal(left, right):
                    found = _render_case(strategies, t) + (
                        f" left={_show_outcome(left)}"
                        f" right={_show_outcome(right)}"
                    )
                    break
            if found:
                break
        results.append(NonlawResult(nonlaw.name, found))
    return results


def _candidates(universe, slots):
    """Every `slots`-tuple over the size-tagged `universe`, by ascending
    total size and, within one total, in product order: the order of a
    stable sort of the product by size, generated lazily, because the
    first counterexample sits among the smallest of about 1.7M triples."""
    by_size: dict[int, list[Strategy]] = {}
    for n, s in universe:
        by_size.setdefault(n, []).append(s)
    lo, hi = min(by_size), max(by_size)

    def fill(total, k):
        if k == 1:
            for s in by_size.get(total, ()):
                yield (s,)
            return
        for n, s in universe:
            if (k - 1) * lo <= total - n <= (k - 1) * hi:
                for rest in fill(total - n, k - 1):
                    yield (s,) + rest

    for total in range(slots * lo, slots * hi + 1):
        yield from fill(total, slots)


def _show_outcome(o: Outcome) -> str:
    from .files import term_to_sexpr

    if isinstance(o, Success):
        return term_to_sexpr(o.term)
    if isinstance(o, Failure):
        return "FAIL"
    return f"DIVERGENT? steps={o.steps}"


# ---------------------------------------------------------------------------
# Scheme properties and empirical soundness


@dataclass
class PropertyResult:
    name: str
    passed: bool
    cases: int
    discards: int
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"PROPERTY {self.name} {verdict}"
        if self.detail:
            out += f" {self.detail}"
        return out


def check_scheme_properties(
    sig: Signature, rules: list[Rule], cfg: GenConfig = GenConfig()
) -> list[PropertyResult]:
    results = []

    def sample(name: str):
        rng = random.Random(f"{cfg.seed}:prop:{name}")
        for _ in range(cfg.cases):
            s = gen_strategy(rules, rng, rng.randrange(1, cfg.max_strategy_size + 1))
            t = gen_term(sig, rng, cfg.max_term_depth)
            yield s, t

    # stop_td and innermost can never fail, whatever the argument
    for scheme_name, scheme in (("stop_td", stop_td), ("innermost", innermost)):
        discards = 0
        bad: Optional[str] = None
        for s, t in sample(f"infallible:{scheme_name}"):
            out = _eval(scheme(s), t, sig, cfg.fuel)
            if isinstance(out, FuelExhausted):
                discards += 1
            elif isinstance(out, Failure):
                bad = _render_case((s,), t)
                break
        results.append(
            PropertyResult(
                f"{scheme_name}-never-fails", bad is None, cfg.cases, discards, bad or ""
            )
        )

    # full_td and full_bu preserve infallibility of the argument
    for scheme_name, scheme in (("full_td", full_td), ("full_bu", full_bu)):
        discards = 0
        bad = None
        rng = random.Random(f"{cfg.seed}:prop:full:{scheme_name}")
        for _ in range(cfg.cases):
            s = try_(
                gen_strategy(rules, rng, rng.randrange(1, cfg.max_strategy_size + 1))
            )
            t = gen_term(sig, rng, cfg.max_term_depth)
            out = _eval(scheme(s), t, sig, cfg.fuel)
            if isinstance(out, FuelExhausted):
                discards += 1
            elif isinstance(out, Failure):
                bad = _render_case((s,), t)
                break
        results.append(
            PropertyResult(
                f"{scheme_name}-infallible-arg",
                bad is None,
                cfg.cases,
                discards,
                bad or "",
            )
        )

    # once_td and once_bu are fallible: some input must fail
    for scheme_name, scheme in (("once_td", once_td), ("once_bu", once_bu)):
        witnessed = False
        discards = 0
        for s, t in sample(f"fallible:{scheme_name}"):
            out = _eval(scheme(s), t, sig, cfg.fuel)
            if isinstance(out, FuelExhausted):
                discards += 1
            elif isinstance(out, Failure):
                witnessed = True
                break
        results.append(
            PropertyResult(
                f"{scheme_name}-failure-witnessed", witnessed, cfg.cases, discards
            )
        )

    # the descend-first bottom-up scheme is a deep identity traversal
    discards = 0
    bad = None
    import warnings as _warnings

    from .strategies import BogusSchemeWarning, stop_bu

    for s, t in sample("stop_bu-identity"):
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", BogusSchemeWarning)
            expr = stop_bu(s)
        out = _eval(expr, t, sig, cfg.fuel)
        if isinstance(out, FuelExhausted):
            discards += 1
        elif not (isinstance(out, Success) and term_eq(out.term, t)):
            bad = _render_case((s,), t)
            break
    results.append(
        PropertyResult(
            "stop_bu-deep-identity", bad is None, cfg.cases, discards, bad or ""
        )
    )
    return results


@dataclass
class SoundnessResult:
    runs: int
    failures: int
    exhausted: int

    def line(self) -> str:
        verdict = "PASS" if self.failures == 0 else "FAIL"
        return (
            f"PROPERTY typed-infallible-never-fails {verdict} "
            f"runs={self.runs} failures={self.failures} "
            f"exhausted={self.exhausted}"
        )


def _adhocify(s: Strategy) -> Strategy:
    """Push every bare rule reference under sort dispatch.

    The infallibility annotation on a rule speaks only about terms of
    the rule's own sort; a bare reference hitting a foreign sort fails
    by definition. Typed-infallible claims are therefore only meaningful
    for strategies where rules enter through adhoc, so the soundness
    sampler normalizes to that fragment.
    """
    return walk(_adhocify_step, s)


def _adhocify_step(s: Strategy):
    if isinstance(s, RuleRef):
        return Adhoc(ID, s.rule)
    if isinstance(s, Rec):
        return s  # the sampler's strategies are rec-free
    return (yield from rebuild(s))


def check_soundness(
    sig: Signature,
    rules: list[Rule],
    cfg: GenConfig = GenConfig(),
    runs: int = 10000,
) -> SoundnessResult:
    """Strategies that type as infallible must never produce Failure."""
    from .fallibility import sf_type_of

    rng = random.Random(f"{cfg.seed}:soundness")
    failures = 0
    exhausted = 0
    wrappers = (stop_td, innermost, lambda s: s, try_)
    for _ in range(runs):
        base = _adhocify(
            gen_strategy(rules, rng, rng.randrange(1, cfg.max_strategy_size + 1))
        )
        s = rng.choice(wrappers)(base)
        if sf_type_of(s) is not True:
            s = try_(base)
        t = gen_term(sig, rng, cfg.max_term_depth)
        out = _eval(s, t, sig, cfg.fuel)
        if isinstance(out, Failure):
            failures += 1
        elif isinstance(out, FuelExhausted):
            exhausted += 1
    return SoundnessResult(runs, failures, exhausted)
