"""Strategy evaluation.

Strategies are compiled once to a graph of instructions and then run by
an explicit-stack machine, for two reasons. First, rewriting must survive
terms (and traversal depths) far beyond CPython's recursion limit.
Second, evaluation is metered: running out of fuel is reported as its
own outcome rather than hanging on a divergent strategy.

One unit of fuel is one dispatch of a strategy construct against a term:
`id`, `fail`, `;`, `<+`, `all`, `one`, a rule, `adhoc`, and a reference
to a `rec` variable each cost one unit, and `rec` itself is free. The
machine dispatches less often than that. An instruction is a list
`[op, cost, ...]`, and the loop head charges its cost:

- Linked variables. Each reference to a `rec` variable is, from link
  time on, a copy of its binder's instruction with cost + 1, so a
  reference is no dispatch of its own and the machine needs no
  environment. Only a pure variable cycle (`rec x. x`) keeps `OP_VAR`,
  a jump to itself.
- Superoperators for the shapes that the derived schemes produce:
  - `s <+ id`, the `try` of `repeat` and `innermost`, is `OP_TRY`: a
    light frame that holds the term and charges `id`'s unit only when
    `s` fails;
  - `adhoc(d, r) ; s`, the body of `full_td` over `adhoc`, is an
    `OP_ADHOC` with a next instruction: when the rule fires, the machine
    goes on to `s` with no sequence frame. A bare rule `r` (see
    `strategies.RuleRef`) is an `OP_ADHOC` without a default, one unit
    that fails at once on another sort, so `r ; s` is fused the same way;
  - `one(x) <+ s`, the body of `once_bu`, is an `OP_ONE` with a
    fallback: one frame per level instead of a choice frame and a `one`
    frame (see "Continuation frames").
- Two of these call themselves: `once_bu`'s fused one, whose body is
  itself, and `full_td`'s `all(x)`, whose body is an adhoc whose next
  is this `all`. Down a spine of one-child nodes each runs in a loop of
  its own, pushing the frames and charging the units that a dispatch
  per level would, and leaves any other case to the loop head.

The charging rule keeps fuel step-exact. A fused instruction charges, at
its head, the units that its constructs charge before the first
observable effect: a sort lookup, a rule application or a trace update.
Units that they charge later are charged at that later point, such as
the `id` of a `try` after its body failed. So every budget gives the
same outcome, term, trace and error as a dispatch per construct would.

A loop that comes back to the same state ends at once. When a try starts
on the frame that this very try instruction pushed for this very term
object, the machine is where it was a turn before, and it reports the
fuel as spent (see "Continuation frames" for why that is exact). So
`innermost(id)` is `DIVERGENT?` at once, with the steps figure and trace
of a run to the last unit. A loop that grows or changes its term spends
its fuel as before.
"""

from __future__ import annotations

import gc

from .errors import EngineError
from .records import record
from .strategies import (
    GUARDS,
    Adhoc,
    All,
    Choice,
    Fail,
    Id,
    One,
    Rec,
    Rule,
    RuleChoice,
    RuleDef,
    RuleRef,
    Seq,
    Strategy,
    Var,
    lookup,
    rule_names,
    walk,
)
from .terms import Lit, Node, Signature, Term, _node, compile_rewrite

DEFAULT_FUEL = 1_000_000


@record
class Success:
    term: Term


@record
class Failure:
    pass


@record
class FuelExhausted:
    steps: int


Outcome = Success | Failure | FuelExhausted

_FAILED = object()

# Opcodes: an instruction is [op, cost, *fields].
OP_ID = 0  # []
OP_FAIL = 1  # []
OP_SEQ = 2  # [left, right]
OP_CHOICE = 3  # [left, right]
OP_ALL = 4  # [body]
OP_ONE = 5  # [body, fallback or None]
OP_VAR = 6  # [target]: only a pure variable cycle, targeting itself
OP_ADHOC = 7  # [default or None, sort, applier, rule names, next or None]
OP_TRY = 8  # [body]


# ---------------------------------------------------------------------------
# Rule compilation
#
# Rules are compiled to appliers, Term -> Term | None, each leaf rule by
# terms.compile_rewrite.


def compile_rule(rule: Rule):
    """Applier for a rule. It does not check the term's sort: the machine
    dispatches on sort before it calls one."""
    if isinstance(rule, RuleDef):
        guard = GUARDS[rule.guard] if rule.guard is not None else None
        return compile_rewrite(rule.lhs, rule.rhs, guard)
    fns = tuple(compile_rule(m) for m in rule.members)
    if isinstance(rule, RuleChoice):

        def applier(t, _fns=fns):
            for f in _fns:
                out = f(t)
                if out is not None:
                    return out
            return None

    else:

        def applier(t, _fns=fns):
            for f in _fns:
                t = f(t)
                if t is None:
                    return None
            return t

    return applier


# ---------------------------------------------------------------------------
# Strategy compilation


def _compile(s: Strategy, env: dict[str, list]):
    """Step on strategies.walk: the instruction for s. env maps each
    variable in scope to the references to it compiled so far, which its
    binder's Rec step links."""
    if isinstance(s, Id):
        return [OP_ID, 1]
    if isinstance(s, Fail):
        return [OP_FAIL, 1]
    if isinstance(s, Seq):
        left = yield s.left, env
        right = yield s.right, env
        if left[0] == OP_ADHOC and left[6] is None:  # adhoc(d, r) ; s, or r ; s
            return [OP_ADHOC, left[1] + 1, *left[2:6], right]
        return [OP_SEQ, 1, left, right]
    if isinstance(s, Choice):
        left = yield s.left, env
        right = yield s.right, env
        if right[0] == OP_ID and right[1] == 1:  # try(s)
            return [OP_TRY, 1, left]
        if left[0] == OP_ONE and left[3] is None:  # one(x) <+ s
            return [OP_ONE, left[1] + 1, left[2], right]
        return [OP_CHOICE, 1, left, right]
    if isinstance(s, All):
        return [OP_ALL, 1, (yield s.body, env)]
    if isinstance(s, One):
        return [OP_ONE, 1, (yield s.body, env), None]
    if isinstance(s, Var):
        ref = [OP_VAR, 1, None]
        lookup(env, s.name).append(ref)
        return ref
    if isinstance(s, Rec):
        refs = []
        code = yield s.body, {**env, s.name: refs}
        for ref in refs:
            if ref is code:  # rec x. x, also through rec x. rec y. x
                ref[2] = ref
            else:
                ref[:] = code
                ref[1] += 1
        return code
    if isinstance(s, (RuleRef, Adhoc)):
        # a bare rule's FAIL default is not compiled: the rule costs one unit
        default = (yield s.default, env) if isinstance(s, Adhoc) else None
        return [OP_ADHOC, 1, default, s.rule.sort, compile_rule(s.rule), rule_names(s.rule), None]
    raise EngineError(f"cannot compile {s!r}")


class CompiledStrategy:
    """A closed strategy fixed to one signature, reusable across runs."""

    def __init__(self, strategy: Strategy, sig: Signature):
        self.sig = sig
        self._constr_sort = sig.constr_sort
        self._code = walk(_compile, strategy, {})

    def run(
        self,
        term: Term,
        fuel: int = DEFAULT_FUEL,
        trace: set | None = None,
    ) -> Outcome:
        """trace, when given, collects the names of rules that fired."""
        # The machine allocates frames and rebuilt nodes but no reference
        # cycles, so generational collection during a run only costs time
        # (about half of a long divergent run).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            out = _execute(self._code, term, fuel, self._constr_sort, trace)
        except KeyError as exc:
            # the machine's sort lookup of an undeclared constructor
            self.sig.symbol(exc.args[0])
            raise
        finally:
            if gc_was_enabled:
                gc.enable()
        if out is None:
            return FuelExhausted(fuel)
        if out is _FAILED:
            return Failure()
        return Success(out)


def evaluate(
    strategy: Strategy,
    term: Term,
    sig: Signature,
    fuel: int = DEFAULT_FUEL,
    trace: set | None = None,
) -> Outcome:
    return CompiledStrategy(strategy, sig).run(term, fuel, trace)


# Continuation frames. The machine keeps one list of frames, most tagged
# in slot 0: 0 waits for a sequence's left result, 1 holds a choice's
# fallback with the original term, 2 collects rebuilt children for all,
# 3 walks the children of a node with several for one (and holds its
# fallback, if fused), and 4 holds a try's term and instruction, to
# return the term for the unit of id when the body fails. Frames 2 and 3
# are lists advanced in place; every other frame is pushed once and
# popped once.
#
# Over a node's only child, all, one and a fused `one(x) <+ s` have one
# continuation: a failure is passed on, or goes to the fallback, and a
# result is the node itself if it is the child, else the node rebuilt
# over it. For all and a plain one the node is the frame, so a deep
# descent allocates no frame per level. A fused one pushes
# (5, fallback, node), laid out as a choice frame: its result takes the
# node frame's path, and is tested first as it is innermost's hot path,
# and its failure takes the choice's.
#
# full_td's spine loop charges the adhoc before its sort lookup, as the
# loop head does; off the rule's sort it hands the units back to the
# loop head, and a rule that fails is a failure there and then, never
# applied twice.
#
# A try never fails, so a try that starts on a try frame replaces it.
# When that frame holds the current term (by identity) and this try
# instruction, the run ends as out of fuel. That is exact: the frame on
# top has not been popped since it was pushed, as it could not be pushed
# again, so no frame below it has been touched either, and the machine
# is back in the state just after that push. Appliers and guards are
# pure, so the run would go round that segment forever, at one unit or
# more a turn; and as the segment has run once in full, the trace holds
# every rule that it fires.
#
# Rebuilt nodes skip the class call to Node: an n-ary one is built by
# terms._node, and a unary one, built once per level of a descent that
# rewrites, by _node's two slot stores written inline, which saves a
# function call per level.


def _execute(code, term, fuel, constr_sort, trace):
    stack = []
    append = stack.append
    pop = stack.pop
    t = term
    val = _FAILED
    lit_t = Lit
    node_t = Node
    new = object.__new__
    node_of = _node
    failed = _FAILED

    while True:
        # evaluate (code, t) down to a result in val
        while True:
            fuel -= code[1]
            if fuel < 0:
                return None
            op = code[0]
            if op == 7:  # ADHOC or a bare rule, then its next instruction if any
                ts = t.sort if type(t) is lit_t else constr_sort[t.constr]
                if ts != code[3]:
                    if code[2] is None:  # a bare rule
                        val = failed
                        break
                    if code[6] is not None:
                        append((0, code[6]))
                    code = code[2]
                    continue
                out = code[4](t)
                if out is None:
                    val = failed
                    break
                if trace is not None:
                    trace.update(code[5])
                if code[6] is None:
                    val = out
                    break
                t = out
                code = code[6]
            elif op == 5:  # ONE, then its fallback if any
                ch = t.children
                if ch:
                    body = code[2]
                    fallback = code[3]
                    if len(ch) == 1:
                        if body is code and fallback is not None:  # once_bu down a spine
                            cost = code[1]
                            while True:
                                append((5, fallback, t))
                                t = ch[0]
                                ch = t.children
                                if len(ch) != 1:
                                    break
                                fuel -= cost
                                if fuel < 0:
                                    return None
                            continue
                        # a node frame, or for a fused fallback a tuple frame
                        append(t if fallback is None else (5, fallback, t))
                    else:
                        # frame layout: [tag, body, node, idx, fallback]
                        append([3, body, t, 0, fallback])
                    code = body
                    t = ch[0]
                elif code[3] is None:
                    val = failed
                    break
                else:
                    code = code[3]
            elif op == 4:  # ALL
                ch = t.children
                if not ch:
                    val = t
                    break
                body = code[2]
                if len(ch) != 1:
                    # frame layout: [tag, body, node, idx, *rebuilt children]
                    append([2, body, t, 0])
                elif body[0] == 7 and body[6] is code:  # full_td down a spine
                    cost, sort, rule, unit = body[1], body[3], body[4], code[1]
                    while True:
                        append(t)  # a node frame
                        t = ch[0]
                        fuel -= cost
                        if fuel < 0:
                            return None
                        if (t.sort if type(t) is lit_t else constr_sort[t.constr]) != sort:
                            fuel += cost  # charged again at the loop head
                            code = body
                            break
                        t = rule(t)
                        if t is None:
                            break
                        if trace is not None:
                            trace.update(body[5])
                        ch = t.children
                        if len(ch) != 1:
                            break
                        fuel -= unit
                        if fuel < 0:
                            return None
                    if t is None:  # the rule failed
                        val = failed
                        break
                    continue
                else:
                    append(t)  # a node frame
                code = body
                t = ch[0]
            elif op == 2:  # SEQ
                append((0, code[3]))
                code = code[2]
            elif op == 8:  # TRY
                if stack:
                    top = stack[-1]
                    if type(top) is not node_t and top[0] == 4:  # in tail position of a try
                        if top[1] is t and top[2] is code:  # back where top was pushed
                            return None
                        pop()
                append((4, t, code))
                code = code[2]
            elif op == 3:  # CHOICE
                append((1, code[3], t))
                code = code[2]
            elif op == 0:  # ID
                val = t
                break
            elif op == 1:  # FAIL
                val = failed
                break
            else:  # VAR
                code = code[2]

        # hand val to the pending continuations
        while True:
            if not stack:
                return val
            frame = pop()
            if type(frame) is node_t:
                if val is failed:
                    continue
            else:
                k = frame[0]
                if k == 5 and val is not failed:
                    frame = frame[2]  # the fused one's node, as a node frame
                elif k == 3:  # searching children of one
                    node = frame[2]
                    idx = frame[3]
                    ch = node.children
                    if val is failed:
                        idx += 1
                        if idx < len(ch):
                            frame[3] = idx
                            append(frame)
                            code = frame[1]
                            t = ch[idx]
                            break
                        if frame[4] is None:
                            continue
                        code = frame[4]
                        t = node
                        break
                    if val is ch[idx]:
                        val = node
                    else:
                        rebuilt = list(ch)
                        rebuilt[idx] = val
                        val = node_of(node.constr, tuple(rebuilt))
                    continue
                elif k == 0:  # after left of a sequence
                    if val is failed:
                        continue
                    code = frame[1]
                    t = val
                    break
                elif k == 4:  # try: id on the original term
                    if val is failed:
                        fuel -= 1
                        if fuel < 0:
                            return None
                        val = frame[1]
                    continue
                elif k == 2:  # collecting children of all
                    if val is failed:
                        continue
                    frame.append(val)
                    node = frame[2]
                    idx = frame[3] + 1
                    ch = node.children
                    if idx == len(ch):
                        for i, c in enumerate(ch):
                            if frame[4 + i] is not c:
                                val = node_of(node.constr, tuple(frame[4:]))
                                break
                        else:
                            val = node
                        continue
                    frame[3] = idx
                    append(frame)
                    code = frame[1]
                    t = ch[idx]
                    break
                else:  # a choice's fallback, or a fused one's after a failure
                    if val is failed:
                        code = frame[1]
                        t = frame[2]
                        break
                    continue
            # all, one or a fused one over its only child, after a success
            if val is frame.children[0]:
                val = frame
            else:
                # terms._node(frame.constr, (val,)), inline
                node = new(node_t)
                node.constr = frame.constr
                node.children = (val,)
                val = node
