"""Seeded input generation and the oracles the outputs are checked against.

Nothing here imports stratkit. Terms are modelled as plain tuples,
``("C", constr, children)`` for a constructor application and
``("L", value, sort)`` for a literal, and printed by this module's own
printer. Every expected output is computed from that model, so a check
never compares stratkit with itself.
"""

from __future__ import annotations

import json
import os
import random

NAT_SIG = """\
sort Nat
sort Bool
sort NatTree
sort BoolTree
list NatTree
list BoolTree
Zero : -> Nat
Succ : Nat -> Nat
True : -> Bool
False : -> Bool
Node : Nat * [NatTree] -> NatTree
BNode : Bool * [BoolTree] -> BoolTree
"""

# The company signature of the paper's running example, plus an int
# sort that head-count queries extract into.
COMPANY_SIG = """\
sort Company
sort Department
sort Manager
sort Unit
sort Employee
list Department
list Unit
prim Name : string
prim Salary : float
prim Headcount : int
Company : [Department] -> Company
Department : Name * Manager * [Unit] -> Department
Manager : Employee -> Manager
EmployeeUnit : Employee -> Unit
DepartmentUnit : Department -> Unit
Employee : Name * Salary -> Employee
"""

INCREMENT = "@infallible\nrule increment : Nat = n -> (Succ n)\n"

REWRITE_PROGRAMS = {
    # n -> 2n+1 on every number
    "inc_bu": INCREMENT + "main = full_bu(adhoc(id, increment))\n",
    # n -> n+1 on the first number of each path
    "inc_stop": INCREMENT + "main = stop_td(adhoc(fail, increment))\n",
    # every salary becomes 0.0
    "zero_salary": "@infallible\nrule zeroSalary : Salary = s -> 0.0:Salary\n"
    "main = full_td(adhoc(id, zeroSalary))\n",
}

# Query bodies: (qrule declarations, body expression, extracted kind).
QUERY_BODIES = {
    "salary": (
        "qrule getsal : Salary = s -> s\n",
        "adhocq(failq, getsal)",
        "float",
    ),
    "nonmgr": (
        "qrule empsal : Employee = (Employee n s) -> s\n"
        "qrule mgrzero : Manager = m -> 0.0:Salary\n",
        "adhocq(adhocq(failq, empsal), mgrzero)",
        "float",
    ),
    "headcount": (
        "qrule one : Employee = e -> 1:Headcount\n",
        "adhocq(failq, one)",
        "int",
    ),
}
SCHEMES = ("full_cl", "stop_cl", "once_cl")
MONOIDS_FOR_KIND = {
    "float": ("float-sum", "max", "list"),
    "int": ("int-sum", "count", "max", "list"),
}

# Divergent programs of the paper's catalogue; each exhausts any fuel
# budget on a term holding a number.
DIVERGENT_PROGRAMS = {
    "diverge_full_td": INCREMENT + "main = full_td(adhoc(id, increment))\n",
    "diverge_innermost": INCREMENT + "main = innermost(adhoc(fail, increment))\n",
}
DIVERGENT_FUEL = 1_000_000

# Size of every workload at scale 1. The chains stay at depths where
# validate_term, which is quadratic in depth, finishes in well under a
# second per pass.
SIZES = {
    "wide_depth": 4,
    "wide_branch": 6,
    "rw_departments": 60,
    "rw_units": 30,
    "chain_depth": 250,
    "q_departments": 16,
    "q_units": 12,
    "corpus_programs": 48,
    "law_cases": 100,
}


# ---------------------------------------------------------------------------
# Term model and printer


def C(constr, *children):
    return ("C", constr, children)


def L(value, sort):
    return ("L", value, sort)


def nat(n):
    t = C("Zero")
    for _ in range(n):
        t = C("Succ", t)
    return t


def cons_list(elem_sort, items):
    out = C(f"Nil_{elem_sort}")
    for x in reversed(items):
        out = C(f"Cons_{elem_sort}", x, out)
    return out


def _lit_text(t):
    _, value, sort = t
    if isinstance(value, str):
        escaped = (
            value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}":{sort}'
    return f"{value!r}:{sort}"


def sexpr(t):
    """The term file syntax: ``(Constr child ...)`` and ``value:Sort``."""
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif x[0] == "L":
            out.append(_lit_text(x))
        else:
            out.append("(" + x[1])
            stack.append(")")
            for c in reversed(x[2]):
                stack.append(c)
                stack.append(" ")
    return "".join(out)


def count_nodes(t):
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        n += 1
        if x[0] == "C":
            stack.extend(x[2])
    return n


def _sexpr_nodes(text):
    """Nodes in printed term text: one per constructor or literal."""
    return text.count("(") + text.count(":")


def preorder(t):
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        if x[0] == "C":
            stack.extend(reversed(x[2]))


def map_nats(t, f):
    """Rebuild t with every maximal Succ/Zero chain n replaced by f(n)."""

    def go(x):
        if x[0] == "L":
            return x
        if x[1] in ("Zero", "Succ"):
            n = 0
            while x[1] == "Succ":
                n += 1
                x = x[2][0]
            return nat(f(n))
        return C(x[1], *(go(c) for c in x[2]))

    return go(t)


def zero_salaries(t):
    if t[0] == "L":
        return L(0.0, "Salary") if t[2] == "Salary" else t
    return C(t[1], *(zero_salaries(c) for c in t[2]))


# ---------------------------------------------------------------------------
# Shapes


def wide_tree(rng, depth, branch):
    kids = [wide_tree(rng, depth - 1, branch) for _ in range(branch)] if depth else []
    return C("Node", nat(rng.randrange(5)), cons_list("NatTree", kids))


def _name(rng):
    return L("".join(rng.choice("abcdefghij") for _ in range(5)), "Name")


def _employee(rng):
    return C("Employee", _name(rng), L(float(rng.randrange(1, 1000)), "Salary"))


def department(rng, units, nested=True):
    items = []
    for j in range(units):
        if nested and j % 10 == 9:
            sub = department(rng, 3, nested=False)
            items.append(C("DepartmentUnit", sub))
        else:
            items.append(C("EmployeeUnit", _employee(rng)))
    return C("Department", _name(rng), C("Manager", _employee(rng)), cons_list("Unit", items))


def company(rng, departments, units):
    return C("Company", cons_list("Department", [department(rng, units) for _ in range(departments)]))


# ---------------------------------------------------------------------------
# Query oracle: plain recursion over the model


def body_hit(body, x):
    """Extracted term of a query body at node x, or None when it has no result."""
    if body == "salary":
        return x if x[0] == "L" and x[2] == "Salary" else None
    if x[0] != "C":
        return None
    if body == "nonmgr":
        if x[1] == "Employee":
            return x[2][1]
        if x[1] == "Manager":
            return L(0.0, "Salary")
        return None
    if body == "headcount":
        return L(1, "Headcount") if x[1] == "Employee" else None
    raise ValueError(body)


def scheme_hits(body, scheme, t):
    """Hits in preorder under a collection scheme."""
    hits = []

    def walk(x):
        h = body_hit(body, x)
        if h is not None:
            hits.append(h)
            if scheme == "once_cl":
                return True
            if scheme == "stop_cl":
                return False
        if x[0] == "C":
            for c in x[2]:
                if walk(c):
                    return True
        return False

    walk(t)
    return hits


def query_line(body, scheme, monoid, t):
    """What `stratkit query` prints for this body, scheme and monoid."""
    hits = scheme_hits(body, scheme, t)
    if scheme == "once_cl":
        if not hits:
            return "NO-RESULT"
        hits = hits[:1]
    if monoid == "list":
        return "[" + ", ".join(_lit_text(h) if h[0] == "L" else sexpr(h) for h in hits) + "]"
    values = [h[1] for h in hits]
    if scheme == "once_cl":
        return str(values[0])
    if monoid == "max":
        return "none" if not values else str(max(values))
    total = 0.0 if monoid == "float-sum" else 0
    for v in values:
        total += v
    return str(total)


# ---------------------------------------------------------------------------
# Program corpus for the analyses

CORPUS_RULES = {
    "increment": ("Nat", "@infallible\nrule increment : Nat = n -> (Succ n)\n"),
    "dropSucc": ("Nat", "rule dropSucc : Nat = (Succ n) -> n\n"),
    "atEven": ("Nat", "rule atEven : Nat = n -> (Succ (Succ n)) where even_nat\n"),
    "atOdd": ("Nat", "rule atOdd : Nat = n -> (Succ n) where odd_nat\n"),
    "flipTrue": ("Bool", "rule flipTrue : Bool = (True) -> (False)\n"),
}
# scheme -> recursion binders its expansion introduces
CORPUS_SCHEMES = {
    "full_td": 1, "full_bu": 1, "once_bu": 1, "once_td": 1, "stop_td": 1,
    "repeat": 1, "innermost": 2, "try": 0,
}
MEASURES = ("depth", "count:Succ,depth", "count:Succ,count:Node,depth")
CHECK_ROOTS = ("NatTree", "BoolTree", "Nat")


def _corpus_expr(rng, binders, combos=2):
    """A strategy expression with at most `binders` nested recursion
    binders and `combos` nested `;`/`<+` on any path, and the names of
    the rules it mentions."""
    roll = rng.random()
    if binders > 0 and roll < 0.55:
        choices = [s for s, b in CORPUS_SCHEMES.items() if b <= binders]
        scheme = rng.choice(choices)
        # A bottom-up full traversal re-applies its argument above every
        # subterm that argument has grown; around another traversal of
        # growing rules it terminates only after exponentially many
        # steps, beyond any fuel the run-time checks could give it.
        inner_binders = 0 if scheme == "full_bu" else binders - CORPUS_SCHEMES[scheme]
        inner, used = _corpus_expr(rng, inner_binders, combos)
        return f"{scheme}({inner})", used
    if combos > 0 and roll < 0.75:
        a, ua = _corpus_expr(rng, binders, combos - 1)
        b, ub = _corpus_expr(rng, binders, combos - 1)
        op = rng.choice((" ; ", " <+ "))
        return f"({a}{op}{b})", ua | ub
    rule = rng.choice(sorted(CORPUS_RULES))
    default = rng.choice(("id", "fail"))
    if rng.random() < 0.3:
        other = rng.choice(sorted(CORPUS_RULES))
        return f"adhoc(adhoc({default}, {other}), {rule})", {rule, other}
    return f"adhoc({default}, {rule})", {rule}


def corpus_program(rng):
    """A program text and the measure it is analysed under. Binder depth
    times measure components stays at most 4: the termination analysis
    tries 3^components candidates per binder, nested binders multiply,
    and a corpus whose cost swings with the seed would swing lint_s."""
    components = rng.randint(1, 3)
    measure = MEASURES[components - 1]
    binders = {1: 3, 2: 2, 3: 1}[components]
    expr, used = _corpus_expr(rng, binders)
    text = "".join(CORPUS_RULES[r][1] for r in sorted(used))
    if rng.random() < 0.3:
        text += "def twice(s) = s ; s\n"
        expr = f"twice({expr})"
    return text + f"main = {expr}\n", measure


def small_term(rng, root, depth):
    """A small term of sort root, for the run-time checks."""
    if root == "Nat":
        return nat(rng.randrange(6))
    if root == "Bool":
        return C(rng.choice(("True", "False")))
    elem = "NatTree" if root == "NatTree" else "BoolTree"
    head = small_term(rng, "Nat" if elem == "NatTree" else "Bool", depth)
    kids = [small_term(rng, root, depth - 1) for _ in range(rng.randrange(3))] if depth else []
    return C("Node" if elem == "NatTree" else "BNode", head, cons_list(elem, kids))


def to_json(t):
    """Nested lists: ["C", constr, [children]] or ["L", value, sort]."""
    if t[0] == "L":
        return ["L", t[1], t[2]]
    return ["C", t[1], [to_json(c) for c in t[2]]]


# ---------------------------------------------------------------------------
# Workload generation


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def generate(workload, seed, outdir, scale=1.0):
    """Write the workload's input files into outdir and return a manifest:
    the operations, their file paths (relative to outdir) and expected
    outputs."""
    os.makedirs(outdir, exist_ok=True)
    rng = random.Random(f"{seed}:{workload}")

    def size(key):
        return max(1, round(SIZES[key] * scale))

    m = {"workload": workload, "seed": seed, "scale": scale}
    if workload == "rewrite":
        _write(os.path.join(outdir, "nat.sig"), NAT_SIG)
        _write(os.path.join(outdir, "company.sig"), COMPANY_SIG)
        for name, text in REWRITE_PROGRAMS.items():
            _write(os.path.join(outdir, f"{name}.strat"), text)
        wide = wide_tree(rng, size("wide_depth"), SIZES["wide_branch"])
        comp = company(rng, size("rw_departments"), size("rw_units"))
        d = size("chain_depth")
        chains = {f"chain{k}": nat(k * d) for k in (1, 2, 4)}
        inputs = {"wide": wide, "company": comp, **chains}
        for name, t in inputs.items():
            _write(os.path.join(outdir, f"{name}.term"), sexpr(t) + "\n")
        ops = [
            ("wide", "nat.sig", "inc_bu", sexpr(map_nats(wide, lambda n: 2 * n + 1)), "front"),
            ("wide", "nat.sig", "inc_stop", sexpr(map_nats(wide, lambda n: n + 1)), "front"),
            ("company", "company.sig", "zero_salary", sexpr(zero_salaries(comp)), "front"),
        ]
        ops += [
            (name, "nat.sig", "inc_bu", sexpr(nat(2 * k * d + 1)), "deep")
            for name, k in (("chain1", 1), ("chain2", 2), ("chain4", 4))
        ]
        m["ops"] = [
            {"term": f"{t}.term", "sig": s, "program": f"{p}.strat", "expected": e,
             "group": g, "nodes": count_nodes(inputs[t]), "out_nodes": _sexpr_nodes(e)}
            for t, s, p, e, g in ops
        ]
        m["ops"][2]["salaries"] = sum(1 for x in preorder(comp) if x[0] == "L" and x[2] == "Salary")
        m["programs"] = [["nat.sig", "inc_bu.strat"], ["nat.sig", "inc_stop.strat"],
                         ["company.sig", "zero_salary.strat"]]
        # the CLI is timed on the company rewrite
        m["cli"] = {"args": ["run", "company.sig", "zero_salary.strat", "company.term"],
                    "expected": m["ops"][2]["expected"] + "\n", "exit": 0, "op": 2}
    elif workload == "query":
        _write(os.path.join(outdir, "company.sig"), COMPANY_SIG)
        queries = []
        for body, (decls, expr, kind) in QUERY_BODIES.items():
            for scheme in SCHEMES:
                qfile = f"{body}_{scheme}.query"
                _write(os.path.join(outdir, qfile), decls + f"main = {scheme}({expr})\n")
                for monoid in MONOIDS_FOR_KIND[kind]:
                    queries.append({"query": qfile, "body": body, "scheme": scheme,
                                    "monoid": monoid})
        terms = []
        for k in (1, 2, 4):
            t = company(rng, k * size("q_departments"), size("q_units"))
            tname = f"company{k}.term"
            _write(os.path.join(outdir, tname), sexpr(t) + "\n")
            expected = [query_line(q["body"], q["scheme"], q["monoid"], t) for q in queries]
            terms.append({
                "term": tname, "nodes": count_nodes(t), "expected": expected,
                "list_elements": sum(_sexpr_nodes(e) for q, e in zip(queries, expected)
                                     if q["monoid"] == "list"),
            })
        m["queries"] = queries
        m["terms"] = terms
        m["programs"] = [["company.sig", q] for q in sorted({q["query"] for q in queries})]
        cli_q = next(i for i, q in enumerate(queries)
                     if q["scheme"] == "full_cl" and q["monoid"] == "list" and q["body"] == "salary")
        m["cli"] = {"args": ["query", "company.sig", queries[cli_q]["query"], terms[-1]["term"],
                             "--monoid", "list"],
                    "expected": terms[-1]["expected"][cli_q] + "\n", "exit": 0,
                    "query": cli_q, "term": len(terms) - 1}
    elif workload == "check":
        _write(os.path.join(outdir, "nat.sig"), NAT_SIG)
        corpus = []
        for i in range(size("corpus_programs")):
            text, measure = corpus_program(rng)
            pfile = f"corpus{i:02d}.strat"
            _write(os.path.join(outdir, pfile), text)
            corpus.append({"program": pfile, "measure": measure})
        for name, text in DIVERGENT_PROGRAMS.items():
            _write(os.path.join(outdir, f"{name}.strat"), text)
        check_terms = [{"root": root, "term": to_json(small_term(rng, root, 2))}
                       for root in CHECK_ROOTS for _ in range(2)]
        m["corpus"] = corpus
        m["check_terms"] = check_terms
        # divergent runs use fixed small terms, independent of the seed
        m["divergent"] = [
            {"program": f"{name}.strat",
             "term": to_json(C("Node", C("Zero"), C("Nil_NatTree")))}
            for name in DIVERGENT_PROGRAMS
        ]
        m["divergent_fuel"] = DIVERGENT_FUEL
        m["law_cases"] = size("law_cases")
        m["programs"] = [["nat.sig", c["program"]] for c in corpus]
        # The CLI lints a program of fixed size, so that its cost does
        # not change with the seed. innermost re-applies a rule that adds
        # a Succ, so the program diverges and the only finding is that
        # termination is NOT PROVEN (exit 1). The rule cannot fail and
        # Nat is reachable from NatTree, so there is no other finding.
        m["cli"] = {"args": ["lint", "nat.sig", "diverge_innermost.strat", "--root", "NatTree",
                             "--measure", "depth"],
                    "expected": "main: termination NOT PROVEN under depth\n", "exit": 1,
                    "lint": {"program": "diverge_innermost.strat", "measure": "depth"}}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(m, fh)
    return m
