"""Type-unifying queries against a recursive reference evaluator.

run_query compiles a query to closures that walk terms with an explicit
stack; the reference here is the recursive interpreter, plus closed-form
oracles (preorder literal listing, direct salary sums) that do not
mention the combinators at all.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratkit.errors import KindError, SignatureError, TermError
from stratkit.queries import (
    MONOIDS,
    NO_RESULT,
    UNIT,
    AdhocQ,
    AllQ,
    BothQ,
    ChoiceQ,
    ConstQ,
    FailQ,
    FullCl,
    OnceCl,
    QueryRule,
    StopCl,
    check_query_kinds,
    compile_query,
    get_monoid,
    run_query,
    yield_sorts,
)
from stratkit.terms import (
    Lit,
    Node,
    PLit,
    PNode,
    PVar,
    match,
    sort_of,
    subterms,
)

from genlib import instantiate

# ---------------------------------------------------------------------------
# Company vocabulary

GETSAL = QueryRule("getsal", "Salary", PVar("s"), PVar("s"))
EMPSAL = QueryRule(
    "empsal", "Employee", PNode("Employee", (PVar("n"), PVar("s"))), PVar("s")
)
MGRZERO = QueryRule("mgrzero", "Manager", PVar("m"), PLit(0.0, "Salary"))
ONE = QueryRule("one", "Employee", PVar("e"), PLit(1, "Headcount"))
#: matches only employees earning 10.0
TENS = QueryRule(
    "tens",
    "Employee",
    PNode("Employee", (PVar("n"), PLit(10.0, "Salary"))),
    PLit(1, "Headcount"),
)
#: extracts a whole node, which only the list monoid takes
WHOLE = QueryRule("whole", "Employee", PVar("e"), PVar("e"))


def employee(name: str, sal: float) -> Node:
    return Node("Employee", (Lit(name, "Name"), Lit(sal, "Salary")))


def unit_of(e: Node) -> Node:
    return Node("EmployeeUnit", (e,))


def department(name: str, mgr: Node, units) -> Node:
    lst = Node("Nil_Unit")
    for u in reversed(units):
        lst = Node("Cons_Unit", (u, lst))
    return Node("Department", (Lit(name, "Name"), Node("Manager", (mgr,)), lst))


def company(depts) -> Node:
    lst = Node("Nil_Department")
    for d in reversed(depts):
        lst = Node("Cons_Department", (d, lst))
    return Node("Company", (lst,))


C0 = company(
    [
        department(
            "R",
            employee("m", 100.0),
            [unit_of(employee("a", 10.0)), unit_of(employee("b", 20.0))],
        )
    ]
)

salaries = st.integers(min_value=0, max_value=60).map(lambda i: float(5 * i))
employees = st.tuples(st.integers(0, 99), salaries).map(
    lambda p: employee(f"e{p[0]}", p[1])
)

departments = st.recursive(
    st.tuples(employees, st.lists(employees, max_size=3)).map(
        lambda p: department("d", p[0], [unit_of(e) for e in p[1]])
    ),
    lambda sub: st.tuples(employees, st.lists(sub, min_size=1, max_size=2)).map(
        lambda p: department("d", p[0], [Node("DepartmentUnit", (d,)) for d in p[1]])
    ),
    max_leaves=6,
)

companies = st.lists(departments, max_size=3).map(company)

#: per monoid kind, the cases whose extractions fit it
KIND_CASES = {
    "float": [GETSAL, EMPSAL, MGRZERO],
    "int": [ONE, TENS],
    "number": [GETSAL, EMPSAL, MGRZERO, ONE, TENS],
    "list": [GETSAL, EMPSAL, MGRZERO, ONE, TENS, WHOLE],
}

#: per monoid, constants of its kind
CONSTANTS = {
    "float-sum": salaries,
    "int-sum": st.integers(-5, 5),
    "count": st.integers(0, 5),
    "max": st.one_of(st.integers(-5, 5), salaries),
    "list": st.lists(st.integers(0, 3), max_size=2),
}


def queries_for(name):
    """Queries under monoid `name`, the cases of its kind mixed freely,
    so chains of cases on one sort are drawn too. A pair or a choice
    often has a case on its left, so collection bodies meet a left side
    that yields on one sort only."""
    cases = st.sampled_from(KIND_CASES[MONOIDS[name].kind])
    return st.recursive(
        st.one_of(
            st.just(ConstQ(UNIT)),
            CONSTANTS[name].map(ConstQ),
            st.just(FailQ()),
        ),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: BothQ(*p)),
            st.tuples(sub, sub).map(lambda p: ChoiceQ(*p)),
            st.tuples(st.sampled_from((BothQ, ChoiceQ)), sub, cases, sub).map(
                lambda p: p[0](AdhocQ(p[1], p[2]), p[3])
            ),
            sub.map(AllQ),
            st.tuples(sub, cases).map(lambda p: AdhocQ(*p)),
            sub.map(FullCl),
            sub.map(StopCl),
            sub.map(OnceCl),
        ),
        max_leaves=6,
    )


# ---------------------------------------------------------------------------
# Reference evaluator, recursive


def ref_query(sig, q, t, monoid):
    kind = type(q).__name__
    if kind == "ConstQ":
        return monoid.unit if q.value is UNIT else q.value
    if kind == "FailQ":
        return NO_RESULT
    if kind == "BothQ":
        a = ref_query(sig, q.left, t, monoid)
        if a is NO_RESULT:
            return NO_RESULT
        b = ref_query(sig, q.right, t, monoid)
        if b is NO_RESULT:
            return NO_RESULT
        return monoid.combine(a, b)
    if kind == "ChoiceQ":
        a = ref_query(sig, q.left, t, monoid)
        return a if a is not NO_RESULT else ref_query(sig, q.right, t, monoid)
    if kind == "AllQ":
        acc = monoid.unit
        for c in t.children:
            r = ref_query(sig, q.body, c, monoid)
            if r is NO_RESULT:
                return NO_RESULT
            acc = monoid.combine(acc, r)
        return acc
    if kind == "AdhocQ":
        if sort_of(sig, t) == q.case.sort:
            binding = match(q.case.lhs, t)
            if binding is None:
                return NO_RESULT
            out = instantiate(q.case.extract, binding)
            if monoid.kind == "list":
                return [out]
            assert isinstance(out, Lit)
            return out.value
        return ref_query(sig, q.default, t, monoid)
    if kind == "FullCl":
        acc = ref_query(sig, q.body, t, monoid)
        acc = monoid.unit if acc is NO_RESULT else monoid.combine(monoid.unit, acc)
        for c in t.children:
            acc = monoid.combine(acc, ref_query(sig, FullCl(q.body), c, monoid))
        return acc
    if kind == "StopCl":
        r = ref_query(sig, q.body, t, monoid)
        if r is not NO_RESULT:
            return monoid.combine(monoid.unit, r)
        acc = monoid.unit
        for c in t.children:
            acc = monoid.combine(acc, ref_query(sig, StopCl(q.body), c, monoid))
        return acc
    if kind == "OnceCl":
        r = ref_query(sig, q.body, t, monoid)
        if r is not NO_RESULT:
            return r
        for c in t.children:
            r = ref_query(sig, OnceCl(q.body), c, monoid)
            if r is not NO_RESULT:
                return r
        return NO_RESULT
    raise AssertionError(q)


@given(data=st.data())
def test_engine_agrees_with_reference(company_sig, data):
    t = data.draw(companies)
    for name in sorted(MONOIDS):
        monoid = MONOIDS[name]
        q = data.draw(queries_for(name), label=name)
        run = compile_query(company_sig, q, monoid)
        # a second term shows that a compiled query keeps no state
        for x in (t, C0):
            want = ref_query(company_sig, q, x, monoid)
            # repr tells 1 from 1.0, and the printed terms of a list apart
            assert repr(run(x)) == repr(want)


@given(data=st.data())
def test_no_result_outside_the_yield_sorts(company_sig, data):
    # the static fact the collection plans rest on, against the reference
    t = data.draw(companies)
    for name in sorted(MONOIDS):
        monoid = MONOIDS[name]
        q = data.draw(queries_for(name), label=name)
        sorts = yield_sorts(company_sig, q)
        for x in (t, C0):
            for sub in subterms(x):
                if sort_of(company_sig, sub) not in sorts:
                    assert ref_query(company_sig, q, sub, monoid) is NO_RESULT


#: collection bodies built from the combinators whose yield sorts are
#: not every sort, with cases of every kind, so a case may fire and not
#: fit the monoid
plan_bodies = st.recursive(
    st.sampled_from((FailQ(), ConstQ(UNIT))),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(KIND_CASES["list"])).map(
            lambda p: AdhocQ(*p)
        ),
        st.tuples(sub, sub).map(lambda p: BothQ(*p)),
        st.tuples(sub, sub).map(lambda p: ChoiceQ(*p)),
    ),
    max_leaves=6,
)


def body_everywhere(sig, q, t, monoid):
    """Collection scheme q at t with its body called at every node the
    walk reaches, whatever its sort: the value, or the KindError of the
    first case that fires with an extraction outside the monoid."""
    body = compile_query(sig, q.body, monoid)
    hits = []

    def visit(x):  # False once once_cl has its value
        r = body(x)
        if r is not NO_RESULT:
            hits.append(r)
            if type(q) is not FullCl:
                return type(q) is StopCl
        return all(visit(c) for c in x.children)

    try:
        visit(t)
    except KindError as e:
        return e
    if type(q) is OnceCl:
        return hits[0] if hits else NO_RESULT
    return monoid.fold(hits)


@given(data=st.data())
def test_collection_calls_the_body_wherever_it_may_fire(company_sig, data):
    t = data.draw(companies)
    scheme = data.draw(st.sampled_from((FullCl, StopCl, OnceCl)))
    for name in sorted(MONOIDS):
        monoid = MONOIDS[name]
        q = scheme(data.draw(plan_bodies, label=name))
        run = compile_query(company_sig, q, monoid)
        for x in (t, C0):
            try:
                got = run(x)
            except KindError as e:
                got = e
            assert repr(got) == repr(body_everywhere(company_sig, q, x, monoid))


def test_a_pair_reports_its_left_case_where_the_right_gives_nothing(company_sig):
    # both() runs its left side first, so a left case that fires reports
    # an extraction outside the monoid even where the pair has no value
    float_sum = MONOIDS["float-sum"]
    whole = AdhocQ(FailQ(), WHOLE)
    for body in (BothQ(whole, FailQ()), BothQ(whole, AdhocQ(FailQ(), MGRZERO))):
        for scheme in (FullCl, StopCl, OnceCl):
            with pytest.raises(KindError) as exc:
                run_query(company_sig, scheme(body), C0, float_sum)
            assert str(exc.value) == (
                'case \'whole\' extracted (Employee "m":Name 100.0:Salary), '
                "which does not fit monoid 'float-sum'"
            )


# ---------------------------------------------------------------------------
# Closed-form oracles


def preorder_salaries(t):
    return [s.value for s in subterms(t) if isinstance(s, Lit) and s.sort == "Salary"]


@given(companies)
def test_full_collect_sums_every_salary(company_sig, t):
    q = FullCl(AdhocQ(ConstQ(UNIT), GETSAL))
    got = run_query(company_sig, q, t, MONOIDS["float-sum"])
    assert got == sum(preorder_salaries(t))


@given(companies)
def test_full_collect_with_list_monoid_is_preorder(company_sig, t):
    q = FullCl(AdhocQ(FailQ(), GETSAL))
    got = run_query(company_sig, q, t, MONOIDS["list"])
    want = [s for s in subterms(t) if isinstance(s, Lit) and s.sort == "Salary"]
    assert got == want


@given(companies)
def test_stop_collect_never_exceeds_full_collect(company_sig, t):
    body = AdhocQ(FailQ(), EMPSAL)
    full = run_query(company_sig, FullCl(body), t, MONOIDS["float-sum"])
    stop = run_query(company_sig, StopCl(body), t, MONOIDS["float-sum"])
    assert stop <= full


@given(companies)
def test_once_collect_is_the_head_of_stop_collect(company_sig, t):
    body = AdhocQ(FailQ(), EMPSAL)
    stop = run_query(company_sig, StopCl(body), t, MONOIDS["list"])
    once = run_query(company_sig, OnceCl(body), t, MONOIDS["list"])
    if stop:
        assert once == stop[:1]
    else:
        assert once is NO_RESULT


# ---------------------------------------------------------------------------
# The fixed scenarios


def test_total_salary_scenario(company_sig):
    q = FullCl(AdhocQ(ConstQ(UNIT), GETSAL))
    assert run_query(company_sig, q, C0, MONOIDS["float-sum"]) == 130.0


def test_non_manager_salary_scenario(company_sig):
    q = StopCl(AdhocQ(AdhocQ(FailQ(), EMPSAL), MGRZERO))
    assert run_query(company_sig, q, C0, MONOIDS["float-sum"]) == 30.0


def test_once_over_case_free_tree_is_no_result(company_sig):
    q = OnceCl(AdhocQ(FailQ(), EMPSAL))
    empty = company([])
    assert run_query(company_sig, q, empty, MONOIDS["float-sum"]) is NO_RESULT


def test_once_finds_the_manager_first(company_sig):
    q = OnceCl(AdhocQ(FailQ(), EMPSAL))
    assert run_query(company_sig, q, C0, MONOIDS["float-sum"]) == 100.0


# ---------------------------------------------------------------------------
# Monoids

MONOID_VALUES = {
    "int-sum": st.integers(-100, 100),
    "count": st.integers(0, 100),
    "float-sum": st.integers(-50, 50).map(lambda i: i * 0.5),
    "list": st.lists(st.integers(0, 5), max_size=3),
    "max": st.one_of(st.none(), st.integers(-10, 10)),
}


@pytest.mark.parametrize("name", sorted(MONOIDS))
@given(data=st.data())
def test_monoid_laws(name, data):
    m = MONOIDS[name]
    values = MONOID_VALUES[name]
    a = data.draw(values)
    b = data.draw(values)
    c = data.draw(values)
    assert m.combine(m.unit, a) == a
    assert m.combine(a, m.unit) == a
    assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))


#: wider than MONOID_VALUES: any finite float, and ints tied with floats
#: under max, where the first maximum must win
FOLD_VALUES = {
    **MONOID_VALUES,
    "float-sum": st.floats(allow_nan=False, allow_infinity=False),
    "max": st.one_of(
        st.none(), st.integers(-3, 3), st.integers(-3, 3).map(float)
    ),
}


@pytest.mark.parametrize("name", sorted(MONOIDS))
@given(data=st.data())
def test_fold_is_the_left_fold_of_combine(name, data):
    m = MONOIDS[name]
    xs = data.draw(st.lists(FOLD_VALUES[name], max_size=12))
    want = functools.reduce(m.combine, xs, m.unit)
    # repr tells 1 from 1.0 and 0.0 from -0.0
    assert repr(m.fold(list(xs))) == repr(want)


def test_get_monoid_reports_the_known_names():
    assert get_monoid("max").name == "max"
    with pytest.raises(KindError, match="count.*float-sum.*int-sum"):
        get_monoid("product")


# ---------------------------------------------------------------------------
# Kind discipline


def test_constants_are_checked_at_load_time():
    check_query_kinds(BothQ(ConstQ(UNIT), ConstQ(1.5)), MONOIDS["float-sum"])
    with pytest.raises(KindError, match="does not fit"):
        check_query_kinds(BothQ(ConstQ(UNIT), ConstQ(1)), MONOIDS["float-sum"])
    with pytest.raises(KindError):
        check_query_kinds(FullCl(ConstQ("x")), MONOIDS["int-sum"])
    # the first constant that does not fit, in reading order, is named
    for node in (BothQ, ChoiceQ):
        with pytest.raises(KindError) as exc:
            check_query_kinds(node(ConstQ(1.5), node(ConstQ(2.5), ConstQ(3.5))), MONOIDS["int-sum"])
        assert str(exc.value) == "constant 1.5 does not fit monoid 'int-sum'"
    with pytest.raises(KindError) as exc:
        check_query_kinds(ConstQ(3), MONOIDS["list"])
    assert str(exc.value) == "constant 3 does not fit monoid 'list'"


def test_extractions_are_checked_at_run_time(company_sig):
    q = OnceCl(AdhocQ(FailQ(), WHOLE))  # extracts a Node, not a Lit
    run = compile_query(company_sig, q, MONOIDS["float-sum"])
    with pytest.raises(KindError) as exc:
        run(C0)
    assert str(exc.value) == (
        'case \'whole\' extracted (Employee "m":Name 100.0:Salary), which '
        "does not fit monoid 'float-sum'"
    )
    # under the list monoid the same extraction is fine
    got = run_query(company_sig, q, C0, MONOIDS["list"])
    assert got == [employee("m", 100.0)]


def test_an_ill_kinded_case_that_never_fires_is_harmless(company_sig):
    float_sum = MONOIDS["float-sum"]
    # shadowed by the outer case on the same sort
    q = FullCl(AdhocQ(AdhocQ(FailQ(), WHOLE), EMPSAL))
    assert run_query(company_sig, q, C0, float_sum) == 130.0
    # no node of its sort
    q = FullCl(AdhocQ(ConstQ(UNIT), WHOLE))
    assert run_query(company_sig, q, company([]), float_sum) == 0.0


def test_the_outer_of_two_cases_on_one_sort_wins(company_sig):
    float_sum = MONOIDS["float-sum"]
    one = QueryRule("one", "Employee", PVar("e"), PLit(1.0, "Salary"))
    tens = QueryRule(
        "tens",
        "Employee",
        PNode("Employee", (PVar("n"), PLit(10.0, "Salary"))),
        PLit(10.0, "Salary"),
    )
    inner_first = FullCl(AdhocQ(AdhocQ(FailQ(), one), EMPSAL))
    assert run_query(company_sig, inner_first, C0, float_sum) == 130.0
    swapped = FullCl(AdhocQ(AdhocQ(FailQ(), EMPSAL), one))
    assert run_query(company_sig, swapped, C0, float_sum) == 3.0
    # an outer case that does not match gives no result; it does not
    # fall through to the inner case
    q = FullCl(AdhocQ(AdhocQ(FailQ(), one), tens))
    assert run_query(company_sig, q, C0, float_sum) == 10.0
    q = OnceCl(AdhocQ(AdhocQ(FailQ(), one), tens))
    assert run_query(company_sig, q, C0, float_sum) == 10.0


def test_an_unknown_constructor_is_a_signature_error(company_sig):
    bad = Node("Bogus", (C0,))
    with pytest.raises(SignatureError) as want:
        company_sig.symbol("Bogus")
    for q in (
        FullCl(AdhocQ(FailQ(), GETSAL)),
        StopCl(AdhocQ(AdhocQ(FailQ(), EMPSAL), MGRZERO)),
    ):
        with pytest.raises(SignatureError) as exc:
            run_query(company_sig, q, bad, MONOIDS["float-sum"])
        assert str(exc.value) == str(want.value) == "unknown constructor 'Bogus'"
    # a literal is dispatched on its own sort tag
    salary = Lit(5.0, "Salary")
    q = AdhocQ(ConstQ(2.5), GETSAL)
    assert run_query(company_sig, q, salary, MONOIDS["max"]) == 5.0
    q = AdhocQ(ConstQ(2.5), EMPSAL)
    assert run_query(company_sig, q, salary, MONOIDS["max"]) == 2.5


def test_collection_is_exact_on_unvalidated_terms(company_sig):
    # the list monoid takes every extraction and shows every hit, in order
    listed = MONOIDS["list"]
    bogus = Node("Bogus")
    # as the manager's salary, the first salary in preorder
    boss = Node("Employee", (Lit("m", "Name"), bogus))
    as_salary = company([department("R", boss, [unit_of(employee("a", 10.0))])])
    # as the tail of a unit list, where no employee earns 10.0
    units = Node("Cons_Unit", (unit_of(employee("b", 20.0)), bogus))
    mgr = Node("Manager", (employee("m", 100.0),))
    in_tail = company([Node("Department", (Lit("R", "Name"), mgr, units))])
    for t, body in (
        (as_salary, AdhocQ(FailQ(), GETSAL)),
        (as_salary, AdhocQ(FailQ(), TENS)),
        (in_tail, AdhocQ(FailQ(), TENS)),
        (in_tail, ChoiceQ(AdhocQ(FailQ(), TENS), FailQ())),
    ):
        for scheme in (FullCl, StopCl, OnceCl):
            with pytest.raises(SignatureError) as exc:
                run_query(company_sig, scheme(body), t, listed)
            assert str(exc.value) == "unknown constructor 'Bogus'"
    # an Employee where a Salary belongs is dispatched on its own sort,
    # as the reference does
    nested = Node("Employee", (Lit("x", "Name"), employee("y", 5.0)))
    ill_sorted = company([department("R", nested, [unit_of(employee("a", 10.0))])])
    for body in (
        AdhocQ(FailQ(), GETSAL),
        AdhocQ(FailQ(), EMPSAL),
        AdhocQ(AdhocQ(FailQ(), EMPSAL), MGRZERO),
        ChoiceQ(AdhocQ(FailQ(), MGRZERO), AdhocQ(FailQ(), GETSAL)),
    ):
        for scheme in (FullCl, StopCl, OnceCl):
            q = scheme(body)
            want = ref_query(company_sig, q, ill_sorted, listed)
            assert repr(run_query(company_sig, q, ill_sorted, listed)) == repr(want)


def test_pairing_needs_a_result_on_both_sides(company_sig):
    one = ConstQ(1.0)
    for q in (BothQ(one, FailQ()), BothQ(FailQ(), one)):
        assert run_query(company_sig, q, C0, MONOIDS["float-sum"]) is NO_RESULT
    assert run_query(company_sig, BothQ(one, one), C0, MONOIDS["float-sum"]) == 2.0


def test_unit_constant_means_the_monoid_unit(company_sig):
    assert run_query(company_sig, ConstQ(UNIT), C0, MONOIDS["int-sum"]) == 0
    assert run_query(company_sig, ConstQ(UNIT), C0, MONOIDS["max"]) is None


def test_an_unbound_extract_variable_is_rejected_at_compile_time(company_sig):
    ghost = QueryRule(
        "ghost", "Employee", PNode("Employee", (PVar("n"), PVar("s"))), PVar("m")
    )
    # a case shadowed by an outer one on its sort is compiled all the same
    for q in (AdhocQ(FailQ(), ghost), FullCl(AdhocQ(AdhocQ(FailQ(), ghost), EMPSAL))):
        with pytest.raises(TermError) as exc:
            compile_query(company_sig, q, MONOIDS["float-sum"])
        assert str(exc.value) == "unbound pattern variable 'm'"


@pytest.mark.parametrize("n", [2, 10_000])
def test_a_long_choice_chain_is_one_loop(company_sig, n):
    # nested to the right, as a parenthesised chain is, and to the left,
    # as a parsed one is
    total = FullCl(AdhocQ(ConstQ(UNIT), GETSAL))
    right, left = total, FailQ()
    for _ in range(n - 1):
        right = ChoiceQ(FailQ(), right)
    for _ in range(n - 2):
        left = ChoiceQ(left, FailQ())
    want = ref_query(company_sig, total, C0, MONOIDS["float-sum"])
    for q in (right, ChoiceQ(left, total)):
        assert run_query(company_sig, q, C0, MONOIDS["float-sum"]) == want
    # the first alternative with a result wins
    first = ChoiceQ(ChoiceQ(FailQ(), ConstQ(1.0)), total)
    assert run_query(company_sig, first, C0, MONOIDS["float-sum"]) == 1.0
    # inside each collection scheme, whose plan takes the chain's yield
    # sorts on the same explicit-stack walk
    getsal = AdhocQ(FailQ(), GETSAL)
    right, left = getsal, FailQ()
    for _ in range(n - 1):
        right = ChoiceQ(FailQ(), right)
        left = ChoiceQ(left, FailQ())
    for scheme in (FullCl, StopCl, OnceCl):
        want = ref_query(company_sig, scheme(getsal), C0, MONOIDS["list"])
        for body in (right, ChoiceQ(left, getsal)):
            assert yield_sorts(company_sig, body) == {"Salary"}
            assert run_query(company_sig, scheme(body), C0, MONOIDS["list"]) == want
