"""Every record class against its dataclass twin.

The records in terms, strategies, interp, queries, termination, dsl and
laws are built by `stratkit.records`, not by `dataclasses`. Each one is
checked here against a twin made with `dataclasses.make_dataclass` from
the same name, fields and defaults: on generated field values the two
print the same text, compare and hash alike, construct alike by position,
keyword and default, and refuse or allow assignment alike. Nested records
must compare and print at least as deep as their twins do, since both
recurse on the Python stack.
"""

import dataclasses
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratkit import records
from stratkit.errors import ParseError
from stratkit.strategies import FAIL, ID, Choice, Seq
from stratkit.termination import DEPTH, CountComponent, Measure

MODULES = ("terms", "strategies", "interp", "queries", "termination", "dsl", "laws")

#: the records that were plain (non-frozen) dataclasses
MUTABLE = {"Program", "QueryProgram", "SampledResult", "NonlawResult", "SoundnessResult"}


def record_classes():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"stratkit.{name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and cls.__dict__.get("__repr__") is records._repr):
                found.append(cls)
    return found


RECORDS = record_classes()


def fields(cls):
    """(name, declared default or MISSING) of each field, in order."""
    return [(n, cls.__dict__.get(n, dataclasses.MISSING)) for n in cls.__match_args__]


def twin(cls):
    specs = []
    for name, default in fields(cls):
        if default is not dataclasses.MISSING:
            default = dataclasses.field(default=default)
        specs.append((name, object) if default is dataclasses.MISSING else (name, object, default))
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(
        cls.__name__, specs, frozen=cls.__name__ not in MUTABLE, namespace=namespace
    )


TWINS = {cls: twin(cls) for cls in RECORDS}


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the exception type is part of the result
        return type(exc), str(exc)


def build(cls, values):
    return outcome(cls, *values)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["", "a", "S"]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from([ID, FAIL, Seq(ID, FAIL), Choice(ID, FAIL), DEPTH, CountComponent("C")]),
)
values = st.recursive(scalars, lambda sub: st.tuples(sub, sub), max_leaves=4)


def test_every_record_class_is_found():
    # 37 frozen and 5 mutable records
    assert len(RECORDS) == 42
    assert MUTABLE <= {cls.__name__ for cls in RECORDS}
    assert "dataclasses" not in dir(records)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_like_its_dataclass_twin(cls, data):
    dc = TWINS[cls]
    n = len(cls.__match_args__)
    one = data.draw(st.lists(values, min_size=n, max_size=n))
    other = data.draw(st.one_of(st.just(list(one)), st.lists(values, min_size=n, max_size=n)))
    (kind, a), (twin_kind, ta) = build(cls, one), build(dc, one)
    assert kind == twin_kind
    if kind != "ok":
        # only Measure rejects field values; it must say the same
        assert a == ta
        return
    b, tb = build(cls, other)[1], build(dc, other)[1]
    assert repr(a) == repr(ta)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert a.__eq__(object()) is NotImplemented
    # keyword construction
    named = dict(zip(cls.__match_args__, one))
    assert repr(cls(**named)) == repr(dc(**named)) and cls(**named) == a
    # hash, and assignment
    name = cls.__match_args__[0] if n else "extra"
    if cls.__name__ in MUTABLE:
        assert outcome(hash, a)[0] is outcome(hash, ta)[0] is TypeError
        setattr(a, name, "changed")
        setattr(ta, name, "changed")
        assert repr(a) == repr(ta)
    else:
        assert outcome(hash, a) == outcome(hash, ta)
        if outcome(hash, a)[0] == "ok":
            assert hash(a) == hash(tuple(getattr(a, f) for f in cls.__match_args__))
        for target in (a, ta):
            with pytest.raises(AttributeError):
                setattr(target, name, "changed")
            with pytest.raises(AttributeError):
                delattr(target, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_defaults_match_the_twin(cls):
    dc = TWINS[cls]
    required = [n for n, d in fields(cls) if d is dataclasses.MISSING]
    args = [(DEPTH,)] if cls is Measure else ["v"] * len(required)
    a, ta = cls(*args), dc(*args)
    assert repr(a) == repr(ta)
    assert [getattr(a, n) for n in cls.__match_args__] == [
        getattr(ta, n) for n in cls.__match_args__
    ]


@pytest.mark.parametrize(
    "components",
    [(), (DEPTH, DEPTH), (CountComponent("C"),), (DEPTH, CountComponent("C"))],
)
def test_measure_errors_match_the_twin(components):
    assert outcome(Measure, components) == outcome(TWINS[Measure], components)
    assert outcome(Measure, components)[0] != "ok"


def test_a_valid_measure_is_built():
    m = Measure((CountComponent("C"), DEPTH))
    assert repr(m) == repr(TWINS[Measure]((CountComponent("C"), DEPTH)))
    assert str(m) == "count:C,depth"


def test_records_of_different_classes_are_unequal():
    assert Seq(ID, FAIL) != Choice(ID, FAIL)
    assert not Seq(ID, FAIL) == Choice(ID, FAIL)
    assert Seq(ID, FAIL).__eq__(Choice(ID, FAIL)) is NotImplemented
    assert Seq(ID, FAIL) == Seq(ID, FAIL)


def test_replace_builds_through_the_constructor():
    s = Seq(ID, FAIL)
    assert records.replace(s, right=ID) == Seq(ID, ID)
    assert records.replace(s) == s
    with pytest.raises(TypeError):
        records.replace(s, middle=ID)
    with pytest.raises(ParseError):
        records.replace(Measure((DEPTH,)), components=())


def deepest(make, op, limit=5000):
    """The deepest left-nested chain of make(...) on which op returns."""
    lo, hi = 1, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        a = b = 0
        for _ in range(mid):
            a, b = make(a, 1), make(b, 1)
        try:
            op(a, b)
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize(
    "op", [lambda a, b: repr(a), lambda a, b: a == b, lambda a, b: hash(a)],
    ids=["repr", "eq", "hash"],
)
def test_nested_records_go_as_deep_as_their_twins(op):
    assert deepest(Seq, op) >= deepest(TWINS[Seq], op)
