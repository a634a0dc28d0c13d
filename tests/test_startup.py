"""Start-up: a process pays only for the modules it uses.

`import stratkit` loads no submodule; each public name imports its own
submodule on first use. Parsing, compiling and `stratkit run` need
neither `dataclasses` nor the analyses and the law suite, and without
`site` they load no `typing`. These checks run in fresh interpreters,
since the test session has imported everything already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratkit

#: directory holding the imported stratkit package, so child interpreters
#: run the same code whether it is installed or on PYTHONPATH
SOURCE_ROOT = Path(stratkit.__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: the names `stratkit` has exported since before its namespace was lazy
EXPORTS = """
EngineError KindError LoadError ParseError SignatureError StratkitError TermError
Lit Node Pattern PLit PNode PVar Signature Symbol Term compile_rewrite count depth
is_constant match pattern_vars sort_of subterms term_eq validate_term
load_signature load_term parse_signature parse_term term_to_sexpr
FAIL ID Adhoc All BogusSchemeWarning Choice Fail Id One Rec Rule RuleChoice RuleDef
RuleRef RuleSeq Seq Strategy Var family fix_eq free_vars full_bu full_bu1 full_td
full_td1 innermost innermost1 once_bu once_bu1 once_td once_td1 print_strategy
repeat rule_choice rule_seq stop_bu stop_td stop_td1 substitute try_
DEFAULT_FUEL CompiledStrategy Failure FuelExhausted Outcome Success evaluate
MONOIDS NO_RESULT UNIT AdhocQ AllQ BothQ ChoiceQ ConstQ FailQ FullCl MonoidSpec
OnceCl QueryExpr QueryRule StopCl check_query_kinds compile_query get_monoid run_query
Sf scan_dead_choices sf_analyse sf_choice sf_seq sf_type_of
ReachMap dead_case_report mentioned_cases reach_analyse reach_transform
CountComponent DEPTH_MEASURE DepthComponent Measure Rel RelVec leqs parse_measure
rule_effect rule_effect_check term_analyse term_type_of verify_annotations
LAWS NONLAWS GenConfig builtin_rules builtin_signature check_laws
check_scheme_properties check_soundness find_nonlaw_counterexamples gen_strategy gen_term
Def Program QueryProgram load_program load_query_program parse_program parse_query_program
""".split()

#: modules that parsing, compiling and `stratkit run` have no use for
UNUSED = [
    "dataclasses", "inspect", "stratkit.laws", "stratkit.fallibility",
    "stratkit.reachability", "stratkit.termination",
]


def modules_after(script: str, *flags: str) -> set[str]:
    """The names in sys.modules once script has run in a fresh interpreter
    started with flags."""
    code = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SOURCE_ROOT), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def loaded_after(script: str) -> set[str]:
    """The modules script loads beyond those a bare interpreter loads
    (some installations load `inspect` from a `.pth` file at start-up)."""
    return modules_after(script) - modules_after("")


def test_parsing_and_compiling_load_no_dataclasses_nor_analyses():
    loaded = loaded_after(
        "import stratkit\n"
        "from stratkit.dsl import parse_program, parse_query_program\n"
        "from stratkit.files import load_signature\n"
        "from stratkit.interp import CompiledStrategy\n"
    )
    assert [m for m in UNUSED if m in loaded] == []


def test_the_run_command_loads_no_dataclasses_nor_analyses():
    args = [str(FIXTURES / f) for f in
            ("nat_tree.sig", "programs/stop_increment.strat", "terms/tree1.term")]
    loaded = loaded_after(
        "from stratkit.cli import main\n"
        f"assert main(['run', *{args!r}]) == 0\n"
    )
    assert [m for m in UNUSED if m in loaded] == []


def test_the_run_command_loads_no_typing_without_site():
    # `site` may load `typing` itself (through a `.pth` file), so -S
    args = [str(FIXTURES / f) for f in
            ("nat_tree.sig", "programs/stop_increment.strat", "terms/tree1.term")]
    loaded = modules_after(
        "from stratkit.cli import main\n"
        f"assert main(['run', *{args!r}]) == 0\n",
        "-S",
    )
    assert "stratkit.interp" in loaded
    assert "typing" not in loaded


def test_import_stratkit_loads_no_submodule():
    loaded = loaded_after("import stratkit")
    assert "stratkit" in loaded
    assert [m for m in loaded if m.startswith("stratkit.")] == []


# ---------------------------------------------------------------------------
# The lazy namespace


def test_the_namespace_exports_the_same_names():
    assert sorted(stratkit.__all__) == sorted(EXPORTS)
    assert len(stratkit.__all__) == len(set(stratkit.__all__))
    assert set(EXPORTS) <= set(dir(stratkit))
    assert stratkit.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTS)
def test_a_name_is_the_object_its_submodule_defines(name):
    module = importlib.import_module(f"stratkit.{stratkit._MODULE_OF[name]}")
    assert getattr(stratkit, name) is getattr(module, name)
    assert vars(stratkit)[name] is getattr(module, name)  # cached once resolved


def test_star_import_binds_every_name():
    namespace = {}
    exec("from stratkit import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(EXPORTS)
    assert namespace["Seq"] is stratkit.strategies.Seq


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'stratkit' has no attribute 'nothing'"):
        stratkit.nothing  # noqa: B018
    with pytest.raises(ImportError):
        from stratkit import nothing  # noqa: F401
