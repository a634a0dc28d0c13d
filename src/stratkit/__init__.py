"""Strategic term rewriting over many-sorted signatures, with static
analyses for fallibility, case reachability, and termination.

The namespace is lazy (PEP 562): `import stratkit` loads no submodule,
and `stratkit.X` imports the one submodule that defines X on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

#: every public name, under the submodule that defines it
_EXPORTS = {
    "errors": "EngineError KindError LoadError ParseError SignatureError StratkitError TermError",
    "terms": """Lit Node Pattern PLit PNode PVar Signature Symbol Term compile_rewrite
        count depth is_constant match pattern_vars sort_of subterms term_eq
        validate_term""",
    "files": "load_signature load_term parse_signature parse_term term_to_sexpr",
    "strategies": """FAIL ID Adhoc All BogusSchemeWarning Choice Fail Id One Rec Rule
        RuleChoice RuleDef RuleRef RuleSeq Seq Strategy Var family fix_eq free_vars
        full_bu full_bu1 full_td full_td1 innermost innermost1 once_bu once_bu1
        once_td once_td1 print_strategy repeat rule_choice rule_seq stop_bu stop_td
        stop_td1 substitute try_""",
    "interp": "DEFAULT_FUEL CompiledStrategy Failure FuelExhausted Outcome Success evaluate",
    "queries": """MONOIDS NO_RESULT UNIT AdhocQ AllQ BothQ ChoiceQ ConstQ FailQ FullCl
        MonoidSpec OnceCl QueryExpr QueryRule StopCl check_query_kinds
        compile_query get_monoid run_query""",
    "fallibility": "Sf scan_dead_choices sf_analyse sf_choice sf_seq sf_type_of",
    "reachability": "ReachMap dead_case_report mentioned_cases reach_analyse reach_transform",
    "termination": """DEPTH_MEASURE Measure Rel RelVec leqs parse_measure rule_effect
        rule_effect_check term_analyse term_type_of verify_annotations""",
    "laws": """LAWS NONLAWS GenConfig builtin_rules builtin_signature check_laws
        check_scheme_properties check_soundness find_nonlaw_counterexamples
        gen_strategy gen_term""",
    "dsl": """Def Program QueryProgram load_program load_query_program parse_program
        parse_query_program""",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
