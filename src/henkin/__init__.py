"""Equality logic with branched quantifier prefixes on finite domains.

The package has three legs that deliberately stand apart so they can
check one another:

* a formula language (``syntax``, ``text``) and two evaluation engines
  (``evaluator``) that decide truth on {0..m-1} by searching for choice
  tables;
* a compiler (``reducer``) from word-separation queries over a semigroup
  presentation into sentences of that language, plus fixed example
  sentences (``fixtures``);
* a brute-force model search (``oracle``) that answers the same queries
  without ever touching a formula.

``cli`` ties them together; its ``crosscheck`` command runs the compiled
sentence and the brute-force search side by side.
"""

from .budget import DEFAULT_BUDGET, Budget, BudgetExceeded
from .evaluator import (
    SkolemTable,
    evaluate,
    evaluate_naive,
    find_min_model,
    witness_tables,
)
from .fixtures import (
    ceitin_e10,
    ceitin_h12,
    ceitin_h12_with_query,
    ceitin_presentation,
    ehrenfeucht_finiteness,
    identity_check_failures,
    infinity_sentence,
)
from .oracle import Witness, apply_word, check_witness, find_witness
from .reducer import compile as compile_instance
from .syntax import (
    FALSE,
    TRUE,
    And,
    Branch,
    ConstFalse,
    ConstTrue,
    EqualAtom,
    Exists,
    ForAll,
    Formula,
    HenkinPrefix,
    Iff,
    Implies,
    InvalidPrefixError,
    Not,
    Or,
    Variable,
    build_en,
    build_hn,
    conjoin,
    disjoin,
    equal,
    free_variables,
    mk_prefix,
    not_equal,
    validate,
)
from .text import (
    ParseError,
    format_formula,
    format_presentation,
    parse_equation,
    parse_formula,
    parse_presentation,
)
from .words import Equation, Presentation

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BUDGET",
    "Budget",
    "BudgetExceeded",
    "SkolemTable",
    "evaluate",
    "evaluate_naive",
    "find_min_model",
    "witness_tables",
    "ceitin_e10",
    "ceitin_h12",
    "ceitin_h12_with_query",
    "ceitin_presentation",
    "ehrenfeucht_finiteness",
    "identity_check_failures",
    "infinity_sentence",
    "Witness",
    "apply_word",
    "check_witness",
    "find_witness",
    "compile_instance",
    "FALSE",
    "TRUE",
    "And",
    "Branch",
    "ConstFalse",
    "ConstTrue",
    "EqualAtom",
    "Exists",
    "ForAll",
    "Formula",
    "HenkinPrefix",
    "Iff",
    "Implies",
    "InvalidPrefixError",
    "Not",
    "Or",
    "Variable",
    "build_en",
    "build_hn",
    "conjoin",
    "disjoin",
    "equal",
    "free_variables",
    "mk_prefix",
    "not_equal",
    "validate",
    "ParseError",
    "format_formula",
    "format_presentation",
    "parse_equation",
    "parse_formula",
    "parse_presentation",
    "Equation",
    "Presentation",
    "__version__",
]
