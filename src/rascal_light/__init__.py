"""An interpreter for the Rascal Light transformation language.

The package provides the abstract syntax and well-formedness checks, the
evaluator with its traversal and pattern-matching machinery, a bounded
(fuel-instrumented) evaluation mode, a concrete syntax with renderer, a
batch CLI, and a property-test harness for the language's metatheorems.
"""

from .syntax import (
    ModuleDef,
    Strategy,
    is_finite_subset,
    validate_module,
)
from .values import (
    Basic,
    Store,
    UNDEF,
    Value,
    VCons,
    VList,
    VMap,
    VSet,
    canonical_set,
    children,
    last,
    map_update,
    render_value,
    value_order,
)
from .types import lub, lub_seq, subtype, type_of
from .patterns import match, match_all
from .interp import Evaluator, IllFormedModule, InitError, init_module
from .fuel import HostStackGuard, call_with_stack, eval_expr_fuel, min_sufficient_fuel
from .parser import ParseError, load_module, parse_expr, parse_module, parse_value
from .render import render

__version__ = "0.1.0"

__all__ = [
    "Basic",
    "Evaluator",
    "HostStackGuard",
    "IllFormedModule",
    "InitError",
    "ModuleDef",
    "ParseError",
    "Store",
    "Strategy",
    "UNDEF",
    "VCons",
    "VList",
    "VMap",
    "VSet",
    "Value",
    "call_with_stack",
    "canonical_set",
    "children",
    "eval_expr_fuel",
    "init_module",
    "is_finite_subset",
    "last",
    "load_module",
    "lub",
    "lub_seq",
    "map_update",
    "match",
    "match_all",
    "min_sufficient_fuel",
    "parse_expr",
    "parse_module",
    "parse_value",
    "render",
    "render_value",
    "subtype",
    "type_of",
    "validate_module",
    "value_order",
]
