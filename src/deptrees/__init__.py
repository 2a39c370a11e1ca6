"""Exact combinatorics of dependency trees.

A dependency tree is a rooted plane tree whose root carries an ordered
sequence of left subtrees and an ordered sequence of right subtrees, each
itself a dependency tree.  The counting sequence by node count starts
1, 2, 7, 30, 143, 728 (A006013) and its generating function T(z)
satisfies T(1-T)^2 = z.

The package provides exhaustive enumeration (the oracle), big-integer
counting by two closed-form routes, asymptotics, the numeric T(z), exactly
uniform random sampling, additive-parameter statistics, and a
cross-validation suite that checks the GF identities in exact series.
"""
from .additive import (
    TollSpec,
    builtin_tolls,
    cumulative_by_enumeration,
    fold_cost,
    mean_parameter,
    toll_by_name,
)
from .counting import (
    CountTable,
    build_count_table,
    count_closed_form,
    eval_T_numeric,
    relative_error,
    stirling_log_approx,
)
from .sampler import SamplerState, sample_forest, sample_tree
from .trees import (
    DEFAULT_ORACLE_LIMIT,
    DepTree,
    Forest,
    OracleLimitError,
    ParseError,
    enumerate_forests,
    enumerate_trees,
    parse,
    parse_forest,
    serialize,
    serialize_forest,
    size,
)
from .verification import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CountTable",
    "DEFAULT_ORACLE_LIMIT",
    "DepTree",
    "Forest",
    "OracleLimitError",
    "ParseError",
    "SamplerState",
    "TollSpec",
    "build_count_table",
    "builtin_tolls",
    "count_closed_form",
    "cumulative_by_enumeration",
    "enumerate_forests",
    "enumerate_trees",
    "eval_T_numeric",
    "fold_cost",
    "mean_parameter",
    "parse",
    "parse_forest",
    "relative_error",
    "run_verification",
    "sample_forest",
    "sample_tree",
    "serialize",
    "serialize_forest",
    "size",
    "stirling_log_approx",
    "toll_by_name",
    "__version__",
]
