"""Pattern containment for permutations and 0-1 matrices, avoidance
counting, extremal row-density searches, and a certified recursion
schedule for linear extremal bounds.

The package exports are lazy (PEP 562): ``import permx`` loads no
library module, and the first access to an exported name imports its
home module, listed in ``_EXPORTS``, and keeps the name in the package
namespace.  A submodule name such as ``permx.avoidance`` resolves the
same way, with no explicit import.  So a caller pays only for the
modules it uses; ``from permx import *`` loads all of them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "avoidance": (
        "JvInclusionReport",
        "MergeCountReport",
        "SwEstimate",
        "avoiders",
        "count_avoiders",
        "merge_coloring",
        "merge_count_upper_check",
        "merge_member",
        "sw_estimate_sequence",
        "verify_jv_inclusion",
    ),
    "bounds": (
        "BoundParams",
        "CertCheck",
        "CertReport",
        "Schedule",
        "build_schedule",
        "certify_schedule",
        "crude_fpts_bound",
        "floored_states",
        "fox_rhs",
        "lemma21_bound",
        "lemma22_rhs",
        "marcus_tardos_bound",
        "theorem12_exponent",
        "theorem24_alpha",
    ),
    "core": (
        "BinaryMatrix",
        "BlockDecomposition",
        "Occurrence",
        "Permutation",
        "PermutationMatrix",
        "avoids",
        "blockable_decompositions",
        "complement",
        "contains",
        "direct_sum",
        "find_matrix_occurrence",
        "find_occurrence",
        "from_matrix",
        "inflate",
        "inverse",
        "matrix_avoids",
        "matrix_contains",
        "parse_permutation",
        "reverse",
        "rotate90",
        "skew_sum",
        "to_matrix",
    ),
    "errors": ("PermxError", "PreconditionViolated", "ResourceLimit"),
    "extremal": (
        "ExtremalResult",
        "FptsResult",
        "Lemma21Report",
        "Lemma22Report",
        "check_lemma21",
        "check_lemma22",
        "exfn_exact",
        "fpts_exact",
        "gpts_exact",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "limits", "selftest"))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
