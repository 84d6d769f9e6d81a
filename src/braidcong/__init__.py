"""Exact arithmetic for congruence subgroups of braid groups.

The package evaluates the integral Burau representation at t = -1, decides
membership in level-m congruence subgroups, computes their abelianizations
by coset enumeration and Smith normal form, and provides a normal-form
calculus for the crystallographic quotient of the braid group by the
commutator subgroup of the pure braid group.

_EXPORTS is the one table of public names: for each module, in order, the
names it defines.  Each module's __all__ is its row, and the package
re-exports every row, in order, after __version__; no name is written
twice.  Submodules load on first use (PEP 562): ``import braidcong`` runs
none of them, braidcong.X runs only the module that _EXPORTS names for X and
what that module imports, and braidcong.__all__ and dir(braidcong) run none.
``from braidcong import *`` loads every module.  No resolved name is kept
here, so braidcong.X is always the defining module's current binding.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "words": (
        "BraidWord",
        "Permutation",
        "PairIndex",
        "pair_count",
        "pair_list",
        "pair_position",
        "pair_action",
        "LinkingVector",
        "permutation",
        "pure_generator",
        "full_twist",
        "artin_relators",
        "torelli_chain",
        "linking_vector",
        "random_word",
        "random_pure_word",
    ),
    "burau": (
        "generator_matrix",
        "burau_matrix",
        "burau_matrix_mod",
        "order_mod",
        "ones_vector",
        "alternating_covector",
        "invariant_form",
        "transvection_generator",
        "check_transvection_model",
    ),
    "smith": ("SmithForm", "smith_normal_form", "solve_integer", "kernel_basis"),
    "congruence": (
        "LimitExceeded",
        "ImageGroup",
        "AbelianizationResult",
        "ActionMatrix",
        "is_member",
        "letter_order",
        "enumerate_image",
        "image_center",
        "coset_table",
        "subgroup_coordinates",
        "abelianization",
        "conjugation_action",
    ),
    "cryst": (
        "CrystElement",
        "section_word",
        "normal_form",
        "representative_word",
        "element_order",
        "torsion_search",
        "power_endomorphism",
        "power_map_is_homomorphism",
        "in_power_image",
        "power_quotient_class",
        "power_map_scales_lattice",
        "additivity_failures",
        "pair_permutation_matrix",
    ),
    "claims": ("SuiteConfig", "ClaimResult", "VerificationReport", "run_suite"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__", *(n for names in _EXPORTS.values() for n in names)]
    if name in _HOME:
        return getattr(_module(_HOME[name]), name)
    # a submodule: one of _EXPORTS, or the matrices of ``from . import matrices``
    try:
        return _module(name)
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__getattr__("__all__")})
