"""Optimal ternary cyclic codes C_(u,v), their minimum distance, and the
exact weight enumerators of their duals.

The public names resolve on first use (PEP 562), so importing the package,
or its numpy-free modules cli, gf3m, polyring and exceptions, does not
import numpy.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    "CyclicCode": "codebuilder",
    "DEFAULT_MODULI": "gf3m",
    "DistanceReport": "distance",
    "FieldCtx": "fieldctx",
    "LemmaReport": "lemma",
    "WeightEnumerator": "dualspectrum",
    "brute_force_min_weight": "distance",
    "build_code": "codebuilder",
    "conclude_distance": "distance",
    "cyclotomic_coset": "polyring",
    "direct_enumerator": "dualspectrum",
    "dual_codeword_weight": "dualspectrum",
    "fhat": "dualspectrum",
    "is_codeword": "codebuilder",
    "lemma_check": "lemma",
    "lemma_preimage_counts": "lemma",
    "macwilliams": "distance",
    "make_field": "gf3m",
    "minimal_polynomial": "polyring",
    "parse_poly": "polyring",
    "poly_mod": "polyring",
    "poly_mul": "polyring",
    "spectral_enumerator": "dualspectrum",
    "sphere_packing_max_d": "codebuilder",
    "weight2_search": "distance",
    "weight3_search": "distance",
    "weight_value_set": "dualspectrum",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
