"""Optimal ternary cyclic codes C_(u,v), their minimum distance, and the
exact weight enumerators of their duals."""

from .codebuilder import CyclicCode, build_code, is_codeword, sphere_packing_max_d
from .distance import (
    DistanceReport,
    brute_force_min_weight,
    conclude_distance,
    macwilliams,
    weight2_search,
    weight3_search,
)
from .dualspectrum import (
    WeightEnumerator,
    direct_enumerator,
    dual_codeword_weight,
    fhat,
    spectral_enumerator,
    weight_value_set,
)
from .gf3m import DEFAULT_MODULI, FieldCtx, make_field
from .lemma import LemmaReport, lemma_check, lemma_preimage_counts
from .polyring import (
    cyclotomic_coset,
    minimal_polynomial,
    parse_poly,
    poly_mod,
    poly_mul,
)

__all__ = [
    "CyclicCode",
    "DEFAULT_MODULI",
    "DistanceReport",
    "FieldCtx",
    "LemmaReport",
    "WeightEnumerator",
    "brute_force_min_weight",
    "build_code",
    "conclude_distance",
    "cyclotomic_coset",
    "direct_enumerator",
    "dual_codeword_weight",
    "fhat",
    "is_codeword",
    "lemma_check",
    "lemma_preimage_counts",
    "macwilliams",
    "make_field",
    "minimal_polynomial",
    "parse_poly",
    "poly_mod",
    "poly_mul",
    "spectral_enumerator",
    "sphere_packing_max_d",
    "weight2_search",
    "weight3_search",
    "weight_value_set",
]
