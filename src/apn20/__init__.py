"""Desk-scale analysis of degree-20 APN polynomials over binary fields."""

from .apn import apn_scan, diff_count, differential_uniformity, invariance_check
from .classify import ccz_witness, check_family_b_divisor, search_perturbations
from .divisors import Divisor, case_analysis, galois_images, s3_images
from .fields import Field, TowerField, find_embedding
from .polys import (
    TriPoly,
    UniPoly,
    exact_div,
    is_permutation,
    parse_tripoly,
    parse_unipoly,
)
from .surface import (
    check_identity,
    plane_product,
    power_sum,
    run_identity_suite,
    surface_monomial,
    surface_poly,
    to_symmetric,
)

__all__ = [
    "Field",
    "TowerField",
    "find_embedding",
    "UniPoly",
    "TriPoly",
    "parse_unipoly",
    "parse_tripoly",
    "exact_div",
    "is_permutation",
    "surface_poly",
    "surface_monomial",
    "plane_product",
    "power_sum",
    "to_symmetric",
    "check_identity",
    "run_identity_suite",
    "diff_count",
    "differential_uniformity",
    "apn_scan",
    "invariance_check",
    "Divisor",
    "s3_images",
    "galois_images",
    "case_analysis",
    "check_family_b_divisor",
    "search_perturbations",
    "ccz_witness",
]
