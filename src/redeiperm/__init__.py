"""Permutation polynomials of F_{q^2} built from the pair (G_n, H_n).

The package constructs polynomials of the shape x^(n+m(q+1)) * F(x^(q-1), alpha)
with F one of the coefficient polynomials G_n, H_n attached to alpha, decides
bijectivity by coprimality criteria, certifies every verdict against an
exhaustive oracle, and computes compositional inverses by three independent
routes that are required to agree.
"""

from .construct import (CASE_IN, CASE_OUT, Condition, CosetMap, PermSpec,
                        PermVerdict, binomial_condition,
                        binomial_special_condition, build_perm_poly,
                        check_criterion, coset_factor_table, count_valid_n,
                        cyclotomic_criterion, family_binomial, family_spec,
                        family_trinomial, is_permutation_bruteforce,
                        sqrt_case, transfer_bijectivity, trinomial_condition,
                        trinomial_special_condition)
from .field_tower import (DEFAULT_SIZE_BOUND, Felt, FieldCtx,
                          field_from_record, make_field)
from .inverse import (BezoutData, InverseTable, MuInverse, agreement_report,
                      bezout, inverse_cyclotomic, inverse_table,
                      lift_inverse, mu_inverse, mu_inverse_eval)
from .polyring import (DEFAULT_DEGREE_CAP, Poly, poly_add, poly_compose,
                       poly_divmod, poly_eval, poly_gcd, poly_gcd_ext,
                       poly_mul, poly_pow, poly_sub, reduce_functional,
                       render_poly)
from .redei import (RedeiPair, binom_mod, dickson_coeffs, dickson_eval,
                    gh_coeffs, gh_eval, gh_from_poly, redei_eval)

__version__ = "0.1.0"

__all__ = [
    "BezoutData", "CASE_IN", "CASE_OUT", "Condition", "CosetMap",
    "DEFAULT_DEGREE_CAP", "DEFAULT_SIZE_BOUND", "Felt", "FieldCtx",
    "InverseTable", "MuInverse", "PermSpec", "PermVerdict", "Poly",
    "RedeiPair", "agreement_report", "bezout", "binom_mod",
    "binomial_condition", "binomial_special_condition",
    "build_perm_poly", "check_criterion", "coset_factor_table",
    "count_valid_n", "cyclotomic_criterion", "dickson_coeffs", "dickson_eval",
    "family_binomial", "family_spec", "family_trinomial", "field_from_record",
    "gh_coeffs", "gh_eval", "gh_from_poly", "inverse_cyclotomic",
    "inverse_table", "is_permutation_bruteforce", "lift_inverse",
    "make_field", "mu_inverse", "mu_inverse_eval", "poly_add", "poly_compose",
    "poly_divmod", "poly_eval", "poly_gcd", "poly_gcd_ext", "poly_mul",
    "poly_pow", "poly_sub", "redei_eval", "reduce_functional", "render_poly",
    "sqrt_case", "transfer_bijectivity", "__version__",
]
