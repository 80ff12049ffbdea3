"""Exact congruence canonical forms for hermitian and skew-hermitian
matrices over F[t] with the involution t -> -t, where F is the algebraic
closure of an odd prime field realized as a growing tower of finite fields.
"""

from .tower import FieldElem, Tower
from .starpoly import (StarPoly, canonical_pure_factor, coprime_even_bezout,
                       gcd, gcd_bezout, is_pure, norm_factor,
                       norm_factor_avoiding, parse_poly, format_poly,
                       pure_split, solve_norm_equation)
from .polymat import (HERMITIAN, SKEW, Certificate, CertificateError,
                      PolyMatrix, Reduction, SmithForm, determinant,
                      form_kind, form_value, gcd_of_matrix, invariant_factors,
                      inverse, is_unimodular, kernel_split, smith_form,
                      unimodular_completion)
from .congruence import (ReductionError, SkewSplitResult, block_swap,
                         her2_diagonalize, isotropic_vector, represent_one,
                         sk2_zero_diagonal, sk_split, split_one)
from .canonical import (Block1, Block2, CanonicalBlocks, FactorSequence,
                        are_congruent, assemble_canonical, canonicalize,
                        factor_sequence_of, validate_sequence)
from .randgen import Instance, RandomSpec, generate, sample_factor_sequence

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
