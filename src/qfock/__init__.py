"""Computational calculus for q-deformed Gaussian operator algebras."""

from .combinat import (CosetRep, IndexSet, Pairing, contraction_stats, coset_reps,
                       enumerate_pairings)
from .fock import (FockTensor, FockVector, TruncatedOperator, TruncationError,
                   annihilation, creation, field_operator, operator_norm,
                   pq_matrix, q_inner, wick_block_matrix, wick_operator)
from .polywick import (DeltaPolynomial, InsertionPattern, counterterm_monomial,
                       counterterm_polynomial, delta_R, disentangle_check,
                       quartic_2d_configs, quartic_3d_configs, restricted_wick)
from .qsde import (TimeGrid, bphz_constant, chen_residual, ito_residual,
                   levy_area, qbm, quartic_bump, triangle_bump)
from .wickalg import (NormConstants, WickElement, delta_q, expand_field_product,
                      moment, multiply, norm_constants, to_operator, triple_norm,
                      vacuum_expectation, wick_product_vectors)

__version__ = "0.1.0"
