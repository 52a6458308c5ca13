"""Exact computations in double Burnside algebras of small finite groups."""

from .errors import Budget, BudgetExceeded, GroupSpecError, PreconditionError
from .groups import (FiniteGroup, direct_product, group_from_text,
                     quotient_group, subgroup)
from .lattice import (automorphisms, double_coset_reps, get_lattice,
                      is_isomorphic, section_classes, subquotients_up_to_iso)
from .linalg import FieldSpec, IncrementalSpan, matrix_rank
from .numtheory import euler_phi
from .bisets import (BisetElement, ElementaryBiset, ProductInvariants,
                     butterfly_factorize, compose, identity_element,
                     identity_label, make_label, product_invariants,
                     realize_and_compose_oracle, space, trace_of_label)
from .functors import (GeneratesReport, NvReport, burnside_module_matrices,
                       check_submodules, essential_quotient_dim, generates,
                       is_nv, is_s_self_dual, is_semisimple, radical_dim_char0,
                       simple_dim_with_raw, trace_gram_rank,
                       verify_certificate)

__version__ = "0.1.0"
