"""Exact computations in double Burnside algebras of small finite groups."""

from .errors import Budget, BudgetExceeded, GroupSpecError, PreconditionError
from .groups import (FiniteGroup, Section, Subgroup, build_group,
                     direct_product, group_from_text, parse_group_spec,
                     quotient_group, spec_to_text)
from .lattice import (all_subgroups, automorphisms, double_coset_reps,
                      is_isomorphic, section_classes,
                      subgroup_conjugacy_classes, subquotients_up_to_iso)
from .linalg import Field, FieldSpec, IncrementalSpan, matrix_rank
from .bisets import (BisetElement, BisetLabel, ElementaryBiset,
                     ProductInvariants, butterfly_factorize, canonical_basis,
                     compose, identity_element, identity_label, is_left_free,
                     mackey_compose, make_label, product_invariants,
                     realize_and_compose_oracle, star, trace_map)
from .functors import (GeneratesReport, NvReport, burnside_module_matrices,
                       check_submodules, essential_quotient_dim, euler_phi,
                       generates, is_nv, is_s_self_dual, is_semisimple,
                       radical_dim_char0, simple_dim_with_raw,
                       trace_gram_rank, verify_certificate)

__version__ = "0.1.0"
