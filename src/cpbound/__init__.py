"""Exact combinatorial certificates that CP^(2k+1) bounds an oriented manifold.

The pipeline: truncate a simplex (``polytope``), attach integer vector data
to its facets (``charfn``), and certify the resulting manifold-with-boundary
datum — cell counts, homology ranks, the translation identifying two boundary
components, and the orientation bookkeeping (``cobordism``).  All arithmetic
is exact: arbitrary-precision integers and rationals, no floats anywhere.
"""

from .zlinalg import (
    IntMatrix,
    Permutation,
    apply_matrix,
    determinant,
    is_direct_summand,
    permutation_sign,
    smith_normal_form,
)
from .polytope import (
    LinearFunctional,
    SimplePolytope,
    combinatorially_isomorphic,
    face_as_polytope,
    generate_functional,
    product,
    truncated_simplex,
    vertex_indices,
)
from .charfn import (
    CharPair,
    CharVector,
    TranslationWitness,
    delta_matrix,
    eta_standard,
    normalize_simplex_pair,
    orientation_signs,
    restrict_to_facet,
    rho_facet_bijection,
    rho_permutation,
    validate,
    verify_translation,
)
from .cobordism import (
    WManifold,
    boundary_components,
    boundary_h_vectors,
    build_W,
    cell_stage,
    cell_structure,
    glue_report,
)

__version__ = "0.1.0"
