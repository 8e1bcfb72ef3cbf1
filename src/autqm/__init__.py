"""Exact computations with free-group words, automorphisms, counting
quasimorphisms, invariant word norms, and graph products of cyclic groups.

All group arithmetic is exact (signed-integer letters, fractions for
quasimorphism values); every search returns replayable witnesses.
"""

from .words import (
    CutoffExceeded,
    CyclicWord,
    Word,
    cyclic_reduce,
    invert,
    is_conjugate,
    multiply,
    power,
    reduce,
)
from .automorphisms import (
    Automorphism,
    AutoWitness,
    achirality_search,
    ad,
    apply,
    autocommutator,
    compose,
    elementary,
    inverse,
    signed_permutations,
    word_transvection,
)
from .whitehead import (
    WhiteheadGraph,
    in_proper_free_factor,
    is_primitive,
    minimize,
    whitehead_graph,
)
from .quasimorphisms import (
    DefectCertificate,
    FreeGroupDomain,
    ProductDomain,
    Quasimorphism,
    brooks,
    brooks_defect_exact,
    brooks_homogeneous,
    build_quasimorphism,
    check_invariance,
    defect_enumerate,
    finite_average,
    homogenise_numeric,
    linear_combination,
    product_average,
    pullback,
    zero,
)
from .norms import (
    Factor,
    NormResult,
    SaclEstimate,
    acl_upper,
    bfs_norm,
    cl_upper,
    duality_lower_bound,
    invariant_norm_lower_bound,
    orbit_closure,
    sacl_estimate,
    transvection_witness,
)
from .graphprod import (
    GPWord,
    GraphProductDomain,
    JoinDecomposition,
    VertexGraph,
    classify_virtually_abelian,
    gp_invert,
    gp_multiply,
    gp_pipeline_qm,
    is_dinfty,
    join_decompose,
    normal_form,
    project_kill_h0,
    refine,
)

__version__ = "0.1.0"
