"""Finite relation algebra, preorder morphisms, representations, and the
lax 2-adjunction between them, with a law-checking harness and CLI."""

from .rel import (
    POWERSET_CAP,
    CarrierMismatch,
    FinSet,
    FnMap,
    PowersetBundle,
    PowersetCapExceeded,
    Rel,
    clear_caches,
    compose,
    compose_maps,
    converse,
    eq,
    finset,
    full,
    graph_lower,
    graph_upper,
    identity,
    identity_map,
    is_transitive,
    left_residual,
    leq,
    power_transpose,
    powerset,
    pullback,
    right_residual,
)
from .structures import (
    CheckResult,
    InvalidStructure,
    Preorder,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
    check_preorder,
    check_prom,
    check_rep_morphism,
    compose_prom_morphisms,
    compose_rep_morphisms,
    identity_prom_morphism,
    identity_rep_morphism,
    is_preorder,
    preorder_closure,
    repmor_leq,
    validate,
)
from .functors import (
    direct_image,
    prom_to_rep,
    prommor_to_repmor,
    rep_to_prom,
    repmor_to_prommor,
)
from .adjunction import (
    TriangleRepResult,
    counit,
    lift,
    lower,
    recover_by_membership,
    rel_to_map,
    triangle_prom,
    triangle_rep,
    unit,
)
from .exactness import is_exact, is_order_reflecting
from .harness import (
    CATALOG,
    ConfigError,
    SearchConfig,
    SearchSummary,
    Witness,
    check_law,
    replay,
    search,
)
from .workspace import Workspace, WorkspaceError

__version__ = "0.1.0"
