"""Exact computations with self-similar groups and their tree actions.

The package covers the rooted-tree algebra of wreath recursions (exact
word problem included), finite permutation images with a deterministic
stabilizer chain, liftings and their certificates, the theta embedding of
ascending HNN extensions into end-fixing automorphisms of the unrooted
regular tree, and the p-adic digit-stream boundary.
"""

from .core import (
    Alphabet,
    MealyAutomaton,
    TreeAutomorphism,
    WreathSpecError,
    fmt_vertex,
    fmt_word,
    label_portrait,
    parse_tuple_automorphism,
    parse_vertex,
    parse_wreath_spec,
    portrait,
    portrait_dot,
    portrait_json,
)
from .levels import (
    LevelPermGroup,
    SizeBoundExceeded,
    intersection_trivial_on_level,
    level_perm,
    orbit_on_level,
    perm_group_on_level,
    stabilizer_words,
)
from .lifting import (
    GgsError,
    GgsVector,
    LPresentation,
    LiftingError,
    Substitution,
    check_lifting,
    ggs_lifting,
    self_replicating_witnesses,
    verify_endomorphism_by_quotient_separation,
    verify_endomorphism_by_relators,
)
from .hnn import (
    HnnElement,
    HNN_IDENTITY,
    ScaleAction,
    UnrootedVertex,
    canonical_vertices,
    canonicalize,
    hnn_inverse,
    hnn_is_trivial,
    hnn_multiply,
    moved_vertex,
    parse_hnn,
    spine_vertex,
    stabilizer_projection_check,
    theta_apply,
    theta_map,
    transitivity_witness,
    two_transitivity_level_check,
)
from .padic import (
    BoundaryPoint,
    boundary_apply,
    boundary_distance,
    dilation_factor_empirical,
)
from . import catalog

__version__ = "0.1.0"
