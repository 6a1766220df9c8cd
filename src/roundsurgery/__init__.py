"""Round surgery diagram calculus for 3-manifolds.

Round surgery diagrams present closed oriented 3-manifolds by framed links
whose components come in round 1-surgery pairs; a pair whose second component
also carries a round 2-surgery coefficient (a joint pair) corresponds exactly
to integral Dehn surgery via (n1, n2, m)  <->  framings (n1 - n2 + m, m).
This package implements that correspondence, the equivalence moves that play
the role of Kirby moves for these diagrams, Kirby-diagram import/export for
pure round 1-surgery pairs, exact first homology through Smith normal form,
slope arithmetic for taut foliations, a small text format, and a CLI.
"""

from .analysis import (
    AnalysisError,
    FoliationRefusal,
    FoliationWitness,
    is_trivial,
    split_connected_sum,
    suture_slope,
    taut_foliation_family,
    tight_contact_exists,
)
from .bridge import (
    BridgeError,
    KirbyDiagram,
    TwoHandle,
    dehn_to_joint_pairs,
    joint_pair_to_dehn,
    kirby_to_round1,
    round1_to_kirby,
    validate_kirby,
)
from .homology import (
    AbelianGroup,
    cokernel,
    first_homology,
    first_homology_round,
    invariant_factors,
    presentation_matrix,
    smith_normal_form,
)
from .model import (
    Atom,
    BandSum,
    ComponentId,
    DehnDiagram,
    FramedComponent,
    JointPair,
    KnotExpr,
    LinkingMatrix,
    LooseKnot,
    Rational,
    RoundDiagram,
    SurgeryError,
    UNKNOT,
    UnknownComponentError,
    validate_diagram,
)
from .moves import (
    EQ_MOVE4_VARIANTS,
    MoveDescriptor,
    MoveError,
    MoveKind,
    MoveSequence,
    apply_move,
    apply_sequence,
    bounded_equivalence_search,
    eq_move1,
    eq_move3_add,
    eq_move3_del,
    eq_move4,
    kirby1_add,
    kirby1_del,
    kirby2_slide,
    shuffle_a,
    shuffle_b,
)
from .textio import (
    Diagnostic,
    DiagramDocument,
    ParseError,
    parse,
    print_diagram,
)

__all__ = [name for name in dir() if not name.startswith("_")]
