"""Families of coproducts on coloured rooted trees, their duals, and the
ordered (planar) variant."""

from .algebra import (
    Coeff,
    Element,
    QSpec,
    TensorElement,
    parse_coeff,
    parse_element,
    parse_tensor,
)
from .hopf import (
    HopfContext,
    antipode_partitions,
    antipode_recursive,
    ck_coproduct_oracle,
    coproduct,
    coproduct_closed,
    coproduct_inductive,
    simplicial_d,
    simplicial_s,
    verify_bialgebra,
)
from .planar import (
    EMPTY_WORD,
    PLANAR_LEAF,
    PlanarDualElement,
    PlanarElement,
    PlanarTensorElement,
    PlanarTree,
    PlanarWord,
    enumerate_planar_trees,
    enumerate_planar_words,
    forget_element,
    forget_tensor,
    forget_tree,
    forget_word,
    parse_planar_tree,
    parse_planar_word,
    planar_antipode,
    planar_bullet,
    planar_coproduct,
    planar_coproduct_closed,
    planar_decompose,
    planar_lambda,
    verify_planar,
)
from .prelie import (
    DualElement,
    LabelledTree,
    PreLieElement,
    aut_rescale,
    bullet,
    bullet_prime,
    down_map,
    enumerate_labelled_trees,
    free_bullet,
    free_graft,
    lie_bracket,
    parse_labelled_tree,
    phi,
    up_map,
)
from .trees import (
    EMPTY_FOREST,
    LEAF,
    BudgetError,
    ColouredTree,
    ColourMismatchError,
    Forest,
    ParseError,
    add_root,
    aut_order,
    basis_counts,
    canonicalize,
    decompose,
    enumerate_forests,
    enumerate_forests_up_to,
    enumerate_trees,
    parse_forest,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
