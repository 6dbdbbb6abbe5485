"""Exact monodromy of the Radon transform of local systems on plane curve
complements: field arithmetic, braid actions on matrix tuples, cocycle
spaces, the output tuple pipeline, and finite group analysis."""

from .braid import (
    BraidExpr,
    BraidWord,
    Conjugate,
    Generator,
    Power,
    Product,
    act_on_tuple,
    braid_text,
    expand,
    free_reduce,
    parse_braid,
)
from .cli import fixture_path
from .cocycle import TupleSpaces, compute_E, compute_H, phibar, trafodat
from .errors import RadonError
from .field import FieldElement, FieldSpec, format_element, parse_element
from .group import (
    MatrixGroupGen,
    closure,
    contains_scalar,
    derived_series,
    fixed_subspace,
    invariant_decomposition,
    modular_group_analysis,
    moving_subspace,
    spin,
)
from .linalg import (
    Matrix,
    Subspace,
    image,
    intersect,
    intertwiner_space,
    kernel,
    rref,
)
from .radon import (
    FundamentalData,
    RadonResult,
    ValidationReport,
    check_relations,
    conjugacy_match,
    load_fundamental_data,
    parse_fundamental_data,
    radon_rank,
    radon_transform,
    result_to_dict,
    validate,
)

__version__ = "0.1.0"
