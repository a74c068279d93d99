"""Exact computation in free solvable groups, with their images in the
iterated wreath products written from the split-matrix tower."""

from .errors import AmbientMismatchError, CapExceededError, WordSyntaxError
from .groups import Group
from .group_ring import RingElement
from .magnus import SplitMatrix, eval_word, sigma
from .free_solvable import (
    FreeSolvableGroup,
    SolvableElement,
    ball_enumerate,
    free_solvable_group,
    normalize,
    project,
    series_member_commutator,
    series_member_projection,
    standard_witnesses,
)
from .wreath import embed_free_solvable, embedding_codomain, matrix_to_function
from .linalg import (
    LaurentPoly,
    PrincipalDimension,
    closed_form_dimension,
    coset_rank,
    laurent_rank,
    lex_compare,
    principal_dimension_metabelian,
    smith_form,
    smith_rank,
)
from .equations import (
    MixedWord,
    SolutionSet,
    equivalent_on_ball,
    evaluate,
    solve_ball,
    vanishes_on,
)
from .verify import CheckReport, run_all
from .words import Word, free_reduce, parse_word

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError",
    "CapExceededError",
    "CheckReport",
    "FreeSolvableGroup",
    "Group",
    "LaurentPoly",
    "MixedWord",
    "PrincipalDimension",
    "RingElement",
    "SolutionSet",
    "SolvableElement",
    "SplitMatrix",
    "Word",
    "WordSyntaxError",
    "ball_enumerate",
    "closed_form_dimension",
    "coset_rank",
    "embed_free_solvable",
    "embedding_codomain",
    "equivalent_on_ball",
    "eval_word",
    "evaluate",
    "free_reduce",
    "free_solvable_group",
    "laurent_rank",
    "lex_compare",
    "matrix_to_function",
    "normalize",
    "parse_word",
    "principal_dimension_metabelian",
    "project",
    "run_all",
    "series_member_commutator",
    "series_member_projection",
    "sigma",
    "smith_form",
    "smith_rank",
    "solve_ball",
    "standard_witnesses",
    "vanishes_on",
]
