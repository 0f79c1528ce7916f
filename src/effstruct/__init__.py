"""Effective equivalence structures and preorders at finite scale.

Stage constructions whose infinite-limit behavior is exactly decidable
on finitely presented inputs: a co-ceer diagonalizing against a family
of ceer approximations, a negative-information equivalence relation
realizing prescribed liminf class sizes, a positive-information preorder
encoding a binary limit set, and a block coder between bit vectors and
class-size characters.
"""

from .core import (
    Delta02SetApprox,
    SeqLimits,
    StagePair,
    UPSeq,
    cantor_pair,
    cantor_unpair,
    upseq_eval,
    upseq_limits,
)
from .eqrel import (
    Character,
    Partition,
    character_of,
    oldest_class_min,
)
from .errors import (
    ConstructionBugError,
    EffstructError,
    HorizonError,
    InputError,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "ConstructionBugError",
    "Delta02SetApprox",
    "EffstructError",
    "HorizonError",
    "InputError",
    "Partition",
    "SeqLimits",
    "StagePair",
    "UPSeq",
    "cantor_pair",
    "cantor_unpair",
    "character_of",
    "oldest_class_min",
    "upseq_eval",
    "upseq_limits",
    "__version__",
]
