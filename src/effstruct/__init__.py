"""Effective equivalence structures and preorders at finite scale.

Stage constructions whose infinite-limit behavior is exactly decidable
on finitely presented inputs: a co-ceer diagonalizing against a family
of ceer approximations, a negative-information equivalence relation
realizing prescribed liminf class sizes, a positive-information preorder
encoding a binary limit set, and a block coder between bit vectors and
class-size characters.
"""

__version__ = "0.1.0"
