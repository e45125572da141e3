"""Type system substrate: Alive's types, constraints, and enumeration.

Implements the polymorphic type abstraction of the Alive language
(paper §2.2, Figure 3) and the feasible-type enumeration of §3.2.
"""

from .constraints import ConstraintSystem, TypeConstraintError
from .enumerate import enumerate_assignments, preferred_widths
from .types import (
    VOID,
    ArrayType,
    IntType,
    PointerType,
    Type,
    TypeContext,
    VoidType,
    is_array,
    is_first_class,
    is_int,
    is_pointer,
    smaller,
)

__all__ = [
    "ConstraintSystem",
    "TypeConstraintError",
    "enumerate_assignments",
    "preferred_widths",
    "Type",
    "IntType",
    "PointerType",
    "ArrayType",
    "VoidType",
    "VOID",
    "TypeContext",
    "is_int",
    "is_pointer",
    "is_array",
    "is_first_class",
    "smaller",
]
