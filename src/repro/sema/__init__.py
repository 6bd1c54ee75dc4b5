"""Semantic analysis: binder, bounded-execution check, annotations."""

from .binder import BoundProgram, bind
from .bounded import check_bounded
from .symbols import Annotations, EventSymbol, Scope, VarSymbol

__all__ = ["bind", "BoundProgram", "check_bounded",
           "Annotations", "EventSymbol", "VarSymbol", "Scope"]
