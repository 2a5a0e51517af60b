"""Labeled symbolic bits and taint propagation (paper section 3.4, Fig. 4).

The paper's tool lets the *rules of symbol propagation* be customized:

* **Unlabeled mode** (Fig. 4 right): every unknown is an indistinguishable
  ``X``.  Cheapest and most scalable, but ``a XOR a`` evaluates to ``X``.
* **Labeled mode** (Fig. 4 left): each circuit input carries an identifying
  symbol, so when the *same* symbol recombines at a gate the result can be
  resolved (``a XOR a = 0``, ``a AND NOT a = 0``, ``a OR NOT a = 1``).
* **Taint mode** (used for the security analyses of prior work [7]): a
  symbol additionally carries a set of taint labels that union through every
  gate it influences.

:class:`SymBit` implements all three: it is either a concrete constant, a
(possibly negated) single symbol literal, or an anonymous unknown -- in
every case annotated with a taint set.  Expressions over *distinct* symbols
deliberately degrade to anonymous unknowns; full symbolic expression graphs
would reimplement a BDD package, which is beyond what the paper's tool does
(it resolves only same-symbol recombination).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from .value import Logic

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class SymBit:
    """A four-valued bit with optional symbol identity and taint labels.

    Attributes:
        level: the projection onto plain four-valued logic.  A symbol
            literal projects to ``X``.
        sym:   symbol identifier, or ``None`` for constants / anonymous Xs.
        neg:   True when this bit is the complement of symbol ``sym``.
        taint: labels that have influenced this bit.
    """

    level: Logic
    sym: Optional[str] = None
    neg: bool = False
    taint: FrozenSet[str] = field(default=_EMPTY)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def const(value: int, taint: FrozenSet[str] = _EMPTY) -> "SymBit":
        return SymBit(Logic.L1 if value else Logic.L0, taint=taint)

    @staticmethod
    def unknown(taint: FrozenSet[str] = _EMPTY) -> "SymBit":
        return SymBit(Logic.X, taint=taint)

    @staticmethod
    def symbol(name: str, taint: FrozenSet[str] = _EMPTY) -> "SymBit":
        """A fresh identified symbolic input (Fig. 4 left)."""
        return SymBit(Logic.X, sym=name, taint=taint)

    @staticmethod
    def from_logic(level: Logic, taint: FrozenSet[str] = _EMPTY) -> "SymBit":
        return SymBit(Logic.X if level is Logic.Z else level, taint=taint)

    # -- queries ----------------------------------------------------------
    @property
    def is_const(self) -> bool:
        return self.level.is_known

    def __str__(self) -> str:
        if self.sym is not None:
            return ("~" if self.neg else "") + self.sym
        return str(self.level)

    # -- helpers ----------------------------------------------------------
    def _same_literal(self, other: "SymBit") -> bool:
        return (self.sym is not None and self.sym == other.sym
                and self.neg == other.neg)

    def _opposite_literal(self, other: "SymBit") -> bool:
        return (self.sym is not None and self.sym == other.sym
                and self.neg != other.neg)

    def _taints(self, other: "SymBit") -> FrozenSet[str]:
        if not other.taint:
            return self.taint
        if not self.taint:
            return other.taint
        return self.taint | other.taint

    # -- gate algebra -------------------------------------------------------
    def inv(self) -> "SymBit":
        if self.is_const:
            return SymBit(Logic.L0 if self.level is Logic.L1 else Logic.L1,
                          taint=self.taint)
        if self.sym is not None:
            return SymBit(Logic.X, self.sym, not self.neg, self.taint)
        return SymBit(Logic.X, taint=self.taint)

    def and_(self, other: "SymBit") -> "SymBit":
        taint = self._taints(other)
        if self.level is Logic.L0 or other.level is Logic.L0:
            # Controlling value: the 0 side alone decides; taint still
            # unions because the gate output *observed* both inputs only in
            # the information-flow sense when the non-controlling side could
            # matter -- the conservative choice for security analyses is to
            # keep the union.
            return SymBit(Logic.L0, taint=taint)
        if self.level is Logic.L1:
            return SymBit(other.level, other.sym, other.neg, taint)
        if other.level is Logic.L1:
            return SymBit(self.level, self.sym, self.neg, taint)
        # both unknown
        if self._same_literal(other):
            return SymBit(Logic.X, self.sym, self.neg, taint)
        if self._opposite_literal(other):
            return SymBit(Logic.L0, taint=taint)  # a & ~a
        return SymBit(Logic.X, taint=taint)

    def or_(self, other: "SymBit") -> "SymBit":
        taint = self._taints(other)
        if self.level is Logic.L1 or other.level is Logic.L1:
            return SymBit(Logic.L1, taint=taint)
        if self.level is Logic.L0:
            return SymBit(other.level, other.sym, other.neg, taint)
        if other.level is Logic.L0:
            return SymBit(self.level, self.sym, self.neg, taint)
        if self._same_literal(other):
            return SymBit(Logic.X, self.sym, self.neg, taint)
        if self._opposite_literal(other):
            return SymBit(Logic.L1, taint=taint)  # a | ~a
        return SymBit(Logic.X, taint=taint)

    def xor_(self, other: "SymBit") -> "SymBit":
        taint = self._taints(other)
        if self.is_const and other.is_const:
            return SymBit(Logic.L1 if self.level is not other.level
                          else Logic.L0, taint=taint)
        if self.is_const:
            out = other if self.level is Logic.L0 else other.inv()
            return SymBit(out.level, out.sym, out.neg, taint)
        if other.is_const:
            out = self if other.level is Logic.L0 else self.inv()
            return SymBit(out.level, out.sym, out.neg, taint)
        if self._same_literal(other):
            return SymBit(Logic.L0, taint=taint)  # a ^ a = 0  (Fig. 4 left)
        if self._opposite_literal(other):
            return SymBit(Logic.L1, taint=taint)  # a ^ ~a = 1
        return SymBit(Logic.X, taint=taint)

    def mux(self, d0: "SymBit", d1: "SymBit") -> "SymBit":
        """``self ? d1 : d0`` with same-literal select resolution."""
        taint = self.taint | d0.taint | d1.taint
        if self.level is Logic.L0:
            return SymBit(d0.level, d0.sym, d0.neg, self.taint | d0.taint)
        if self.level is Logic.L1:
            return SymBit(d1.level, d1.sym, d1.neg, self.taint | d1.taint)
        if (d0.level is d1.level and d0.is_const):
            return SymBit(d0.level, taint=taint)
        if d0._same_literal(d1):
            return SymBit(Logic.X, d0.sym, d0.neg, taint)
        return SymBit(Logic.X, taint=taint)


def nand_(a: SymBit, b: SymBit) -> SymBit:
    return a.and_(b).inv()


def nor_(a: SymBit, b: SymBit) -> SymBit:
    return a.or_(b).inv()


def xnor_(a: SymBit, b: SymBit) -> SymBit:
    return a.xor_(b).inv()


class SymbolAllocator:
    """Allocates uniquely named input symbols (``s0, s1, ...``)."""

    def __init__(self, prefix: str = "s"):
        self._prefix = prefix
        self._next = 0

    def fresh(self, taint: FrozenSet[str] = _EMPTY) -> SymBit:
        name = f"{self._prefix}{self._next}"
        self._next += 1
        return SymBit.symbol(name, taint=taint)

    def fresh_vector(self, width: int,
                     taint: FrozenSet[str] = _EMPTY) -> Tuple[SymBit, ...]:
        return tuple(self.fresh(taint) for _ in range(width))
