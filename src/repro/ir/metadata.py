"""IR metadata: TBAA type trees, alias scopes, and debug locations.

These mirror the three metadata families ORAQL's surrounding AA stack
consumes in LLVM:

* ``!tbaa`` — type-based alias analysis access tags hanging off a tree of
  type descriptors rooted at "omnipotent char";
* ``!alias.scope`` / ``!noalias`` — scoped no-alias metadata emitted for
  ``restrict`` arguments after inlining;
* ``!dbg`` — source locations used by ORAQL's query dumps (Fig. 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

_ids = itertools.count()


@dataclass(frozen=True)
class DebugLoc:
    """A source location ``file:line:col`` attached to an instruction."""

    file: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class TBAANode:
    """A node in the TBAA type-descriptor tree.

    The root node represents "omnipotent char" (may alias anything).  A
    scalar node has a single parent; an access through a scalar type
    aliases accesses through any ancestor or descendant, and nothing else.
    Struct-path TBAA is modelled by creating one scalar node per
    (struct, field) pair with the field's scalar type as parent.
    """

    __slots__ = ("name", "parent", "is_constant", "_id", "_root",
                 "_above")

    def __init__(self, name: str, parent: Optional["TBAANode"] = None,
                 is_constant: bool = False):
        self.name = name
        self.parent = parent
        self.is_constant = is_constant
        self._id = next(_ids)
        # ancestry, fixed at construction (a node's parent never
        # changes); neither field names the node itself, so a node is
        # no reference cycle
        #: the tree's root, or None for a root
        self._root = None if parent is None else parent.root()
        #: the ids of the proper ancestors
        self._above = frozenset() if parent is None else \
            parent._above | {parent._id}

    def is_ancestor_of(self, other: "TBAANode") -> bool:
        return self is other or self._id in other._above

    def root(self) -> "TBAANode":
        root = self._root
        return self if root is None else root

    def __str__(self) -> str:
        return f'!tbaa("{self.name}")'

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TBAANode {self.name}>"


class TBAAForest:
    """Factory owning the TBAA tree for one module.

    Mirrors clang's default hierarchy: a root, "omnipotent char" beneath
    it, and scalar nodes (int, long, float, double, any-pointer) beneath
    the char node.
    """

    def __init__(self):
        self.root = TBAANode("Simple C/C++ TBAA")
        self.char = TBAANode("omnipotent char", self.root)
        self._scalars = {}

    def scalar(self, name: str, parent: Optional[TBAANode] = None) -> TBAANode:
        key = (name, parent._id if parent else None)
        node = self._scalars.get(key)
        if node is None:
            node = TBAANode(name, parent or self.char)
            self._scalars[key] = node
        return node

    def struct_field(self, struct_name: str, field_name: str,
                     scalar: TBAANode) -> TBAANode:
        """Struct-path access node for ``struct_name.field_name``."""
        return self.scalar(f"{struct_name}::{field_name}", parent=scalar)


def tbaa_alias(a: Optional[TBAANode], b: Optional[TBAANode]) -> bool:
    """TBAA verdict: may the two access tags alias?

    Missing tags, differing roots, and char-rooted tags are conservatively
    ``True``.  Two tags with a common root alias iff one is an ancestor of
    the other (including equality).
    """
    if a is None or b is None:
        return True
    if a.root() is not b.root():
        return True
    # The "omnipotent char" node (direct child of root) aliases everything.
    if a.parent is a.root() or b.parent is b.root():
        return True
    if a.parent is None or b.parent is None:
        return True
    return a.is_ancestor_of(b) or b.is_ancestor_of(a)


@dataclass(frozen=True)
class AliasScope:
    """One scope in an alias-scope domain (one per ``restrict`` pointer)."""

    name: str
    domain: str
    id: int = field(default_factory=lambda: next(_ids))

    def __str__(self) -> str:
        return f"!scope({self.domain}:{self.name})"


@dataclass(frozen=True)
class ScopedAliasMD:
    """The pair of scope lists attached to one memory instruction.

    ``alias_scopes`` — scopes this access belongs to; ``noalias_scopes`` —
    scopes this access is known not to alias.
    """

    alias_scopes: Tuple[AliasScope, ...] = ()
    noalias_scopes: Tuple[AliasScope, ...] = ()
