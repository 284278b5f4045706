"""Functions: argument lists, block lists, attributes, and target tags."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import FunctionType, PointerType, Type
from .values import Argument, Value

_name_counter = itertools.count()


class Function(Value):
    """An IR function.

    ``target`` tags which architecture the function is compiled for
    ("host" by default, e.g. "nvptx" for device kernels); ORAQL's
    ``-opt-aa-target`` filter matches against it (paper §IV-E).
    ``attrs`` carries LLVM-style function attributes such as
    ``readnone`` / ``readonly`` / ``noinline`` / ``kernel``.
    """

    __slots__ = ("ftype", "args", "blocks", "attrs", "parent", "target",
                 "is_declaration", "source_file", "_next_names")

    def __init__(self, ftype: FunctionType, name: str, module=None,
                 arg_names: Optional[Sequence[str]] = None,
                 target: str = "host"):
        super().__init__(PointerType(ftype), name)
        self.ftype = ftype
        self.parent = module
        self.target = target
        self.attrs: Set[str] = set()
        self.blocks: List[BasicBlock] = []
        self.is_declaration = False
        self.source_file: Optional[str] = None
        # per-function counter: block names end up in the printed body,
        # so a function's fresh names — hence its ``function_hash`` and
        # its share of the ``exe_hash`` — depend on its own history only
        self._next_names = 0
        names = list(arg_names or [])
        while len(names) < len(ftype.params):
            names.append(f"arg{len(names)}")
        self.args: List[Argument] = [
            Argument(t, n, self, i)
            for i, (t, n) in enumerate(zip(ftype.params, names))
        ]

    # -- structure ----------------------------------------------------------
    @property
    def return_type(self) -> Type:
        return self.ftype.ret

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def _fresh(self) -> int:
        n = self._next_names
        self._next_names += 1
        return n

    def add_block(self, name: str = "", after: Optional[BasicBlock] = None) -> BasicBlock:
        bb = BasicBlock(name or f"bb{self._fresh()}", self)
        if after is None:
            self.blocks.append(bb)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, bb)
        return bb

    def drop_all_references(self) -> None:
        """Drop every block's references, then forget the blocks, the
        arguments and the module (see
        :meth:`Module.drop_all_references`)."""
        for bb in self.blocks:
            bb.drop_all_references()
        self.blocks.clear()
        self.args.clear()
        self.parent = None

    def instructions(self) -> Iterator[Instruction]:
        for bb in self.blocks:
            yield from bb.instructions

    def num_instructions(self) -> int:
        return sum(len(bb) for bb in self.blocks)

    def unique_name(self, hint: str = "t") -> str:
        return f"{hint}{self._fresh()}"

    def short(self) -> str:
        return f"@{self.name}"

    @property
    def is_kernel(self) -> bool:
        return "kernel" in self.attrs

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Function @{self.name} ({len(self.blocks)} blocks)>"
