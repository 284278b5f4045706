"""Modules: the top-level IR container (functions, globals, TBAA forest)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .function import Function
from .metadata import TBAAForest
from .types import FunctionType, StructType, Type
from .values import Constant, GlobalVariable


class Module:
    """A translation unit: functions, globals, named struct types, TBAA."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.struct_types: Dict[str, StructType] = {}
        self.tbaa = TBAAForest()
        self.source_filename: Optional[str] = None

    # -- functions ----------------------------------------------------------
    def add_function(self, ftype: FunctionType, name: str,
                     arg_names: Optional[Sequence[str]] = None,
                     target: str = "host") -> Function:
        if name in self.functions:
            raise KeyError(f"duplicate function @{name}")
        fn = Function(ftype, name, self, arg_names, target)
        self.functions[name] = fn
        return fn

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    # -- globals --------------------------------------------------------------
    def add_global(self, value_type: Type, name: str,
                   initializer: Optional[Constant] = None,
                   is_constant: bool = False) -> GlobalVariable:
        if name in self.globals:
            raise KeyError(f"duplicate global @{name}")
        gv = GlobalVariable(value_type, name, initializer, is_constant)
        self.globals[name] = gv
        return gv

    _str_count = 0

    def add_string(self, text: str, name: Optional[str] = None) -> GlobalVariable:
        """Intern a NUL-terminated string constant (printf formats etc.)."""
        from .types import ArrayType, I8
        from .values import ConstantData

        payload = text.encode() + b"\x00"
        if name is None:
            name = f".str.{self._str_count}"
            self._str_count += 1
        init = ConstantData(ArrayType(I8, len(payload)), tuple(payload))
        return self.add_global(ArrayType(I8, len(payload)), name, init,
                               is_constant=True)

    # -- types ----------------------------------------------------------------
    def add_struct_type(self, name: str, fields: Sequence[Type],
                        field_names: Optional[Sequence[str]] = None) -> StructType:
        if name in self.struct_types:
            raise KeyError(f"duplicate struct %{name}")
        st = StructType(name, fields, field_names)
        self.struct_types[name] = st
        return st

    def link(self, other: "Module") -> None:
        """Link ``other`` into this module (manual LTO, paper §V-A-d).

        Declarations are resolved against definitions; duplicate
        definitions are an error, duplicate declarations merge.  Like
        LLVM's linker, this consumes ``other``: it is left empty, and
        the declarations no module keeps drop their references.
        """
        for name, st in other.struct_types.items():
            if name not in self.struct_types:
                self.struct_types[name] = st
        for name, gv in other.globals.items():
            if name in self.globals:
                mine = self.globals[name]
                if mine.initializer is None:
                    self.globals[name] = gv
                elif gv.initializer is not None:
                    raise KeyError(f"duplicate global definition @{name}")
            else:
                self.globals[name] = gv
        dropped: List[Function] = []
        for name, fn in other.functions.items():
            mine = self.functions.get(name)
            if mine is None:
                self.functions[name] = fn
                fn.parent = self
            elif mine.is_declaration and not fn.is_declaration:
                fn.parent = self
                mine.replace_all_uses_with(fn)
                self.functions[name] = fn
                dropped.append(mine)
            elif not mine.is_declaration and not fn.is_declaration:
                raise KeyError(f"duplicate function definition @{name}")
            else:
                fn.replace_all_uses_with(mine)
                dropped.append(fn)
        self._fixup_callees()
        for fn in dropped:
            fn.drop_all_references()
        other.functions.clear()
        other.globals.clear()
        other.struct_types.clear()

    def _fixup_callees(self) -> None:
        """Point every direct call at the canonical (linked) function.
        The callee is an attribute, not an operand, so RAUW misses it."""
        from .instructions import CallInst

        for fn in self.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, CallInst) and isinstance(
                        inst.callee, Function):
                    canonical = self.functions.get(inst.callee.name)
                    if canonical is not None and canonical is not inst.callee:
                        inst.callee = canonical

    def drop_all_references(self) -> None:
        """LLVM's ``Module::dropAllReferences``: every instruction drops
        its operands and its parent, and the functions, blocks and
        global tables are emptied.  That breaks every reference cycle
        in the IR (values know their users, blocks their function), so
        the module's IR is freed by reference counting alone.  The
        module is empty afterwards.  A ``held`` function keeps its body
        and only forgets the module."""
        for fn in self.functions.values():
            if fn.held:
                fn.parent = None
            else:
                fn.drop_all_references()
        self.functions.clear()
        self.globals.clear()
        self.struct_types.clear()

    def num_instructions(self) -> int:
        return sum(f.num_instructions() for f in self.defined_functions())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Module {self.name}: {len(self.functions)} functions>"
