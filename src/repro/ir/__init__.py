"""repro.ir — the typed SSA intermediate representation.

A compact LLVM-like IR: modules of functions of basic blocks of
instructions, with TBAA / alias-scope / debug metadata, an IRBuilder, a
printer (also used for executable hashing) and a verifier.
"""

from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VectorType,
    VoidType,
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    I8PTR,
    LABEL,
    VOID,
    ptr,
)
from .values import (
    Argument,
    Constant,
    ConstantData,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
    const_float,
    const_int,
)
from .instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    ShuffleSplatInst,
    StoreInst,
    UnreachableInst,
    BINOPS,
    COMMUTATIVE_BINOPS,
    PURE_INTRINSICS,
)
from .basicblock import BasicBlock
from .function import Function
from .module import Module
from .builder import IRBuilder
from .metadata import AliasScope, DebugLoc, ScopedAliasMD, TBAAForest, TBAANode, tbaa_alias
from .printer import (
    format_instruction,
    function_hash,
    module_hash,
    print_function,
    print_module,
    print_module_header,
)
from .verifier import VerificationError, verify_function, verify_module

__all__ = [name for name in dir() if not name.startswith("_")]
