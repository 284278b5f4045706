"""MiniC lexer.

MiniC is the C-like input language of this reproduction's frontend: the
subset of C the HPC proxy kernels need, plus ``restrict``, a
``#pragma omp parallel for`` directive, and CUDA-style ``__global__``
kernels.  ``int`` is 64-bit (LP64 with I=64, documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

KEYWORDS = {
    "void", "int", "long", "double", "float", "char", "struct",
    "if", "else", "for", "while", "do", "return", "break", "continue",
    "restrict", "const", "static", "extern", "sizeof",
    "__global__",
}

MULTI_OPS = [
    "<<=", ">>=", "->", "++", "--", "+=", "-=", "*=", "/=", "%=",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "&=", "|=", "^=",
]

SINGLE_OPS = "+-*/%<>=!&|^~?:;,.(){}[]"


@dataclass
class Token:
    kind: str          # "id" | "num" | "fnum" | "str" | "op" | "kw" | "pragma" | "eof"
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind},{self.text!r}@{self.line})"


class LexError(Exception):
    pass


def tokenize(source: str, filename: str = "<minic>") -> List[Token]:
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def err(msg: str):
        raise LexError(f"{filename}:{line}:{col}: {msg}")

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                err("unterminated comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            i = end + 2
            continue
        if c == "#":
            # only #pragma lines are meaningful; they are statements
            end = source.find("\n", i)
            if end < 0:
                end = n
            text = source[i:end].strip()
            if text.startswith("#pragma"):
                tokens.append(Token("pragma", text, line, col))
            i = end
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            while j < n and (source[j].isdigit() or source[j] in ".eExX"
                             or (source[j] in "+-" and j > i
                                 and source[j - 1] in "eE")
                             or (source[j] in "abcdefABCDEF"
                                 and source[i:i + 2].lower() == "0x")):
                if source[j] in ".eE" and source[i:i + 2].lower() != "0x":
                    is_float = True
                j += 1
            text = source[i:j]
            tokens.append(Token("fnum" if is_float else "num", text, line, col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    nxt = source[j + 1]
                    buf.append({"n": "\n", "t": "\t", "0": "\0",
                                "\\": "\\", '"': '"'}.get(nxt, nxt))
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                err("unterminated string")
            tokens.append(Token("str", "".join(buf), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            if source[j] == "\\":
                ch = {"n": "\n", "t": "\t", "0": "\0"}.get(
                    source[j + 1], source[j + 1])
                j += 2
            else:
                ch = source[j]
                j += 1
            if source[j] != "'":
                err("unterminated char literal")
            tokens.append(Token("num", str(ord(ch)), line, col))
            i = j + 1
            continue
        matched = False
        for op in MULTI_OPS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        if c in SINGLE_OPS:
            tokens.append(Token("op", c, line, col))
            i += 1
            col += 1
            continue
        err(f"unexpected character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens
