"""Mini-C frontend: the language the reproduction's "Clang/LLVM" compiles.

The subset covers what the paper's instrumentation cares about: structs
(arbitrarily nested, including arrays of structs), arrays, pointers and
pointer arithmetic, function pointers, globals with initialisers, and the
usual statement forms.  Floating point is deliberately absent (see
DESIGN.md — float-heavy benchmark kernels use scaled integers).

Pipeline: :func:`tokenize` → :func:`parse` → :func:`analyze`, producing a
typed AST consumed by :mod:`repro.compiler`.  :func:`tokenize` is one
master-regex pass; identifiers and digits are ASCII, and every malformed
input raises :class:`~repro.errors.LexError` with its line and column.

The :class:`Program` that :func:`analyze` returns is read-only from then
on: inside a :func:`repro.compiler.shared_front_end` block one is lowered
under every configuration, so nothing downstream may mutate it.
"""

from repro.lang.lexer import tokenize, Token
from repro.lang.parser import parse
from repro.lang.sema import analyze, Program

__all__ = ["tokenize", "Token", "parse", "analyze", "Program"]
