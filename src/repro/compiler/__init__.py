"""Mini-C compiler: lowering, layout-table generation, IFP instrumentation.

The compiler plays the role of the paper's modified Clang/LLVM.  It lowers
the typed AST (:mod:`repro.lang`) to a register-based IR (:mod:`.ir`),
optionally weaving in In-Fat Pointer instrumentation:

* object-metadata registration for address-taken locals and globals
  (local-offset scheme when the object fits, global-table fallback);
* layout-table generation per struct type (:mod:`.layout_gen`);
* ``promote`` insertion for pointers whose bounds cannot be statically
  determined (loads of pointer values, legacy-call results);
* tag maintenance (``ifpadd``/``ifpidx``) on pointer arithmetic;
* static bounds narrowing (``ifpbnd``) for statically-known subobjects;
* allocator-call rewriting to the IFP runtime's allocators.
"""

from repro.compiler.ir import (
    Op, Instr, IRFunction, IRProgram, GlobalObject,
)
from repro.compiler.options import CompilerOptions
from repro.compiler.compile import (
    compile_program, compile_source, shared_front_end,
)

__all__ = [
    "Op", "Instr", "IRFunction", "IRProgram", "GlobalObject",
    "CompilerOptions", "compile_program", "compile_source",
    "shared_front_end",
]
