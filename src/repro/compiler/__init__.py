"""Compiler support: the automated offload-extraction pipeline (Fig 6).

The paper implements LLVM passes; our equivalent consumes kernel IR and
runs the same pipeline: DFG classification -> partitioning -> access-node
placement -> access specialization -> offload configuration (microcode /
CGRA mapping) emission. The paper's hot-region profiling step has no
pass of its own: the kernels are the hot regions, and their dynamic
coverage (Table VI's %cc and %dc) comes from the golden interpretation.
"""

from .pipeline import CompiledOffload, CompileMode, compile_kernel
from .specialize import specialize_offload
from .codegen import generate_microcode

__all__ = [
    "CompiledOffload", "CompileMode", "compile_kernel",
    "specialize_offload",
    "generate_microcode",
]
