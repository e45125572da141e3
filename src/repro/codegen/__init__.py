"""C++ code generation from verified transformations (paper §4)."""

from .cpp import CodegenError, CppGenerator, generate_cpp, generate_pass

__all__ = [
    "CodegenError",
    "CppGenerator",
    "generate_cpp",
    "generate_pass",
]
