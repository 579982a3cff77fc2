"""Substructured skeleton preconditioners for nodal and edge finite elements."""

from .assemble import Coefficients, assemble_edge, assemble_scalar, jacobi_diagonal
from .dofspaces import build_spaces, build_transfer
from .discrete_ops import build_gradient, build_nodal_interp
from .krylov import pcg
from .mesh import build_box_mesh, extract_skeleton
from .precond import (
    HiptmairXu,
    NeumannNeumann,
    estimate_condition,
    setup_maxwell,
    setup_scalar,
)
from .schur import build_schur_system

__version__ = "0.1.0"

__all__ = [
    "Coefficients",
    "HiptmairXu",
    "NeumannNeumann",
    "assemble_edge",
    "assemble_scalar",
    "build_box_mesh",
    "build_gradient",
    "build_nodal_interp",
    "build_schur_system",
    "build_spaces",
    "build_transfer",
    "estimate_condition",
    "extract_skeleton",
    "jacobi_diagonal",
    "pcg",
    "setup_maxwell",
    "setup_scalar",
    "__version__",
]
