"""Substructured skeleton preconditioners for nodal and edge finite elements."""

from .assemble import Coefficients, assemble_edge, assemble_scalar
from .dofspaces import build_transfer
from .discrete_ops import build_aux_maps
from .krylov import pcg
from .mesh import build_box_mesh
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
    "build_aux_maps",
    "build_box_mesh",
    "build_schur_system",
    "build_transfer",
    "estimate_condition",
    "pcg",
    "setup_maxwell",
    "setup_scalar",
    "__version__",
]
