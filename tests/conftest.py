"""Shared fixtures: small partitioned meshes and the problems built on them.

Everything here is session-scoped; the objects are immutable after setup
(factorizations included), so sharing them across test modules is safe and
keeps the suite fast.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import schurhx.oracle as oracle_mod
from schurhx.assemble import Coefficients
from schurhx.mesh import build_box_mesh, extract_skeleton
from schurhx.precond import setup_maxwell, setup_scalar


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Source space of each transfer map, as a TransferOps attribute.
MAP_SOURCE = {
    "skeleton_trace": "volume",
    "volume_split": "volume",
    "boundary_trace": "broken",
    "skeleton_split": "skeleton",
}


@pytest.fixture(scope="session")
def selection():
    """Make the sorted CSR 0/1 matrix of a transfer map: row i holds a
    single 1 in column ``idx[i]``, so ``matrix @ u == u[idx]``."""

    def build(ops, name: str) -> sp.csr_matrix:
        idx = getattr(ops, name)
        shape = (idx.size, getattr(ops, MAP_SOURCE[name]).dim)
        m = sp.csr_matrix((np.ones(idx.size), (np.arange(idx.size), idx)), shape=shape)
        m.sort_indices()
        return m

    return build


@pytest.fixture
def corrupt_gradient(monkeypatch):
    """Flip the sign of the first entry of every skeleton gradient the
    verifier builds, so its failure path can be exercised."""
    original = oracle_mod.build_gradient

    def corrupted(mesh, skeleton=None):
        grad = original(mesh, skeleton)
        if skeleton is not None:
            grad = grad.copy()
            grad.data[0] = -grad.data[0]
        return grad

    monkeypatch.setattr(oracle_mod, "build_gradient", corrupted)


@pytest.fixture(scope="session")
def checkerboard():
    """Make per-tet alpha that is ``jump`` on every other subdomain (odd sum
    of subdomain grid coordinates) and 1 elsewhere."""

    def build(mesh, jump: float) -> np.ndarray:
        centroids = mesh.vertex_coords[mesh.tets].mean(axis=1)
        grid = np.floor(centroids * np.array(mesh.subdomains)).astype(int)
        return np.where(grid.sum(axis=1) % 2 == 1, jump, 1.0)

    return build


@pytest.fixture(scope="session")
def mesh111():
    return build_box_mesh((1, 1, 1))


@pytest.fixture(scope="session")
def mesh222_j1():
    return build_box_mesh((2, 2, 2), (1, 1, 1))


@pytest.fixture(scope="session")
def mesh222_j2():
    return build_box_mesh((2, 2, 2), (2, 1, 1))


@pytest.fixture(scope="session")
def mesh222_j8():
    return build_box_mesh((2, 2, 2), (2, 2, 2))


@pytest.fixture(scope="session")
def mesh422_j211():
    # Deliberately anisotropic cell counts: catches x/y/z index mix-ups that
    # cubic grids cannot see.
    return build_box_mesh((4, 2, 2), (2, 1, 1))


@pytest.fixture(scope="session")
def mesh444_j8():
    # Small enough for dense oracles, big enough that every subdomain has
    # interior vertices and edges (so Schur elimination is non-trivial).
    return build_box_mesh((4, 4, 4), (2, 2, 2))


@pytest.fixture(scope="session")
def skel222_j1(mesh222_j1):
    return extract_skeleton(mesh222_j1)


@pytest.fixture(scope="session")
def skel222_j8(mesh222_j8):
    return extract_skeleton(mesh222_j8)


@pytest.fixture(scope="session")
def scalar222_j1(mesh222_j1):
    return setup_scalar(mesh222_j1, Coefficients())


@pytest.fixture(scope="session")
def scalar222_j2(mesh222_j2):
    return setup_scalar(mesh222_j2, Coefficients())


@pytest.fixture(scope="session")
def scalar222_j8(mesh222_j8):
    return setup_scalar(mesh222_j8, Coefficients())


@pytest.fixture(scope="session")
def maxwell222_j2(mesh222_j2):
    return setup_maxwell(mesh222_j2, Coefficients())


@pytest.fixture(scope="session")
def maxwell222_j8(mesh222_j8):
    return setup_maxwell(mesh222_j8, Coefficients())


@pytest.fixture(scope="session")
def scalar444_j8(mesh444_j8):
    return setup_scalar(mesh444_j8, Coefficients())


@pytest.fixture(scope="session")
def mesh666_j27():
    return build_box_mesh((6, 6, 6), (3, 3, 3))


@pytest.fixture(scope="session")
def scalar444_j8_jump(mesh444_j8, checkerboard):
    return setup_scalar(mesh444_j8, Coefficients(alpha=checkerboard(mesh444_j8, 1e4)))


@pytest.fixture(scope="session")
def maxwell444_j8(mesh444_j8):
    return setup_maxwell(mesh444_j8, Coefficients())
