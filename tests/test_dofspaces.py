"""Dof spaces and the four transfer maps per element family."""

import numpy as np
import pytest

from schurhx.dofspaces import build_transfer
from schurhx.mesh import extract_skeleton


def test_space_dims_eight_subdomains(mesh222_j8, skel222_j8):
    scalar = build_transfer(mesh222_j8, skel222_j8, "scalar")
    edge = build_transfer(mesh222_j8, skel222_j8, "edge")
    assert scalar.n_volume == 27
    assert scalar.skeleton_trace.size == 27
    assert edge.n_volume == 98
    assert edge.skeleton_trace.size == 90
    # Eight single-cell subdomains: 8 vertices (all on the boundary) and 19
    # edges each, of which only the body diagonal is interior.
    assert scalar.volume_split.size == 64
    assert scalar.skeleton_split.size == 64
    assert edge.volume_split.size == 8 * 19
    assert edge.skeleton_split.size == 8 * 18


def test_space_dims_single_subdomain(mesh222_j1, skel222_j1):
    scalar = build_transfer(mesh222_j1, skel222_j1, "scalar")
    assert scalar.n_volume == 27
    assert scalar.skeleton_trace.size == 26
    assert scalar.volume_split.size == 27
    assert scalar.skeleton_split.size == 26


def test_block_slices_partition(mesh444_j8, scalar444_j8):
    ops = scalar444_j8.schur.transfer
    for offsets, size in (
        (ops.broken_offsets, ops.volume_split.size),
        (ops.boundary_offsets, ops.skeleton_split.size),
    ):
        assert offsets.size == mesh444_j8.n_subdomains + 1
        assert offsets[0] == 0 and offsets[-1] == size
        assert np.all(np.diff(offsets) > 0)


def test_index_map_apply_matches_matrix(mesh422_j211, selection, rng):
    """Each map is a read-only integer array: indexing applies it and
    bincount its transpose, exactly as the 0/1 selection matrix does."""
    skel = extract_skeleton(mesh422_j211)
    for field in ("scalar", "edge"):
        ops = build_transfer(mesh422_j211, skel, field)
        maps = ("skeleton_trace", "volume_split", "boundary_trace", "skeleton_split")
        for name in maps:
            idx = getattr(ops, name)
            assert idx.dtype == np.int64 and not idx.flags.writeable
            matrix = selection(ops, name)
            u = rng.integers(-100, 100, matrix.shape[1]).astype(float)
            assert np.array_equal(u[idx], matrix @ u)
            w = rng.integers(-100, 100, idx.size).astype(float)
            back = np.bincount(idx, w, minlength=matrix.shape[1])
            assert np.array_equal(back, matrix.T @ w)


def test_skeleton_trace_selects(skel222_j8, scalar222_j8):
    trace = scalar222_j8.schur.transfer.skeleton_trace
    assert np.array_equal(trace, skel222_j8.skeleton_vertices)


def test_volume_split_copies_blocks(mesh444_j8, scalar444_j8, rng):
    ops = scalar444_j8.schur.transfer
    u = rng.uniform(-1, 1, mesh444_j8.n_vertices)
    broken = u[ops.volume_split]
    for j in (0, 3, 7):
        lo, hi = ops.broken_offsets[j : j + 2]
        block = broken[lo:hi]
        vertices = np.unique(mesh444_j8.tets[mesh444_j8.tet_subdomain == j])
        assert np.array_equal(block, u[vertices])


def test_split_maps_have_no_zero_columns(maxwell444_j8):
    # Injectivity of the two split maps: every volume dof lands in some
    # subdomain, every skeleton dof on some subdomain boundary.
    for ops in (maxwell444_j8.schur.transfer, maxwell444_j8.scalar.schur.transfer):
        for idx, source_dim in (
            (ops.volume_split, ops.n_volume),
            (ops.skeleton_split, ops.skeleton_trace.size),
        ):
            assert np.bincount(idx, minlength=source_dim).min() >= 1


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_trace_split_commutation_exact(mesh422_j211, field, rng, selection):
    """Both routes volume -> boundary tuple agree entry for entry."""
    skel = extract_skeleton(mesh422_j211)
    ops = build_transfer(mesh422_j211, skel, field)
    diff = (
        selection(ops, "boundary_trace") @ selection(ops, "volume_split")
        - selection(ops, "skeleton_split") @ selection(ops, "skeleton_trace")
    )
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    # Integer probe: exact equality on the vector level as well.
    u = rng.integers(-100, 100, ops.n_volume).astype(float)
    left = u[ops.volume_split][ops.boundary_trace]
    right = u[ops.skeleton_trace][ops.skeleton_split]
    assert np.array_equal(left, right)


def test_unknown_field_rejected(mesh222_j8, skel222_j8):
    with pytest.raises(ValueError):
        build_transfer(mesh222_j8, skel222_j8, "volume")


def test_single_subdomain_split_is_identity(scalar222_j1):
    split = scalar222_j1.schur.transfer.skeleton_split
    assert np.array_equal(split, np.arange(26))


def test_skeleton_split_column_sums_are_degrees(mesh222_j2, vertex_degree):
    skel = extract_skeleton(mesh222_j2)
    ops = build_transfer(mesh222_j2, skel, "scalar")
    counts = np.bincount(ops.skeleton_split, minlength=ops.skeleton_trace.size)
    assert np.array_equal(counts, vertex_degree(mesh222_j2)[skel.skeleton_vertices])


def test_multiplicity_matches_triple_product(
    mesh222_j8, skel222_j8, scalar222_j8, selection, vertex_degree
):
    """The Neumann-Neumann degree is the diagonal of split^T split, the
    number of subdomain boundaries through each skeleton vertex."""
    degree = scalar222_j8.qnn.degree
    split = selection(scalar222_j8.schur.transfer, "skeleton_split")
    assert np.array_equal((split.T @ split).diagonal(), degree)
    expected = vertex_degree(mesh222_j8)[skel222_j8.skeleton_vertices]
    assert np.array_equal(degree, expected)
    center = np.flatnonzero(
        np.all(mesh222_j8.vertex_coords[skel222_j8.skeleton_vertices] == 0.5, axis=1)
    )
    assert degree[center[0]] == 8.0


def test_multiplicity_single_subdomain(scalar222_j1):
    assert np.all(scalar222_j1.qnn.degree == 1.0)


def test_edge_trace_is_unsigned_selection(skel222_j8, maxwell222_j8):
    # Tangential traces need no sign flips: the skeleton copy of an edge dof
    # is the volume dof itself, so the trace is a plain integer index array.
    tr = maxwell222_j8.schur.transfer.skeleton_trace
    assert tr.dtype == np.int64
    assert np.array_equal(tr, skel222_j8.skeleton_edges)
