"""Dof spaces and the transfer maps per element family."""

import dataclasses

import numpy as np
import pytest
from conftest import box_partitions
from hypothesis import given, settings
from hypothesis import strategies as st

from schurhx.dofspaces import build_transfer
from schurhx.mesh import build_box_mesh


def test_space_dims_eight_subdomains(transfers222_j8):
    scalar, edge = transfers222_j8
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


def test_space_dims_single_subdomain(transfers222_j1):
    scalar, _ = transfers222_j1
    assert scalar.n_volume == 27
    assert scalar.skeleton_trace.size == 26
    assert scalar.volume_split.size == 27
    assert scalar.skeleton_split.size == 26


def test_block_slices_partition(mesh444_j8, scalar444_j8):
    """Both product spaces are tables, a row per subdomain: 27 vertices per
    2^3-cell subdomain, 26 of them on its boundary."""
    ops = scalar444_j8.schur.transfer
    for table, width in ((ops.volume_split, 27), (ops.skeleton_split, 26)):
        assert table.shape == (mesh444_j8.n_subdomains, width)
    assert ops.n_interior == 1


def test_index_map_apply_matches_matrix(mesh422_j211, selection, rng):
    """Each stored map is a read-only integer array or table: indexing applies
    it and bincount its transpose, exactly as the 0/1 selection matrix does,
    row by row; the broken -> boundary-tuple map takes each row's trailing
    columns."""
    for field in ("scalar", "edge"):
        ops = build_transfer(mesh422_j211, field)
        for name in ("skeleton_trace", "volume_split", "skeleton_split"):
            idx = getattr(ops, name)
            assert idx.dtype == np.int64 and not idx.flags.writeable
            matrix = selection(ops, name)
            u = rng.integers(-100, 100, matrix.shape[1]).astype(float)
            assert np.array_equal(u[idx].ravel(), matrix @ u)
            w = rng.integers(-100, 100, idx.size).astype(float)
            back = np.bincount(idx.ravel(), w, minlength=matrix.shape[1])
            assert np.array_equal(back, matrix.T @ w)
        matrix = selection(ops, "boundary_trace")
        broken = rng.integers(-100, 100, ops.volume_split.shape).astype(float)
        assert np.array_equal(broken[:, ops.n_interior :].ravel(), matrix @ broken.ravel())
        w = rng.integers(-100, 100, ops.skeleton_split.shape).astype(float)
        back = np.zeros(ops.volume_split.shape)
        back[:, ops.n_interior :] = w
        assert np.array_equal(back.ravel(), matrix.T @ w.ravel())


def test_skeleton_trace_selects(mesh222_j8, scalar222_j8, vertex_degree):
    trace = scalar222_j8.schur.transfer.skeleton_trace
    assert np.array_equal(trace, np.flatnonzero(vertex_degree(mesh222_j8) > 0))


def test_volume_split_copies_blocks(mesh444_j8, scalar444_j8, subdomain_dofs, rng):
    """Each subdomain's broken row copies its interior vertices, then its
    boundary vertices, each ascending."""
    ops = scalar444_j8.schur.transfer
    u = rng.uniform(-1, 1, mesh444_j8.n_vertices)
    broken = u[ops.volume_split]
    reference = subdomain_dofs(mesh444_j8, "scalar")
    for j in (0, 3, 7):
        assert np.array_equal(broken[j], u[np.concatenate(reference[j])])


def _assert_boundary_is_face_count(mesh, field, subdomain_dofs):
    """Each subdomain's broken row is its interior, then its boundary (the
    dofs on faces that only one of its tets touches), so the row's trailing
    ``skeleton_split`` width of columns is exactly that boundary."""
    ops = build_transfer(mesh, field)
    reference = subdomain_dofs(mesh, field)
    n_b = ops.skeleton_split.shape[1]
    for row, (interior, boundary) in zip(ops.volume_split, reference, strict=True):
        assert np.array_equal(row[row.size - n_b :], boundary)
        assert np.array_equal(row, np.r_[interior, boundary])


@settings(max_examples=25, deadline=None)
@given(mesh=box_partitions(), field=st.sampled_from(["scalar", "edge"]))
def test_boundary_trace_is_face_count_boundary(mesh, field, subdomain_dofs):
    _assert_boundary_is_face_count(mesh, field, subdomain_dofs)


def test_split_maps_have_no_zero_columns(maxwell444_j8):
    # Injectivity of the two split maps: every volume dof lands in some
    # subdomain, every skeleton dof on some subdomain boundary.
    for ops in (maxwell444_j8.schur.transfer, maxwell444_j8.scalar.schur.transfer):
        for idx, source_dim in (
            (ops.volume_split, ops.n_volume),
            (ops.skeleton_split, ops.skeleton_trace.size),
        ):
            assert np.bincount(idx.ravel(), minlength=source_dim).min() >= 1


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_trace_split_commutation_exact(mesh422_j211, field, rng, selection):
    """Both routes volume -> boundary tuple agree entry for entry."""
    ops = build_transfer(mesh422_j211, field)
    diff = (
        selection(ops, "boundary_trace") @ selection(ops, "volume_split")
        - selection(ops, "skeleton_split") @ selection(ops, "skeleton_trace")
    )
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    # Integer probe: exact equality on the vector level as well.
    u = rng.integers(-100, 100, ops.n_volume).astype(float)
    left = u[ops.volume_split][:, ops.n_interior :]
    right = u[ops.skeleton_trace][ops.skeleton_split]
    assert np.array_equal(left, right)


@pytest.mark.parametrize("field", ["scalar", "edge"])
@pytest.mark.parametrize(
    "grid", [((12, 6, 9), (2, 3, 3)), ((4, 4, 4), (2, 2, 2))], ids=["12x6x9/2x3x3", "4^3/2^3"]
)
def test_transfer_tables_match_member_dofs(grid, field):
    """A transfer stores five fields and no flat bookkeeping: ``volume_split``
    is ``mesh.member_dofs(field)`` bit for bit, read-only, and each boundary
    copy's skeleton dof is the volume dof in its row's trailing columns."""
    mesh = build_box_mesh(*grid)
    ops = build_transfer(mesh, field)
    want = mesh.member_dofs(field)
    assert ops.volume_split.shape == want.shape and ops.volume_split.dtype == want.dtype
    assert ops.volume_split.tobytes() == want.tobytes()
    assert not ops.volume_split.flags.writeable and not ops.skeleton_split.flags.writeable
    assert ops.skeleton_split.shape == (mesh.n_subdomains, want.shape[1] - ops.n_interior)
    assert ops.n_interior == mesh.numbering(field)[2]
    trailing = ops.volume_split[:, ops.n_interior :]
    assert np.array_equal(ops.skeleton_trace[ops.skeleton_split], trailing)
    names = ["field", "n_volume", "skeleton_trace", "volume_split", "skeleton_split"]
    assert [f.name for f in dataclasses.fields(ops)] == names
    assert list(vars(ops)) == names


def test_unknown_field_rejected(mesh222_j8):
    with pytest.raises(ValueError):
        build_transfer(mesh222_j8, "volume")


def test_single_subdomain_split_is_identity(scalar222_j1):
    split = scalar222_j1.schur.transfer.skeleton_split
    assert np.array_equal(split, [np.arange(26)])


def test_skeleton_split_column_sums_are_degrees(mesh222_j2, vertex_degree):
    ops = build_transfer(mesh222_j2, "scalar")
    counts = np.bincount(ops.skeleton_split.ravel(), minlength=ops.skeleton_trace.size)
    assert np.array_equal(counts, vertex_degree(mesh222_j2)[ops.skeleton_trace])


def test_multiplicity_matches_triple_product(mesh222_j8, scalar222_j8, selection, vertex_degree):
    """The Neumann-Neumann degree is the diagonal of split^T split, the
    number of subdomain boundaries through each skeleton vertex."""
    degree = scalar222_j8.qnn.degree
    split = selection(scalar222_j8.schur.transfer, "skeleton_split")
    assert np.array_equal((split.T @ split).diagonal(), degree)
    skeleton_vertices = scalar222_j8.schur.transfer.skeleton_trace
    expected = vertex_degree(mesh222_j8)[skeleton_vertices]
    assert np.array_equal(degree, expected)
    center = np.flatnonzero(np.all(mesh222_j8.vertex_coords[skeleton_vertices] == 0.5, axis=1))
    assert degree[center[0]] == 8.0


def test_multiplicity_single_subdomain(scalar222_j1):
    assert np.all(scalar222_j1.qnn.degree == 1.0)


def test_edge_trace_is_unsigned_selection(transfers222_j8, maxwell222_j8):
    # Tangential traces need no sign flips: the skeleton copy of an edge dof
    # is the volume dof itself, so the trace is a plain integer index array.
    tr = maxwell222_j8.schur.transfer.skeleton_trace
    assert tr.dtype == np.int64
    assert np.array_equal(tr, transfers222_j8[1].skeleton_trace)

