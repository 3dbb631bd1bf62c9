"""Mesh construction and validation invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokescouple.mesh import (
    EdgeTag,
    Geometry,
    Subdomain,
    build_layered_mesh,
    mesh_size,
    validate_mesh,
)


def test_counts_default_geometry():
    mesh = build_layered_mesh(Geometry(), nx=4, nz_upper=2, nz_lower=1)
    assert mesh.vertices.shape == (5 * 4, 2)
    assert mesh.triangles.shape == (2 * 4 * 3, 3)
    assert mesh.periodic_pairs.shape == (4, 2)
    assert mesh.interface_vertices.shape == (5,)


def test_geometry_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Geometry(length=0.0)
    with pytest.raises(ValueError):
        Geometry(z_plus=-1.0)
    with pytest.raises(ValueError):
        Geometry(z_minus=0.0)
    with pytest.raises(ValueError):
        build_layered_mesh(Geometry(), nx=0, nz_upper=1, nz_lower=1)


def test_valid_mesh_has_no_violations():
    mesh = build_layered_mesh(Geometry(), nx=6, nz_upper=3, nz_lower=2)
    assert validate_mesh(mesh) == []


def test_triangles_counter_clockwise_and_split_by_interface():
    mesh = build_layered_mesh(Geometry(), nx=3, nz_upper=2, nz_lower=2)
    p = mesh.vertices[mesh.triangles]
    signed = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                    - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    assert np.all(signed > 0.0)
    zs = p[:, :, 1]
    upper = mesh.triangle_subdomain == Subdomain.UPPER
    assert np.all(zs[upper].min(axis=1) >= 0.0)
    assert np.all(zs[~upper].max(axis=1) <= 0.0)


def test_interface_edges_tagged_once_per_side():
    mesh = build_layered_mesh(Geometry(), nx=5, nz_upper=2, nz_lower=1)
    tags = mesh.boundary_edges[:, 2]
    assert np.count_nonzero(tags == EdgeTag.INTERFACE_UPPER) == 5
    assert np.count_nonzero(tags == EdgeTag.INTERFACE_LOWER) == 5
    upper_edges = {tuple(sorted(e[:2])) for e in mesh.boundary_edges if e[2] == EdgeTag.INTERFACE_UPPER}
    lower_edges = {tuple(sorted(e[:2])) for e in mesh.boundary_edges if e[2] == EdgeTag.INTERFACE_LOWER}
    assert upper_edges == lower_edges


def test_periodic_pairs_match_rows():
    geom = Geometry(length=7.0, z_plus=2.0, z_minus=-3.0)
    mesh = build_layered_mesh(geom, nx=4, nz_upper=2, nz_lower=3)
    for left, right in mesh.periodic_pairs:
        assert mesh.vertices[left, 0] == 0.0
        assert mesh.vertices[right, 0] == geom.length
        assert mesh.vertices[left, 1] == mesh.vertices[right, 1]


def test_mesh_size_is_longest_edge():
    # one quad of 1 x 2 split in two: hypotenuse sqrt(5)
    geom = Geometry(length=1.0, z_plus=2.0, z_minus=-2.0)
    mesh = build_layered_mesh(geom, nx=1, nz_upper=1, nz_lower=1)
    assert mesh_size(mesh) == pytest.approx(np.sqrt(5.0), rel=1e-14)
    # square cells: sqrt(2) * dx
    geom = Geometry(length=4.0, z_plus=2.0, z_minus=-2.0)
    mesh = build_layered_mesh(geom, nx=4, nz_upper=2, nz_lower=2)
    assert mesh_size(mesh) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_validate_detects_flipped_triangle():
    mesh = build_layered_mesh(Geometry(), nx=3, nz_upper=1, nz_lower=1)
    tris = mesh.triangles.copy()
    tris[0] = tris[0][::-1]
    bad = validate_mesh(
        type(mesh)(
            geometry=mesh.geometry,
            vertices=mesh.vertices,
            triangles=tris,
            triangle_subdomain=mesh.triangle_subdomain,
            boundary_edges=mesh.boundary_edges,
            periodic_pairs=mesh.periodic_pairs,
            interface_vertices=mesh.interface_vertices,
        )
    )
    assert any("orientation" in msg for msg in bad)


def test_validate_detects_interface_crossing():
    mesh = build_layered_mesh(Geometry(), nx=3, nz_upper=1, nz_lower=1)
    verts = mesh.vertices.copy()
    # push one interface vertex above the line: adjacent lower triangles now cross
    k = mesh.interface_vertices[1]
    verts[k, 1] = 0.5
    bad = validate_mesh(
        type(mesh)(
            geometry=mesh.geometry,
            vertices=verts,
            triangles=mesh.triangles,
            triangle_subdomain=mesh.triangle_subdomain,
            boundary_edges=mesh.boundary_edges,
            periodic_pairs=mesh.periodic_pairs,
            interface_vertices=mesh.interface_vertices,
        )
    )
    assert any("crosses" in msg for msg in bad)


@settings(max_examples=30, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=8),
    nz_upper=st.integers(min_value=1, max_value=6),
    nz_lower=st.integers(min_value=1, max_value=6),
    length=st.floats(min_value=0.5, max_value=500.0),
    z_plus=st.floats(min_value=0.5, max_value=200.0),
    z_minus=st.floats(min_value=-200.0, max_value=-0.5),
)
def test_structured_meshes_always_validate(nx, nz_upper, nz_lower, length, z_plus, z_minus):
    geom = Geometry(length=length, z_plus=z_plus, z_minus=z_minus)
    mesh = build_layered_mesh(geom, nx=nx, nz_upper=nz_upper, nz_lower=nz_lower)
    assert validate_mesh(mesh) == []
    nz = nz_upper + nz_lower
    assert len(mesh.vertices) == (nx + 1) * (nz + 1)
    assert len(mesh.triangles) == 2 * nx * nz
    assert np.count_nonzero(mesh.triangle_subdomain == Subdomain.UPPER) == 2 * nx * nz_upper


def reference_validate(mesh):
    """The per-triangle, per-edge and per-pair loops that validate_mesh
    vectorizes, for the checks after the triangle-wise ones."""
    bad = []
    on_iface = np.isclose(mesh.vertices[:, 1], 0.0)
    count_by_side = {}
    for t, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            if on_iface[a] and on_iface[b]:
                key = (min(a, b), max(a, b))
                count_by_side.setdefault(key, [0, 0])[mesh.triangle_subdomain[t]] += 1
    for (a, b), (n_lo, n_up) in sorted(count_by_side.items()):
        if n_lo != 1 or n_up != 1:
            bad.append(f"interface edge ({a},{b}): {n_lo} lower / {n_up} upper adjacent triangles")
    g = mesh.geometry
    tag_line = {
        EdgeTag.WALL_UPPER: (1, g.z_plus),
        EdgeTag.WALL_LOWER: (1, g.z_minus),
        EdgeTag.INTERFACE_UPPER: (1, 0.0),
        EdgeTag.INTERFACE_LOWER: (1, 0.0),
        EdgeTag.PERIODIC_LEFT: (0, 0.0),
        EdgeTag.PERIODIC_RIGHT: (0, g.length),
    }
    for k, (a, b, tag) in enumerate(mesh.boundary_edges):
        axis, value = tag_line[EdgeTag(tag)]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        if not (np.isclose(pa[axis], value) and np.isclose(pb[axis], value)):
            bad.append(f"boundary edge {k}: tag {EdgeTag(tag).name} off its line")
    for k, (i, j) in enumerate(mesh.periodic_pairs):
        xi, zi = mesh.vertices[i]
        xj, zj = mesh.vertices[j]
        if not (np.isclose(xi, 0.0) and np.isclose(xj, g.length) and np.isclose(zi, zj)):
            bad.append(f"periodic pair {k}: ({i},{j}) does not match x=0 <-> x=L at equal z")
    return bad


def corrupted(**changes):
    mesh = build_layered_mesh(Geometry(), nx=3, nz_upper=2, nz_lower=1)
    return dataclasses.replace(mesh, **changes)


def test_validate_detects_interface_edge_without_its_lower_triangle():
    mesh = build_layered_mesh(Geometry(), nx=3, nz_upper=2, nz_lower=1)
    # triangle 1 of the lower row is (v00, v11, v01): its top edge lies on z = 0
    a, b = sorted(mesh.triangles[1][1:].tolist())
    keep = np.arange(len(mesh.triangles)) != 1
    mesh = dataclasses.replace(
        mesh, triangles=mesh.triangles[keep], triangle_subdomain=mesh.triangle_subdomain[keep]
    )
    assert validate_mesh(mesh) == [
        f"interface edge ({a},{b}): 0 lower / 1 upper adjacent triangles"
    ]


def test_validate_detects_boundary_edge_off_its_line():
    edges = corrupted().boundary_edges.copy()
    edges[0, 2] = EdgeTag.PERIODIC_RIGHT  # a lower-wall edge tagged as x = L
    assert validate_mesh(corrupted(boundary_edges=edges)) == [
        "boundary edge 0: tag PERIODIC_RIGHT off its line"
    ]


def test_validate_detects_unmatched_periodic_pair():
    pairs = corrupted().periodic_pairs.copy()
    pairs[1, 1] = pairs[2, 1]  # x = L partner one row too high
    i, j = pairs[1].tolist()
    assert validate_mesh(corrupted(periodic_pairs=pairs)) == [
        f"periodic pair 1: ({i},{j}) does not match x=0 <-> x=L at equal z"
    ]


def test_validate_detects_unsorted_interface_vertices():
    iv = corrupted().interface_vertices[::-1].copy()
    assert validate_mesh(corrupted(interface_vertices=iv)) == [
        "interface vertex list is not strictly ascending in x"
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_validate_matches_the_loop_reference(seed):
    rng = np.random.default_rng(seed)
    mesh = build_layered_mesh(Geometry(length=7.0, z_plus=3.0, z_minus=-2.0), 4, 2, 2)
    vertices = mesh.vertices.copy()
    moved = rng.choice(len(vertices), size=3, replace=False)
    vertices[moved] += rng.choice([0.0, 0.5, 1e-9], size=(3, 2))
    keep = rng.random(len(mesh.triangles)) > 0.1
    edges = mesh.boundary_edges.copy()
    edges[rng.integers(len(edges), size=2), 2] = rng.integers(1, 7, size=2)
    pairs = mesh.periodic_pairs.copy()
    pairs[:, 1] = rng.permutation(pairs[:, 1])
    mesh = dataclasses.replace(
        mesh,
        vertices=vertices,
        triangles=mesh.triangles[keep],
        triangle_subdomain=mesh.triangle_subdomain[keep],
        boundary_edges=edges,
        periodic_pairs=pairs,
    )
    triangle_wise = [msg for msg in validate_mesh(mesh) if msg.startswith("triangle ")]
    interface_list = [msg for msg in validate_mesh(mesh) if msg.startswith("interface vertex list")]
    assert validate_mesh(mesh) == triangle_wise + reference_validate(mesh) + interface_list
