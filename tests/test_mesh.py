"""Mesh construction and validation invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokescouple.mesh import (
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
    assert mesh.triangle_subdomain.shape == (2 * 4 * 3,)


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
        )
    )
    assert any("orientation" in msg for msg in bad)


def test_validate_detects_interface_crossing():
    mesh = build_layered_mesh(Geometry(), nx=3, nz_upper=1, nz_lower=1)
    verts = mesh.vertices.copy()
    # push one interface vertex above the line: adjacent lower triangles now cross
    k = np.flatnonzero((mesh.vertices[:, 1] == 0.0) & (mesh.vertices[:, 0] > 0.0))[0]
    verts[k, 1] = 0.5
    bad = validate_mesh(
        type(mesh)(
            geometry=mesh.geometry,
            vertices=verts,
            triangles=mesh.triangles,
            triangle_subdomain=mesh.triangle_subdomain,
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
    """The per-triangle, per-edge loop that validate_mesh vectorizes, for the
    check after the triangle-wise ones."""
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
    return bad


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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_validate_matches_the_loop_reference(seed):
    rng = np.random.default_rng(seed)
    mesh = build_layered_mesh(Geometry(length=7.0, z_plus=3.0, z_minus=-2.0), 4, 2, 2)
    vertices = mesh.vertices.copy()
    moved = rng.choice(len(vertices), size=3, replace=False)
    vertices[moved] += rng.choice([0.0, 0.5, 1e-9], size=(3, 2))
    keep = rng.random(len(mesh.triangles)) > 0.1
    mesh = dataclasses.replace(
        mesh,
        vertices=vertices,
        triangles=mesh.triangles[keep],
        triangle_subdomain=mesh.triangle_subdomain[keep],
    )
    triangle_wise = [msg for msg in validate_mesh(mesh) if msg.startswith("triangle ")]
    assert validate_mesh(mesh) == triangle_wise + reference_validate(mesh)
