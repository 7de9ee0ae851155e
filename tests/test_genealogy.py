"""Genealogy from `bisect` against independent oracles: point location for
ancestor maps, midpoint-on-edge geometry for edge maps, and loop versions of
bisection, topology and `build_initial`'s orientation."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import Delaunay

from anfem.counterexample import build_family
from anfem.domains import diamond, l_shape, unit_square
from anfem.mesh import (MeshError, Triangulation, ancestor_map, bisect,
                        build_initial, descent_maps, kept_rows, nesting_sets,
                        uniform_refine)
from oracles import (brute_topology, full_criss_cross, geometric_edge_map,
                     located_ancestors, reference_bisect,
                     reference_orientation, reference_topology)

DOMAINS = {"square": lambda: unit_square(1), "lshape": l_shape,
           "diamond": diamond}


def assert_same_topology(mesh):
    edges, tri_edges, edge_tris = reference_topology(mesh.triangles)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.tri_edges, tri_edges)
    assert np.array_equal(mesh.edge_tris, edge_tris)


def assert_nested_like_oracles(coarse, fine):
    anc = ancestor_map(coarse, fine)
    assert np.array_equal(anc, located_ancestors(coarse, fine))
    assert np.array_equal(descent_maps(coarse, fine)[1],
                          geometric_edge_map(coarse, fine, anc))


def draw_marks(data, mesh):
    kind = data.draw(st.sampled_from(["empty", "all", "subset"]),
                     label="marks")
    nt = mesh.num_triangles
    if kind == "empty":
        return []
    if kind == "all":
        return list(range(nt))
    return data.draw(st.lists(st.integers(0, nt - 1), min_size=1,
                              max_size=min(nt, 12)), label="marked")


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_bisect_chain_matches_oracles(data):
    """Random NVB chains, intermediate meshes dropped: the vectorized
    bisection and topology equal the loop versions array for array, and the
    composed genealogy equals point location and edge geometry."""
    coarse = DOMAINS[data.draw(st.sampled_from(sorted(DOMAINS)))]()
    fine = coarse
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        marked = draw_marks(data, fine)
        refined = bisect(fine, marked)
        if marked:
            ref = reference_bisect(fine, marked)
            got = (refined.vertices, refined.triangles, refined.parent)
            for a, b in zip(ref, got):
                assert a.shape == b.shape and np.array_equal(a, b)
        else:
            assert np.array_equal(refined.triangles, fine.triangles)
            assert np.array_equal(refined.parent,
                                  np.arange(fine.num_triangles))
        assert_same_topology(refined)
        assert_nested_like_oracles(fine, refined)
        dropped = weakref.ref(fine)
        fine = refined
        gc.collect()
        if dropped() is not coarse:
            assert dropped() is None       # descendants keep no ancestors
    assert_nested_like_oracles(coarse, fine)
    ns = nesting_sets(coarse, fine)
    kept = np.setdiff1d(np.arange(coarse.num_triangles), ns.refined)
    assert set(map(tuple, coarse.triangles[kept])) <= set(
        map(tuple, fine.triangles))


def test_bisect_matches_oracle_on_every_child_pattern():
    """One bisect of a locally refined l_shape(3) with a fixed, seeded mark
    set splits elements into 1, 2, 3 and 4 children, with the first or the
    second child bisected again among the 3s: the result equals the loop
    version array for array."""
    rng = np.random.default_rng(3)
    coarse = l_shape(3)
    coarse = bisect(coarse, rng.choice(coarse.num_triangles, 8,
                                       replace=False))
    marked = rng.choice(coarse.num_triangles, coarse.num_triangles // 2,
                        replace=False)
    fine = bisect(coarse, marked)
    # refined coarse edges are those that two fine edges lie on
    edge = descent_maps(coarse, fine)[1]
    halves = np.bincount(edge[edge >= 0], minlength=coarse.num_edges) == 2
    patterns = set(map(tuple, halves[coarse.tri_edges].tolist()))
    assert patterns == {(False, False, False), (False, False, True),
                        (False, True, True), (True, False, True),
                        (True, True, True)}
    assert set(np.bincount(fine.parent).tolist()) == {1, 2, 3, 4}
    ref = reference_bisect(coarse, marked)
    for a, b in zip(ref, (fine.vertices, fine.triangles, fine.parent)):
        assert a.shape == b.shape and np.array_equal(a, b)


def refined_subset_ratio(coarse, fine):
    """max h_K / h_T over the subdivided coarse elements K only, 1 without
    one, with ancestors by point location."""
    anc = located_ancestors(coarse, fine)
    sel = np.bincount(anc, minlength=coarse.num_triangles)[anc] > 1
    return float(np.max(coarse.h[anc[sel]] / fine.h[sel])) if sel.any() \
        else 1.0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_topology_matches_brute_force(data):
    """`edges` (lexicographic), `tri_edges`, `edge_tris` (ascending ids, -1
    padded) and `boundary_edge` equal a dict over sorted vertex pairs, on
    random bisections of l_shape() and unit_square(2) and on criss-cross
    meshes of small odd N, whole and as the band along AC."""
    kind = data.draw(st.sampled_from(["lshape", "square", "criss-cross"]))
    if kind == "criss-cross":
        n = data.draw(st.sampled_from([1, 3, 5, 7, 9]), label="N")
        meshes = [full_criss_cross(n).fine, build_family(n).fine]
    else:
        meshes = [l_shape() if kind == "lshape" else unit_square(2)]
        for _ in range(data.draw(st.integers(1, 4), label="rounds")):
            meshes.append(bisect(meshes[-1], draw_marks(data, meshes[-1])))
    for mesh in meshes:
        edges, tri_edges, edge_tris, boundary = brute_topology(mesh.triangles)
        assert np.array_equal(mesh.edges, edges)
        assert np.array_equal(mesh.tri_edges, tri_edges)
        assert np.array_equal(mesh.edge_tris, edge_tris)
        assert np.array_equal(mesh.boundary_edge, boundary)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_refinement_ratio_matches_refined_subset(data):
    """Over random NVB chains, the ratio `NestingSets.gamma` over all
    elements equals the one over the refined elements exactly (a kept
    element contributes exactly 1), and `parent` is the newest lineage
    step."""
    coarse = DOMAINS[data.draw(st.sampled_from(sorted(DOMAINS)))]()
    fine = coarse
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        refined = bisect(fine, draw_marks(data, fine))
        assert refined.parent is refined.lineage[0][1]
        assert nesting_sets(fine, refined).gamma == refined_subset_ratio(
            fine, refined)
        fine = refined
    assert nesting_sets(coarse, fine).gamma == refined_subset_ratio(coarse,
                                                                    fine)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)), st.integers(0, 3))
def test_uniform_refine_composes(domain, rounds):
    coarse = DOMAINS[domain]()
    fine = uniform_refine(coarse, rounds)
    assert_nested_like_oracles(coarse, fine)
    assert np.array_equal(np.bincount(ancestor_map(coarse, fine)),
                          np.full(coarse.num_triangles, 2 ** rounds))


def test_identity_and_rejected_pairs():
    coarse = unit_square(1)
    fine = bisect(coarse, [0, 2])
    assert np.array_equal(ancestor_map(fine, fine),
                          np.arange(fine.num_triangles))
    # the same geometry built twice is two genealogies
    for c, f in ((unit_square(1), fine), (fine, coarse), (l_shape(), fine)):
        with pytest.raises(MeshError):
            ancestor_map(c, f)
        with pytest.raises(MeshError):
            nesting_sets(c, f)


def test_geometric_check_rejects_moved_vertices():
    coarse = unit_square(1)
    fine = bisect(coarse, [1])
    moved = Triangulation(fine.vertices + 0.25, fine.triangles,
                          lineage=fine.lineage)
    assert np.array_equal(descent_maps(coarse, moved)[0], fine.parent)
    with pytest.raises(MeshError):
        ancestor_map(coarse, moved)


def test_geometric_check_rejects_moved_kept_and_new_vertices():
    """Kept elements skip the barycentric check only while their corner
    coordinates are their ancestor's: moving the vertices of a mesh that
    kept every element, or only the new vertices of a bisection, is still
    found."""
    coarse = unit_square(2)
    kept_all = bisect(coarse, [])
    moved = Triangulation(kept_all.vertices + 0.25, kept_all.triangles,
                          lineage=kept_all.lineage)
    with pytest.raises(MeshError):
        ancestor_map(coarse, moved)
    fine = bisect(coarse, [3])
    kept = np.bincount(fine.parent)[fine.parent] == 1
    assert kept.any() and not kept.all()
    vertices = fine.vertices.copy()
    vertices[coarse.num_vertices:] += [0.01, 0.013]
    moved = Triangulation(vertices, fine.triangles, lineage=fine.lineage)
    with pytest.raises(MeshError):
        ancestor_map(coarse, moved)


def test_kept_rows_follow_the_coordinates():
    """After one bisection the kept elements are the only children and the
    kept edges those between two old vertices; moving only new vertices
    keeps them, moving every vertex keeps none."""
    coarse = unit_square(2)
    fine = bisect(coarse, [3])
    elements, edges = kept_rows(coarse, fine)
    only = np.bincount(fine.parent)[fine.parent] == 1
    assert np.array_equal(elements, np.where(only, fine.parent, -1))
    old = fine.edges[:, 1] < coarse.num_vertices
    assert np.array_equal(edges, np.where(old, fine.lineage[0][2], -1))
    assert 0 < (elements >= 0).sum() < fine.num_triangles
    vertices = fine.vertices.copy()
    vertices[coarse.num_vertices:] += [0.01, 0.013]
    moved = Triangulation(vertices, fine.triangles, lineage=fine.lineage)
    for got, ref in zip(kept_rows(coarse, moved), (elements, edges)):
        assert np.array_equal(got, ref)
    moved = Triangulation(fine.vertices + 0.25, fine.triangles,
                          lineage=fine.lineage)
    assert all((rows == -1).all() for rows in kept_rows(coarse, moved))


def test_bisect_rejects_non_integer_marks():
    tri = unit_square(1)
    with pytest.raises(MeshError):        # a mask is not a list of ids
        bisect(tri, [True, False, False, False])
    with pytest.raises(MeshError):        # 0.7 must not truncate to 0
        bisect(tri, [0.7])
    with pytest.raises(MeshError):
        bisect(tri, np.array([0.0, 1.0]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from([1.0, 3.7, 1e-3]))
def test_build_initial_orientation_matches_loops(seed, scale):
    rng = np.random.default_rng(seed)
    # lattice points give many equal edge lengths, so the tie-break matters
    pts = np.unique(np.round(rng.random((30, 2)) * 4) / 4 * scale, axis=0)
    if len(pts) < 4:
        return
    tris = Delaunay(pts).simplices.copy()
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip][:, ::-1]
    mesh = build_initial(pts, tris)
    assert np.array_equal(mesh.triangles, reference_orientation(pts, tris))
    assert_same_topology(mesh)


def test_build_initial_orientation_criss_cross():
    """Any vertex order of the criss-cross elements gives the same oriented
    mesh, and the loop version agrees."""
    rng = np.random.default_rng(3)
    for n in (1, 5, 21):
        fine = full_criss_cross(n).fine
        shuffled = np.array([np.roll(t, rng.integers(3))[::rng.choice([-1, 1])]
                             for t in fine.triangles])
        expect = reference_orientation(fine.vertices, shuffled)
        assert np.array_equal(expect, fine.triangles)
        assert np.array_equal(
            build_initial(fine.vertices, shuffled).triangles, expect)
