import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anfem.mesh import (MeshError, Triangulation, ancestor_map, barycentric,
                        bisect, build_initial, descent_maps, nesting_sets,
                        read_mesh, uniform_refine)
from anfem.domains import diamond, get_domain, l_shape, unit_square


def assert_conforming(tri: Triangulation):
    # every interior edge shared by exactly two elements, boundary by one
    counts = np.zeros(tri.num_edges, dtype=int)
    for es in tri.tri_edges:
        for e in es:
            counts[e] += 1
    assert set(counts.tolist()) <= {1, 2}
    assert np.all((counts == 1) == tri.boundary_edge)


def angle_signature(tri: Triangulation, k: int):
    p = tri.vertices[tri.triangles[k]]
    angs = []
    for i in range(3):
        a = p[(i + 1) % 3] - p[i]
        b = p[(i + 2) % 3] - p[i]
        angs.append(np.arccos(
            np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))))
    return tuple(np.round(sorted(angs), 10))


def test_build_initial_orientation_and_area():
    tri = unit_square(0)
    assert tri.num_triangles == 2
    a = tri.vertices[tri.triangles[:, 1]] - tri.vertices[tri.triangles[:, 0]]
    b = tri.vertices[tri.triangles[:, 2]] - tri.vertices[tri.triangles[:, 0]]
    signed = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    assert np.all(signed > 0)
    assert abs(tri.area.sum() - 1.0) < 1e-12


def test_domains_areas():
    assert abs(unit_square(2).area.sum() - 1.0) < 1e-12
    assert abs(l_shape().area.sum() - 3.0) < 1e-12
    assert abs(diamond().area.sum() - 2.0) < 1e-12
    with pytest.raises(ValueError, match="unknown domain 'x'"):
        get_domain("x")


def test_collinear_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        build_initial(verts, np.array([[0, 1, 2]]))
    # connectivity that is not one row of three vertex ids per triangle
    for tris in ([0, 1, 2], [[0, 1, 2, 0]], [[0, 1]]):
        with pytest.raises(MeshError, match=r"connectivity must be \(nt, 3\)"):
            build_initial(verts, tris)


def test_bisect_single_element():
    tri = unit_square(0)
    fine = bisect(tri, np.array([0]))
    assert_conforming(fine)
    # completion forces the neighbour to split as well
    assert fine.num_triangles == 4
    assert abs(fine.area.sum() - 1.0) < 1e-12
    assert np.all(fine.parent >= 0)


def test_bisect_genealogy():
    tri = l_shape()
    fine = bisect(tri, np.arange(tri.num_triangles))
    assert fine.num_triangles == 2 * tri.num_triangles
    assert tri.parent is None
    for t in range(fine.num_triangles):
        p = fine.parent[t]
        assert 0 <= p < tri.num_triangles
    # child areas halve the parent area
    child_area = np.zeros(tri.num_triangles)
    np.add.at(child_area, fine.parent, fine.area)
    assert np.allclose(child_area, tri.area)


def test_uniform_refine_counts():
    tri = unit_square(0)
    assert uniform_refine(tri, 3).num_triangles == 2 * 8
    assert uniform_refine(tri, np.int64(0)) is tri


@pytest.mark.parametrize("rounds", [-1, True, 1.0, 2.5])
def test_refinement_rounds_must_be_a_count(rounds):
    """A negative or non-integer number of rounds is refused, not read as
    none (or a bool as one round)."""
    with pytest.raises(ValueError, match="rounds must be an integer >= 0"):
        uniform_refine(unit_square(0), rounds)
    for domain in (unit_square, l_shape):
        with pytest.raises(ValueError, match="rounds must be an integer"):
            domain(rounds)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bisect_fuzz_conformity_and_similarity(data):
    """Arbitrary marked subsets keep the mesh conforming, preserve area and
    produce at most 4 similarity classes per root triangle (newest vertex
    bisection)."""
    root = unit_square(0)
    tri = uniform_refine(root, 1)       # unit_square(1)
    total = tri.area.sum()
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        nt = tri.num_triangles
        marked = data.draw(
            st.lists(st.integers(0, nt - 1), min_size=1, max_size=nt,
                     unique=True), label="marked")
        tri = bisect(tri, np.array(marked))
        assert_conforming(tri)
        assert abs(tri.area.sum() - total) < 1e-12
    classes = {}
    for k, r in enumerate(descent_maps(root, tri)[0]):
        classes.setdefault(r, set()).add(angle_signature(tri, k))
    assert max(len(s) for s in classes.values()) <= 4


def test_bisect_without_marks_keeps_the_mesh():
    tri = l_shape(1)
    same = bisect(tri, [])
    assert np.array_equal(same.vertices, tri.vertices)
    assert np.array_equal(same.triangles, tri.triangles)
    token, parent, edge_parent = same.lineage[0]
    assert token == tri.token and same.lineage[1:] == tri.lineage
    assert np.array_equal(parent, np.arange(tri.num_triangles))
    assert np.array_equal(edge_parent, np.arange(tri.num_edges))


# (vertices, triangles, expected problem) of a Triangulation that is refused
BAD_TRIANGULATIONS = {
    "non_finite": ([(0, 0), (1, 0), (0, np.nan)], [(0, 1, 2)], "non-finite"),
    "misoriented": ([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)], "misoriented"),
    "three_on_an_edge": ([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)],
                         [(0, 1, 2), (1, 0, 3), (0, 1, 4)],
                         "more than two triangles"),
    # every edge shared by two triangles, so no boundary at all
    "duplicated": ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 1, 2)],
                   "duplicated or folded"),
    # the triangle and a fan over it: area 1.0 on a domain of area 0.5
    "folded": ([(0, 0), (1, 0), (0, 1), (0.25, 0.25)],
               [(0, 1, 2), (0, 1, 3), (1, 2, 3), (2, 0, 3)],
               "duplicated or folded"),
    # connectivity: one check for Triangulation and build_initial alike
    "float_id": ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 2, 3.9)],
                 "integers in"),
    "id_out_of_range": ([(0, 0), (1, 0), (0, 1)], [(0, 1, 3)],
                        r"integers in \[0, 3\)"),
    "negative_id": ([(0, 0), (1, 0), (0, 1)], [(0, 1, -1)], "integers in"),
    "four_columns": ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)],
                     r"connectivity must be \(nt, 3\)"),
    # vertices: one check for both builders too
    "flat_vertices": ([0, 1, 0, 1, 0], [(0, 1, 2)],
                      r"vertices must be \(nv, 2\)"),
    "three_columns": ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)],
                      r"vertices must be \(nv, 2\)"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRIANGULATIONS))
def test_triangulation_rejects_bad_input(case):
    vertices, triangles, problem = BAD_TRIANGULATIONS[case]
    # build_initial orients its triangles itself
    builds = (Triangulation,) if case == "misoriented" else (
        Triangulation, build_initial)
    for build in builds:
        with pytest.raises(MeshError, match=problem):
            build(vertices, triangles)


def _claimed_child(coarse, vertices, triangles, parent):
    """A mesh whose genealogy claims one bisection from `coarse`, with the
    element map `parent` and every edge inside a coarse element."""
    fine = Triangulation(vertices, triangles)
    fine.lineage = ((coarse.token, np.asarray(parent),
                     np.full(fine.num_edges, -1)),)
    return fine


def test_nesting_rejects_a_fine_mesh_that_misses_area():
    coarse = unit_square()
    # coarse element 0 alone: element 1 has no descendant
    only = _claimed_child(coarse, coarse.vertices, coarse.triangles[:1], [0])
    with pytest.raises(MeshError, match="does not cover"):
        nesting_sets(coarse, only)
    # element 0, and a triangle inside element 1 but smaller than it: as
    # element 1's only child it must keep element 1's corners
    inner = coarse.corners(1).mean(axis=0) + 0.1 * (
        coarse.corners(1) - coarse.corners(1).mean(axis=0))
    vertices = np.vstack([coarse.vertices, inner])
    part = _claimed_child(coarse, vertices, [coarse.triangles[0], (4, 5, 6)],
                          [0, 1])
    with pytest.raises(MeshError, match="a kept element"):
        nesting_sets(coarse, part)
    # the same triangle bisected: two children inside element 1 that miss
    # part of its area
    vertices = np.vstack([vertices, 0.5 * (inner[0] + inner[1])])
    part = _claimed_child(coarse, vertices,
                          [coarse.triangles[0], (6, 4, 7), (5, 6, 7)],
                          [0, 1, 1])
    with pytest.raises(MeshError, match="areas do not match"):
        nesting_sets(coarse, part)


def test_bisect_bad_marked():
    tri = unit_square(0)
    with pytest.raises(MeshError):
        bisect(tri, np.array([5]))


def test_ancestor_map_and_nesting():
    coarse = l_shape()
    fine = bisect(coarse, np.array([0, 3]))
    anc = ancestor_map(coarse, fine)
    # brute force: each fine centroid lies inside its ancestor
    for t in range(fine.num_triangles):
        c = fine.centroids()[t]
        p = coarse.vertices[coarse.triangles[anc[t]]]
        cross2 = lambda a, b: a[0] * b[1] - a[1] * b[0]
        s0 = cross2(p[1] - p[0], c - p[0])
        s1 = cross2(p[2] - p[1], c - p[1])
        s2 = cross2(p[0] - p[2], c - p[2])
        assert min(s0, s1, s2) > -1e-12
    ns = nesting_sets(coarse, fine)
    assert set(ns.refined) >= {0, 3}
    # every element not refined is kept as it is
    kept = np.setdiff1d(np.arange(coarse.num_triangles), ns.refined)
    assert set(map(tuple, coarse.triangles[kept])) <= set(
        map(tuple, fine.triangles))
    assert set(ns.neighborhood) >= set(ns.refined)


def test_nesting_rejects_unrelated_mesh():
    with pytest.raises(MeshError):
        nesting_sets(unit_square(0), l_shape())


def test_refinement_ratio():
    coarse = unit_square(1)
    assert nesting_sets(coarse, coarse).gamma == 1.0
    one = bisect(coarse, np.arange(coarse.num_triangles))
    assert abs(nesting_sets(coarse, one).gamma - np.sqrt(2.0)) < 1e-12
    two = bisect(one, np.arange(one.num_triangles))
    assert abs(nesting_sets(coarse, two).gamma - 2.0) < 1e-12


def test_mesh_io_roundtrip(tmp_path):
    tri = bisect(l_shape(), np.array([1, 4]))
    path = tmp_path / "mesh.txt"
    # refinement edge (v0, v1) is local edge 2
    path.write_text(f"{tri.num_vertices} {tri.num_triangles}\n" + "".join(
        f"{x:.17g} {y:.17g}\n" for x, y in tri.vertices) + "".join(
        f"{a} {b} {c} 2\n" for a, b, c in tri.triangles))
    back = read_mesh(path)
    assert back.num_triangles == tri.num_triangles
    assert np.allclose(back.vertices, tri.vertices)
    # same element supports and refinement edges up to stored normal form
    fine_a = bisect(tri, np.arange(tri.num_triangles))
    fine_b = bisect(back, np.arange(back.num_triangles))
    assert fine_a.num_triangles == fine_b.num_triangles
    assert abs(fine_a.area.sum() - fine_b.area.sum()) < 1e-12


VALID_MESH = "3 1\n0 0\n1 0\n0 1\n0 1 2 2\n"
# each case breaks VALID_MESH by one replacement: (old, new, expected problem)
BAD_MESH_FILES = {
    "truncated": ("0 1 2 2\n", "0 1\n", "need 10 numbers"),
    "vertex_id": ("0 1 2 2", "0 1 3 2", "vertex id"),
    "ref_edge": ("0 1 2 2", "0 1 2 9", "refinement-edge"),
    "non_numeric": ("1 0\n", "1 x\n", "'x'"),
    "empty": (VALID_MESH, "", "missing the 'nv nt' header"),
    "negative_header": ("3 1\n", "-3 1\n", "negative count"),
}


@pytest.mark.parametrize("case", sorted(BAD_MESH_FILES))
def test_read_mesh_rejects_malformed_file(tmp_path, case):
    old, new, problem = BAD_MESH_FILES[case]
    path = tmp_path / "mesh.txt"
    path.write_text(VALID_MESH)
    assert read_mesh(path).num_triangles == 1
    path.write_text(VALID_MESH.replace(old, new))
    with pytest.raises(MeshError, match=problem) as exc:
        read_mesh(path)
    assert str(path) in str(exc.value)


def test_mesh_without_triangles_raises_mesh_error(tmp_path):
    """An empty connectivity is a MeshError from every way a mesh is built,
    not numpy's error from a reduction over zero elements."""
    v, none = np.eye(3)[:, :2], np.empty((0, 3), dtype=np.int64)
    for build in (Triangulation, build_initial):
        with pytest.raises(MeshError, match="no triangles"):
            build(v, none)
    path = tmp_path / "mesh.txt"
    path.write_text("3 0\n0 0\n1 0\n0 1\n")
    with pytest.raises(MeshError, match="no triangles"):
        read_mesh(path)


# the unit square with a hanging node at its centre: vertex 4 splits edge
# (1, 3) of triangle (0, 1, 3) into edges of (1, 2, 4) and (2, 3, 4)
HANGING_NODE_MESH = ("5 3\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
                     "0 1 3 2\n1 2 4 2\n2 3 4 2\n")


def test_read_mesh_rejects_hanging_node(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text(HANGING_NODE_MESH)
    with pytest.raises(MeshError, match="non-conforming") as exc:
        read_mesh(path)
    assert str(path) in str(exc.value)


def test_edge_geometry():
    tri = unit_square(2)
    # unit tangent from the lower to the higher vertex id
    assert np.allclose(np.linalg.norm(tri.edge_tangent, axis=1), 1.0)
    vec = tri.vertices[tri.edges[:, 1]] - tri.vertices[tri.edges[:, 0]]
    assert np.allclose(np.einsum("ei,ei->e", vec, tri.edge_tangent),
                       tri.edge_length)


def solved_barycentric(mesh, elems, points):
    """Barycentric coordinates by a batched np.linalg.solve of each
    element's 2 x 2 system."""
    p = mesh.vertices[mesh.triangles[elems]]
    T = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    ab = np.linalg.solve(T, (points - p[:, 0])[..., None])[..., 0]
    return np.column_stack([1.0 - ab[:, 0] - ab[:, 1], ab])


def randomly_bisected_square():
    rng = np.random.default_rng(5)
    mesh = unit_square(2)
    for _ in range(6):
        mesh = bisect(mesh, rng.choice(mesh.num_triangles, 3, replace=False))
    return mesh


@pytest.mark.parametrize("name", ["l_shape3", "bisected_square",
                                  "corner_graded"])
def test_barycentric_matches_linear_solve(name):
    """The closed form agrees with np.linalg.solve to 1e-13 relative to the
    coordinates' sum, 1, at random points of random elements, down to the
    areas of 1e-25 of the corner-graded mesh."""
    from test_spaces import corner_graded_l_shape
    mesh = {"l_shape3": lambda: l_shape(3),
            "bisected_square": randomly_bisected_square,
            "corner_graded": lambda: corner_graded_l_shape(
                rounds=80, refine_rounds=2)}[name]()
    rng = np.random.default_rng(17)
    elems = np.concatenate([np.argsort(mesh.area)[:20],
                            rng.integers(0, mesh.num_triangles, 2000)])
    weights = rng.dirichlet(np.ones(3), len(elems))
    points = np.einsum("ti,tid->td", weights,
                       mesh.vertices[mesh.triangles[elems]])
    lam = barycentric(mesh, elems, points)
    assert np.abs(lam - solved_barycentric(mesh, elems, points)).max() \
        <= 1e-13
    if name == "corner_graded":
        assert mesh.area[elems].min() < 1e-24
