"""Built-in computational domains."""

from __future__ import annotations

from .mesh import Triangulation, build_initial, uniform_refine


def unit_square(refine_rounds: int = 0) -> Triangulation:
    """Unit square split by one diagonal (2 triangles), optionally pre-refined."""
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    tris = [(0, 1, 2), (0, 2, 3)]
    return uniform_refine(build_initial(verts, tris), refine_rounds)


def l_shape(refine_rounds: int = 0) -> Triangulation:
    """(-1,1)^2 minus the fourth quadrant, reentrant corner at the origin."""
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
             (-1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
            (0, 5, 6), (0, 6, 7)]
    return uniform_refine(build_initial(verts, tris), refine_rounds)


def diamond() -> Triangulation:
    """The diamond |x|+|y| <= 1 as two triangles ABC, ACD."""
    verts = [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
    tris = [(0, 1, 2), (0, 2, 3)]
    return build_initial(verts, tris)


def get_domain(name: str) -> Triangulation:
    builders = {"square": unit_square, "lshape": l_shape, "diamond": diamond}
    if name not in builders:
        raise ValueError(f"unknown domain '{name}'")
    return builders[name]()
