import dataclasses
import tracemalloc

import numpy as np
import pytest

from anfem.counterexample import (boundary_sum, build_family, build_test_pair,
                                  ac_segments, closed_form, COARSE_JUMP_TERM,
                                  grad_norm_sq, scaling_study, _validate)
from oracles import full_criss_cross


@pytest.mark.parametrize("n", [5, 11, 21])
def test_boundary_sum_matches_closed_form(n):
    fam = build_family(n)
    nodal = build_test_pair(fam)
    assert abs(boundary_sum(fam, nodal) - closed_form(n)) < 1e-10


@pytest.mark.parametrize("n", [5, 11, 21])
def test_grad_norm_bound(n):
    fam = build_family(n)
    nodal = build_test_pair(fam)
    # each of the <= 4N supporting triangles contributes at most 1
    assert grad_norm_sq(fam, nodal) <= 4.0 * n + 1e-12


def test_trivial_family_is_zero():
    fam = build_family(1)
    nodal = build_test_pair(fam)
    assert np.all(nodal == 0.0)
    assert boundary_sum(fam, nodal) == 0.0
    assert closed_form(1) == 0.0


@pytest.mark.parametrize("n", [0, 2, 4, -3, 5.0, True, np.float64(3.0)])
def test_even_or_invalid_n_rejected(n):
    with pytest.raises(ValueError, match="n must be an"):
        build_family(n)


def pairing(fam):
    """(boundary_sum, grad_norm_sq, C) of the family's test pair."""
    nodal = build_test_pair(fam)
    bs, gsq = boundary_sum(fam, nodal), grad_norm_sq(fam, nodal)
    with np.errstate(invalid="ignore"):     # C = 0/0 at N = 1
        return bs, gsq, bs / (np.sqrt(COARSE_JUMP_TERM) * np.sqrt(gsq))


@pytest.mark.parametrize("n", [1, 3, 5, 11, 21, 41, 81])
def test_band_pairing_equals_full_mesh(n):
    """The band along AC holds the whole diamond's elements of the cells
    0 <= i - j <= 2, in the same order and bit for bit, and gives the same
    pairing bit for bit."""
    fam, full = build_family(n), full_criss_cross(n)
    i, j = np.divmod(np.arange(n * n), n)
    cells = np.flatnonzero((i - j >= 0) & (i - j <= 2))
    band = np.stack([2 * cells, 2 * cells + 1], axis=1).ravel()
    assert np.array_equal(fam.fine.corners(), full.fine.corners(band))
    assert list(map(repr, pairing(fam))) == list(map(repr, pairing(full)))


def test_ac_segment_count():
    fam = build_family(7)
    assert len(ac_segments(fam)[0]) == 7


def test_coarse_jump_term_value():
    assert COARSE_JUMP_TERM == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_scaling_study_needs_four_values():
    for n_values in ([5, 11, 21], [1, 3, 5, 7], [5, 5, 5, 5], [3, 5, 7, 8],
                     [5, 5, 11, 21, 41]):
        with pytest.raises(ValueError):
            scaling_study(n_values)
    # a count that is not an integer is refused, not truncated
    for n_values in ([5, 11, 21, 41.9], [5, 11, 21, 41.0], [True, 5, 7, 9]):
        with pytest.raises(ValueError, match="N must be an integer >= 3"):
            scaling_study(n_values)


def test_scaling_exponent_near_half():
    out = scaling_study([5, 11, 21, 41])
    assert 0.4 <= out["exponent"] <= 0.6
    for row in out["rows"]:
        assert abs(row["boundary_sum"] - row["closed_form"]) < 1e-10


def test_scaling_exponent_settles_at_large_n():
    """Fitted where the pairing has settled, the exponent is 0.4960."""
    out = scaling_study([81, 161, 321, 641, 1281])
    assert 0.49 <= out["exponent"] <= 0.51
    for row in out["rows"]:
        assert abs(row["boundary_sum"] - row["closed_form"]) < 1e-10


def test_scaling_study_memory_is_linear_in_n():
    """Up to N = 2561 the study allocates at its peak a quarter of the 105 MB
    one float per element of the whole diamond would take (measured
    13.1 MB)."""
    tracemalloc.start()
    try:
        scaling_study([321, 641, 1281, 2561])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 105e6 / 4


def ac_segments_by_scan(fam):
    """AC's segments by a scan of every fine edge for both ends at x = 0."""
    fine = fam.fine
    segs = np.flatnonzero((fine.vertices[fine.edges, 0] == 0.0).all(axis=1))
    t0, t1 = fine.edge_tris[segs].T
    t0_left = fine.centroids()[t0, 0] < 0
    left, right = np.where(t0_left, t0, t1), np.where(t0_left, t1, t0)
    ymid = fine.edge_midpoints()[segs, 1]
    order = np.argsort(ymid, kind="stable")
    return list(zip(segs[order], left[order], right[order], ymid[order]))


@pytest.mark.parametrize("n", [1, 3, 5, 81])
def test_ac_segments_match_all_edge_scan(n):
    """The strip each family records, the band's and the whole diamond's,
    gives the same segments, left/right elements and ymid as the scan, in
    the same order, bit for bit."""
    for fam in (build_family(n), full_criss_cross(n)):
        got = [tuple(map(float, s)) for s in zip(*ac_segments(fam))]
        assert len(got) == n
        assert got == [tuple(map(float, s)) for s in ac_segments_by_scan(fam)]


@pytest.mark.parametrize("n", [3, 5, 21])
def test_validate_refuses_a_shifted_strip(n):
    """The cells one below the strip in band order hold no segment of AC
    (the first wraps to the top cell, which does)."""
    fam = build_family(n)
    _validate(fam)
    with pytest.raises(RuntimeError, match="ac_cells"):
        _validate(dataclasses.replace(fam, ac_cells=fam.ac_cells - 1))


# (N, repr(boundary_sum), repr(grad_norm_sq), repr(C)) of
# scaling_study([5, 11, 21, 41, 81]) as computed from the gradients of every
# fine element
PINNED_ROWS = [
    (5, "2.4", "12.0", "1.2000000000000002"),
    (11, "5.454545454545454", "36.0", "1.5745916432444338"),
    (21, "10.476190476190478", "76.0", "2.081407989673641"),
    (41, "20.487804878048784", "156.0", "2.8411473465194668"),
    (81, "40.493827160493815", "316.0", "3.9455350964336087"),
]


def test_scaling_study_rows_are_pinned():
    """Reading only the strip along AC changes no bit of the rows."""
    rows = scaling_study([5, 11, 21, 41, 81])["rows"]
    assert [(r["N"], repr(r["boundary_sum"]), repr(r["grad_norm_sq"]),
             repr(float(r["C"]))) for r in rows] == PINNED_ROWS
