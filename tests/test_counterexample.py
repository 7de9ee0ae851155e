import numpy as np
import pytest

from anfem.counterexample import (boundary_sum, build_family, build_test_pair,
                                  ac_segments, closed_form, coarse_jump_term,
                                  grad_norm_sq, scaling_study)


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


@pytest.mark.parametrize("n", [0, 2, 4, -3])
def test_even_or_invalid_n_rejected(n):
    with pytest.raises(ValueError):
        build_family(n)


def test_ac_segment_count():
    fam = build_family(7)
    assert len(ac_segments(fam)) == 7


def test_coarse_jump_term_value():
    assert coarse_jump_term() == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_scaling_study_needs_four_values():
    for n_values in ([5, 11, 21], [1, 3, 5, 7], [5, 5, 5, 5], [3, 5, 7, 8]):
        with pytest.raises(ValueError):
            scaling_study(n_values)


def test_scaling_exponent_near_half():
    out = scaling_study([5, 11, 21, 41])
    assert 0.4 <= out["exponent"] <= 0.6
    for row in out["rows"]:
        assert abs(row["boundary_sum"] - row["closed_form"]) < 1e-10
