"""Frozen regression values for the unrestricted degree-1 homology oracle.

The oracle works over full permutation-module tabloid bases with no Specht
restriction and no straightening, so agreement here exercises a completely
independent code path.  The expected groups below were computed once with
this oracle and frozen; the complete-graph value also cross-checks the
restricted route, since its five order-2 factors match one copy of the
order-2 group found at shape (2,2,1) for each of the five standard tableaux
of that shape.
"""

import pytest

from cshom.graphs import complete_graph, cycle_graph, path_graph
from groupalg import FULL_MAX_N, ORACLE_MAX_N, full_h1_small


def test_oracle_caps():
    assert FULL_MAX_N == 5
    assert ORACLE_MAX_N == 7
    with pytest.raises(ValueError):
        full_h1_small(complete_graph(6))


def test_path3_full_homology():
    r = full_h1_small(path_graph(3))
    assert (r.betti, r.invariant_factors) == (0, ())


def test_cycle4_full_homology():
    r = full_h1_small(cycle_graph(4))
    assert (r.betti, r.invariant_factors) == (3, ())


def test_k4_full_homology():
    r = full_h1_small(complete_graph(4))
    assert (r.betti, r.invariant_factors) == (11, ())


def test_k5_full_homology_has_five_order2_factors():
    r = full_h1_small(complete_graph(5))
    assert (r.betti, r.invariant_factors) == (24, (2, 2, 2, 2, 2))
    assert r.has_z2
