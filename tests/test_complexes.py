import random

import pytest

import cshom.complexes
from cshom.complexes import build_restricted_complex, degree1_basis
from cshom.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from cshom.intlinalg import homology_group, mat_mul
from cshom.survey import generate_connected_graphs, scan_shapes
from cshom.tableaux import Partition, standardize, straighten
from groupalg import oracle_restricted_matrices
from helpers import (
    criterion3_graphs,
    criterion4_graphs,
    heawood_graph,
    reference_build_restricted_complex,
    reference_degree1_basis,
)


def _as_lists(rows):
    return [list(r) for r in rows]


def test_k5_dimensions_and_block_layout():
    c = build_restricted_complex(complete_graph(5), Partition((2, 2, 1)))
    assert c.dims() == (15, 20, 5)
    assert c.copies1 == 2
    # one block of two copies per edge, ascending within the block
    for i, e in enumerate(c.graph.edges, start=1):
        cols = [col for col, (ei, _, _) in enumerate(c.basis1) if ei == i]
        assert cols == [2 * (i - 1), 2 * (i - 1) + 1]
        for col in cols:
            assert c.basis1[col][2][0] == e


def test_k5_matches_group_algebra_oracle():
    g = complete_graph(5)
    shape = Partition((2, 2, 1))
    c = build_restricted_complex(g, shape)
    d1, d2 = oracle_restricted_matrices(g, shape)
    assert _as_lists(c.d1) == d1
    assert _as_lists(c.d2) == d2


def test_k33_matches_group_algebra_oracle():
    g = complete_bipartite((1, 3, 5), (2, 4, 6))
    shape = Partition((2, 2, 1, 1))
    c = build_restricted_complex(g, shape)
    assert c.dims() == (18, 27, 9)
    d1, d2 = oracle_restricted_matrices(g, shape)
    assert _as_lists(c.d1) == d1
    assert _as_lists(c.d2) == d2


@pytest.mark.parametrize(
    "g,parts",
    [
        (complete_graph(4), (2, 2)),
        (cycle_graph(5), (2, 2, 1)),
        (path_graph(6), (2, 2, 2)),
        (cycle_graph(6), (2, 2, 1, 1)),
    ],
)
def test_small_graphs_match_oracle(g, parts):
    shape = Partition(parts)
    c = build_restricted_complex(g, shape)
    d1, d2 = oracle_restricted_matrices(g, shape)
    assert _as_lists(c.d1) == d1
    assert _as_lists(c.d2) == d2


def test_restricted_homology_pinned_values():
    c = build_restricted_complex(complete_graph(5), Partition((2, 2, 1)))
    r = homology_group(_as_lists(c.d1), _as_lists(c.d2))
    assert (r.betti, r.invariant_factors) == (0, (2,))
    c = build_restricted_complex(
        complete_bipartite((1, 2, 3), (4, 5, 6)), Partition((2, 2, 1, 1))
    )
    r = homology_group(_as_lists(c.d1), _as_lists(c.d2))
    assert (r.betti, r.invariant_factors) == (0, (2,))


def _h1(g: Graph, parts) -> tuple:
    c = build_restricted_complex(g, Partition(parts))
    r = homology_group(_as_lists(c.d1), _as_lists(c.d2))
    return r.betti, r.invariant_factors


def test_homology_invariant_under_relabeling():
    rng = random.Random(99)
    cases = [
        (complete_graph(5), (2, 2, 1)),
        (complete_bipartite((1, 2, 3), (4, 5, 6)), (2, 2, 1, 1)),
        (cycle_graph(6), (2, 2, 2)),
    ]
    for g, parts in cases:
        want = _h1(g, parts)
        for _ in range(3):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = g.relabel(dict(zip(range(1, g.n + 1), perm)))
            assert _h1(h, parts) == want


def test_d1_d2_composition_vanishes():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.randint(4, 7)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.55
        ]
        g = Graph.from_edges(n, edges)
        for k in range(2, n // 2 + 1):
            c = build_restricted_complex(g, Partition.two_column(n, k))
            if c.basis2:
                prod = mat_mul(_as_lists(c.d1), _as_lists(c.d2))
                assert not any(x for row in prod for x in row)


def test_k1_shape_has_no_degree2_basis():
    c = build_restricted_complex(path_graph(3), Partition((2, 1)))
    assert len(c.basis2) == 0
    assert c.dims()[0] == 0
    assert len(c.basis1) > 0


def test_shape_validation():
    with pytest.raises(ValueError):
        build_restricted_complex(complete_graph(5), Partition((2, 2, 1, 1)))
    with pytest.raises(ValueError):
        build_restricted_complex(complete_graph(5), Partition((3, 1, 1)))
    with pytest.raises(ValueError):
        build_restricted_complex(complete_graph(4), Partition((1, 1, 1, 1)))


def test_non_canonical_graph_rejected():
    bad = Graph(3, ((2, 1), (1, 3)))
    with pytest.raises(ValueError):
        build_restricted_complex(bad, Partition((2, 1)))


def _assert_matches_reference(g, shape):
    got = build_restricted_complex(g, shape)
    want = reference_build_restricted_complex(g, shape)
    assert got.basis0 == want.basis0
    assert got.basis1 == want.basis1
    assert got.basis2 == want.basis2
    assert got.d1 == want.d1
    assert got.d2 == want.d2
    assert all(type(x) is int for row in got.d2 for x in row)


# the benchmark's homology inputs
_BENCH_HOMOLOGY = [(petersen_graph, k) for k in (2, 3, 4, 5)]
_BENCH_HOMOLOGY += [(lambda: complete_graph(8), k) for k in (2, 3, 4)]
_BENCH_HOMOLOGY += [(lambda: complete_bipartite(range(1, 6), range(6, 11)), 2)]
_BENCH_HOMOLOGY += [(lambda: complete_graph(10), 2)]


@pytest.mark.parametrize("seed", range(3))
def test_build_matches_reference_on_relabeled_bench_inputs(seed):
    rng = random.Random(seed)
    for make, k in _BENCH_HOMOLOGY:
        g = make()
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        g = g.relabel(dict(zip(range(1, g.n + 1), perm)))
        _assert_matches_reference(g, Partition.two_column(g.n, k))


def test_build_matches_reference_on_criterion3_corpus():
    for g in criterion3_graphs():
        _assert_matches_reference(g, Partition.two_column(g.n, 2))


def test_build_matches_reference_on_criterion4_corpus():
    for g in criterion4_graphs():
        for k in (2, 3):
            if 2 * k <= g.n:
                _assert_matches_reference(g, Partition.two_column(g.n, k))


def test_build_matches_reference_on_random_graphs_at_every_shape():
    rng = random.Random(77)
    for n in range(5, 10):
        for _ in range(3):
            edges = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 0.5
            ]
            g = Graph.from_edges(n, edges)
            if not g.m:
                continue
            for k in range(1, n // 2 + 1):
                _assert_matches_reference(g, Partition.two_column(n, k))


@pytest.mark.parametrize("k", [2, 3])
def test_build_matches_reference_on_heawood(k):
    _assert_matches_reference(heawood_graph(), Partition.two_column(14, k))


def test_builds_sharing_tables_match_fresh_builds():
    # every scan build of the connected census up to n = 7, in a shuffled
    # order through one tables dict, against a build that shares nothing
    pairs = [(g, s) for g in generate_connected_graphs(7) for s in scan_shapes(g.n)]
    random.Random(23).shuffle(pairs)
    tables: dict = {}
    for g, shape in pairs:
        got = build_restricted_complex(g, shape, tables)
        want = build_restricted_complex(g, shape)
        assert (got.basis0, got.basis1, got.basis2, got.d1, got.d2) == (
            want.basis0, want.basis1, want.basis2, want.d1, want.d2
        ), (g.edges, shape.parts)
    assert sorted(tables) == sorted({(g.n, s.parts) for g, s in pairs})


def test_degree1_basis_matches_per_edge_reference_at_every_shape():
    graphs = criterion3_graphs() + criterion4_graphs()
    rng = random.Random(91)
    for n in range(5, 10):
        for _ in range(4):
            edges = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 0.5
            ]
            graphs.append(Graph.from_edges(n, edges))
    checked = 0
    for g in graphs:
        for k in range(1, g.n // 2 + 1):
            if g.m:
                shape = Partition.two_column(g.n, k)
                assert degree1_basis(g, shape) == reference_degree1_basis(g, shape)
                checked += 1
    assert checked > 500


def _count_build_calls(monkeypatch, g, k):
    frozen = []
    standardized = []

    def counting_straighten(v, basis, frozen_rows=0):
        frozen.append(frozen_rows)
        return straighten(v, basis, frozen_rows)

    def counting_standardize(filling, target):
        standardized.append(target)
        return standardize(filling, target)

    monkeypatch.setattr(cshom.complexes, "straighten", counting_straighten)
    monkeypatch.setattr(cshom.complexes, "standardize", counting_standardize)
    c = build_restricted_complex(g, Partition.two_column(g.n, k))
    return c, frozen.count(1), len(standardized)


def test_d2_straightens_each_order_type_once(monkeypatch):
    # with one pattern, the order types of K10 at k = 2 are the C(8, 2) rank
    # pairs of the second edge inside the other eight vertices
    c, d2_calls, std_calls = _count_build_calls(monkeypatch, complete_graph(10), 2)
    assert len(c.basis2) == 630
    assert d2_calls == 28
    # degree1_basis standardizes each pattern once, into the edge template
    assert std_calls == len(c.basis1) // c.graph.m
    c, d2_calls, std_calls = _count_build_calls(monkeypatch, petersen_graph(), 4)
    assert len(c.basis2) == 675
    assert d2_calls <= 28 * 9
    assert std_calls == len(c.basis1) // c.graph.m
