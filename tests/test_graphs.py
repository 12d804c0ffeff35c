import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import helpers
from cshom import graphs
from cshom.cli import main
from cshom.graphs import (
    Graph,
    SubdivisionWitness,
    _search_subdivision,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    edge_pairs_by_type,
    find_kuratowski_subdivision,
    is_connected,
    is_planar,
    normalize,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    petersen_graph,
    subdivide,
    to_graph6,
)
from cshom.survey import generate_connected_graphs
from helpers import (
    heawood_graph,
    k5_six_subdivided,
    reference_search_subdivision,
    subdivided,
)


def test_from_edges_sorts_endpoints_and_list():
    g = Graph.from_edges(4, [(3, 1), (4, 2), (2, 1)])
    assert g.edges == ((1, 2), (1, 3), (2, 4))


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])


def test_has_edge_either_endpoint_order():
    for g in (
        Graph.from_edges(4, [(3, 4), (2, 1)]),
        Graph(4, ((3, 4), (2, 1))),  # unsorted list, one reversed pair
    ):
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.has_edge(3, 4) and g.has_edge(4, 3)
        assert not g.has_edge(1, 3) and not g.has_edge(3, 1)


def test_constructors():
    assert complete_graph(5).m == 10
    assert complete_bipartite((1, 2, 3), (4, 5, 6)).m == 9
    assert cycle_graph(6).m == 6
    assert path_graph(4).m == 3
    p = petersen_graph()
    assert (p.n, p.m) == (10, 15)
    assert all(d == 3 for d in p.degrees().values())


def test_normalize_reports_loops_and_multiedges():
    g = Graph(3, ((1, 1), (1, 2), (1, 2), (2, 3)))
    clean, report = normalize(g)
    assert clean.edges == ((1, 2), (2, 3))
    assert report.had_loop
    assert report.collapsed_multiedges == 1


def test_connectivity():
    assert is_connected(path_graph(5))
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert not is_connected(g)
    assert connected_components(4, g.edges) == [[1, 2], [3, 4]]


def test_edge_pairs_by_type_k4():
    noncons, cons = edge_pairs_by_type(complete_graph(4))
    # 15 pairs of 6 edges; disjoint pairs of K4 edges are the 3 perfect matchings
    assert len(noncons) == 3
    assert len(cons) == 12
    g = complete_graph(4)
    for i, j in noncons:
        assert not set(g.edges[i]) & set(g.edges[j])
    for i, j in cons:
        assert set(g.edges[i]) & set(g.edges[j])


def test_subdivide():
    g = complete_graph(4)
    s = subdivide(g, (1, 2))
    assert s.n == 5
    assert (1, 2) not in s.edges
    assert (1, 5) in s.edges and (2, 5) in s.edges
    assert s.m == g.m + 1
    with pytest.raises(ValueError):
        subdivide(s, (1, 2))


def test_graph6_round_trip_fixed():
    for g in (complete_graph(5), petersen_graph(), path_graph(7), cycle_graph(4)):
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(to_graph6(g)) == g


def test_parse_edge_list():
    g = parse_edge_list("# a triangle\n3 3\n1 2\n2 3\n1 3\n")
    assert g == complete_graph(3)
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n1 2\n")  # missing an edge
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n1 5\n")  # endpoint out of range
    # loops and duplicates are kept for normalize to report
    assert parse_edge_list("3 3 2 1 1 2 3 3").edges == ((1, 2), (1, 2), (3, 3))


def test_parse_graph_auto():
    g6 = to_graph6(complete_graph(5))
    assert parse_graph(g6) == complete_graph(5)
    assert parse_graph("3 2 1 2 2 3") == path_graph(3)
    assert parse_graph("# path\n3\n2\n1 2\n2 3\n") == path_graph(3)
    with pytest.raises(ValueError):
        parse_graph("3\n")  # an edge list, not graph6


def test_planarity_known_cases():
    assert is_planar(complete_graph(4))
    assert is_planar(cycle_graph(8))
    assert is_planar(path_graph(6))
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite((1, 2, 3), (4, 5, 6)))
    assert not is_planar(complete_graph(6))
    assert not is_planar(petersen_graph())


def test_kuratowski_witness_k5():
    w = find_kuratowski_subdivision(complete_graph(5))
    assert w is not None and w.kind == "K5"
    w.validate(complete_graph(5))
    assert w.branch_vertices == (1, 2, 3, 4, 5)


def test_kuratowski_witness_k33():
    g = complete_bipartite((1, 2, 3), (4, 5, 6))
    w = find_kuratowski_subdivision(g)
    assert w is not None and w.kind == "K33"
    w.validate(g)


def test_kuratowski_witness_petersen():
    g = petersen_graph()
    w = find_kuratowski_subdivision(g)
    assert w is not None and w.kind == "K33"
    w.validate(g)
    assert set(w.subgraph_edges()) <= set(g.edges)


def test_kuratowski_subdivided_k5():
    g = complete_graph(5)
    for e in ((1, 2), (2, 3)):
        g = subdivide(g, e)
    w = find_kuratowski_subdivision(g)
    assert w is not None
    w.validate(g)


def test_witness_validate_rejects_bad_paths():
    g = complete_graph(5)
    w = find_kuratowski_subdivision(g)
    bad = SubdivisionWitness("K5", w.branch_vertices, w.paths[:-1])
    with pytest.raises(ValueError):
        bad.validate(g)
    # swap one path's endpoints so it no longer matches its model edge
    flipped = w.paths[:1] + (tuple(reversed(w.paths[1])),) + w.paths[2:]
    bad = SubdivisionWitness("K5", w.branch_vertices, flipped)
    with pytest.raises(ValueError):
        bad.validate(g)


def test_relabel():
    g = complete_bipartite((1, 2, 3), (4, 5, 6))
    h = g.relabel({1: 1, 2: 3, 3: 5, 4: 2, 5: 4, 6: 6})
    assert h == complete_bipartite((1, 3, 5), (2, 4, 6))
    with pytest.raises(ValueError):
        g.relabel({1: 1})


def grid_graph(rows, cols):
    def v(i, j):
        return i * cols + j + 1

    edges = [(v(i, j), v(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(v(i, j), v(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def test_planarity_matches_exhaustive_search_on_census():
    planar_by_n = {}
    nonplanar = []
    for g in generate_connected_graphs(7):
        witness = reference_search_subdivision(g)
        assert is_planar(g) == (witness is None)
        planar_by_n[g.n] = planar_by_n.get(g.n, 0) + (witness is None)
        if witness is not None:
            nonplanar.append((g, witness))
    # connected planar graphs per n (OEIS A003094)
    assert planar_by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 20, 6: 99, 7: 646}
    assert len(nonplanar) == 221
    for g, witness in nonplanar:
        assert find_kuratowski_subdivision(g) == witness


def _relabeled(g, image):
    return g.relabel({v: image[v - 1] for v in range(1, g.n + 1)})


# Heawood and Petersen under the certify benchmark's seed-1 labelings of
# passes 1 and 0: on the first the unpruned search tries 3868 branch sets
HEAVY_HEAWOOD = _relabeled(
    heawood_graph(), (5, 12, 9, 13, 11, 6, 7, 8, 4, 3, 1, 2, 14, 10)
)
BENCH_PETERSEN = _relabeled(petersen_graph(), (3, 8, 2, 1, 4, 10, 9, 6, 5, 7))

WITNESS_GRAPHS = {
    "petersen": petersen_graph(),
    "heawood": heawood_graph(),
    "K5,5": complete_bipartite(range(1, 6), range(6, 11)),
    "K6": complete_graph(6),
    "K7": complete_graph(7),
    "K3,4": complete_bipartite((1, 2, 3), (4, 5, 6, 7)),
    "K4,4": complete_bipartite((1, 2, 3, 4), (5, 6, 7, 8)),
    "K5-sub6": k5_six_subdivided(),
    "K33-sub3": subdivided(
        complete_bipartite((1, 2, 3), (4, 5, 6)), ((1, 4), (2, 5), (3, 6))
    ),
}


def _assert_search_matches_reference(g):
    witness = _search_subdivision(g)
    assert witness == reference_search_subdivision(g)
    witness.validate(g)


@pytest.mark.parametrize("name", WITNESS_GRAPHS)
def test_search_matches_reference_on_relabelings(name):
    g = WITNESS_GRAPHS[name]
    rng = random.Random(f"witness:{name}")
    for _ in range(8):
        image = list(range(1, g.n + 1))
        rng.shuffle(image)
        _assert_search_matches_reference(_relabeled(g, image))


def _count_calls(monkeypatch, module, *names):
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_search_matches_reference_on_heavy_heawood(monkeypatch):
    calls = _count_calls(monkeypatch, helpers, "_reference_complete_paths")
    _assert_search_matches_reference(HEAVY_HEAWOOD)
    assert calls["_reference_complete_paths"] == 3868


# (path searches, branch sets that reach one); the unpruned search makes
# 20948 and 3868 on Heawood, 1086 and 355 on Petersen
@pytest.mark.parametrize(
    "g, work",
    [(HEAVY_HEAWOOD, (638, 40)), (BENCH_PETERSEN, (24, 3))],
    ids=["heawood", "petersen"],
)
def test_search_work_is_pinned(monkeypatch, g, work):
    calls = _count_calls(monkeypatch, graphs, "_paths_between", "_complete_paths")
    assert _search_subdivision(g) is not None
    assert (calls["_paths_between"], calls["_complete_paths"]) == work


@st.composite
def small_graphs(draw):
    n = draw(st.integers(6, 9))
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@given(small_graphs())
def test_search_matches_reference_on_random_graphs(g):
    if not is_planar(g):
        _assert_search_matches_reference(g)


def _placed(n, *parts):
    """A graph on 1..n with each (edges, shift) part moved up by shift."""
    return Graph.from_edges(n, [(u + s, v + s) for es, s in parts for u, v in es])


K5 = complete_graph(5)
K33 = complete_bipartite((1, 2, 3), (4, 5, 6))
K4 = complete_graph(4)


@pytest.mark.parametrize(
    "g, planar",
    [
        (_placed(8, (K5.edges, 0), (path_graph(3).edges, 5)), False),
        (_placed(9, (K33.edges, 0), (K4.edges, 5)), False),  # cut vertex 6
        (Graph(9, K5.edges), False),
        (cycle_graph(3000), True),
        (_placed(1201, *[(K4.edges, 3 * i) for i in range(400)]), True),
    ],
    ids=[
        "K5-plus-path-component",
        "K33-K4-at-cut-vertex",
        "K5-isolated-vertices",
        "long-cycle",
        "chain-of-400-K4",
    ],
)
def test_planarity_hand_made_cases(g, planar):
    assert is_planar(g) is planar
    witness = find_kuratowski_subdivision(g)
    assert (witness is None) is planar
    if witness is not None:
        witness.validate(g)


@pytest.mark.parametrize("rows, cols", [(3, 5), (5, 5), (30, 30)])
def test_grids_are_planar(rows, cols):
    g = grid_graph(rows, cols)
    assert is_planar(g)
    assert find_kuratowski_subdivision(g) is None


def test_planarity_agrees_with_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(5, 30)
        p = rng.uniform(1.0, 3.0) / (n - 1)  # mean degree 2..6
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        other = nx.Graph()
        other.add_nodes_from(range(1, n + 1))
        other.add_edges_from(edges)
        expected = nx.check_planarity(other)[0]
        assert is_planar(g) == expected, g
        seen[expected] += 1
    # the corpus exercises both answers
    assert min(seen.values()) >= 100


def test_search_miss_on_nonplanar_input_raises(monkeypatch):
    monkeypatch.setattr(graphs, "_search_subdivision", lambda g: None)
    with pytest.raises(AssertionError):
        find_kuratowski_subdivision(complete_graph(5))
    assert find_kuratowski_subdivision(cycle_graph(5)) is None


def test_certify_refuses_5x5_grid(tmp_path, capsys):
    g = grid_graph(5, 5)
    text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
    path = tmp_path / "grid5x5.txt"
    path.write_text(text)
    assert main(["certify", str(path)]) == 1
    assert "planar:" in capsys.readouterr().err
