import dataclasses
import hashlib
import json
import random

import pytest

import cshom.certificates
from cshom.certificates import (
    _K33_SIDES,
    LiftStep,
    LiftTrace,
    canonical_certificates,
    certificate_from_dict,
    certificate_to_dict,
    certify_nonplanar,
    lift_subdivision,
    lift_subgraph,
    recheck_certificate,
    seed_certificate,
)
from cshom.complexes import build_restricted_complex, degree1_basis
from cshom.errors import LiftFailed, NotASubgraph, PlanarInput
from cshom.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_kuratowski_subdivision,
    is_planar,
    petersen_graph,
    subdivide,
    to_graph6,
)
from cshom.intlinalg import (
    CertificateVerdict,
    TorsionCertificate,
    check_certificate,
    homology_group,
    mat_vec,
)
from cshom.survey import generate_connected_graphs
from cshom.tableaux import Partition, straighten
from helpers import (
    call_budget,
    heawood_graph,
    k5_six_subdivided,
    reference_subdivision_h,
    reference_subgraph_h,
    subdivided,
)


def _homology_factors(cert):
    c = build_restricted_complex(cert.graph, cert.shape)
    r = homology_group([list(x) for x in c.d1], [list(x) for x in c.d2])
    return r.betti, r.invariant_factors


def test_seeds_verify():
    seed5, seed33 = canonical_certificates()
    assert seed5.kind == "K5" and seed33.kind == "K33"
    for seed in (seed5, seed33):
        cert = seed_certificate(seed)
        assert recheck_certificate(cert).valid


# the seed cycles, as (edge_index, copy, coeff) in each seed graph's own
# edge order; the seeds pin only their witnesses and read h = d2 x / 2 off
_K5_H = ((9, 1, 1), (10, 1, 1), (2, 1, -1), (7, 2, 1), (9, 2, 1))
_K33_H = ((6, 3, 1), (7, 3, -1), (8, 3, 1), (9, 2, -1))


def test_seed_cycles_are_pinned():
    seed5, seed33 = canonical_certificates()
    for seed, terms in ((seed5, _K5_H), (seed33, _K33_H)):
        cert = seed_certificate(seed)
        h = [0] * len(cert.h)
        for i, j, v in terms:
            h[cert.complex.column_of_edge_copy[(i, j)]] += v
        assert cert.h == tuple(h)


def test_bipartite_seed_resolved_sides():
    _, seed33 = canonical_certificates()
    side_with_1 = sorted(
        v for v in range(1, 7) if v == 1 or not seed33.graph.has_edge(1, v)
    )
    assert side_with_1 == [1, 3, 5]


@pytest.mark.parametrize("edge", [(1, 2), (1, 5), (3, 4)])
def test_lift_subdivision_keeps_torsion(edge):
    seed5, _ = canonical_certificates()
    cert = lift_subdivision(seed_certificate(seed5), [edge])
    assert cert.graph == subdivide(complete_graph(5), edge)
    assert recheck_certificate(cert).valid
    assert _homology_factors(cert) == (0, (2,))


def test_lift_subdivision_iterates(monkeypatch):
    seed5, _ = canonical_certificates()
    edges = [(1, 2), (3, 4), (1, 6)]  # new vertices 6, 7, then a fresh edge split
    stepped = seed_certificate(seed5)
    for edge in edges:
        stepped = lift_subdivision(stepped, [edge])
    builds = []
    original = cshom.certificates.build_restricted_complex

    def counting(graph, shape):
        builds.append(graph)
        return original(graph, shape)

    monkeypatch.setattr(cshom.certificates, "build_restricted_complex", counting)
    cert = lift_subdivision(seed_certificate(seed5), edges)
    assert builds == [cert.graph]
    assert cert.graph == stepped.graph and cert.graph.n == 8
    assert cert.h == stepped.h
    assert cert.witness_x == stepped.witness_x
    assert recheck_certificate(cert).valid


def test_lift_subdivision_rejects_non_edge():
    seed5, _ = canonical_certificates()
    cert = seed_certificate(seed5)
    with pytest.raises(ValueError):
        lift_subdivision(cert, [(1, 1)])
    # (1, 2) is broken by the first subdivision, so it is gone by the second
    with pytest.raises(ValueError):
        lift_subdivision(cert, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        lift_subdivision(cert, [])


def test_lift_subdivision_failure_names_the_edge_sequence(monkeypatch):
    seed5, _ = canonical_certificates()
    refused = CertificateVerdict(cycle=True, doubled=False, not_in_image=True)
    monkeypatch.setattr(cshom.certificates, "check_certificate", lambda cert, c: refused)
    with pytest.raises(LiftFailed) as info:
        lift_subdivision(seed_certificate(seed5), [(2, 1), (3, 4), (1, 6)])
    assert "[(1, 2), (3, 4), (1, 6)]" in str(info.value)


def test_lift_subgraph_identity():
    seed5, _ = canonical_certificates()
    cert = seed_certificate(seed5)
    again = lift_subgraph(cert, complete_graph(5))
    assert again.h == cert.h


def test_lift_subgraph_into_k6_initial_segment():
    seed5, _ = canonical_certificates()
    cert = lift_subgraph(seed_certificate(seed5), complete_graph(6))
    assert cert.graph == complete_graph(6)
    assert recheck_certificate(cert).valid
    assert _homology_factors(cert)[1] and _homology_factors(cert)[1][0] % 2 == 0


def test_lift_subgraph_shifted_embedding():
    seed5, _ = canonical_certificates()
    emb = {1: 2, 2: 3, 3: 4, 4: 5, 5: 6}
    cert = lift_subgraph(seed_certificate(seed5), complete_graph(6), emb)
    assert cert.graph == complete_graph(6)
    assert recheck_certificate(cert).valid


def reference_lift_subgraph_h(cert, host, embedding=None):
    """The cycle of a two-stage subgraph lift, by straightening: embed as
    the initial vertex segment of the host relabeled by tau^-1 and
    straighten there, then relabel by tau and straighten again on the host
    itself."""
    g = cert.graph
    emb = dict(embedding or {v: v for v in range(1, g.n + 1)})
    if host == g and all(emb[v] == v for v in range(1, g.n + 1)):
        return list(cert.h)
    image = set(emb.values())
    spare = [w for w in range(1, host.n + 1) if w not in image]
    tau = dict(emb)
    for idx, w in enumerate(spare):
        tau[g.n + 1 + idx] = w
    tau_inv = {w: t for t, w in tau.items()}
    g_mid = host.relabel(tau_inv)
    h_mid = reference_subgraph_h(cert, g_mid)
    if all(tau[t] == t for t in tau):
        return h_mid

    shape_big = Partition.two_column(host.n, cert.shape.two_column_rows())
    mid = build_restricted_complex(g_mid, shape_big)
    relabeled = []
    for col, coeff in enumerate(h_mid):
        if coeff:
            rows = mid.basis1[col][2]
            relabeled.append((tuple(tuple(tau[x] for x in row) for row in rows), coeff))
    final = build_restricted_complex(host, shape_big)
    return straighten(relabeled, [f for _, _, f in final.basis1], frozen_rows=1)


def _scrambled_k5_into_k7():
    rng = random.Random("k5-into-k7")
    image = rng.sample(range(1, 8), 5)
    return dict(zip(range(1, 6), image))


@pytest.mark.parametrize(
    "host, embedding",
    [
        (complete_graph(6), None),
        (complete_graph(6), {1: 2, 2: 3, 3: 4, 4: 5, 5: 6}),
        (complete_graph(7), _scrambled_k5_into_k7()),
    ],
    ids=["k6-initial-segment", "k6-shifted", "k7-scrambled"],
)
def test_lift_subgraph_matches_two_stage_reference(host, embedding):
    seed5, _ = canonical_certificates()
    cert = seed_certificate(seed5)
    got = lift_subgraph(cert, host, embedding)
    assert got.graph == host
    assert list(got.h) == reference_lift_subgraph_h(cert, host, embedding)
    assert list(got.h) == reference_subgraph_h(cert, host, embedding)
    assert check_certificate(got, build_restricted_complex(host, got.shape)).valid


@pytest.mark.parametrize(
    "g",
    [
        petersen_graph(),
        complete_bipartite((1, 2, 3, 4, 5), (6, 7, 8, 9, 10)),
        Graph.from_edges(7, complete_bipartite((1, 2, 3), (4, 5, 6)).edges + ((6, 7),)),
    ],
    ids=["petersen", "k55", "k33-pendant"],
)
def test_certify_embed_stage_matches_two_stage_reference(g, monkeypatch):
    calls = []
    original = cshom.certificates.lift_subgraph

    def recording(cert, host, embedding=None):
        lifted = original(cert, host, embedding)
        calls.append((cert, host, embedding, lifted))
        return lifted

    monkeypatch.setattr(cshom.certificates, "lift_subgraph", recording)
    certify_nonplanar(g)
    [(cert, host, embedding, lifted)] = calls
    assert list(lifted.h) == reference_lift_subgraph_h(cert, host, embedding)
    assert check_certificate(lifted, build_restricted_complex(host, lifted.shape)).valid


@pytest.mark.parametrize(
    "kind, edges",
    [
        ("K5", [(1, 2)]),
        ("K5", [(4, 5), (1, 5), (5, 6), (2, 3)]),
        ("K33", [(1, 2), (1, 7), (3, 6)]),
        ("K33", [(5, 6), (4, 5), (2, 3), (1, 6), (6, 10)]),
    ],
)
def test_lift_subdivision_matches_the_straightening_oracle(kind, edges):
    seed = {s.kind: s for s in canonical_certificates()}[kind]
    cert = seed_certificate(seed)
    got = lift_subdivision(cert, edges)
    assert list(got.h) == reference_subdivision_h(cert, edges)
    assert recheck_certificate(got).valid


def test_lifts_refuse_a_witness_not_at_k2():
    g = complete_graph(6)
    c = build_restricted_complex(g, Partition.two_column(6, 3))
    cert = TorsionCertificate(
        graph=g, shape=c.shape, h=[0] * len(c.basis1),
        witness_x=[0] * len(c.basis2), prime=2, complex=c,
    )
    with pytest.raises(ValueError):
        lift_subdivision(cert, [(1, 2)])
    with pytest.raises(ValueError):
        lift_subgraph(cert, complete_graph(7))


def test_lift_subgraph_rejects_non_embedding():
    seed5, _ = canonical_certificates()
    cert = seed_certificate(seed5)
    host = cycle_graph(6)
    with pytest.raises(NotASubgraph):
        lift_subgraph(cert, host)  # K5 edges are not all in C6
    with pytest.raises(NotASubgraph):
        lift_subgraph(cert, complete_graph(6), {1: 1, 2: 1, 3: 2, 4: 3, 5: 4})
    with pytest.raises(NotASubgraph):
        lift_subgraph(cert, complete_graph(6), {1: 1, 2: 2, 3: 3, 4: 4, 5: 9})


def test_certify_planar_raises():
    with pytest.raises(PlanarInput):
        certify_nonplanar(cycle_graph(5))
    with pytest.raises(PlanarInput):
        certify_nonplanar(complete_graph(4))


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(5),
        complete_bipartite((1, 2, 3), (4, 5, 6)),
        complete_bipartite((1, 3, 5), (2, 4, 6)),
        complete_graph(6),
        subdivide(complete_graph(5), (2, 3)),
        petersen_graph(),
    ],
    ids=["k5", "k33-default", "k33-resolved", "k6", "k5-subdivided", "petersen"],
)
def test_certify_nonplanar_end_to_end(g):
    cert = certify_nonplanar(g)
    assert cert.graph == g
    assert recheck_certificate(cert).valid
    assert cert.prime == 2
    assert cert.trace is not None and cert.trace.steps[-1].op == "embed"
    assert cert.witness is not None
    cert.witness.validate(g)
    # the vertex map must realize the traced subdivision model inside g
    assert sorted(cert.vertex_map.values()) == sorted(set(cert.vertex_map.values()))


def _model_of(cert):
    """The seed graph subdivided along the certificate's traced steps."""
    seed5, seed33 = canonical_certificates()
    model = (seed5 if cert.trace.kind == "K5" else seed33).graph
    return subdivided(model, [s.edge for s in cert.trace.steps if s.op == "subdivide"])


@pytest.mark.parametrize(
    "g",
    [
        subdivide(subdivide(subdivide(complete_graph(5), (1, 2)), (3, 4)), (1, 6)),
        petersen_graph(),
        complete_graph(5),
        complete_graph(6),
        subdivided(complete_bipartite((1, 2, 3), (4, 5, 6))),
    ],
    ids=["k5-subdivided-thrice", "petersen", "k5", "k6", "k33-all-subdivided"],
)
def test_certify_builds_each_stage_once(g, monkeypatch):
    canonical_certificates()
    builds = []
    original = cshom.certificates.build_restricted_complex

    def counting(graph, shape):
        builds.append((graph, shape))
        return original(graph, shape)

    monkeypatch.setattr(cshom.certificates, "build_restricted_complex", counting)
    cert = certify_nonplanar(g)
    doc = certificate_to_dict(cert)
    assert doc["verdict"] == {"cycle": True, "doubled": True, "not_in_image": True}
    s = sum(1 for step in cert.trace.steps if step.op == "subdivide")
    # at most one complex for the whole subdivision chain and one for the
    # host; the seed was verified once at set-up, and the identity
    # embedding and the document reuse the complex the last stage verified on
    assert len(builds) <= 2
    assert len(set(builds)) == len(builds)
    assert sum(graph == _model_of(cert) for graph, _ in builds) == min(s, 1)
    assert ((g, cert.shape) in builds) == (g != complete_graph(5))


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(5),
        petersen_graph(),
        subdivided(complete_graph(5)),
        subdivided(complete_bipartite((1, 2, 3), (4, 5, 6))),
    ],
    ids=["k5", "petersen", "k5-all-subdivided", "k33-all-subdivided"],
)
def test_certify_lifts_the_subdivision_chain_at_most_once(g, monkeypatch):
    calls = []
    original = cshom.certificates.lift_subdivision

    def recording(cert, edges):
        calls.append(list(edges))
        return original(cert, edges)

    monkeypatch.setattr(cshom.certificates, "lift_subdivision", recording)
    cert = certify_nonplanar(g)
    edges = [step.edge for step in cert.trace.steps if step.op == "subdivide"]
    assert calls == ([edges] if edges else [])


def reference_certify(g):
    """The step route: one verified subdivision lift per path interior
    vertex, each on the complex of the graph subdivided so far, then the
    embedding into g."""
    witness = find_kuratowski_subdivision(g)
    seed5, seed33 = canonical_certificates()
    seed = seed5 if witness.kind == "K5" else seed33
    if witness.kind == "K5":
        seed_labels = list(range(1, 6))
    else:
        seed_labels = list(_K33_SIDES[0] + _K33_SIDES[1])
    vertex_map = {
        seed_labels[pos]: user for pos, user in enumerate(witness.branch_vertices)
    }
    cert = seed_certificate(seed)
    steps = []
    for (pa, pb), path in zip(witness.model_edges(), witness.paths):
        a, b = seed_labels[pa], seed_labels[pb]
        interiors = list(path[1:-1])
        if a > b:
            a, b = b, a
            interiors.reverse()
        cur = a
        for user_vertex in interiors:
            edge = (min(cur, b), max(cur, b))
            cert = lift_subdivision(cert, [edge])
            new_label = cert.graph.n
            vertex_map[new_label] = user_vertex
            steps.append(
                LiftStep(
                    op="subdivide", edge=edge, new_vertex=new_label,
                    user_vertex=user_vertex,
                )
            )
            cur = new_label
    embedding = dict(sorted(vertex_map.items()))
    steps.append(LiftStep(op="embed", embedding=tuple(sorted(embedding.items()))))
    return dataclasses.replace(
        lift_subgraph(cert, g, embedding),
        trace=LiftTrace(kind=witness.kind, steps=tuple(steps)),
        witness=witness,
        vertex_map=embedding,
    )


_CHAIN_CORPUS = [
    (f"census-{to_graph6(g)}", g)
    for g in generate_connected_graphs(6)
    if not is_planar(g)
] + [
    ("petersen", petersen_graph()),
    ("k55", complete_bipartite((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))),
    ("heawood", heawood_graph()),
    ("k5-sub6", k5_six_subdivided()),
    ("k33-sub3", subdivided(
        complete_bipartite((1, 2, 3), (4, 5, 6)), ((1, 4), (2, 5), (3, 6))
    )),
    ("k5-all-subdivided", subdivided(complete_graph(5))),
    ("k33-all-subdivided", subdivided(complete_bipartite((1, 2, 3), (4, 5, 6)))),
]


@pytest.mark.parametrize(
    "g", [g for _, g in _CHAIN_CORPUS], ids=[name for name, _ in _CHAIN_CORPUS]
)
def test_certify_matches_the_step_route(g):
    got = certify_nonplanar(g)
    want = reference_certify(g)
    assert got.h == want.h
    assert got.witness_x == want.witness_x
    assert certificate_to_dict(got) == certificate_to_dict(want)


def test_certify_shares_the_cached_seed_unchanged():
    seed5, _ = canonical_certificates()
    cert = certify_nonplanar(complete_graph(5))
    seed = seed_certificate(seed5)
    assert cert.trace is not None and cert.h == seed.h
    assert seed.trace is None and seed.witness is None and seed.vertex_map is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        seed.trace = cert.trace
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.h = ()


def test_lift_subgraph_builds_only_the_host(monkeypatch):
    seed5, _ = canonical_certificates()
    cert = seed_certificate(seed5)
    builds = []
    original = cshom.certificates.build_restricted_complex

    def counting(graph, shape):
        builds.append(graph)
        return original(graph, shape)

    monkeypatch.setattr(cshom.certificates, "build_restricted_complex", counting)
    lift_subgraph(cert, complete_graph(7), _scrambled_k5_into_k7())
    assert builds == [complete_graph(7)]


def test_certificate_documents_are_pinned():
    # one line per document of every non-planar connected graph on at most
    # six vertices, then Petersen and K5,5; a change to any emitted
    # certificate must re-pin this digest deliberately
    graphs = [g for g in generate_connected_graphs(6) if not is_planar(g)]
    assert len(graphs) == 14
    graphs += [petersen_graph(), complete_bipartite((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))]
    text = "".join(
        json.dumps(certificate_to_dict(certify_nonplanar(g)), sort_keys=True) + "\n"
        for g in graphs
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "83da228e609f8e69"


def test_certificate_dict_round_trip():
    cert = certify_nonplanar(complete_graph(5))
    doc = certificate_to_dict(cert)
    assert doc["verdict"] == {"cycle": True, "doubled": True, "not_in_image": True}
    assert doc["lift"]["kind"] == "K5"
    text = json.dumps(doc, sort_keys=True)
    back = certificate_from_dict(json.loads(text))
    assert back.graph == cert.graph
    assert back.shape == cert.shape
    assert back.h == cert.h
    assert back.witness_x == cert.witness_x
    assert recheck_certificate(back).valid


def test_certificate_from_dict_rejects_bad_documents():
    cert = certify_nonplanar(complete_graph(5))
    doc = certificate_to_dict(cert)
    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(ValueError):
        certificate_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    bad["h"]["99,1"] = 1
    with pytest.raises(ValueError):
        certificate_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    bad["witness_x"]["1,1"] = 1  # wrong arity for a degree-2 key
    with pytest.raises(ValueError):
        certificate_from_dict(bad)
    for field, value in (("h", []), ("h", None), ("witness_x", [1]), ("h", {"1,1": [1]})):
        bad = json.loads(json.dumps(doc))
        bad[field] = value
        with pytest.raises(ValueError):
            certificate_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    del bad["h"]
    with pytest.raises(ValueError):
        certificate_from_dict(bad)
    with pytest.raises(ValueError):
        certificate_from_dict([doc])
    # numbers must be JSON integers, since int() would truncate a float or
    # read a boolean as 0 or 1 and so check another certificate than the
    # document's; edges must be pairs and keys in their written form
    h_key, x_key = next(iter(doc["h"])), next(iter(doc["witness_x"]))
    for path, value in (
        (("prime",), 2.9),
        (("prime",), 2.0),
        (("h", h_key), doc["h"][h_key] + 0.7),
        (("h", h_key), True),
        (("witness_x", x_key), doc["witness_x"][x_key] + 0.5),
        (("graph", "n"), 5.0),
        (("shape",), [2.0, 2, 1]),
        (("graph", "edges", 0), [1.9, 2]),
        (("graph", "edges", 0), [1, "2"]),
        (("graph", "edges", 0), [1, 2, 3]),
        (("graph", "edges", 0), [1]),
        (("h", " 1,1"), 1),
        (("h", "01,1"), 1),
        (("h", "1, 1"), 1),
    ):
        bad = json.loads(json.dumps(doc))
        target = bad
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(ValueError):
            certificate_from_dict(bad)


def test_tampered_certificate_fails_verification():
    cert = certify_nonplanar(complete_graph(5))
    doc = json.loads(json.dumps(certificate_to_dict(cert)))
    key = next(iter(doc["h"]))
    doc["h"][key] += 1
    tampered = certificate_from_dict(doc)
    c = build_restricted_complex(tampered.graph, tampered.shape)
    verdict = check_certificate(tampered, c)
    assert not verdict.valid


@pytest.mark.parametrize(
    "g",
    [complete_graph(5), complete_bipartite((1, 2, 3), (4, 5, 6)), petersen_graph()],
    ids=["k5", "k33", "petersen"],
)
def test_boundary_is_caught_as_in_image(g):
    # h = d2 y is a boundary: it is a cycle and 2h = d2 (2y), so only the
    # not-in-image check can reject the certificate
    c = build_restricted_complex(g, Partition.two_column(g.n, 2))
    rng = random.Random(f"boundary:{g.edges}")
    y = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in c.basis2]
    h = mat_vec(c.d2, y)
    assert any(h)
    cert = TorsionCertificate(
        graph=g, shape=c.shape, h=h, witness_x=[2 * v for v in y], prime=2
    )
    verdict = check_certificate(cert, c)
    assert verdict.cycle and verdict.doubled
    assert not verdict.not_in_image
    assert not verdict.valid


@pytest.mark.parametrize("prime", [-3, 0, 1, 4, 6, 9, 561, 46337**2, (1 << 31) + 11])
def test_certificate_prime_must_be_prime(prime):
    # 561 is a Carmichael number, 46337 the largest prime below the square
    # root of 2^31, and 2^31 + 11 a prime past the bound
    with pytest.raises(ValueError):
        TorsionCertificate(graph=None, shape=None, h=(), witness_x=(), prime=prime)


def test_certificate_prime_accepts_primes():
    sieve = [True] * 3000
    for p in range(2, 3000):
        for q in range(2 * p, 3000, p):
            sieve[q] = False
    accepted = []
    for p in range(3000):
        try:
            TorsionCertificate(graph=None, shape=None, h=(), witness_x=(), prime=p)
        except ValueError:
            continue
        accepted.append(p)
    assert accepted == [p for p in range(2, 3000) if sieve[p]]
    for p in (46337, (1 << 31) - 1):
        TorsionCertificate(graph=None, shape=None, h=(), witness_x=(), prime=p)


def test_certify_k5_with_a_long_pendant_path_within_call_budget():
    # n = 30: K5 with a 25-vertex path hanging off vertex 5.  Enumerating
    # the semistandard patterns by backtracking made exponentially many
    # calls here; building them takes one standard enumeration per weight.
    g = Graph.from_edges(
        30, list(complete_graph(5).edges) + [(v, v + 1) for v in range(5, 30)]
    )
    with call_budget("cshom.tableaux", 500_000):
        c = build_restricted_complex(g, Partition.two_column(30, 2))
        cert = certify_nonplanar(g)
        assert check_certificate(cert, cert.complex).valid
    assert c.dims() == (537, 945, 405)


def test_certify_k5_with_57_random_subdivisions_within_call_budget():
    # n = 62: each step splits a seeded random edge of the graph so far.
    # Carrying the degree-1 cycle as row terms doubled every term whose top
    # row was the split edge (12299 terms at n = 30); the witness stays at
    # one term per disjoint edge pair, about 12k calls into the module here.
    rng = random.Random(1)
    g = complete_graph(5)
    for _ in range(57):
        g = subdivide(g, rng.choice(g.edges))
    assert g.n == 62
    with call_budget("cshom.certificates", 20_000):
        cert = certify_nonplanar(g)
        assert check_certificate(cert, cert.complex).valid
