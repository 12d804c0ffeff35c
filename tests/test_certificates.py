import dataclasses
import hashlib
import json
import random

import pytest

import cshom.certificates
from cshom.certificates import (
    _finish_lift,
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
from cshom.errors import NotASubgraph, PlanarInput
from cshom.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_planar,
    petersen_graph,
    subdivide,
)
from cshom.intlinalg import TorsionCertificate, check_certificate, homology_group, mat_vec
from cshom.survey import generate_connected_graphs
from cshom.tableaux import Numbering, Partition, straighten


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


def test_bipartite_seed_resolved_sides():
    _, seed33 = canonical_certificates()
    side_with_1 = sorted(
        v for v in range(1, 7) if v == 1 or not seed33.graph.has_edge(1, v)
    )
    assert side_with_1 == [1, 3, 5]


@pytest.mark.parametrize("edge", [(1, 2), (1, 5), (3, 4)])
def test_lift_subdivision_keeps_torsion(edge):
    seed5, _ = canonical_certificates()
    cert = lift_subdivision(seed_certificate(seed5), edge)
    assert cert.graph == subdivide(complete_graph(5), edge)
    assert recheck_certificate(cert).valid
    assert _homology_factors(cert) == (0, (2,))


def test_lift_subdivision_iterates():
    seed5, _ = canonical_certificates()
    cert = seed_certificate(seed5)
    cert = lift_subdivision(cert, (1, 2))   # new vertex 6
    cert = lift_subdivision(cert, (3, 4))   # new vertex 7
    cert = lift_subdivision(cert, (1, 6))   # split a fresh edge again
    assert cert.graph.n == 8
    assert recheck_certificate(cert).valid


def test_lift_subdivision_rejects_non_edge():
    seed5, _ = canonical_certificates()
    with pytest.raises(ValueError):
        lift_subdivision(seed_certificate(seed5), (1, 1))


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


def reference_lift_subgraph(cert, host, embedding=None):
    """Two-stage subgraph lift: embed as the initial vertex segment of the
    host relabeled by tau^-1, verify there, then relabel by tau and
    straighten again on the host itself."""
    g = cert.graph
    emb = dict(embedding or {v: v for v in range(1, g.n + 1)})
    if host == g and all(emb[v] == v for v in range(1, g.n + 1)):
        assert recheck_certificate(cert).valid
        return cert
    image = set(emb.values())
    spare = [w for w in range(1, host.n + 1) if w not in image]
    tau = dict(emb)
    for idx, w in enumerate(spare):
        tau[g.n + 1 + idx] = w
    tau_inv = {w: t for t, w in tau.items()}
    g_mid = host.relabel(tau_inv)

    old_basis1 = degree1_basis(g, cert.shape)
    shape_big = Partition.two_column(host.n, cert.shape.two_column_rows())
    mid = build_restricted_complex(g_mid, shape_big)
    boxes = tuple((t,) for t in range(g.n + 1, host.n + 1))
    pairs = [
        (Numbering(old_basis1[col][2].rows + boxes), coeff)
        for col, coeff in enumerate(cert.h)
        if coeff
    ]
    h_mid = straighten(pairs, [f for _, _, f in mid.basis1], frozen_rows=1)
    cert_mid = _finish_lift(mid, h_mid, cert.prime, "segment embedding")
    if all(tau[t] == t for t in tau):
        return cert_mid

    final = build_restricted_complex(host, shape_big)
    relabeled = []
    for col, coeff in enumerate(cert_mid.h):
        if coeff:
            rows = mid.basis1[col][2].rows
            relabeled.append(
                (Numbering(tuple(tuple(tau[x] for x in row) for row in rows)), coeff)
            )
    h_host = straighten(relabeled, [f for _, _, f in final.basis1], frozen_rows=1)
    return _finish_lift(final, h_host, cert.prime, "relabeling transport")


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
    want = reference_lift_subgraph(cert, host, embedding)
    assert got.graph == want.graph == host
    assert got.h == want.h
    assert got.witness_x == want.witness_x


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
    want = reference_lift_subgraph(cert, host, embedding)
    assert lifted.h == want.h
    assert lifted.witness_x == want.witness_x


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


@pytest.mark.parametrize(
    "g",
    [
        subdivide(subdivide(subdivide(complete_graph(5), (1, 2)), (3, 4)), (1, 6)),
        petersen_graph(),
        complete_graph(5),
        complete_graph(6),
    ],
    ids=["k5-subdivided-thrice", "petersen", "k5", "k6"],
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
    # one complex per subdivision and the host; the seed was verified once
    # at set-up, and the identity embedding and the document reuse the
    # complex the last stage verified on
    assert len(builds) <= s + 1
    assert len(set(builds)) == len(builds)
    assert ((g, cert.shape) in builds) == (g != complete_graph(5))


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
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "67b8567a85f56112"


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
