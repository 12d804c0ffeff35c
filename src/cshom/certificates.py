"""Torsion certificates for non-planar graphs.

Two seed certificates (one per Kuratowski kind) are pinned by their
degree-2 witnesses x, built and verified once per process.  A certificate
for an arbitrary non-planar graph is produced by locating a Kuratowski
subdivision and carrying the seed witness along it by the chain maps of
the complex at k = 2: through all of its subdivisions in one stage, then
into the input graph by a relabeling in a second stage.  Both maps send a
degree-2 generator, a disjoint edge pair, to signed edge pairs, so the
transport needs no straightening and no solving.  On the complex a stage
builds for its target the cycle is read off as h = d2 x / p, and all
three certificate checks are re-run there, so a defect in the maps
surfaces as LiftFailed rather than as a wrong certificate.  Certificates
are immutable, so the cached seeds are shared as they are; provenance
goes onto a copy.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .complexes import RestrictedComplex, build_restricted_complex
from .errors import LiftFailed, NotASubgraph, PlanarInput
from .graphs import (
    Edge,
    Graph,
    complete_bipartite,
    complete_graph,
    find_kuratowski_subdivision,
    subdivide,
)
from .intlinalg import (
    CertificateVerdict,
    TorsionCertificate,
    check_certificate,
    mat_vec,
)
from .tableaux import Partition, sort_sign

__all__ = [
    "CanonicalSeed",
    "LiftStep",
    "LiftTrace",
    "canonical_certificates",
    "lift_subdivision",
    "lift_subgraph",
    "certify_nonplanar",
    "recheck_certificate",
    "certificate_to_dict",
    "certificate_from_dict",
]

CERTIFICATE_FORMAT = "cshom.certificate/1"

# a k = 2 witness: {(e, f): coeff} over disjoint edge pairs, e before f
Pairs = dict[tuple[Edge, Edge], int]


@dataclass(frozen=True)
class CanonicalSeed:
    """Pinned torsion data on a smallest non-planar graph.

    g_terms: (i, j, copy, coeff), the degree-2 witness x, with indices
    1-based in the seed graph's own edge order.  The cycle is d2 x / 2.
    """

    kind: str
    graph: Graph
    shape: Partition
    g_terms: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class LiftStep:
    """One certificate transport step.

    op "subdivide": edge is the internal edge split, new_vertex its internal
    label, user_vertex the input-graph vertex it realizes.  op "embed":
    embedding lists (internal, input) vertex pairs.
    """

    op: str
    edge: Optional[tuple[int, int]] = None
    new_vertex: Optional[int] = None
    user_vertex: Optional[int] = None
    embedding: Optional[tuple[tuple[int, int], ...]] = None


@dataclass(frozen=True)
class LiftTrace:
    kind: str
    steps: tuple[LiftStep, ...]


_K5_G = (
    (1, 8, 1, 1), (1, 9, 1, 1), (1, 10, 1, 1),
    (2, 6, 1, 1), (2, 7, 1, -1), (2, 10, 1, -1),
    (3, 5, 1, 1), (3, 7, 1, 1), (3, 9, 1, 1),
    (4, 5, 1, 1), (4, 6, 1, 1), (4, 8, 1, 1),
    (5, 10, 1, -1), (6, 9, 1, -1), (7, 8, 1, 1),
)
# The bipartite terms are written for this assignment of labels 1..6 to the
# two sides; side 0 holds vertex 1.
_K33_SIDES = ((1, 3, 5), (2, 4, 6))
_K33_G = (
    (1, 6, 1, 1), (1, 7, 1, -1), (1, 8, 1, 1), (1, 9, 1, 1),
    (2, 4, 1, -1), (2, 5, 1, -1), (2, 7, 1, 1), (2, 9, 1, 1),
    (3, 4, 1, 1), (3, 5, 1, -1), (3, 6, 1, 1), (3, 8, 1, 1),
    (4, 8, 1, 1), (4, 9, 1, 1), (5, 6, 1, 1), (5, 7, 1, 1),
    (6, 9, 1, -1), (7, 8, 1, 1),
)


@functools.cache
def canonical_certificates() -> tuple[CanonicalSeed, CanonicalSeed]:
    """The two verified seeds, complete-graph kind first.

    Both seed certificates are built and verified once per process, on the
    first call; an invalid seed is a build-stopping defect.
    """
    seeds = (
        CanonicalSeed(
            kind="K5",
            graph=complete_graph(5),
            shape=Partition.two_column(5, 2),
            g_terms=_K5_G,
        ),
        CanonicalSeed(
            kind="K33",
            graph=complete_bipartite(*_K33_SIDES),
            shape=Partition.two_column(6, 2),
            g_terms=_K33_G,
        ),
    )
    for seed in seeds:
        seed_certificate(seed)
    return seeds


@functools.cache
def seed_certificate(seed: CanonicalSeed) -> TorsionCertificate:
    """Certificate of a seed on its complex, its cycle read off the pinned
    witness, built and verified once per process."""
    complex = build_restricted_complex(seed.graph, seed.shape)
    edges = seed.graph.edges
    x = {(edges[i - 1], edges[j - 1]): v for i, j, _, v in seed.g_terms}
    return _finish_lift(complex, x, 2, f"seed {seed.kind}")


def _witness_pairs(cert: TorsionCertificate) -> Pairs:
    """The certificate's witness as {(e, f): coeff} over disjoint edge
    pairs, e before f in edge order.

    At k = 2 each such pair spans one degree-2 generator W_{e,f}, whose
    filling is the two edges and then the singletons in order.  Raises
    ValueError at any other k.
    """
    if cert.shape.two_column_rows() != 2:
        raise ValueError(f"lifts carry k = 2 witnesses, not shape {cert.shape.parts!r}")
    basis2 = _complex_of(cert).basis2
    return {rows[:2]: c for (_, _, rows), c in zip(basis2, cert.witness_x) if c}


def _add(x: Pairs, e: Edge, f: Edge, coeff: int) -> None:
    """x += coeff W_{e,f}; swapping the two edges flips the sign."""
    if e > f:
        e, f, coeff = f, e, -coeff
    x[(e, f)] = x.get((e, f), 0) + coeff


def _finish_lift(
    complex: RestrictedComplex, x: Pairs, prime: int, stage: str
) -> TorsionCertificate:
    """Put the witness pairs on the complex, read the cycle off as
    h = d2 x / prime and verify; LiftFailed otherwise."""
    index = {e: i for i, e in enumerate(complex.graph.edges, start=1)}
    vec = [0] * len(complex.basis2)
    for (e, f), coeff in x.items():
        vec[complex.column_of_pair_copy[(index[e], index[f], 1)]] += coeff
    dx = mat_vec(complex.d2, vec)
    if any(v % prime for v in dx):
        raise LiftFailed(f"{stage}: d2 x is not divisible by {prime}")
    h = [v // prime for v in dx]
    if not any(h):
        raise LiftFailed(f"{stage}: lifted cycle vanished")
    cert = TorsionCertificate(
        graph=complex.graph,
        shape=complex.shape,
        h=h,
        witness_x=vec,
        prime=prime,
        complex=complex,
    )
    verdict = check_certificate(cert, complex)
    if not verdict.valid:
        raise LiftFailed(f"{stage}: verification failed with {verdict}")
    return cert


def lift_subdivision(
    cert: TorsionCertificate, edges: Sequence[tuple[int, int]]
) -> TorsionCertificate:
    """Transport a k = 2 certificate across a chain of edge subdivisions.

    The i-th edge of `edges` is an edge of the graph after the first i - 1
    subdivisions, and is split by the next vertex label, n + i.  The
    witness is carried through every subdivision of b = (u, v) by w: a
    pair without b is unchanged, w becoming its last singleton.  A pair
    (q, b) goes to the two pairs (q, (v, w)), with u made a singleton, and
    (q, (u, w)), with v made one: the new vertex cascades up the singleton
    rows and is exchanged into b, as the degree-1 exchange relation does.
    Each carries -(-1)^|S| times the sort sign of the freed endpoint
    followed by the pair's other singletons S, and a further -1 if b was
    written first.  The complex of the last graph is built once and the
    cycle read off and verified there, so the whole chain is one stage.
    """
    broken = [(min(edge), max(edge)) for edge in edges]
    if not broken:
        raise ValueError("no edge to subdivide")
    x = _witness_pairs(cert)
    g = cert.graph
    for b in broken:
        if b not in g.edges:
            raise ValueError(f"{b!r} is not an edge of the subdivided graph")
        (u, v), w = b, g.n + 1
        carried: Pairs = {}
        for (e, f), coeff in x.items():
            if b not in (e, f):
                carried[(e, f)] = coeff
                continue
            q = f if e == b else e
            rest = [s for s in range(1, w) if s not in q and s not in b]
            sign = (1 if e == b else -1) * (-1) ** len(rest)
            for new, freed in (((v, w), u), ((u, w), v)):
                _add(carried, q, new, sign * sort_sign([freed] + rest) * coeff)
        x = carried
        g = subdivide(g, b)
    complex = build_restricted_complex(g, Partition.two_column(g.n, 2))
    return _finish_lift(complex, x, cert.prime, f"subdivision lift along {broken!r}")


def lift_subgraph(
    cert: TorsionCertificate,
    host: Graph,
    embedding: Optional[Mapping[int, int]] = None,
) -> TorsionCertificate:
    """Transport a k = 2 certificate along a subgraph embedding into a host
    graph.

    embedding maps certificate-graph vertices to host vertices (identity
    when omitted) and must carry edges to edges.  The spare host vertices
    take the labels n+1.. in increasing order, and tau is the resulting
    relabeling.  Each witness pair (e, f) goes to (tau e, tau f), signed by
    the sort sign of its relabeled singletons; the cycle is read off and
    verified on the host complex.  The identity embedding returns the
    certificate after re-checking it.
    """
    g = cert.graph
    if embedding is None:
        embedding = {v: v for v in range(1, g.n + 1)}
    emb = {int(a): int(b) for a, b in embedding.items()}
    if sorted(emb) != list(range(1, g.n + 1)):
        raise NotASubgraph("embedding must cover vertices 1..n of the source")
    image = sorted(emb.values())
    if len(set(image)) != g.n or image[0] < 1 or image[-1] > host.n:
        raise NotASubgraph("embedding must be injective into the host vertices")
    for u, v in g.edges:
        a, b = emb[u], emb[v]
        if not host.has_edge(a, b):
            raise NotASubgraph(f"edge {(u, v)!r} maps to non-edge {(a, b)!r}")
    pairs = _witness_pairs(cert)  # refuses k != 2, the identity included

    if host == g and all(emb[v] == v for v in range(1, g.n + 1)):
        verdict = check_certificate(cert, _complex_of(cert))
        if not verdict.valid:
            raise LiftFailed(f"identity embedding: stored certificate fails {verdict}")
        return cert

    spare = sorted(set(range(1, host.n + 1)) - set(image))
    tau = {**emb, **dict(zip(range(g.n + 1, host.n + 1), spare))}
    x: Pairs = {}
    for (e, f), coeff in pairs.items():
        singles = [tau[s] for s in range(1, host.n + 1) if s not in e and s not in f]
        te, tf = (tuple(sorted(map(tau.__getitem__, edge))) for edge in (e, f))
        _add(x, te, tf, sort_sign(singles) * coeff)
    complex = build_restricted_complex(host, Partition.two_column(host.n, 2))
    return _finish_lift(complex, x, cert.prime, "subgraph embedding")


def certify_nonplanar(g: Graph) -> TorsionCertificate:
    """Build a verified order-2 torsion certificate for a non-planar graph.

    Pipeline: Kuratowski witness, seed certificate, one subdivision lift
    across every path interior vertex (skipped when there is none), then
    the embedding into the input graph: at most two verified stages.  The
    subdivision steps and their labels n+1, n+2, ... are worked out from the
    witness before any lift.  The returned certificate carries the witness,
    the step trace (one entry per subdivided vertex), and the
    internal-to-input vertex map.

    Raises PlanarInput when no witness exists.
    """
    g.assert_canonical()
    witness = find_kuratowski_subdivision(g)
    if witness is None:
        raise PlanarInput(f"no Kuratowski subdivision in graph with {g.m} edges")

    seed5, seed33 = canonical_certificates()
    seed = seed5 if witness.kind == "K5" else seed33
    if witness.kind == "K5":
        seed_labels = list(range(1, 6))
    else:
        seed_labels = list(_K33_SIDES[0] + _K33_SIDES[1])

    vertex_map = {
        seed_labels[pos]: user for pos, user in enumerate(witness.branch_vertices)
    }
    steps: list[LiftStep] = []
    label = seed.graph.n
    for (pa, pb), path in zip(witness.model_edges(), witness.paths):
        a, b = seed_labels[pa], seed_labels[pb]
        interiors = list(path[1:-1])
        if a > b:
            a, b = b, a
            interiors.reverse()
        cur = a
        for user_vertex in interiors:
            label += 1
            vertex_map[label] = user_vertex
            steps.append(
                LiftStep(
                    op="subdivide",
                    edge=(min(cur, b), max(cur, b)),
                    new_vertex=label,
                    user_vertex=user_vertex,
                )
            )
            cur = label

    cert = seed_certificate(seed)
    if steps:
        cert = lift_subdivision(cert, [step.edge for step in steps])
    embedding = dict(sorted(vertex_map.items()))
    steps.append(
        LiftStep(op="embed", embedding=tuple(sorted(embedding.items())))
    )
    return dataclasses.replace(
        lift_subgraph(cert, g, embedding),
        trace=LiftTrace(kind=witness.kind, steps=tuple(steps)),
        witness=witness,
        vertex_map=embedding,
    )


def recheck_certificate(cert: TorsionCertificate) -> CertificateVerdict:
    """Verify a certificate against a freshly built complex."""
    return check_certificate(cert, build_restricted_complex(cert.graph, cert.shape))


def _complex_of(cert: TorsionCertificate) -> RestrictedComplex:
    """The complex the certificate carries when its graph and shape match,
    else a fresh build."""
    c = cert.complex
    if c is None or c.graph != cert.graph or c.shape != cert.shape:
        c = build_restricted_complex(cert.graph, cert.shape)
    return c


def _step_to_dict(step: LiftStep) -> dict:
    d: dict = {"op": step.op}
    if step.edge is not None:
        d["edge"] = list(step.edge)
    if step.new_vertex is not None:
        d["new_vertex"] = step.new_vertex
    if step.user_vertex is not None:
        d["user_vertex"] = step.user_vertex
    if step.embedding is not None:
        d["embedding"] = [[a, b] for a, b in step.embedding]
    return d


def certificate_to_dict(cert: TorsionCertificate) -> dict:
    """JSON-ready form of a certificate, verified against its complex.

    The complex is the one the certificate carries when its graph and shape
    match, else a fresh build.  Cycle entries are keyed "edge,copy" and
    witness entries "i,j,copy", all 1-based in the graph's lexicographic
    edge order.  The emitted verdict is computed here, never copied from
    the input.
    """
    c = _complex_of(cert)
    verdict = check_certificate(cert, c)
    h = {
        f"{i},{j}": cert.h[col]
        for col, (i, j, _) in enumerate(c.basis1)
        if cert.h[col]
    }
    x = {
        f"{i},{j},{l}": cert.witness_x[col]
        for col, ((i, j), l, _) in enumerate(c.basis2)
        if cert.witness_x[col]
    }
    doc: dict = {
        "format": CERTIFICATE_FORMAT,
        "prime": cert.prime,
        "graph": {"n": cert.graph.n, "edges": [list(e) for e in cert.graph.edges]},
        "shape": list(cert.shape.parts),
        "h": h,
        "witness_x": x,
        "verdict": {
            "cycle": verdict.cycle,
            "doubled": verdict.doubled,
            "not_in_image": verdict.not_in_image,
        },
    }
    if cert.trace is not None:
        doc["lift"] = {
            "kind": cert.trace.kind,
            "steps": [_step_to_dict(s) for s in cert.trace.steps],
        }
    if cert.witness is not None:
        doc["kuratowski"] = {
            "kind": cert.witness.kind,
            "branch_vertices": list(cert.witness.branch_vertices),
            "paths": [list(p) for p in cert.witness.paths],
        }
    if cert.vertex_map is not None:
        doc["vertex_map"] = {str(a): b for a, b in sorted(cert.vertex_map.items())}
    return doc


def _json_int(value: object, what: str) -> int:
    """value when it is a JSON integer; a float or bool is refused, not cut."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _bind(entries: Mapping, column_of: Mapping, size: int, what: str) -> list[int]:
    """Dense vector from sparse entries keyed "i,j[,l]" as column_of's keys."""
    columns = {",".join(map(str, key)): col for key, col in column_of.items()}
    vec = [0] * size
    for key, val in entries.items():
        if key not in columns:
            raise ValueError(f"{what} entry {key!r} does not bind")
        vec[columns[key]] = _json_int(val, f"{what} entry {key!r}")
    return vec


def certificate_from_dict(
    doc: Mapping, complex: Optional[RestrictedComplex] = None
) -> TorsionCertificate:
    """Rebuild a dense certificate from its JSON form, the one parser of
    certificate documents.

    Every number must be a JSON integer, every edge a pair, and every key
    as certificate_to_dict writes it.  The returned certificate carries the
    supplied complex, which must match the document, or else a fresh build.
    Raises ValueError when the document does not bind.  Provenance blocks
    (lift, kuratowski, vertex_map) are not reconstructed.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("certificate document must be a JSON object")
    if doc.get("format") != CERTIFICATE_FORMAT:
        raise ValueError(f"unsupported certificate format {doc.get('format')!r}")
    try:
        gd = doc["graph"]
        edges = []
        for e in gd["edges"]:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair of vertices")
            edges.append(tuple(_json_int(v, "edge endpoint") for v in e))
        graph = Graph.from_edges(_json_int(gd["n"], "graph n"), edges)
        shape = Partition(tuple(_json_int(p, "shape part") for p in doc["shape"]))
        prime = _json_int(doc["prime"], "prime")
        h_doc, x_doc = doc["h"], doc["witness_x"]
        if not isinstance(h_doc, Mapping) or not isinstance(x_doc, Mapping):
            raise TypeError("h and witness_x must be JSON objects")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate document: {exc}") from exc
    c = complex if complex is not None else build_restricted_complex(graph, shape)
    if c.graph != graph or c.shape != shape:
        raise ValueError("supplied complex does not match the document")
    h = _bind(h_doc, c.column_of_edge_copy, len(c.basis1), "cycle")
    x = _bind(x_doc, c.column_of_pair_copy, len(c.basis2), "witness")
    return TorsionCertificate(
        graph=graph, shape=shape, h=h, witness_x=x, prime=prime, complex=c
    )
