"""Torsion certificates for non-planar graphs.

Two seed certificates (one per Kuratowski kind) are pinned as explicit
generator combinations, built and verified once per process.  A certificate
for an arbitrary non-planar graph is produced by locating a Kuratowski
subdivision, carrying the seed cycle through all of its subdivisions in one
stage, and embedding the result into the input graph in a second, relabeling
stage.  A stage reads the source fillings from the complex the certificate
carries, rewrites them as plain row tuples, and builds, straightens on and
solves over only the target complex.  Every stage re-solves for the degree-2
witness and re-verifies all three certificate checks, so any defect in the
rewriting surfaces as LiftFailed rather than as a wrong certificate.
Certificates are immutable, so the cached seeds are shared as they are;
provenance goes onto a copy.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .complexes import RestrictedComplex, build_restricted_complex
from .errors import LiftFailed, NotASubgraph, PlanarInput, StraighteningStalled
from .graphs import (
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
    solve_integer,
)
from .tableaux import Partition, Rows, straighten

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


@dataclass(frozen=True)
class CanonicalSeed:
    """Pinned torsion data on a smallest non-planar graph.

    h_terms: (edge_index, copy, coeff); g_terms: (i, j, copy, coeff); all
    indices 1-based in the seed graph's own edge order.
    """

    kind: str
    graph: Graph
    shape: Partition
    h_terms: tuple[tuple[int, int, int], ...]
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


_K5_H = ((9, 1, 1), (10, 1, 1), (2, 1, -1), (7, 2, 1), (9, 2, 1))
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
_K33_H = ((6, 3, 1), (7, 3, -1), (8, 3, 1), (9, 2, -1))
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
            h_terms=_K5_H,
            g_terms=_K5_G,
        ),
        CanonicalSeed(
            kind="K33",
            graph=complete_bipartite(*_K33_SIDES),
            shape=Partition.two_column(6, 2),
            h_terms=_K33_H,
            g_terms=_K33_G,
        ),
    )
    for seed in seeds:
        seed_certificate(seed)
    return seeds


@functools.cache
def seed_certificate(seed: CanonicalSeed) -> TorsionCertificate:
    """Dense certificate of a seed on its complex, built and verified once
    per process."""
    complex = build_restricted_complex(seed.graph, seed.shape)
    h = [0] * len(complex.basis1)
    for i, j, v in seed.h_terms:
        h[complex.column_of_edge_copy[(i, j)]] += v
    x = [0] * len(complex.basis2)
    for i, j, l, v in seed.g_terms:
        x[complex.column_of_pair_copy[(i, j, l)]] += v
    cert = TorsionCertificate(
        graph=seed.graph, shape=seed.shape, h=h, witness_x=x, prime=2,
        complex=complex,
    )
    if not check_certificate(cert, complex).valid:
        raise AssertionError(f"seed {seed.kind} failed verification")
    return cert


def _cascade_terms(rows: Rows, new_label: int) -> list[tuple[int, Rows]]:
    """Rewrite (broken-edge filling + appended new-vertex box) so the new
    vertex reaches the top row.

    Repeated single-entry exchanges with the row above; each exchange flips
    the sign and branches over the upper row's entries.  The final exchange
    replaces one endpoint of the old top-row pair, so every leaf's top row
    is one of the two replacement edges.
    """
    start = rows + ((new_label,),)
    work: list[tuple[int, Rows, int]] = [(1, start, len(start) - 1)]
    leaves: list[tuple[int, Rows]] = []
    while work:
        c, rows, p = work.pop()
        if p == 0:
            leaves.append((c, rows))
            continue
        upper, lower = rows[p - 1], rows[p]
        pos = lower.index(new_label)
        rest = lower[:pos] + lower[pos + 1 :]
        for t, y in enumerate(upper):
            nu = upper[:t] + (new_label,) + upper[t + 1 :]
            nrows = rows[: p - 1] + (nu, (y,) + rest) + rows[p + 1 :]
            work.append((-c, nrows, p - 1))
    return leaves


def _finish_lift(
    complex: RestrictedComplex, h: list[int], prime: int, stage: str
) -> TorsionCertificate:
    """Solve for the degree-2 witness and re-verify; LiftFailed otherwise."""
    if not any(h):
        raise LiftFailed(f"{stage}: lifted cycle vanished")
    x = solve_integer(complex.d2, [prime * v for v in h])
    if x is None:
        raise LiftFailed(f"{stage}: {prime}h has no preimage under d2")
    cert = TorsionCertificate(
        graph=complex.graph,
        shape=complex.shape,
        h=h,
        witness_x=x,
        prime=prime,
        complex=complex,
    )
    verdict = check_certificate(cert, complex)
    if not verdict.valid:
        raise LiftFailed(f"{stage}: verification failed with {verdict}")
    return cert


def _lift_onto(
    cert: TorsionCertificate,
    target: Graph,
    terms: list[tuple[Rows, int]],
    stage: str,
) -> TorsionCertificate:
    """Straighten transported cycle terms, given as row tuples, on the
    target complex at the certificate's k, then solve and verify there."""
    shape = Partition.two_column(target.n, cert.shape.two_column_rows())
    complex = build_restricted_complex(target, shape)
    try:
        h = straighten(terms, [f for _, _, f in complex.basis1], frozen_rows=1)
    except StraighteningStalled as exc:
        raise LiftFailed(f"{stage}: {exc}") from exc
    return _finish_lift(complex, h, cert.prime, stage)


def _cycle_rows(cert: TorsionCertificate) -> list[tuple[Rows, int]]:
    """The certificate's cycle as (filling rows, coefficient) terms."""
    basis1 = _complex_of(cert).basis1
    return [(basis1[col][2], coeff) for col, coeff in enumerate(cert.h) if coeff]


def lift_subdivision(
    cert: TorsionCertificate, edges: Sequence[tuple[int, int]]
) -> TorsionCertificate:
    """Transport a certificate across a chain of edge subdivisions.

    The i-th edge of `edges` is an edge of the graph after the first i - 1
    subdivisions, and is split by the next vertex label, n + i.  The cycle
    terms are carried through every subdivision as plain row tuples: a term
    whose top row is the broken edge is rewritten by the exchange cascade,
    any other term gains the new vertex as a final singleton box.  The terms
    are straightened once, on the complex of the last graph, and the
    witness is solved and verified there, so the whole chain is one stage.
    """
    broken = [(min(edge), max(edge)) for edge in edges]
    if not broken:
        raise ValueError("no edge to subdivide")
    g = cert.graph
    terms = _cycle_rows(cert)
    for e in broken:
        if e not in g.edges:
            raise ValueError(f"{e!r} is not an edge of the subdivided graph")
        g = subdivide(g, e)
        w = g.n
        carried: list[tuple[Rows, int]] = []
        for rows, coeff in terms:
            if tuple(sorted(rows[0])) == e:
                carried += [(leaf, sgn * coeff) for sgn, leaf in _cascade_terms(rows, w)]
            else:
                carried.append((rows + ((w,),), coeff))
        terms = carried
    return _lift_onto(cert, g, terms, f"subdivision lift along {broken!r}")


def lift_subgraph(
    cert: TorsionCertificate,
    host: Graph,
    embedding: Optional[Mapping[int, int]] = None,
) -> TorsionCertificate:
    """Transport a certificate along a subgraph embedding into a host graph.

    embedding maps certificate-graph vertices to host vertices (identity
    when omitted) and must carry edges to edges.  Each cycle term gains
    singleton boxes n+1.. for the spare host vertices, taken in increasing
    order, is relabeled into the host and straightened on the host complex.
    The identity embedding returns the certificate after re-checking it.
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

    if host == g and all(emb[v] == v for v in range(1, g.n + 1)):
        verdict = check_certificate(cert, _complex_of(cert))
        if not verdict.valid:
            raise LiftFailed(f"identity embedding: stored certificate fails {verdict}")
        return cert

    spare = sorted(set(range(1, host.n + 1)) - set(image))
    tau = {**emb, **dict(zip(range(g.n + 1, host.n + 1), spare))}
    boxes = tuple((t,) for t in range(g.n + 1, host.n + 1))
    terms = [
        (tuple(tuple(tau[x] for x in r) for r in rows + boxes), coeff)
        for rows, coeff in _cycle_rows(cert)
    ]
    return _lift_onto(cert, host, terms, "subgraph embedding")


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
