"""Batch torsion survey over graph corpora.

Each graph is scanned across every two-column shape with at least two long
rows; non-planar graphs additionally get a transported torsion certificate.
Results are cached by content hash so warm reruns byte-reproduce earlier
output, including recorded runtimes.

A run aborts outright if it ever sees a non-planar graph whose homology scan
found no order-2 torsion: that combination contradicts what the certificate
machinery guarantees, so it is treated as an internal defect rather than a
reportable row.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .certificates import certificate_to_dict, certify_nonplanar
from .complexes import build_restricted_complex
from .errors import CshomError, PlanarInput
from .graphs import Graph, is_planar, parse_graph6, to_graph6
from .intlinalg import homology_group
from .tableaux import Partition

__all__ = [
    "CSV_COLUMNS",
    "scan_shapes",
    "survey_one",
    "run_survey",
    "write_csv",
    "write_jsonl",
    "generate_connected_graphs",
    "certificate_filename",
]

CSV_COLUMNS = (
    "id",
    "n",
    "m",
    "planar",
    "shapes",
    "has_z2",
    "certificate",
    "runtime_s",
    "error",
)

GENERATOR_MAX_N = 7


def scan_shapes(n: int) -> list[Partition]:
    """Shapes carrying possible degree-1 torsion: two long rows minimum."""
    return [Partition.two_column(n, k) for k in range(2, n // 2 + 1)]


def certificate_filename(graph6: str) -> str:
    return hashlib.sha256(graph6.encode()).hexdigest()[:16] + ".cert.json"


def survey_one(
    graph6: str, tables: Optional[dict] = None
) -> tuple[dict, Optional[dict]]:
    """Scan one graph; returns (record, certificate document or None).

    tables goes to the scan builds (see build_restricted_complex), which
    share their graph-independent parts with every build given the same
    dict; the certificate's builds do not take it.  Recoverable library errors land in the record's error field.  A
    non-planar graph with a clean scan but no detected 2-torsion raises
    RuntimeError, aborting the whole survey.
    """
    g = parse_graph6(graph6)
    t0 = time.perf_counter()
    shapes = scan_shapes(g.n)
    has_z2 = False
    planar: Optional[bool] = None
    error: Optional[str] = None
    cert_doc: Optional[dict] = None
    try:
        for shape in shapes:
            c = build_restricted_complex(g, shape, tables)
            hg = homology_group(c.d1, c.d2)
            if hg.has_z2:
                has_z2 = True
        try:
            cert = certify_nonplanar(g)
            planar = False
            cert_doc = certificate_to_dict(cert)
        except PlanarInput:
            planar = True
    except (CshomError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        if planar is None:
            try:
                planar = is_planar(g)
            except (CshomError, ValueError):
                planar = None
    if planar is False and not has_z2 and error is None:
        raise RuntimeError(
            f"torsion invariant violated: non-planar graph {graph6!r} "
            "scanned clean but no order-2 torsion was found"
        )
    record = {
        "id": graph6,
        "n": g.n,
        "m": g.m,
        "planar": planar,
        "shapes": ["+".join(str(p) for p in s.parts) for s in shapes],
        "has_z2": has_z2,
        "certificate": certificate_filename(graph6) if cert_doc else None,
        "runtime_s": round(time.perf_counter() - t0, 3),
        "error": error,
    }
    return record, cert_doc


def _survey_chunk(graph6s: list[str]) -> list[tuple[dict, Optional[dict]]]:
    """survey_one over consecutive graphs, with one tables dict among them."""
    tables: dict = {}
    return [survey_one(g6, tables) for g6 in graph6s]


def _cache_dir(override: Optional[str]) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("CSHOM_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cshom"


_CACHE_VERSION = "cshom-survey/3"


def _cache_path(base: Path, graph6: str) -> Path:
    digest = hashlib.sha256(f"{_CACHE_VERSION}|{graph6}".encode()).hexdigest()
    return base / (digest[:24] + ".json")


def run_survey(
    graphs: Iterable[str | Graph],
    *,
    cache_dir: Optional[str] = None,
    cert_dir: Optional[str] = None,
    jobs: int = 1,
) -> list[dict]:
    """Survey a corpus, returning records sorted by (n, m, id).

    Graphs may be Graph objects or graph6 strings.  Cached entries are
    reused verbatim; misses are computed (by min(jobs, misses, CPUs) worker
    processes when that exceeds 1, in contiguous chunks) and persisted by
    the parent process only.  The misses of one chunk, all of them when
    serial, share one dict of build tables, which lives no longer than
    this call.  When cert_dir is set, every certificate document is written
    there, cache hit or not.
    """
    ids: list[str] = []
    seen: set[str] = set()
    for item in graphs:
        g6 = to_graph6(item) if isinstance(item, Graph) else item.strip()
        if g6 not in seen:
            seen.add(g6)
            ids.append(g6)

    base = _cache_dir(cache_dir)
    base.mkdir(parents=True, exist_ok=True)
    entries: dict[str, dict] = {}
    missing: list[str] = []
    for g6 in ids:
        path = _cache_path(base, g6)
        if path.exists():
            entries[g6] = json.loads(path.read_text())
        else:
            missing.append(g6)

    if missing:
        workers = min(jobs, len(missing), os.cpu_count() or 1)
        if workers > 1:
            # eight chunks a worker: a sorted corpus grows toward its end
            size = -(-len(missing) // (workers * 8))
            chunks = [missing[i : i + size] for i in range(0, len(missing), size)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                computed = [r for part in pool.map(_survey_chunk, chunks) for r in part]
        else:
            computed = _survey_chunk(missing)
        for g6, (record, cert_doc) in zip(missing, computed):
            entry = {"record": record, "certificate_doc": cert_doc}
            _cache_path(base, g6).write_text(
                json.dumps(entry, sort_keys=True) + "\n"
            )
            entries[g6] = entry

    if cert_dir is not None:
        cpath = Path(cert_dir)
        cpath.mkdir(parents=True, exist_ok=True)
        for g6, entry in entries.items():
            doc = entry.get("certificate_doc")
            if doc:
                (cpath / certificate_filename(g6)).write_text(
                    json.dumps(doc, indent=2, sort_keys=True) + "\n"
                )

    records = [entries[g6]["record"] for g6 in ids]
    records.sort(key=lambda r: (r["n"], r["m"], r["id"]))
    return records


def _csv_cell(record: dict, column: str) -> str:
    value = record[column]
    if column in ("planar", "has_z2"):
        return "" if value is None else ("true" if value else "false")
    if column == "shapes":
        return ";".join(value)
    if column == "runtime_s":
        return f"{value:.3f}"
    if value is None:
        return ""
    return str(value)


def write_csv(records: Sequence[dict], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow([_csv_cell(record, col) for col in CSV_COLUMNS])


def write_jsonl(records: Sequence[dict], fh: TextIO) -> None:
    for record in records:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# connected-graph generation up to isomorphism


def _refined_invariants(n: int, edges: tuple[tuple[int, int], ...]) -> list:
    adj = Graph(n, edges).adjacency()
    inv = {v: len(adj[v]) for v in adj}
    for _ in range(2):
        inv = {
            v: (inv[v], tuple(sorted(inv[w] for w in adj[v]))) for v in adj
        }
    return [inv[v] for v in range(1, n + 1)]


def _canonical_edges(
    n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Canonical labeling of the edge set, stable across isomorphism.

    Vertices are grouped by a two-round degree refinement and each class is
    assigned a fixed label block in class-key order; the edge list is then
    minimized over class-preserving bijections only.  Isomorphic graphs have
    identical class structure, so they reach the same minimum, which is all
    deduplication needs (this is not the global lexicographic minimum over
    every relabeling).
    """
    inv = _refined_invariants(n, edges)
    classes: dict = {}
    for v, key in enumerate(inv, start=1):
        classes.setdefault(key, []).append(v)
    ordered = [classes[key] for key in sorted(classes)]
    offsets = []
    start = 1
    for cls in ordered:
        offsets.append(range(start, start + len(cls)))
        start += len(cls)
    best: Optional[tuple[tuple[int, int], ...]] = None
    for chosen in itertools.product(
        *(itertools.permutations(labels) for labels in offsets)
    ):
        mapping = {}
        for cls, labels in zip(ordered, chosen):
            for v, lab in zip(cls, labels):
                mapping[v] = lab
        relabeled = tuple(
            sorted(
                (mapping[u], mapping[v]) if mapping[u] < mapping[v]
                else (mapping[v], mapping[u])
                for u, v in edges
            )
        )
        if best is None or relabeled < best:
            best = relabeled
    assert best is not None
    return best


def generate_connected_graphs(max_n: int) -> Iterator[Graph]:
    """All connected graphs with 1..max_n vertices, one per isomorphism
    class in its canonical labeling, in (n, m, edge list) order.  Level n
    joins a new vertex n to each non-empty subset of 1..n-1 in every graph of
    level n - 1; no class is missed, because a leaf of a spanning tree is a
    non-cut vertex, and deleting it leaves a connected graph on n - 1."""
    if not 1 <= max_n <= GENERATOR_MAX_N:
        raise ValueError(f"generator supports 1 <= n <= {GENERATOR_MAX_N}")
    level: list[tuple[tuple[int, int], ...]] = [()]
    yield Graph(1, ())
    for n in range(2, max_n + 1):
        found = {
            _canonical_edges(n, es + tuple((u, n) for u in nbrs))
            for es in level
            for r in range(1, n)
            for nbrs in itertools.combinations(range(1, n), r)
        }
        level = sorted(found, key=lambda es: (len(es), es))
        yield from (Graph(n, es) for es in level)
