"""Workloads of the cshom benchmark: inputs, operations and pinned results.

Every workload is a closed loop: one caller in one process runs one
operation at a time through the public ``cshom`` functions and waits for it.
Each result is checked against a value pinned here; a wrong value or an
undocumented exception counts as a failed operation and the pass goes on.

Each pass of a run relabels the vertices of every homology and certify
input by its own permutation drawn from the seed, and shuffles the census
input order the same way.  Every pinned value is invariant under both.

``cshom`` must be importable before this module is imported (``run.py`` puts
the checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import cshom

WORKLOADS = ("homology", "certify", "census")

# census caches live here, one fresh directory per pass, removed afterwards
WORK_DIR = Path(__file__).resolve().parent / ".work"

CENSUS_MAX_N = 6

# --- inputs ---------------------------------------------------------------


def heawood_graph() -> cshom.Graph:
    edges = []
    for i in range(14):
        edges.append((i + 1, (i + 1) % 14 + 1))
        if i % 2 == 0:
            edges.append((i + 1, (i + 5) % 14 + 1))
    return cshom.Graph.from_edges(14, edges)


def grid_graph(rows: int, cols: int) -> cshom.Graph:
    def v(i: int, j: int) -> int:
        return i * cols + j + 1

    edges = [(v(i, j), v(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(v(i, j), v(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return cshom.Graph.from_edges(rows * cols, edges)


def subdivided(g: cshom.Graph, edges) -> cshom.Graph:
    for e in edges:
        g = cshom.subdivide(g, e)
    return g


def relabeled(g: cshom.Graph, rng: random.Random) -> cshom.Graph:
    image = list(range(1, g.n + 1))
    rng.shuffle(image)
    return g.relabel({v: image[v - 1] for v in range(1, g.n + 1)})


def _k55() -> cshom.Graph:
    return cshom.complete_bipartite(range(1, 6), range(6, 11))


# (name, graph, shapes k, pinned (betti, invariant factors) per k)
HOMOLOGY_INPUTS = (
    ("petersen", cshom.petersen_graph, (2, 3, 4, 5)),
    ("K8", lambda: cshom.complete_graph(8), (2, 3, 4)),
    ("K5,5", _k55, (2,)),
    ("K10", lambda: cshom.complete_graph(10), (2,)),
)


def homology_expected(k: int) -> tuple:
    return (0, (2,)) if k == 2 else (0, ())


# (name, graph, pinned outcome): a Kuratowski kind, or the documented
# PlanarInput refusal
CERTIFY_INPUTS = (
    ("petersen", cshom.petersen_graph, "K33"),
    ("K5,5", _k55, "K5"),
    ("heawood", heawood_graph, "K33"),
    ("K5-sub6", lambda: subdivided(
        cshom.complete_graph(5), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4))
    ), "K5"),
    ("K33-sub3", lambda: subdivided(
        cshom.complete_bipartite((1, 2, 3), (4, 5, 6)), ((1, 4), (2, 5), (3, 6))
    ), "K33"),
    ("grid3x5", lambda: grid_graph(3, 5), "PlanarInput"),
)

CENSUS_GRAPHS = 143
CENSUS_DIGEST = "bfdeb6087ac4e30e"
CENSUS_NONPLANAR = (
    "D~{", "EFzw", "EF~w", "EJ^w", "EJ~w", "EN~w", "E^~w",
    "Er\\w", "Er^w", "Er~w", "Es\\o", "Es\\w", "Et\\w", "E~~w",
)


@dataclass
class Inputs:
    """The seeded inputs of one pass of a workload."""

    workload: str
    rng: random.Random
    homology: list = field(default_factory=list)  # (label, graph, shape, expected)
    certify: list = field(default_factory=list)  # (label, graph, expected)


def make_inputs(workload: str, seed: int, pass_index: int = 0) -> Inputs:
    """Pass ``pass_index`` of ``seed`` gets its own vertex relabeling (homology,
    certify) or input order (census), so one run covers several labelings;
    the same seed and pass always give the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{seed}:{pass_index}")
    inputs = Inputs(workload, rng)
    if workload == "homology":
        for name, make, ks in HOMOLOGY_INPUTS:
            g = relabeled(make(), rng)
            for k in ks:
                inputs.homology.append((
                    f"{name} k={k}", g, cshom.Partition.two_column(g.n, k),
                    homology_expected(k),
                ))
    elif workload == "certify":
        for name, make, outcome in CERTIFY_INPUTS:
            inputs.certify.append((name, relabeled(make(), rng), outcome))
    return inputs


def setup(workload: str, seed: int) -> Inputs:
    """What every CLI call pays before its first operation: seed
    verification (``canonical_certificates``) and the inputs."""
    cshom.canonical_certificates()
    return make_inputs(workload, seed)


# --- operations -----------------------------------------------------------


def homology_op(g: cshom.Graph, shape: cshom.Partition) -> cshom.HomologyResult:
    """What ``cshom homology`` does per shape."""
    c = cshom.build_restricted_complex(g, shape)
    return cshom.homology_group([list(r) for r in c.d1], [list(r) for r in c.d2])


def certify_op(g: cshom.Graph) -> str:
    """What ``cshom certify`` does: certify, serialize, dump."""
    cert = cshom.certify_nonplanar(g)
    return json.dumps(cshom.certificate_to_dict(cert), indent=2, sort_keys=True)


def check_op(text: str) -> cshom.CertificateVerdict:
    """What ``cshom check`` does: parse, build one complex, bind, verify."""
    doc = json.loads(text)
    gd = doc["graph"]
    graph = cshom.Graph.from_edges(int(gd["n"]), [tuple(e) for e in gd["edges"]])
    shape = cshom.Partition(tuple(int(p) for p in doc["shape"]))
    complex = cshom.build_restricted_complex(graph, shape)
    cert = cshom.certificate_from_dict(doc, complex)
    return cshom.check_certificate(cert, complex)


def generate_op() -> list:
    return list(cshom.generate_connected_graphs(CENSUS_MAX_N))


def census_digest(graphs) -> str:
    ids = "\n".join(sorted(cshom.to_graph6(g) for g in graphs))
    return hashlib.sha256(ids.encode()).hexdigest()[:16]


def certify_summary(g: cshom.Graph, text: str) -> tuple:
    doc = json.loads(text)
    return (
        doc["lift"]["kind"],
        doc["graph"] == {"n": g.n, "edges": [list(e) for e in g.edges]},
        doc["shape"],
        doc["verdict"],
    )


def certify_expected(g: cshom.Graph, outcome: str) -> tuple:
    if outcome == "PlanarInput":
        return ("raised", "PlanarInput")
    verdict = {"cycle": True, "doubled": True, "not_in_image": True}
    return (outcome, True, [2, 2] + [1] * (g.n - 4), verdict)


def survey_summary(records: list, cache_files: int) -> tuple:
    nonplanar = tuple(sorted(r["id"] for r in records if r["planar"] is False))
    return (
        len(records),
        cache_files,
        nonplanar,
        all(r["has_z2"] for r in records if r["planar"] is False),
        sum(1 for r in records if r["error"] is not None or r["planar"] is None),
        sum(1 for r in records if (r["certificate"] is None) != (r["planar"] is True)),
    )


SURVEY_EXPECTED = (CENSUS_GRAPHS, CENSUS_GRAPHS, CENSUS_NONPLANAR, True, 0, 0)


# --- one pass -------------------------------------------------------------


@dataclass
class PassResult:
    wall: float = 0.0
    ops: list = field(default_factory=list)  # (kind, label, seconds, ok)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op[3])

    def seconds(self, kind: str) -> float:
        return float(sum(op[2] for op in self.ops if op[0] == kind))


class Runner:
    """Runs passes over a workload's inputs, timing and checking each op.

    ``expected`` overrides pinned values by op label (the benchmark's own
    test uses it to inject a wrong expectation).  With a tracer each op is
    a root span named ``op.<kind>``.
    """

    def __init__(self, tracer=None, expected: Optional[dict] = None) -> None:
        self.tracer = tracer
        self.overrides = expected or {}

    def _op(self, result: PassResult, kind: str, label: str, fn: Callable,
            summarize: Callable, expected) -> object:
        expected = self.overrides.get(label, expected)
        span = self.tracer.open("op." + kind) if self.tracer else None
        t0 = time.perf_counter()
        raw, error = None, None
        try:
            raw = fn()
        except Exception as exc:  # an op's failure is counted, not fatal
            error = exc
        dt = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span, ok=error is None)
        if error is not None:
            got = ("raised", type(error).__name__)
        else:
            try:
                got = summarize(raw)
            except Exception as exc:
                error, got = exc, ("unreadable", type(exc).__name__)
        ok = got == expected
        if not ok:
            print(f"FAILED op {kind} {label}: got {got!r}, want {expected!r}",
                  file=sys.stderr)
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
        result.ops.append((kind, label, dt, ok))
        return raw

    def run_pass(self, inputs: Inputs) -> PassResult:
        result = PassResult()
        t0 = time.perf_counter()
        getattr(self, "_" + inputs.workload)(inputs, result)
        result.wall = time.perf_counter() - t0
        return result

    def _homology(self, inputs: Inputs, result: PassResult) -> None:
        for label, g, shape, expected in inputs.homology:
            self._op(result, "homology", label,
                     lambda: homology_op(g, shape),
                     lambda hg: (hg.betti, hg.invariant_factors), expected)

    def _certify(self, inputs: Inputs, result: PassResult) -> None:
        docs = []
        for label, g, outcome in inputs.certify:
            text = self._op(result, "certify", label,
                            lambda: certify_op(g),
                            lambda t: certify_summary(g, t),
                            certify_expected(g, outcome))
            if outcome != "PlanarInput":
                docs.append((label, text))
        for label, text in docs:
            # a certificate that failed its own op is still checked when
            # it exists; a missing one fails its check op as well
            self._op(result, "check", label,
                     lambda: check_op(text),
                     lambda v: (v.cycle, v.doubled, v.not_in_image),
                     (True, True, True))

    def _census(self, inputs: Inputs, result: PassResult) -> None:
        graphs = self._op(result, "generate", "generate", generate_op,
                          lambda gs: (len(gs), census_digest(gs)),
                          (CENSUS_GRAPHS, CENSUS_DIGEST))
        if graphs is None:
            graphs = []
        inputs.rng.shuffle(graphs)
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        cache = Path(tempfile.mkdtemp(prefix="census-", dir=WORK_DIR))
        try:
            self._op(result, "survey", "survey",
                     lambda: cshom.run_survey(graphs, cache_dir=str(cache), jobs=1),
                     lambda recs: survey_summary(recs, len(list(cache.iterdir()))),
                     SURVEY_EXPECTED)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
