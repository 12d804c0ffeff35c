import hashlib
import itertools
import json
import random

import pytest

import cshom.complexes
import cshom.survey
from cshom.errors import LiftFailed
from cshom.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    edge_pairs_by_type,
    is_connected,
    to_graph6,
)
from cshom.intlinalg import HomologyResult
from cshom.survey import (
    _canonical_edges,
    certificate_filename,
    generate_connected_graphs,
    run_survey,
    scan_shapes,
    survey_one,
)
from cshom.tableaux import Partition, enumerate_ssyt


def test_scan_shapes():
    assert [s.parts for s in scan_shapes(5)] == [(2, 2, 1)]
    assert [s.parts for s in scan_shapes(7)] == [(2, 2, 1, 1, 1), (2, 2, 2, 1)]
    assert scan_shapes(3) == []


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        want = _canonical_edges(n, g.edges)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        h = g.relabel(dict(zip(range(1, n + 1), perm)))
        assert _canonical_edges(n, h.edges) == want


def reference_connected_graphs(max_n):
    """Brute-force census: every edge subset on 1..n that is connected and
    is its own canonical form, in (n, m, edge list) order."""
    for n in range(1, max_n + 1):
        all_pairs = list(itertools.combinations(range(1, n + 1), 2))
        found = []
        for r in range(len(all_pairs) + 1):
            for combo in itertools.combinations(all_pairs, r):
                if len(connected_components(n, combo)) != 1:
                    continue
                if _canonical_edges(n, combo) == combo:
                    found.append(combo)
        found.sort(key=lambda es: (len(es), es))
        for es in found:
            yield Graph(n, es)


@pytest.mark.parametrize("max_n", range(1, 7))
def test_generator_matches_brute_force(max_n):
    assert list(generate_connected_graphs(max_n)) == list(
        reference_connected_graphs(max_n)
    )


def test_generator_counts_match_census():
    per_n = {}
    for g in generate_connected_graphs(7):
        assert g.is_canonical() and is_connected(g)
        assert _canonical_edges(g.n, g.edges) == g.edges
        per_n[g.n] = per_n.get(g.n, 0) + 1
    # OEIS A001349: connected graphs on n unlabeled vertices
    assert per_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_generator_rejects_large_n():
    for max_n in (0, 8):
        with pytest.raises(ValueError):
            list(generate_connected_graphs(max_n))


def test_survey_one_k5():
    record, cert_doc = survey_one(to_graph6(complete_graph(5)))
    assert record["planar"] is False
    assert record["has_z2"] is True
    assert record["shapes"] == ["2+2+1"]
    assert record["error"] is None
    assert record["certificate"] == certificate_filename(record["id"])
    assert cert_doc is not None and cert_doc["prime"] == 2


def test_survey_one_planar():
    record, cert_doc = survey_one(to_graph6(cycle_graph(5)))
    assert record["planar"] is True
    assert record["has_z2"] is False
    assert record["certificate"] is None
    assert cert_doc is None


def test_run_survey_cache_reuse(tmp_path):
    cache = str(tmp_path / "cache")
    graphs = [complete_graph(5), cycle_graph(4)]
    first = run_survey(graphs, cache_dir=cache)
    # the cache now fully answers the second run, runtimes included
    second = run_survey(graphs, cache_dir=cache)
    assert first == second
    cached_files = sorted(p.name for p in (tmp_path / "cache").glob("*.json"))
    assert len(cached_files) == 2


def test_run_survey_parallel_matches_serial(tmp_path):
    graphs = list(generate_connected_graphs(4))
    serial = run_survey(graphs, cache_dir=str(tmp_path / "c1"), jobs=1)
    parallel = run_survey(graphs, cache_dir=str(tmp_path / "c2"), jobs=3)

    def strip_timing(records):
        return [{k: v for k, v in r.items() if k != "runtime_s"} for r in records]

    assert strip_timing(serial) == strip_timing(parallel)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(64, 8, 3), (2, 8, 2), (64, 2, 2), (64, None, None), (1, 8, None)],
)
def test_run_survey_caps_workers(tmp_path, monkeypatch, jobs, cpus, workers):
    created = []

    class SerialPool:
        """Records max_workers and maps in this process; starts no worker."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("cshom.survey.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("cshom.survey.os.cpu_count", lambda: cpus)
    graphs = [complete_graph(5), cycle_graph(4), cycle_graph(5)]
    records = run_survey(graphs, cache_dir=str(tmp_path / "cache"), jobs=jobs)
    assert len(records) == 3
    assert created == ([] if workers is None else [workers])


def test_run_survey_writes_verifiable_certificates(tmp_path):
    certs = tmp_path / "certs"
    run_survey(
        [complete_graph(5)],
        cache_dir=str(tmp_path / "cache"),
        cert_dir=str(certs),
    )
    files = list(certs.glob("*.cert.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert doc["verdict"] == {"cycle": True, "doubled": True, "not_in_image": True}


def test_survey_one_reuses_scan_complex_for_certificate(monkeypatch):
    import cshom.certificates
    import cshom.survey

    g = complete_graph(6)  # non-planar, scanned at k = 2 and k = 3
    host_shape = scan_shapes(g.n)[0]
    builds = []

    def counting(original):
        def build(graph, shape, *args, **kwargs):
            builds.append((graph, shape))
            return original(graph, shape, *args, **kwargs)

        return build

    for module in (cshom.survey, cshom.certificates):
        monkeypatch.setattr(
            module, "build_restricted_complex", counting(module.build_restricted_complex)
        )
    record, doc = survey_one(to_graph6(g))
    assert record["planar"] is False and doc is not None
    # the scan and the last lift stage; the certificate document reuses the
    # complex the last lift stage verified on
    assert builds.count((g, host_shape)) == 2


def _scan_build_counts(monkeypatch, graphs, cache):
    """standardize and straighten calls made inside the scan builds of one
    serial run_survey (the certificate's own builds are left out)."""
    counts = {"scan": False, "standardize": 0, "straighten": 0}

    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += counts["scan"]
            return original(*args, **kwargs)

        return call

    build = cshom.survey.build_restricted_complex

    def scan_build(*args, **kwargs):
        counts["scan"] = True
        try:
            return build(*args, **kwargs)
        finally:
            counts["scan"] = False

    with monkeypatch.context() as m:
        for name in ("standardize", "straighten"):
            m.setattr(cshom.complexes, name, counting(name, getattr(cshom.complexes, name)))
        m.setattr(cshom.survey, "build_restricted_complex", scan_build)
        run_survey(graphs, cache_dir=str(cache), jobs=1)
    return counts["standardize"], counts["straighten"]


def test_run_survey_does_each_graph_independent_step_once(tmp_path, monkeypatch):
    graphs = list(generate_connected_graphs(6))
    templates = 0
    order_types = set()
    for n in range(4, 7):
        mu = Partition((2,) + (1,) * (n - 2))
        for shape in scan_shapes(n):
            templates += len(enumerate_ssyt(shape, mu))
    for g in graphs:
        for shape in scan_shapes(g.n):
            nu = Partition((2, 2) + (1,) * (g.n - 4))
            patterns = range(len(enumerate_ssyt(shape, nu)))
            for i, j in edge_pairs_by_type(g)[0]:
                for e, f in ((g.edges[i], g.edges[j]), (g.edges[j], g.edges[i])):
                    below = [v for v in range(1, g.n + 1) if v not in e]
                    ranks = tuple(below.index(v) for v in f)
                    order_types.update((shape.parts, ranks, l) for l in patterns)
    forward = _scan_build_counts(monkeypatch, graphs, tmp_path / "a")
    random.Random(3).shuffle(graphs)
    shuffled = _scan_build_counts(monkeypatch, graphs, tmp_path / "b")
    # one standardize per template pattern of each (n, shape), one
    # straighten per d2 order type, whatever the input order
    assert forward == shuffled == (templates, len(order_types))


def test_run_survey_recomputes_entries_of_an_older_cache_version(tmp_path):
    # a row cached under cshom-survey/1 holds a witness from the dense-SNF
    # solve, one under /2 a witness from the Markowitz pivot order; both
    # must be recomputed, never served
    cache = tmp_path / "cache"
    cache.mkdir()
    g6 = to_graph6(complete_graph(5))
    bogus = {"id": g6, "n": 5, "m": 10, "planar": True, "shapes": [],
             "has_z2": False, "certificate": None, "runtime_s": 0.0, "error": None}
    for version in ("cshom-survey/1", "cshom-survey/2"):
        stale = hashlib.sha256(f"{version}|{g6}".encode()).hexdigest()[:24]
        (cache / f"{stale}.json").write_text(
            json.dumps({"record": bogus, "certificate_doc": None}) + "\n"
        )
    [record] = run_survey([g6], cache_dir=str(cache))
    assert record != bogus
    assert record["planar"] is False and record["has_z2"] is True
    assert len(list(cache.glob("*.json"))) == 3


def _no_torsion(d1, d2):
    return HomologyResult(betti=0, invariant_factors=())


def test_run_survey_aborts_on_nonplanar_graph_without_z2(tmp_path, monkeypatch):
    # K5 (graph6 D~{) is non-planar; a scan that reports no torsion there
    # contradicts the certificate, so the survey aborts instead of writing
    monkeypatch.setattr("cshom.survey.homology_group", _no_torsion)
    cache = tmp_path / "cache"
    with pytest.raises(RuntimeError, match="torsion invariant violated.*D~{"):
        run_survey(["D~{"], cache_dir=str(cache))
    assert list(cache.glob("*.json")) == []


def test_survey_one_records_a_failed_certification(monkeypatch):
    def failing(g):
        raise LiftFailed("stage 2 did not verify")

    monkeypatch.setattr("cshom.survey.certify_nonplanar", failing)
    record, cert_doc = survey_one("D~{")
    assert record["error"] == "LiftFailed: stage 2 did not verify"
    assert record["planar"] is False  # from the is_planar fallback
    assert record["has_z2"] is True
    assert record["certificate"] is None
    assert cert_doc is None
