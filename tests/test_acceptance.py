"""Acceptance suite: seven criteria, one test (and one pass/fail line) each.

Every criterion pins exact expected values and a wall-clock budget.  All
arithmetic in the package is exact, so there are no numeric tolerances
anywhere; the only tolerances are the time budgets, asserted at the end of
each criterion.
"""

import itertools
import json
import math
import random
import time

import pytest

from cshom.certificates import (
    canonical_certificates,
    certificate_from_dict,
    certificate_to_dict,
    certify_nonplanar,
    seed_certificate,
)
from cshom.cli import main as cli_main
from cshom.complexes import build_restricted_complex
from cshom.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    petersen_graph,
    subdivide,
)
from cshom.intlinalg import homology_group, mat_mul, smith_normal_form
from cshom.survey import generate_connected_graphs, run_survey, write_csv
from cshom.tableaux import Partition
from cshom.verify import run_battery
from groupalg import oracle_restricted_matrices
from helpers import criterion3_graphs, criterion4_graphs, determinant


def _lists(rows):
    return [list(r) for r in rows]


def _h1(g, shape):
    c = build_restricted_complex(g, shape)
    return homology_group(_lists(c.d1), _lists(c.d2))


def test_criterion1_verification_battery_exact_under_5s():
    t0 = time.perf_counter()
    results = run_battery()
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, f"battery failures: {[(r.name, r.detail) for r in failed]}"
    assert len(results) == 13
    sab = [r for r in run_battery(sabotage=True) if not r.passed]
    assert [r.name for r in sab] == ["degree2-column"], "battery cannot discriminate"
    assert elapsed < 5.0, f"battery took {elapsed:.2f}s"
    print(f"criterion 1 PASS: 13/13 exact checks in {elapsed:.2f}s")


def test_criterion2_pinned_certificates_and_torsion_under_30s_each():
    seeds = canonical_certificates()
    for seed in seeds:
        t0 = time.perf_counter()
        cert = seed_certificate(seed)
        c = build_restricted_complex(seed.graph, seed.shape)
        from cshom.intlinalg import check_certificate

        verdict = check_certificate(cert, c)
        assert verdict.cycle and verdict.doubled and verdict.not_in_image
        hg = homology_group(_lists(c.d1), _lists(c.d2))
        assert hg.has_z2, f"{seed.kind}: no even invariant factor"
        assert (hg.betti, hg.invariant_factors) == (0, (2,))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"{seed.kind} took {elapsed:.2f}s"
    print("criterion 2 PASS: both pinned certificates verify and their "
          "complexes show an order-2 factor")


def test_criterion3_oracle_equality_under_600s():
    t0 = time.perf_counter()
    cases = criterion3_graphs()
    assert len(cases) == 37
    for g in cases:
        shape = Partition.two_column(g.n, 2)
        c = build_restricted_complex(g, shape)
        d1, d2 = oracle_restricted_matrices(g, shape)
        assert _lists(c.d1) == d1, f"d1 mismatch for {g.edges!r}"
        assert _lists(c.d2) == d2, f"d2 mismatch for {g.edges!r}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"oracle comparison took {elapsed:.1f}s"
    print(f"criterion 3 PASS: rewriting equals group-algebra oracle on "
          f"{len(cases)} graphs in {elapsed:.1f}s")


def test_criterion4_differentials_compose_to_zero():
    t0 = time.perf_counter()
    checked = 0
    graphs = criterion4_graphs()
    for g in graphs:
        for k in (2, 3):
            if 2 * k > g.n:
                continue
            c = build_restricted_complex(g, Partition.two_column(g.n, k))
            if c.basis2:
                prod = mat_mul(_lists(c.d1), _lists(c.d2))
                assert not any(x for row in prod for x in row), (
                    f"d1 d2 != 0 for {g.edges!r} k={k}"
                )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"exactness sweep took {elapsed:.1f}s"
    print(f"criterion 4 PASS: d1 d2 = 0 on {checked} complexes "
          f"({len(graphs)} graphs) in {elapsed:.1f}s")


def test_criterion5_certify_and_recheck_under_600s(tmp_path):
    t0 = time.perf_counter()
    k5 = complete_graph(5)
    k5s1 = subdivide(k5, (1, 2))
    k5s2 = subdivide(k5s1, (3, 4))
    k5s3 = subdivide(k5s2, (2, 6))
    k33 = complete_bipartite((1, 2, 3), (4, 5, 6))
    k33_pendant = Graph.from_edges(7, list(k33.edges) + [(1, 7)])
    targets = [
        ("k5", k5),
        ("k33", k33),
        ("k5-sub1", k5s1),
        ("k5-sub2", k5s2),
        ("k5-sub3", k5s3),
        ("k6", complete_graph(6)),
        ("k33-pendant", k33_pendant),
        ("petersen", petersen_graph()),
    ]
    for name, g in targets:
        cert = certify_nonplanar(g)
        assert cert.graph == g
        doc = certificate_to_dict(cert)
        assert doc["verdict"] == {
            "cycle": True, "doubled": True, "not_in_image": True,
        }, f"{name}: emitted verdict not all-true"
        path = tmp_path / f"{name}.cert.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        assert cli_main(["check", str(path)]) == 0, f"{name}: recheck failed"
        if g.n <= 7:
            hg = _h1(g, cert.shape)
            assert hg.has_z2, f"{name}: homology shows no order-2 torsion"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"certification sweep took {elapsed:.1f}s"
    print(f"criterion 5 PASS: {len(targets)} graphs certified and "
          f"recheck-verified in {elapsed:.1f}s")


def _snf_suite():
    suite = [
        [[0]],
        [[7]],
        [[-2]],
        [[2, 4], [6, 8]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 0, 0], [0, 0, 0]],
        [[12, 8], [8, 12]],
    ]
    rng = random.Random(424242)
    while len(suite) < 200:
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        bound = rng.choice([1, 4, 10, 60])
        suite.append(
            [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        )
    return suite


def _determinantal_divisor(a, k):
    g = 0
    for ri in itertools.combinations(range(len(a)), k):
        for ci in itertools.combinations(range(len(a[0])), k):
            g = math.gcd(g, determinant([[a[r][c] for c in ci] for r in ri]))
    return g


def test_criterion6_snf_transforms_and_divisors_on_200_matrices():
    t0 = time.perf_counter()
    suite = _snf_suite()
    assert len(suite) == 200
    for a in suite:
        s, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        d = [s[i][i] for i in range(min(len(s), len(s[0])))]
        prod = 1
        for k in range(1, min(len(a), len(a[0])) + 1):
            prod *= d[k - 1]
            assert abs(prod) == _determinantal_divisor(a, k), (
                f"divisor mismatch at k={k} for {a!r}"
            )
    elapsed = time.perf_counter() - t0
    print(f"criterion 6 PASS: SNF transforms unimodular and diagonal matches "
          f"determinantal divisors on 200 matrices in {elapsed:.1f}s")


def test_criterion7_survey_census_under_1800s(tmp_path):
    t0 = time.perf_counter()
    graphs = list(generate_connected_graphs(6))
    assert len(graphs) == 143
    records = run_survey(
        graphs, cache_dir=str(tmp_path / "cache"), jobs=2
    )
    assert len(records) == 143
    assert all(r["error"] is None for r in records)
    violations = [r for r in records if r["planar"] is False and not r["has_z2"]]
    assert not violations, f"torsion invariant violated: {violations}"
    nonplanar = [r for r in records if r["planar"] is False]
    assert len(nonplanar) == 14
    assert all(r["has_z2"] for r in nonplanar)
    # deterministic reruns: warm cache reproduces the report byte for byte
    import io

    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(records, buf1)
    write_csv(
        run_survey(graphs, cache_dir=str(tmp_path / "cache"), jobs=2), buf2
    )
    assert buf1.getvalue() == buf2.getvalue()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"survey took {elapsed:.1f}s"
    print(f"criterion 7 PASS: 143-graph census, 14 non-planar all with "
          f"order-2 torsion, byte-stable rerun, in {elapsed:.1f}s")
