"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cshom  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def small_homology(seed: int) -> workloads.Inputs:
    inputs = workloads.setup("homology", seed)
    inputs.homology = [op for op in inputs.homology if op[0] in ("petersen k=2", "K8 k=2")]
    return inputs


def test_injected_wrong_expectation_counts_one_failed_op():
    inputs = small_homology(seed=3)
    result = workloads.Runner().run_pass(inputs)
    assert (result.attempted, result.failed) == (2, 0)
    wrong = workloads.Runner(expected={"petersen k=2": (0, ())}).run_pass(inputs)
    assert (wrong.attempted, wrong.failed) == (2, 1)


def test_undocumented_exception_is_a_failed_op_and_the_pass_goes_on():
    inputs = small_homology(seed=4)
    label, g, shape, expected = inputs.homology[0]
    # a shape of the wrong size makes the build raise ValueError
    inputs.homology[0] = (label, g, cshom.Partition.two_column(g.n + 2, 2), expected)
    result = workloads.Runner().run_pass(inputs)
    assert (result.attempted, result.failed) == (2, 1)


def test_planar_refusal_is_the_pinned_outcome():
    inputs = workloads.setup("certify", seed=5)
    inputs.certify = [op for op in inputs.certify if op[0] in ("grid3x5", "K33-sub3")]
    result = workloads.Runner().run_pass(inputs)
    kinds = [(kind, label, ok) for kind, label, _, ok in result.ops]
    assert kinds == [
        ("certify", "K33-sub3", True),
        ("certify", "grid3x5", True),
        ("check", "K33-sub3", True),
    ]


def test_tracer_wraps_every_binding_and_restores_originals():
    original = cshom.complexes.straighten
    assert original is cshom.tableaux.straighten
    with tracer_mod.Tracer():
        wrapped = cshom.tableaux.straighten
        assert wrapped is not original
        assert cshom.complexes.straighten is wrapped
        assert cshom.certificates.straighten is wrapped
        assert cshom.straighten is wrapped
        assert cshom.certificates.build_restricted_complex is cshom.build_restricted_complex
    assert cshom.complexes.straighten is original
    assert cshom.tableaux.straighten is original
    assert cshom.straighten is original


def test_traced_counts_repeat_exactly_and_no_binding_is_missed():
    inputs = small_homology(seed=6)
    workloads.Runner().run_pass(inputs)
    tracer = tracer_mod.Tracer()
    runner = workloads.Runner(tracer)
    counts = []
    with tracer:
        for _ in range(2):
            tracer.reset()
            runner.run_pass(inputs)
            assert tracer_mod.missed_bindings(tracer.spans, "homology") == []
            metrics = tracer_mod.layer_metrics(tracer.spans)
            counts.append({k: v for k, v in metrics.items() if tracer_mod.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["complexes.build_calls"] == 2
    assert counts[0]["intlinalg.snfs_per_homology"] == 3


def test_zero_calls_are_reported_as_missed_bindings():
    missed = tracer_mod.missed_bindings([], "census")
    assert "survey.generate_connected_graphs" in missed
    assert "graphs.find_kuratowski_subdivision" in missed
    assert "certificates.certificate_from_dict" not in missed


def test_self_time_excludes_children():
    tracer = tracer_mod.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert inner.parent is outer and inner.root is outer
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)


def test_census_pass_uses_and_removes_its_own_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CSHOM_CACHE", str(tmp_path / "env-cache"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(workloads, "CENSUS_MAX_N", 4)
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path / "work")
    graphs = workloads.generate_op()
    expected = {
        "generate": (len(graphs), workloads.census_digest(graphs)),
        "survey": (len(graphs), len(graphs), (), True, 0, 0),
    }
    inputs = workloads.setup("census", seed=7)
    result = workloads.Runner(expected=expected).run_pass(inputs)
    assert (result.attempted, result.failed) == (2, 0)
    assert not list((tmp_path / "work").iterdir())
    assert not (tmp_path / "env-cache").exists()
    assert not (tmp_path / "home").exists()


def test_decisions_match_benchmark_json_and_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    decisions = json.loads((HERE / "decisions.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    emitted = set(tracer_mod.layer_metrics([])) | {
        "slowest_op_s", "certify_s", "check_s", "trace_overhead_s",
    }
    assert per_layer == emitted
    mapped = {m for row in decisions["layer_map"] for m in row["metrics"]}
    assert mapped == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"] for w in decisions["workloads"]} == set(workloads.WORKLOADS)
