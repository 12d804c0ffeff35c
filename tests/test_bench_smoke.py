"""One pass of every benchmark workload, run from the tier-1 suite.

The benchmark (perfbench/) drives the public cshom functions and wraps the
traced ones by name, so a change that breaks one of its ops, or stops
calling a traced function on a workload that is known to call it, fails
here rather than only in a benchmark run.  The benchmark's modules are
imported as they are; only their census work directory is redirected.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_of_each_workload_has_no_failed_op(workload):
    result = workloads.Runner().run_pass(workloads.make_inputs(workload, 1))
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_traced_pass_misses_no_binding(workload):
    spans = tracer.Tracer()
    with spans:
        result = workloads.Runner(spans).run_pass(workloads.make_inputs(workload, 1))
    assert result.failed == 0
    assert tracer.missed_bindings(spans.spans, workload) == []


def test_two_traced_census_passes_count_the_same():
    # the benchmark's --trace 1 gate: one set of inputs, whose census order
    # is reshuffled each pass, must give equal exact counts in both passes
    inputs = workloads.make_inputs("census", 1)
    spans = tracer.Tracer()
    counts = []
    for _ in range(2):
        spans.reset()
        with spans:
            result = workloads.Runner(spans).run_pass(inputs)
        assert result.failed == 0
        layers = tracer.layer_metrics(spans.spans)
        counts.append({k: v for k, v in layers.items() if tracer.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["tableaux.straighten_calls"] > 0
