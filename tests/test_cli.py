import json

import pytest

from cshom.certificates import CERTIFICATE_FORMAT
from cshom.cli import main
from cshom.errors import ComplexNotExact
from cshom.graphs import complete_graph, to_graph6
from cshom.intlinalg import HomologyResult
from helpers import call_budget


def _write_graph(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


K5_EDGE_LIST = "5 10 1 2 1 3 1 4 1 5 2 3 2 4 2 5 3 4 3 5 4 5\n"
K33_EDGE_LIST = "6 9 1 2 1 4 1 6 2 3 2 5 3 4 3 6 4 5 5 6\n"
C4_EDGE_LIST = "4 4 1 2 2 3 3 4 1 4\n"


def test_homology_text(tmp_path, capsys):
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    assert main(["homology", g]) == 0
    out = capsys.readouterr().out
    assert "shape 2+2+1: betti=0 torsion_factors=2 order2=yes" in out
    assert "order-2 torsion detected: yes" in out


def test_homology_json_and_shape_flag(tmp_path, capsys):
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    assert main(["homology", g, "--format", "json", "--shape", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["has_z2"] is True
    assert doc["shapes"] == [
        {"shape": [2, 2, 1], "betti": 0, "invariant_factors": [2], "has_z2": True}
    ]


def test_homology_shape_out_of_range(tmp_path, capsys):
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    assert main(["homology", g, "--shape", "3"]) == 2
    assert "shape parameter" in capsys.readouterr().err


def test_homology_loop_input_is_zero(tmp_path, capsys):
    g = _write_graph(tmp_path, "loop.txt", "5 11 1 1 " + K5_EDGE_LIST[5:])
    assert main(["homology", g]) == 0
    out = capsys.readouterr().out
    assert "every homology group is zero" in out
    assert "order-2 torsion detected: no" in out


def test_homology_reports_duplicate_edges(tmp_path, capsys):
    g = _write_graph(tmp_path, "dup.txt", "4 4 1 2 1 2 2 3 3 4\n")
    assert main(["homology", g, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["collapsed_multiedges"] == 1 and doc["m"] == 3
    assert main(["homology", g]) == 0
    out = capsys.readouterr().out
    assert "collapsed 1 duplicate edge(s)" in out
    assert "graph: n=4 m=3" in out


def test_certify_notes_duplicate_edges(tmp_path, capsys):
    g = _write_graph(tmp_path, "k5dup.txt", "5 11 1 2 " + K5_EDGE_LIST[5:])
    assert main(["certify", g]) == 0
    captured = capsys.readouterr()
    assert "note: certifying the simple graph underlying the input" in captured.err
    assert json.loads(captured.out)["graph"]["edges"] == [
        list(e) for e in complete_graph(5).edges
    ]


def test_homology_edge_list_header_split_across_lines(tmp_path, capsys):
    g = _write_graph(tmp_path, "p3.txt", "3\n2\n1 2\n2 3\n")
    assert main(["homology", g, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["m"]) == (3, 2)
    with pytest.raises(SystemExit):
        main(["homology", g, "--input-format", "edge-list"])


def test_homology_graph6_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(complete_graph(5)) + "\n"))
    assert main(["homology", "-"]) == 0
    assert "order-2 torsion detected: yes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, target", [("homology", "homology_group"), ("certify", "certify_nonplanar")]
)
def test_internal_failure_exit_code(tmp_path, capsys, monkeypatch, command, target):
    def broken(*args):
        raise ComplexNotExact("d1 d2 != 0")

    monkeypatch.setattr(f"cshom.cli.{target}", broken)
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    assert main([command, g]) == 3
    err = capsys.readouterr().err
    assert "internal failure: ComplexNotExact: d1 d2 != 0" in err
    assert "Traceback" not in err


def test_out_of_memory_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("cshom.cli.build_restricted_complex", exhausted)
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    assert main(["homology", g]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal failure: out of memory")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_homology_bad_input(tmp_path, capsys):
    g = _write_graph(tmp_path, "bad.txt", "not a graph\n")
    assert main(["homology", g]) == 2


def test_certify_check_round_trip(tmp_path, capsys):
    g = _write_graph(tmp_path, "k33.txt", K33_EDGE_LIST)
    cert = str(tmp_path / "out.cert.json")
    assert main(["certify", g, "--out", cert]) == 0
    capsys.readouterr()
    assert main(["check", cert]) == 0
    out = capsys.readouterr().out
    assert "certificate valid" in out
    doc = json.loads(open(cert).read())
    assert doc["verdict"] == {"cycle": True, "doubled": True, "not_in_image": True}
    assert doc["prime"] == 2


def test_certify_planar_exit_code(tmp_path, capsys):
    g = _write_graph(tmp_path, "c4.txt", C4_EDGE_LIST)
    assert main(["certify", g]) == 1
    assert "planar" in capsys.readouterr().err


def test_check_tampered_certificate(tmp_path, capsys):
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    cert = str(tmp_path / "k5.cert.json")
    assert main(["certify", g, "--out", cert]) == 0
    doc = json.loads(open(cert).read())
    key = next(iter(doc["h"]))
    doc["h"][key] += 1
    bad = str(tmp_path / "bad.cert.json")
    open(bad, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", bad]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_check_unbindable_certificate(tmp_path, capsys):
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    cert = str(tmp_path / "k5.cert.json")
    assert main(["certify", g, "--out", cert]) == 0
    doc = json.loads(open(cert).read())
    doc["h"]["99,1"] = 1
    bad = str(tmp_path / "unbound.cert.json")
    open(bad, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", bad]) == 2
    assert "does not bind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("h", []), ("h", None), ("witness_x", [1]), ("h", "missing")],
    ids=["h-list", "h-null", "witness-list", "h-missing"],
)
def test_check_non_object_fields(tmp_path, capsys, field, value):
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    cert = str(tmp_path / "k5.cert.json")
    assert main(["certify", g, "--out", cert]) == 0
    doc = json.loads(open(cert).read())
    if value == "missing":
        del doc[field]
    else:
        doc[field] = value
    bad = str(tmp_path / "bad.cert.json")
    open(bad, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", bad]) == 2
    err = capsys.readouterr().err
    assert "does not bind" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "path, value",
    [
        (("prime",), 2.9),
        (("h", 0), 0.7),
        (("graph", "edges", 0), [1.9, 2]),
        (("graph", "edges", 0), [1, 2, 3]),
        (("graph", "edges", 0), [1]),
    ],
    ids=["float-prime", "float-h", "float-edge", "long-edge", "short-edge"],
)
def test_check_rejects_non_integers_and_malformed_edges(tmp_path, capsys, path, value):
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    cert = str(tmp_path / "k5.cert.json")
    assert main(["certify", g, "--out", cert]) == 0
    doc = json.loads(open(cert).read())
    if path == ("h", 0):
        # added to an existing entry, so that truncation would restore it
        key = next(iter(doc["h"]))
        doc["h"][key] += value
    else:
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    bad = str(tmp_path / "bad.cert.json")
    open(bad, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", bad]) == 2
    captured = capsys.readouterr()
    assert "does not bind" in captured.err
    assert "Traceback" not in captured.err
    assert "confirmed" not in captured.out


@pytest.mark.parametrize("prime", [4, 6])
def test_check_rejects_composite_prime(tmp_path, capsys, prime):
    # d2 x = prime h with h outside the image only bounds the order of h by
    # prime; h has order 2, so "order-4 class confirmed" would be false
    g = _write_graph(tmp_path, "k5.txt", K5_EDGE_LIST)
    cert = str(tmp_path / "k5.cert.json")
    assert main(["certify", g, "--out", cert]) == 0
    doc = json.loads(open(cert).read())
    doc["prime"] = prime
    doc["witness_x"] = {k: v * prime // 2 for k, v in doc["witness_x"].items()}
    bad = str(tmp_path / "composite.cert.json")
    open(bad, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", bad]) == 2
    captured = capsys.readouterr()
    assert "does not bind" in captured.err and "prime" in captured.err
    assert "confirmed" not in captured.out


def test_check_garbage_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{")
    assert main(["check", str(p)]) == 2


def test_check_of_a_62_vertex_certificate_returns_promptly(tmp_path, capsys):
    # two disjoint edges on 62 vertices at shape (2,2,1^58): the zero class
    # binds and is a boundary.  Enumerating the semistandard patterns by
    # backtracking made exponentially many calls on this document.
    doc = {
        "format": CERTIFICATE_FORMAT,
        "prime": 2,
        "graph": {"n": 62, "edges": [[1, 2], [3, 4]]},
        "shape": [2, 2] + [1] * 58,
        "h": {},
        "witness_x": {},
    }
    p = tmp_path / "n62.json"
    p.write_text(json.dumps(doc))
    with call_budget("cshom.tableaux", 2_000_000):
        assert main(["check", str(p)]) == 1
    assert "FAIL not-in-image" in capsys.readouterr().out


def test_survey_generate_deterministic(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["survey", "--generate", "4", "--cache", cache, "--out", out1]) == 0
    assert main(["survey", "--generate", "4", "--cache", cache, "--out", out2]) == 0
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    text = b1.decode()
    assert text.splitlines()[0] == "id,n,m,planar,shapes,has_z2,certificate,runtime_s,error"
    assert len(text.splitlines()) == 1 + 10  # header + 10 connected graphs with n <= 4


def test_survey_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        to_graph6(complete_graph(5)) + "\n# comment\n" + C4_EDGE_LIST
    )
    cache = str(tmp_path / "cache")
    certs = str(tmp_path / "certs")
    assert main([
        "survey", str(corpus), "--cache", cache, "--cert-dir", certs,
        "--format", "jsonl",
    ]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 2
    by_n = {r["n"]: r for r in lines}
    assert by_n[5]["planar"] is False and by_n[5]["has_z2"] is True
    assert by_n[4]["planar"] is True and by_n[4]["has_z2"] is False
    cert_file = tmp_path / "certs" / by_n[5]["certificate"]
    assert cert_file.exists()
    assert main(["check", str(cert_file)]) == 0


def test_survey_refuses_corpus_graph_with_loop(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# comment\n" + C4_EDGE_LIST + "3 2 1 1 2 3\n")
    cache = tmp_path / "cache"
    assert main(["survey", str(corpus), "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert "corpus line 3" in err and "loop" in err
    assert "Traceback" not in err
    assert not cache.exists()


def test_survey_names_the_corpus_line_of_a_parse_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("D?{\n3 2 1 2\n")
    cache = tmp_path / "cache"
    assert main(["survey", str(corpus), "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: corpus line 2: expected 2 edges after header, got 1"
    assert not cache.exists()


def test_survey_refuses_corpus_graph_past_graph6_range(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(C4_EDGE_LIST + "63 1 1 2\n")
    cache = tmp_path / "cache"
    assert main(["survey", str(corpus), "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: corpus line 2: graph6 n > 62 not supported"
    assert not cache.exists()


def test_survey_corpus_collapses_duplicate_edges(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("4 5 1 2 2 3 3 4 1 4 2 1\n")
    cache = str(tmp_path / "cache")
    assert main(["survey", str(corpus), "--cache", cache, "--format", "jsonl"]) == 0
    [record] = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert (record["n"], record["m"], record["planar"]) == (4, 4, True)


def test_survey_without_input(capsys):
    assert main(["survey"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_survey_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cache = str(tmp_path / "cache")
    assert main(["survey", "--generate", "3", "--cache", cache, "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_verify_paper_pass_and_sabotage(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "13/13 checks passed" in out
    assert main(["verify-paper", "--sabotage"]) == 1
    out = capsys.readouterr().out
    assert "FAIL degree2-column" in out
    assert "12/13 checks passed" in out


def test_survey_abort_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "cshom.survey.homology_group",
        lambda d1, d2: HomologyResult(betti=0, invariant_factors=()),
    )
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("D~{\n")  # K5
    out = tmp_path / "report.csv"
    cache = str(tmp_path / "cache")
    assert main(["survey", str(corpus), "--cache", cache, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "SURVEY ABORTED" in err and "D~{" in err
    assert "Traceback" not in err
    assert not out.exists()
