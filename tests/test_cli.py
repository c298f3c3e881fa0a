import argparse
import json
import re
from pathlib import Path

import pytest

import funbox as fb
from funbox.campaigns import CAMPAIGN_NAMES, CAMPAIGNS, random_permutation
from funbox.cli import GEN_EDGE_COUNTS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_hypercube_stdout(capsys):
    code, out = run_cli(capsys, "gen", "hypercube", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 8 and len(data["edges"]) == 12


def test_gen_abc_with_perm_and_compute(tmp_path, capsys):
    gpath = tmp_path / "abc.json"
    code, _ = run_cli(
        capsys, "gen", "abc", "--n", "4", "--perm", "2,1,4,3", "-o", str(gpath)
    )
    assert code == 0
    code, out = run_cli(capsys, "compute", "sd-pair", "-i", str(gpath), "--x", "0", "--y", "1")
    assert code == 0
    assert json.loads(out)["sd"] >= 0


def test_compute_fun_vertex(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    c5 = fb.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    gpath.write_text(json.dumps(fb.graph_to_json(c5)))
    code, out = run_cli(capsys, "compute", "fun-vertex", "-i", str(gpath), "--vertex", "0")
    assert code == 0
    data = json.loads(out)
    assert data["fun"] == 2
    assert data["witness"]["args"] == [1, 2]


def test_compute_graph_level(tmp_path, capsys):
    gpath = tmp_path / "p4.json"
    p4 = fb.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    gpath.write_text(json.dumps(fb.graph_to_json(p4)))
    code, out = run_cli(capsys, "compute", "fun-graph", "-i", str(gpath))
    assert code == 0 and json.loads(out)["fun_graph"] == 1
    code, out = run_cli(capsys, "compute", "sd-graph", "-i", str(gpath))
    assert code == 0 and json.loads(out)["sd_graph"] == 1


def test_witness_interval(tmp_path, capsys):
    rpath = tmp_path / "rep.json"
    rpath.write_text(
        json.dumps({"scale_denominator": 1, "intervals": [[2 * i, 2 * i + 3] for i in range(12)]})
    )
    code, out = run_cli(capsys, "witness", "interval", "-i", str(rpath))
    assert code == 0
    data = json.loads(out)
    assert len(data["args"]) <= 8
    assert len(data["table_bits"]) == 2 ** len(data["args"])


def test_realize_abc_pipeline(tmp_path, capsys):
    gpath = tmp_path / "abc.json"
    run_cli(capsys, "gen", "abc", "--n", "3", "--seed", "5", "-o", str(gpath))
    code, out = run_cli(capsys, "realize", "abc-units", "-i", str(gpath))
    assert code == 0
    bs = json.loads(out)
    assert bs["d"] == 2 and len(bs["boxes"]) == 9
    code, out = run_cli(capsys, "realize", "abc-intervals", "-i", str(gpath))
    assert code == 0
    assert len(json.loads(out)["intervals"]) == 9


def test_realize_pointbox_pipeline(tmp_path, capsys):
    ppath = tmp_path / "pb.json"
    code, _ = run_cli(
        capsys, "realize", "pointbox-plane", "--n", "2", "--i", "2", "-o", str(ppath)
    )
    assert code == 0
    code, out = run_cli(capsys, "realize", "pointbox-r3", "-i", str(ppath))
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 3 and len(data["boxes"]) == 8


def test_verify_exit_codes_and_report(tmp_path, capsys):
    rpath = tmp_path / "report.json"
    code, _ = run_cli(
        capsys,
        "verify", "gk-sd", "--sizes", "2", "--output", str(rpath),
    )
    assert code == 0
    report = json.loads(rpath.read_text())
    assert report["ok"] and report["campaign"] == "gk-sd"
    mdpath = tmp_path / "report.md"
    code, _ = run_cli(
        capsys, "report", "--in", str(rpath), "--format", "md", "-o", str(mdpath)
    )
    assert code == 0
    assert "# Campaign `gk-sd`" in mdpath.read_text()


def test_gen_gk_abc_feeds_realize(tmp_path, capsys):
    gpath = tmp_path / "gkabc.json"
    code, _ = run_cli(capsys, "gen", "gk-abc", "--k", "2", "-o", str(gpath))
    assert code == 0
    assert json.loads(gpath.read_text())["n"] == 48
    code, out = run_cli(capsys, "realize", "abc-intervals", "-i", str(gpath))
    assert code == 0
    assert len(json.loads(out)["intervals"]) == 48


def test_verify_config_file(tmp_path, capsys):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"seed": 3, "trials": 5}))
    code, _ = run_cli(capsys, "verify", "lemma-sd", "--config", str(cpath))
    assert code == 0


def test_usage_error_exit_2(tmp_path, capsys):
    code, _ = run_cli(capsys, "compute", "fun-vertex", "-i", str(tmp_path / "missing.json"))
    assert code == 2
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1], [1, 0]]}))  # duplicate
    code, _ = run_cli(capsys, "compute", "fun-graph", "-i", str(gpath))
    assert code == 2


def test_argparse_usage_error_is_2(capsys):
    code = main(["gen", "not-a-family"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not-a-family" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma-sd", "--trials", "0"],
        ["verify", "hni", "--sizes", "0"],
    ],
)
def test_verify_bad_config_is_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""


def test_verify_config_file_must_be_object(tmp_path, capsys):
    cpath = tmp_path / "cfg.json"
    cpath.write_text("[1, 2]")
    code, _ = run_cli(capsys, "verify", "lemma-sd", "--config", str(cpath))
    assert code == 2


def test_verify_cli_overrides_config_file(tmp_path, capsys):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"seed": 3, "trials": 500}))
    rpath = tmp_path / "r.json"
    code, _ = run_cli(
        capsys, "verify", "lemma-sd", "--config", str(cpath), "--trials", "2", "-o", str(rpath)
    )
    assert code == 0
    report = json.loads(rpath.read_text())
    assert report["config"]["seed"] == 3 and report["summary"]["total"] == 2


@pytest.mark.parametrize(
    "payload",
    [
        [[0, 1]],
        {"edges": [[0, 1]]},
        {"n": 2, "edges": [["0", "1"]]},
        {"n": 2, "edges": [[0.0, 1]]},
        {"n": True, "edges": []},
    ],
)
def test_malformed_graph_json_is_2(tmp_path, capsys, payload):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(payload))
    code = main(["compute", "fun-graph", "-i", str(gpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _q4_file(tmp_path):
    path = tmp_path / "q4.json"
    path.write_text(json.dumps(fb.graph_to_json(fb.hypercube(4)[0])))
    return str(path)


def _json_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _labeled_graph(key, label):
    return {"n": 2, "edges": [[0, 1]], "labels": {str(key): label}}


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda t: ["compute", "fun-graph", "-i", _q4_file(t)],
        lambda t: ["compute", "sd-graph", "-i", _q4_file(t)],
        lambda t: ["gen", "hni", "--n", "7", "--i", "7"],
        lambda t: ["witness", "interval", "-i", _json_file(t, "r.json", [[0, 1], [1, 2]])],
        lambda t: ["verify", "hni", "--config", _json_file(t, "c.json", {"sizes": 3})],
        lambda t: ["verify", "gk-sd", "--sizes", "1"],
        lambda t: ["gen", "abc", "--n", "1000"],
        lambda t: ["gen", "gk-abc", "--k", "6"],
        lambda t: ["gen", "half", "--n", "2000"],
        lambda t: ["compute", "fun-graph", "-i", _json_file(t, "g.json", _labeled_graph(1, 5))],
        lambda t: ["compute", "fun-graph", "-i", _json_file(t, "g.json", _labeled_graph("a", "x"))],
        lambda t: ["verify", "lemma-sd", "--sizes", "0"],
        lambda t: ["verify", "fun-sd-bound", "--sizes=-1"],
        lambda t: ["verify", "gk-sd", "--sizes", "2,6"],
        lambda t: ["verify", "lemma-sd", "--sizes", "1449", "--trials", "1"],
        lambda t: ["verify", "thm-fun8", "--sizes", "5,1449", "--trials", "1"],
        lambda t: ["verify", "abc-realize", "--sizes", "649", "--trials", "1"],
        lambda t: ({"FUNBOX_MAX_N": "abc"}, ["compute", "fun-graph", "-i", _q4_file(t)]),
        lambda t: ["compute", "sd-graph", "-i", _q4_file(t), "--max-n", "-1"],
        lambda t: ["compute", "fun-graph", "-i", _q4_file(t), "--max-n", "abc"],
        lambda t: ["verify", "nope"],
        lambda t: ["compute", "fun-vertex"],
        lambda t: ["compute", "fun-graph", "-i", str(t)],
        lambda t: ["gen", "half", "-o", str(t)],
        lambda t: ["verify", "lemma-sd", "--workers", "0"],
        lambda t: ["verify", "lemma-sd", "--workers=-1"],
    ],
    ids=[
        "fun-graph-over-guard",
        "sd-graph-over-guard",
        "gen-hni-over-size-limit",
        "interval-json-top-level-list",
        "config-sizes-not-a-list",
        "gk-sd-k-below-2",
        "gen-abc-over-edge-limit",
        "gen-gk-abc-over-edge-limit",
        "gen-half-over-edge-limit",
        "graph-label-not-a-string",
        "graph-label-key-not-an-id",
        "sampled-size-0",
        "sampled-size-below-0",
        "gk-sd-over-edge-limit",
        "lemma-sd-over-edge-limit",
        "thm-fun8-over-edge-limit",
        "abc-realize-over-edge-limit",
        "max-n-env-not-an-integer",
        "max-n-below-0",
        "max-n-not-an-integer",
        "unknown-campaign",
        "compute-without-input",
        "input-is-a-directory",
        "output-is-a-directory",
        "workers-0",
        "workers-below-0",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, make_argv):
    argv = make_argv(tmp_path)
    if isinstance(argv, tuple):  # (environment, argv)
        env, argv = argv
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"intervals": 3},
        {"scale_denominator": 1},
        {"intervals": [[0, 1, 2]]},
        {"intervals": [[0, "1"]]},
        {"intervals": [[True, 1]]},
        {"intervals": [[0, 1.5]]},
        {"intervals": [[0, 1]], "scale_denominator": 1.0},
    ],
)
def test_malformed_interval_json_is_2(tmp_path, capsys, payload):
    code = main(["witness", "interval", "-i", _json_file(tmp_path, "r.json", payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"sizes": ["3"]},
        {"sizes": [True]},
        {"seed": "1"},
        {"trials": 2.0},
        {"trials": ""},
        {"limits": [12, 14]},
        {"limits": {"fun_max_n": None}},
        {"output": 5},
    ],
)
def test_malformed_config_json_is_2(tmp_path, capsys, payload):
    code = main(["verify", "hni", "--config", _json_file(tmp_path, "c.json", payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_BOXES = {"d": 2, "scale_denominator": 1, "boxes": [[[0, 2], [0, 2]]]}


@pytest.mark.parametrize(
    "payload",
    [
        [[1, 1]],
        {"box_system": _BOXES},
        {"points": [[1, 1]]},
        {"points": [[1, 1, 1]], "box_system": _BOXES},
        {"points": [[1.0, 1]], "box_system": _BOXES},
        {"points": [[1, 1]], "box_system": [_BOXES]},
        {"points": [[1, 1]], "box_system": {"d": 2, "scale_denominator": 1}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "boxes": 5}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "boxes": [5]}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "boxes": [[[0, 2]]]}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "boxes": [[[0, 2, 3], [0, 2]]]}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "boxes": [[[0.5, 1.9], [1.2, 2.9]]]}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "boxes": [[[True, 2], [0, 2]]]}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "boxes": [[["0", 2], [0, 2]]]}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "d": "2"}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "scale_denominator": 1.0}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "labels": [1]}},
        {"points": [[1, 1]], "box_system": {**_BOXES, "labels": {"1": "B:1"}}},
    ],
)
def test_malformed_box_system_json_is_2(tmp_path, capsys, payload):
    code = main(["realize", "pointbox-r3", "-i", _json_file(tmp_path, "pb.json", payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_readme_campaign_list_matches_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = re.search(r"^Campaigns: (.*?)\.", readme, re.M | re.S).group(1)
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == CAMPAIGN_NAMES


def test_verify_choices_match_table():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = commands.choices["verify"]
    campaign = next(a for a in verify._actions if a.dest == "campaign")
    assert campaign.choices == list(CAMPAIGNS)


def _gen_families():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices["gen"]._actions if a.dest == "family").choices


def test_readme_gen_usage_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"^funbox gen \{([^}]*)\}", readme, re.M).group(1).split("|")
    assert listed == _gen_families()


def test_gen_edge_guard_closed_forms_match_built_graphs():
    assert set(GEN_EDGE_COUNTS) < set(_gen_families())
    built = [("half", n, 0, fb.half_graph(n)[0]) for n in range(1, 9)]
    built += [("abc", n, 0, fb.abc_graph(n, random_permutation(n, n))[0]) for n in range(1, 9)]
    built += [("gk", 0, k, fb.g_k(k)[0]) for k in (2, 3, 4)]
    built += [("gk-abc", 0, k, fb.extend_gk_to_abc(*fb.g_k(k))[0]) for k in (2, 3)]
    for family, n, k, g in built:
        assert GEN_EDGE_COUNTS[family](n, k) == g.edge_count(), (family, n, k)


_REPORT = {
    "campaign": "gk-sd",
    "version": "0.1.0",
    "config": {"seed": 1},
    "ok": True,
    "summary": {"passed": 1, "total": 1, "failed": 0},
    "instances": [{"index": 0, "inputs": {"k": 2}, "outputs": {}, "pass": True}],
}
_INSTANCE = _REPORT["instances"][0]


@pytest.mark.parametrize("fmt", ["md", "json"])
@pytest.mark.parametrize(
    "payload",
    [
        [_REPORT],
        {k: v for k, v in _REPORT.items() if k != "version"},
        {**_REPORT, "summary": [1, 1]},
        {**_REPORT, "summary": {"passed": 1}},
        {**_REPORT, "instances": {"0": _INSTANCE}},
        {**_REPORT, "instances": [[0, {}, {}, True]]},
        {**_REPORT, "instances": [{k: v for k, v in _INSTANCE.items() if k != "pass"}]},
    ],
    ids=[
        "top-level-list",
        "no-version",
        "summary-not-object",
        "summary-without-total",
        "instances-not-list",
        "instance-not-object",
        "instance-without-pass",
    ],
)
def test_malformed_report_is_2(tmp_path, capsys, payload, fmt):
    code = main(["report", "--in", _json_file(tmp_path, "r.json", payload), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_minimal_report_renders(tmp_path, capsys, fmt):
    path = _json_file(tmp_path, "r.json", _REPORT)
    code, out = run_cli(capsys, "report", "--in", path, "--format", fmt)
    assert code == 0 and "gk-sd" in out
