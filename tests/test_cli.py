import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import funbox as fb
from funbox import cli, geometry
from funbox.campaigns import (
    CAMPAIGN_NAMES,
    CAMPAIGNS,
    CampaignConfig,
    random_permutation,
    render_markdown,
    verify_campaign,
)
from funbox.cli import build_parser, main
from funbox.constructions import FAMILY_SIZES
from funbox.graphs import GraphError
from test_geometry import flip_first_pair


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


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_verify_markdown_is_the_rendered_report(tmp_path, capsys, to_file):
    path = str(tmp_path / "report.md") if to_file else None
    argv = ["verify", "gk-sd", "--sizes", "2", "--format", "markdown"]
    code, out = run_cli(capsys, *argv, *(["-o", path] if to_file else []))
    assert code == 0
    cfg = CampaignConfig.from_json({"sizes": [2], "output": path, "format": "markdown"})
    expected = render_markdown(verify_campaign("gk-sd", cfg).to_json()) + "\n"
    assert (Path(path).read_text() if to_file else out) == expected
    assert out == ("" if to_file else expected)


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


def _sd_pair_argv(tmp_path, n):
    path = _json_file(tmp_path, "g.json", {"n": n, "edges": []})
    return ["compute", "sd-pair", "-i", path, "--x", "0", "--y", "1"]


def _labeled_graph(key, label):
    return {"n": 2, "edges": [[0, 1]], "labels": {str(key): label}}


# the campaigns that read sizes and refuse one below 1 (gk-sd refuses one below 2)
_SIZED_CAMPAIGNS = [name for name in CAMPAIGN_NAMES if name not in ("gk-sd", "refute")]


def _nested_file(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    return str(path)


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
        lambda t: ["compute", "fun-vertex", "-i", _q4_file(t), "--vertex", "0", "--max-n", "16"],
        lambda t: [*_sd_pair_argv(t, 5), "--max-n", "16"],
        lambda t: ["compute", "sd-graph", "-i", _q4_file(t), "--max-n", "-1"],
        lambda t: ["compute", "fun-graph", "-i", _q4_file(t), "--max-n", "abc"],
        lambda t: ["verify", "nope"],
        lambda t: ["compute", "fun-vertex"],
        lambda t: ["compute", "fun-vertex", "-i", _q4_file(t)],
        lambda t: ["compute", "sd-pair", "-i", _q4_file(t), "--y", "1"],
        lambda t: ["compute", "sd-pair", "-i", _q4_file(t), "--x", "0"],
        lambda t: ["compute", "fun-graph", "-i", str(t)],
        lambda t: ["gen", "half", "-o", str(t)],
        lambda t: ["verify", "lemma-sd", "--workers", "0"],
        lambda t: ["verify", "lemma-sd", "--workers=-1"],
        lambda t: _sd_pair_argv(t, (1 << 16) + 1),
        lambda t: _sd_pair_argv(t, 10**12),
        lambda t: ["verify", "hni", "--sizes", "6"],
        lambda t: ["gen", "hypercube", "--n", "17"],
        lambda t: ["gen", "hni", "--n", "1000000", "--i", "1000000"],
        lambda t: ["verify", "refute", "--trials", "100000000"],
        lambda t: ["verify", "lemma-sd", "--sizes", ",".join(["5"] * ((1 << 16) + 1))],
        lambda t: ["realize", "abc-units"],
        lambda t: ["realize", "abc-intervals"],
        lambda t: ["realize", "pointbox-r3"],
        lambda t: ["compute", "fun-graph", "-i", _nested_file(t)],
        lambda t: ["witness", "interval", "-i", _nested_file(t)],
        lambda t: ["verify", "hni", "--config", _nested_file(t)],
        lambda t: ["report", "--in", _nested_file(t)],
        lambda t: ["verify", "gk-sd", "--sizes", ""],
        lambda t: ["gen", "abc", "--n", "3", "--perm", ""],
        lambda t: ["verify", "gk-sd", "--sizes", "2,,3"],
        *(
            lambda t, name=name: ["verify", name, "--sizes", "0,5"]
            for name in _SIZED_CAMPAIGNS
        ),
        lambda t: ["verify", "gk-sd", "--sizes", "1,3"],
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
        "fun-vertex-with-max-n",
        "sd-pair-with-max-n",
        "max-n-below-0",
        "max-n-not-an-integer",
        "unknown-campaign",
        "compute-without-input",
        "fun-vertex-without-vertex",
        "sd-pair-without-x",
        "sd-pair-without-y",
        "input-is-a-directory",
        "output-is-a-directory",
        "workers-0",
        "workers-below-0",
        "graph-n-over-limit",
        "graph-n-far-over-limit",
        "hni-over-vertex-limit",
        "gen-hypercube-over-size-limit",
        "gen-hni-far-over-size-limit",
        "trials-over-cap",
        "sizes-over-cap",
        "realize-abc-units-without-input",
        "realize-abc-intervals-without-input",
        "realize-pointbox-r3-without-input",
        "compute-nested-json",
        "witness-nested-json",
        "config-nested-json",
        "report-nested-json",
        "sizes-empty",
        "perm-empty",
        "sizes-empty-item",
        *(f"{name}-size-0" for name in _SIZED_CAMPAIGNS),
        "gk-sd-size-1",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, make_argv):
    code = main(make_argv(tmp_path))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "gk-sd", "--sizes", ""],
        ["gen", "abc", "--n", "3", "--perm", ""],
        ["verify", "gk-sd", "--sizes", "2,,3"],
        ["gen", "abc", "--n", "3", "--perm", "1,x,3"],
    ],
    ids=["sizes-empty", "perm-empty", "sizes-empty-item", "perm-not-an-integer"],
)
def test_integer_list_flags_name_the_flag(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: argument {argv[-2]}: expected comma-separated")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("what", ["fun-graph", "sd-graph"])
def test_funbox_max_n_env_is_not_a_guard(tmp_path, capsys, monkeypatch, what):
    monkeypatch.setenv("FUNBOX_MAX_N", "abc")
    path = _json_file(tmp_path, "c5.json", {"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]})
    code, out = run_cli(capsys, "compute", what, "-i", path)
    assert code == 0 and json.loads(out) == {what.replace("-", "_"): 2}


@pytest.mark.parametrize(
    "campaign", [name for name in CAMPAIGN_NAMES if name != "refute"]  # refute draws no size
)
def test_empty_config_sizes_exits_2_with_one_line(tmp_path, capsys, campaign):
    config = _json_file(tmp_path, "c.json", {"sizes": [], "trials": 2})
    code = main(["verify", campaign, "--config", config])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: sizes must not be empty; omit it for the defaults\n"


@pytest.mark.parametrize("campaign", ["lemma-sd", "thm-fun8"])
def test_interval_campaign_edge_cap_names_the_interval_model(capsys, campaign):
    code = main(["verify", campaign, "--sizes", "5,1449", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: interval model with n=1449 has 1049076 edges")


def test_realize_failing_its_self_check_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "abc.json"
    main(["gen", "abc", "--n", "4", "--seed", "3", "-o", str(gpath)])
    build = geometry.graph_from_intervals
    monkeypatch.setattr(geometry, "graph_from_intervals", lambda r: flip_first_pair(build(r)))
    code = main(["realize", "abc-intervals", "-i", str(gpath)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: interval model does not reproduce its target graph\n"


_ABC2 = fb.graph_to_json(fb.abc_graph(2)[0])  # A = {0, 1}, B = {2, 3}, C = {4, 5}
_ORDER_RULE = r"not a half graph: pair \(\d+,\d+\) violates the order rule"


def _without(edges, edge):
    assert edge in edges
    return [e for e in edges if e != edge]


@pytest.mark.parametrize("kind", ["abc-units", "abc-intervals"])
@pytest.mark.parametrize(
    "payload,message",
    [
        ({"n": 6, "edges": _ABC2["edges"]}, "no per-vertex part labels"),
        (fb.graph_to_json(fb.half_graph(2)[0]), "label 'X:1' is not A/B/C"),
        ({**_ABC2, "edges": _ABC2["edges"][1:]}, r"A is not a clique: \(0,1\) missing"),
        ({**_ABC2, "edges": _ABC2["edges"] + [[0, 4]]}, r"forbidden A-C edge \(0,4\)"),
        ({**_ABC2, "edges": _without(_ABC2["edges"], [0, 3])}, _ORDER_RULE),
        ({**_ABC2, "edges": _without(_ABC2["edges"], [2, 5])}, _ORDER_RULE),
    ],
    ids=[
        "no-labels",
        "labels-not-abc",
        "part-not-a-clique",
        "a-c-edge",
        "a-b-half-graph-broken",
        "b-c-half-graph-broken",
    ],
)
def test_realize_abc_refuses_a_graph_that_is_not_abc(tmp_path, capsys, kind, payload, message):
    code = main(["realize", kind, "-i", _json_file(tmp_path, "g.json", payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert re.search(message, captured.err)


# One entry more than a file may hold (graphs.MAX_VERTICES). Each entry is
# malformed, so a reader without the cap fails fast on its first entry
# instead, with another message.
_OVER_FILE_CAP = (1 << 16) + 1


def _pointbox_file(tmp_path, points, boxes):
    box_system = {"d": 2, "scale_denominator": 1, "boxes": boxes}
    return _json_file(tmp_path, "pb.json", {"points": points, "box_system": box_system})


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda t: [
            "witness", "interval", "-i",
            _json_file(t, "r.json", {"intervals": [[1, 0]] * _OVER_FILE_CAP}),
        ],
        lambda t: [
            "realize", "pointbox-r3", "-i",
            _pointbox_file(t, [[1, 1, 1]] * _OVER_FILE_CAP, [[[0, 2], [0, 2]]]),
        ],
        lambda t: [
            "realize", "pointbox-r3", "-i",
            _pointbox_file(t, [[1, 1]], [[[0, 2]]] * _OVER_FILE_CAP),
        ],
    ],
    ids=["intervals", "pointbox-points", "boxes"],
)
def test_file_list_over_the_cap_exits_2_naming_the_limit(tmp_path, capsys, make_argv):
    code = main(make_argv(tmp_path))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{_OVER_FILE_CAP} entries, more than the limit {1 << 16}" in captured.err


@pytest.mark.parametrize(
    "payload",
    [
        {"intervals": 3},
        {"scale_denominator": 1},
        {"intervals": [[0, 1, 2]]},
        {"intervals": [3]},
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


_MALFORMED_CONFIGS = [
    {"sizes": ["3"]},
    {"sizes": [True]},
    {"seed": "1"},
    {"trials": 2.0},
    {"trials": ""},
    {"limits": [12, 14]},
    {"limits": {"fun_max_n": None}},
    {"output": 5},
]


@pytest.mark.parametrize("payload", _MALFORMED_CONFIGS)
def test_malformed_config_json_is_2(tmp_path, capsys, payload):
    code = main(["verify", "hni", "--config", _json_file(tmp_path, "c.json", payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("payload", _MALFORMED_CONFIGS + [{"sizes": 0}, [1, 2]])
def test_config_from_json_raises_config_error(payload):
    with pytest.raises(GraphError):
        CampaignConfig.from_json(payload)


@pytest.mark.parametrize(
    "payload", [p for p in _MALFORMED_CONFIGS if isinstance(p.get("limits", {}), dict)]
)
def test_config_constructor_checks_what_a_file_is_checked_for(payload):
    with pytest.raises(GraphError) as from_file:
        CampaignConfig.from_json(payload)
    kwargs = {k: v for k, v in payload.items() if k != "limits"} | payload.get("limits", {})
    with pytest.raises(GraphError) as from_python:
        CampaignConfig(**kwargs)
    assert str(from_python.value) == str(from_file.value)


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"trails": 1}, "'trails'"),
        ({"seed": 2, "limits": {"fun_maxn": 3}}, "'limits.fun_maxn'"),
        ({"limits": {"fun_max_n": 9}, "fun_max_n": 9}, "'fun_max_n'"),
        ({"campaign": "hni"}, "'campaign'"),
    ],
)
def test_unknown_config_key_is_2_naming_it(tmp_path, capsys, payload, key):
    code = main(["verify", "gk-sd", "--config", _json_file(tmp_path, "c.json", payload)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: unknown campaign config key {key}\n"


@pytest.mark.parametrize("name", CAMPAIGN_NAMES)
def test_default_report_config_loads_as_a_config_file(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", name, "--seed", "1", "--workers", "1", "-o", f"{name}.json"]) == 0
    config = json.loads((tmp_path / f"{name}.json").read_text())["config"]
    assert CampaignConfig.from_json(config).to_json() == config
    path = _json_file(tmp_path, "c.json", config)
    assert main(["verify", name, "--config", path, "--trials", "1", "-o", "again.json"]) == 0
    again = json.loads((tmp_path / "again.json").read_text())["config"]
    assert again == {**config, "trials": 1, "output": "again.json"}


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


def _choices(command, dest):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if a.dest == dest).choices


def _gen_families():
    return _choices("gen", "family")


def test_readme_gen_usage_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)

    def listed(command):
        # the choices of every `funbox COMMAND {a|b}` or `funbox COMMAND a` line
        lines = re.findall(rf"^funbox {command} (?:\{{([^}}]*)\}}|(\S+))", usage, re.M)
        return [c for braced, plain in lines for c in (braced or plain).split("|")]

    assert listed("gen") == _gen_families()
    assert listed("compute") == _choices("compute", "what")
    assert listed("witness") == _choices("witness", "kind")
    assert listed("realize") == _choices("realize", "kind")


def test_readme_cli_block_lists_every_choice():
    """The choices of `gen`, `compute`, `realize` and `verify` are all in the README.

    A positional's choices are checked above: gen, compute and realize
    against their `funbox COMMAND` lines, verify's campaigns against the
    "Campaigns:" list. Every option with choices must read `--flag a|b`
    in the CLI block.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    positionals = set()
    for command in ("gen", "compute", "realize", "verify"):
        for action in commands.choices[command]._actions:
            if action.choices is None:
                continue
            if not action.option_strings:
                positionals.add((command, action.dest))
                continue
            flag = max(action.option_strings, key=len)
            assert f"{flag} {'|'.join(action.choices)}" in usage, (command, flag)
    assert positionals == {
        ("gen", "family"),
        ("compute", "what"),
        ("realize", "kind"),
        ("verify", "campaign"),
    }


def test_readme_cli_block_lists_every_option():
    """Every option of every subcommand appears, in one of its spellings, on
    that subcommand's lines of the README's CLI block: its `funbox COMMAND`
    lines and their indented continuations."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    synopsis = {}
    for line in usage.splitlines():
        if line.startswith("funbox "):
            command = line.split()[1]
        synopsis[command] = synopsis.get(command, "") + line + "\n"
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        written = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", synopsis[command]))
        for action in sub._actions:
            spellings = set(action.option_strings) - {"-h", "--help"}
            if spellings:
                assert spellings & written, (command, action.option_strings)


# family -> (gen arguments, the generator call they make)
_GEN_ROUND_TRIPS = {
    "half": (["--n", "4"], lambda: fb.half_graph(4)),
    "abc": (["--n", "4", "--perm", "2,1,4,3"], lambda: fb.abc_graph(4, (2, 1, 4, 3))),
    "gk": (["--k", "2"], lambda: fb.g_k(2)),
    "gk-abc": (["--k", "2"], lambda: fb.extend_gk_to_abc(*fb.g_k(2))),
    "hni": (["--n", "3", "--i", "2"], lambda: fb.point_box_incidence(3, 2)),
    "hypercube": (["--n", "3"], lambda: fb.hypercube(3)),
}


def test_gen_round_trips_cover_every_family():
    assert list(_GEN_ROUND_TRIPS) == _gen_families()


@pytest.mark.parametrize("family", list(_GEN_ROUND_TRIPS))
def test_gen_file_round_trips_through_graph_from_json(tmp_path, capsys, family):
    args, build = _GEN_ROUND_TRIPS[family]
    path = tmp_path / "g.json"
    code, _ = run_cli(capsys, "gen", family, *args, "-o", str(path))
    assert code == 0
    back = fb.graph_from_json(json.loads(path.read_text()))
    g = build()[0]
    assert back.rows == g.rows and back.labels == g.labels


# sha256 of each family's `gen` file for the arguments above
_GEN_SHA256 = {
    "half": "9ff72a02de18025ce1ab52076dc1514f1107d04ddf05baec796789287bb4694c",
    "abc": "e3b9f7a44d089b3bbe18a4f501cde7d581fbf56e919c09561706fcb677afff48",
    "gk": "1be6d431d135a88b588e31be2b95e1be14590bbf25c5d190b2ffbd52abd2b26b",
    "gk-abc": "b6a3b26947b68405737a8328b571c2b2f45e993d46e0cf65d1195871fb863c84",
    "hni": "6145322df8cb85d5ddd83804f15a0bba8e82ca7198272870b4b8516f7371bb64",
    "hypercube": "fbc95501ff0b5d1114160626d6b4fae4754faf12c0a83cfded467482b35b537a",
}


@pytest.mark.parametrize("family", list(_GEN_ROUND_TRIPS))
def test_gen_bytes_are_pinned_and_stdout_equals_the_file(tmp_path, capsys, family):
    args, _ = _GEN_ROUND_TRIPS[family]
    path = tmp_path / "g.json"
    run_cli(capsys, "gen", family, *args, "-o", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GEN_SHA256[family]
    code, out = run_cli(capsys, "gen", family, *args)
    assert code == 0 and out == path.read_text()


def test_gen_edge_guard_closed_forms_match_built_graphs():
    assert set(_gen_families()) | {"interval model"} == set(FAMILY_SIZES)
    built = [("half", (n,), fb.half_graph(n)[0]) for n in range(1, 9)]
    built += [("abc", (n,), fb.abc_graph(n, random_permutation(n, n))[0]) for n in range(1, 9)]
    built += [("gk", (k,), fb.g_k(k)[0]) for k in (2, 3, 4)]
    built += [("gk-abc", (k,), fb.extend_gk_to_abc(*fb.g_k(k))[0]) for k in (2, 3)]
    built += [
        ("hni", (n, i), fb.point_box_incidence(n, i)[0])
        for n in range(1, 5)
        for i in range(1, n + 1)
    ]
    built += [("hypercube", (n,), fb.hypercube(n)[0]) for n in range(1, 7)]
    for family, args, g in built:
        assert FAMILY_SIZES[family][1](*args) == (g.n, g.edge_count()), (family, args)


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
        {**_REPORT, "instances": 5},
        {**_REPORT, "instances": [[0, {}, {}, True]]},
        {**_REPORT, "instances": [{k: v for k, v in _INSTANCE.items() if k != "pass"}]},
    ],
    ids=[
        "top-level-list",
        "no-version",
        "summary-not-object",
        "summary-without-total",
        "instances-not-list",
        "instances-a-number",
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


def _module_env(unbuffered=False):
    """The environment of a child interpreter that runs this checkout's sources."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _run_module(*argv, unbuffered=False, module="funbox.cli"):
    """``python -m MODULE ARGV`` on this checkout's sources, through real pipes."""
    cmd = [sys.executable, "-m", module, *argv]
    return subprocess.run(cmd, env=_module_env(unbuffered), capture_output=True, timeout=120)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_process_gen_exits_0_and_pipes_the_in_process_bytes(capsys, unbuffered):
    proc = _run_module("gen", "hypercube", "--n", "3", unbuffered=unbuffered)
    _, out = run_cli(capsys, "gen", "hypercube", "--n", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")


def test_process_python_m_funbox_pipes_the_cli_bytes():
    proc = _run_module("gen", "hypercube", "--n", "3", module="funbox")
    cli_proc = _run_module("gen", "hypercube", "--n", "3")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == cli_proc.stdout


@pytest.mark.parametrize(
    "run",
    ["", "funbox.cli.main(['verify', 'gk-sd', '--sizes', '2', '--workers', '4', '-o', out])"],
    ids=["import", "verify-one-instance"],
)
def test_process_loads_no_process_pool(tmp_path, run):
    # a campaign run in one process, and the import itself, must not pay for
    # concurrent.futures and multiprocessing, nor for logging while it is off
    prefixes = ("concurrent", "logging", "multiprocessing")
    code = (
        "import sys, funbox, funbox.cli\n"
        f"out = {str(tmp_path / 'r.json')!r}\n"
        f"{run}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_module_env(), capture_output=True, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, b"[]\n")


def test_process_bad_input_exits_2_with_one_error_line(tmp_path):
    proc = _run_module("compute", "fun-graph", "-i", str(tmp_path / "missing.json"))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize("command", ["gen", "compute", "witness", "realize", "verify", "report"])
def test_process_help_exits_0_and_lists_the_output_option(command):
    proc = _run_module(command, "--help")
    assert proc.returncode == 0 and proc.stderr == b""
    assert b"-o OUTPUT, --output OUTPUT" in proc.stdout


def test_process_version_prints_the_package_version():
    proc = _run_module("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"funbox 0.1.0\n", b"")


# ---------------------------------------------------------------------------
# every file reader, fed JSON trees of any shape through `main`
# ---------------------------------------------------------------------------

_INT = st.integers(-2, 13)
_PAIRS = st.lists(st.lists(_INT, min_size=2, max_size=2), max_size=6)
# the keys every reader looks for, and some it does not
_KEYS = st.sampled_from(
    "n edges labels intervals scale_denominator points box_system d boxes seed sizes "
    "trials limits fun_max_n sd_max_n output format campaign version config ok summary "
    "passed total instances index inputs outputs pass 0 1 01".split()
) | st.text(max_size=2)
# strings are safe relative file names, since `verify` writes its config's "output"
_TEXT = st.sampled_from(["", "0", "a", "json", "markdown", "md"])
_TREES = st.recursive(
    st.none() | st.booleans() | _INT | st.floats(-2, 13) | _TEXT | _PAIRS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=6),
    max_leaves=24,
)


def _shaped(required, optional=None):
    """Any tree, or an object holding the given keys, each value drawn from
    its own strategy three times in four and any tree otherwise."""
    def either(spec):
        return st.integers(0, 3).flatmap(lambda i: spec if i else _TREES)
    return _TREES | st.fixed_dictionaries(
        {k: either(v) for k, v in required.items()},
        optional={k: either(v) for k, v in (optional or {}).items()},
    )


_LABELS = st.dictionaries(st.sampled_from(["0", "1", "5", "01", "a"]), _TEXT, max_size=3)
_GRAPHS = _shaped(
    {"n": st.integers(0, 13), "edges": _PAIRS}, {"labels": _LABELS}
) | st.builds(
    lambda n, seed: fb.graph_to_json(fb.abc_graph(n, random_permutation(n, seed))[0]),
    st.integers(1, 3),
    st.integers(0, 9),
)
_INTERVALS = _shaped({"intervals": _PAIRS}, {"scale_denominator": _INT})
_BOX_SYSTEMS = _shaped(
    {"d": st.integers(0, 3), "scale_denominator": _INT, "boxes": st.lists(_PAIRS, max_size=4)},
    {"labels": _LABELS},
)
_PLANE_MODELS = st.sampled_from([(1, 1), (2, 1), (2, 2)]).map(
    lambda ni: fb.realize_pointbox_plane(*ni)
)
_POINT_BOXES = _PLANE_MODELS.map(
    lambda pbs: {
        "points": [list(p) for p in pbs[0]],
        "box_system": geometry.box_system_to_json(pbs[1]),
    }
) | _shaped({"points": _PAIRS, "box_system": _BOX_SYSTEMS})
_CONFIGS = _shaped(
    {},
    {
        "seed": _INT,
        "sizes": st.lists(st.integers(-1, 5), max_size=3),
        "limits": _shaped({}, {"fun_max_n": _INT, "sd_max_n": _INT}),
        "output": _TEXT,
        "format": _TEXT,
    },
)
_INSTANCES = _shaped({"index": _INT, "inputs": _TREES, "outputs": _TREES, "pass": st.booleans()})
_REPORTS = _shaped(
    {
        "campaign": _TEXT,
        "version": _TEXT,
        "config": _CONFIGS,
        "ok": st.booleans(),
        "summary": _shaped({"passed": _INT, "total": _INT}),
        "instances": st.lists(_INSTANCES, max_size=3),
    }
)

_REPORT_FORMATS = st.sampled_from(["md", "json"])

# reader -> (the documents it reads, the argv that reads file `path`, given
# hypothesis' `data` for its other arguments)
_READERS = {
    "compute-sd-pair": (
        _GRAPHS,
        lambda path, data: ["compute", "sd-pair", "-i", path, "--x", "0", "--y", "1"],
    ),
    "compute-fun-graph": (_GRAPHS, lambda path, data: ["compute", "fun-graph", "-i", path]),
    "realize-abc-units": (_GRAPHS, lambda path, data: ["realize", "abc-units", "-i", path]),
    "realize-abc-intervals": (
        _GRAPHS,
        lambda path, data: ["realize", "abc-intervals", "-i", path],
    ),
    "witness-interval": (_INTERVALS, lambda path, data: ["witness", "interval", "-i", path]),
    "realize-pointbox-r3": (
        _POINT_BOXES,
        lambda path, data: ["realize", "pointbox-r3", "-i", path],
    ),
    # --trials overrides the file's own trials, so that with sizes up to 13
    # every plan stays small
    "verify-config": (
        _CONFIGS,
        lambda path, data: [
            "verify", data.draw(st.sampled_from(CAMPAIGN_NAMES)), "--config", path,
            "--trials", str(data.draw(st.integers(1, 2))), "--workers", "1",
        ],
    ),
    "report-in": (
        _REPORTS,
        lambda path, data: ["report", "--in", path, "--format", data.draw(_REPORT_FORMATS)],
    ),
}


@pytest.mark.parametrize("reader", list(_READERS))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_json_through_every_reader_exits_0_1_or_2(
    tmp_path, capsys, monkeypatch, reader, data
):
    documents, make_argv = _READERS[reader]
    monkeypatch.chdir(tmp_path)  # where a config's relative "output" goes
    path = _json_file(tmp_path, "in.json", data.draw(documents))
    code = main(make_argv(path, data))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_an_internal_key_error_is_not_reported_as_bad_input(monkeypatch):
    monkeypatch.setitem(cli._GEN, "half", lambda args: {}["rows"])
    with pytest.raises(KeyError):
        main(["gen", "half"])
