"""The public contract: the names ``funbox/__init__.py`` exports, their call
signatures and dataclass fields, and the CLI's subcommands and options.

Dropping or renaming a name, keyword, default, field, subcommand, option or
positional choice fails here, and so does adding one: the tables below are
changed on purpose or not at all. Annotations are not pinned.

The benchmark's per-layer metrics name functions too: each
``<module>.<name>.calls`` in ``BENCHMARK.json`` must stay a function that
``perfbench/tracer.py`` wraps, or the traced benchmark run stops on a metric
it did not measure.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import pytest

import funbox as fb
from funbox.cli import build_parser

EXPORTS = {
    "graphs": (
        "Graph", "GraphError", "SizeLimitError", "equal_labeled", "from_edge_list",
        "graph_from_json", "graph_to_json", "induced_subgraph",
    ),
    "parameters": (
        "AbcReport", "PremiseViolation", "RefutationPair", "StructureReport", "Witness",
        "check_abc_partition", "fun_graph", "fun_vertex", "fun_vertex_naive",
        "fun_vertices", "is_function_of", "is_threshold", "pair_witness",
        "recover_half_graph_orders", "refute_function", "sd_graph", "sd_pair",
        "structure_scan", "witness_is_valid",
    ),
    "intervals": (
        "IntervalRep", "PointRep", "check_sd_lemma", "find_low_fun_witness",
        "graph_from_intervals", "graph_from_points", "normalize",
    ),
    "constructions": (
        "ConstructionLabels", "abc_graph", "extend_gk_to_abc", "g_k", "half_graph",
        "hypercube", "point_box_incidence",
    ),
    "geometry": (
        "BoxSystem", "RealizationError", "RealizationReport", "embed_pointbox_r3",
        "graph_from_boxes", "incidence_graph", "realize_abc_intervals",
        "realize_abc_unit_squares", "realize_pointbox_plane",
    ),
    "rng": ("SplitMix64",),
    "campaigns": (
        "CampaignConfig", "CampaignReport", "random_graph", "random_interval_rep",
        "random_permutation", "verify_campaign",
    ),
}

# every exported callable that is neither a dataclass nor an exception
# without a constructor of its own, as its signature without annotations
SIGNATURES = {
    "Graph": "(n, rows, labels=None)",
    "PremiseViolation": "(violations)",
    "SplitMix64": "(seed)",
    "equal_labeled": "(g1, g2)",
    "from_edge_list": "(n, edges, labels=None)",
    "graph_from_json": "(data)",
    "graph_to_json": "(g)",
    "induced_subgraph": "(g, subset)",
    "check_abc_partition": "(g, a, b, c)",
    "fun_graph": "(g, max_n=None)",
    "fun_vertex": "(g, y)",
    "fun_vertex_naive": "(g, y)",
    "fun_vertices": "(g, max_n=None)",
    "is_function_of": "(g, y, args)",
    "is_threshold": "(g)",
    "pair_witness": "(g, x, y, mode)",
    "recover_half_graph_orders": "(g, xs, ys)",
    "refute_function": "(g, x, args, k, p)",
    "sd_graph": "(g, max_n=None)",
    "sd_pair": "(g, x, y)",
    "structure_scan": "(g, p)",
    "witness_is_valid": "(g, w)",
    "check_sd_lemma": "(rep)",
    "find_low_fun_witness": "(rep)",
    "graph_from_intervals": "(rep)",
    "graph_from_points": "(rep)",
    "normalize": "(rep)",
    "abc_graph": "(n, perm=None)",
    "extend_gk_to_abc": "(g, meta)",
    "g_k": "(k)",
    "half_graph": "(n)",
    "hypercube": "(n)",
    "point_box_incidence": "(n, i)",
    "embed_pointbox_r3": "(points, bs)",
    "graph_from_boxes": "(bs)",
    "incidence_graph": "(points, bs)",
    "realize_abc_intervals": "(g, a, b, c)",
    "realize_abc_unit_squares": "(g, a, b, c)",
    "realize_pointbox_plane": "(n, i)",
    "random_graph": "(n, p_num, p_den, seed)",
    "random_interval_rep": "(n, seed, coord_range)",
    "random_permutation": "(n, seed)",
    "verify_campaign": "(name, cfg=None, workers=1)",
}

FIELDS = {
    "AbcReport": ("n", "order_a", "order_b_ab", "order_b_bc", "order_c"),
    "RefutationPair": ("u", "w"),
    "StructureReport": ("twins", "anti_twins", "triangle_free", "k2p_free", "threshold", "p"),
    "Witness": ("target", "args", "table", "origin"),
    "IntervalRep": ("intervals", "scale_denominator"),
    "PointRep": ("points",),
    "ConstructionLabels": ("family", "parts", "vertex_data", "params"),
    "BoxSystem": ("d", "scale_denominator", "boxes", "labels"),
    "RealizationReport": ("target_graph", "realized_graph", "equal", "unit"),
    "CampaignConfig": ("seed", "sizes", "trials", "fun_max_n", "sd_max_n", "output", "format"),
    "CampaignReport": ("campaign", "version", "config", "instances"),
}

# the CLI's exit codes hang on these: main exits 2 on ValueError and
# SizeLimitError, 1 on RealizationError
EXCEPTION_BASES = {
    "GraphError": ValueError,
    "SizeLimitError": RuntimeError,
    "RealizationError": RuntimeError,
    "PremiseViolation": fb.GraphError,
}

# subcommand -> (its option strings between -h/--help and -o/--output,
# {positional: its choices})
CLI = {
    "gen": (
        ("--n", "--k", "--i", "--perm", "--seed"),
        {"family": ("half", "abc", "gk", "gk-abc", "hni", "hypercube")},
    ),
    "compute": (
        ("-i", "--input", "--vertex", "--x", "--y", "--max-n"),
        {"what": ("fun-vertex", "fun-graph", "sd-pair", "sd-graph")},
    ),
    "witness": (("-i", "--input"), {"kind": ("interval",)}),
    "realize": (
        ("-i", "--input", "--n", "--i"),
        {"kind": ("abc-units", "abc-intervals", "pointbox-plane", "pointbox-r3")},
    ),
    "verify": (
        ("--config", "--seed", "--trials", "--sizes", "--workers", "--format"),
        {
            "campaign": (
                "lemma-sd", "thm-fun8", "gk-sd", "hni", "refute", "abc-realize",
                "fun-sd-bound", "threshold-fun0",
            )
        },
    ),
    "report": (("--in", "--format"), {}),
}


def _plain(sig: inspect.Signature) -> str:
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_init_imports_exactly_the_pinned_names():
    tree = ast.parse(inspect.getsource(fb))
    imported = {
        node.module: tuple(alias.name for alias in node.names)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
    }
    assert imported == EXPORTS


def test_every_export_is_pinned_once():
    names = [name for group in EXPORTS.values() for name in group]
    pinned = [*SIGNATURES, *FIELDS, *(set(EXCEPTION_BASES) - set(SIGNATURES))]
    assert sorted(names) == sorted(pinned)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_exported_callable_keeps_its_signature(name):
    assert _plain(inspect.signature(getattr(fb, name))) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_exported_dataclass_keeps_its_fields(name):
    cls = getattr(fb, name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[name]


@pytest.mark.parametrize("name", sorted(EXCEPTION_BASES))
def test_exported_exception_keeps_its_base(name):
    assert getattr(fb, name).__bases__ == (EXCEPTION_BASES[name],)


def test_cli_keeps_its_subcommands_options_and_choices():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [a.option_strings for a in parser._actions] == [["-h", "--help"], ["--version"], []]
    assert tuple(sub.choices) == tuple(CLI)
    for name, command in sub.choices.items():
        options = tuple(s for a in command._actions for s in a.option_strings)
        positionals = {
            a.dest: tuple(a.choices) for a in command._actions if not a.option_strings
        }
        own, choices = CLI[name]
        assert options == ("-h", "--help", *own, "-o", "--output"), name
        assert positionals == choices, name


def _traced_calls() -> list[str]:
    """The ``<module>.<name>`` of every per-layer ``.calls`` metric."""
    bench = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    return [m["name"][: -len(".calls")] for m in bench["per_layer"] if m["name"].endswith(".calls")]


def test_benchmark_traces_some_functions():
    assert "parameters.fun_graph" in _traced_calls()


@pytest.mark.parametrize("name", _traced_calls())
def test_benchmark_traced_name_is_a_public_function(name):
    # the set perfbench/tracer.py wraps: public, non-generator functions
    # defined in their module, plus Graph's constructor
    if name == "graphs.Graph":
        return
    module, attr = name.split(".")
    mod = importlib.import_module(f"funbox.{module}")
    fn = getattr(mod, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == mod.__name__ and not inspect.isgeneratorfunction(fn), name
