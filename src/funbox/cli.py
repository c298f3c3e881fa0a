"""Command-line surface: generate, compute, witness, realize, verify, report.

Exit codes: 0 success / all instances pass, 1 any verification failure,
2 usage or configuration error, malformed input, or an input over a size
guard. The FUNBOX_MAX_N environment variable overrides the exact-search
size guards.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .campaigns import (
    CAMPAIGN_NAMES,
    CampaignConfig,
    ConfigError,
    random_permutation,
    render_markdown,
    report_from_json,
    verify_campaign,
)
from .constructions import (
    GEN_EDGE_COUNTS,
    GEN_MAX_EDGES,
    abc_graph,
    abc_parts,
    extend_gk_to_abc,
    g_k,
    half_graph,
    hypercube,
    point_box_incidence,
)
from .geometry import (
    box_system_from_json,
    box_system_to_json,
    embed_pointbox_r3,
    realize_abc_intervals,
    realize_abc_unit_squares,
    realize_pointbox_plane,
)
from .graphs import GraphError, SizeLimitError, graph_from_json, graph_to_json
from .intervals import (
    _json_pairs,
    find_low_fun_witness,
    interval_rep_from_json,
    interval_rep_to_json,
    normalize,
)
from .parameters import (
    PremiseViolation,
    fun_graph,
    fun_vertex,
    sd_graph,
    sd_pair,
    witness_to_json,
)


def _emit_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(data: dict, path: str | None) -> None:
    _emit_text(json.dumps(data, indent=2, sort_keys=True), path)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_gen(args) -> int:
    edges = GEN_EDGE_COUNTS.get(args.family, lambda n, k: 0)(args.n, args.k)
    if edges > GEN_MAX_EDGES:
        raise SizeLimitError(f"gen {args.family} has {edges} edges, over {GEN_MAX_EDGES}")
    if args.family == "half":
        g, _ = half_graph(args.n)
    elif args.family == "abc":
        perm = None
        if args.perm:
            perm = tuple(int(x) for x in args.perm.split(","))
        elif args.seed is not None:
            perm = random_permutation(args.n, args.seed)
        g, _ = abc_graph(args.n, perm)
    elif args.family == "gk":
        g, _ = g_k(args.k)
    elif args.family == "gk-abc":
        g, _, _ = extend_gk_to_abc(*g_k(args.k))
    elif args.family == "hni":
        g, _ = point_box_incidence(args.n, args.i)
    elif args.family == "hypercube":
        g, _ = hypercube(args.n)
    else:
        raise GraphError(f"unknown family {args.family!r}")
    _emit_json(graph_to_json(g), args.output)
    return 0


def _cmd_compute(args) -> int:
    g = graph_from_json(_load_json(args.input))
    if args.what == "fun-vertex":
        if args.vertex is None:
            raise GraphError("fun-vertex needs --vertex")
        k, w = fun_vertex(g, args.vertex)
        _emit_json({"vertex": args.vertex, "fun": k, "witness": witness_to_json(w)}, args.output)
    elif args.what == "fun-graph":
        _emit_json({"fun_graph": fun_graph(g, args.max_n)}, args.output)
    elif args.what == "sd-pair":
        if args.x is None or args.y is None:
            raise GraphError("sd-pair needs --x and --y")
        _emit_json({"x": args.x, "y": args.y, "sd": sd_pair(g, args.x, args.y)}, args.output)
    elif args.what == "sd-graph":
        _emit_json({"sd_graph": sd_graph(g, args.max_n)}, args.output)
    return 0


def _cmd_witness(args) -> int:
    rep = interval_rep_from_json(_load_json(args.input))
    w = find_low_fun_witness(normalize(rep))
    _emit_json(witness_to_json(w), args.output)
    return 0


def _cmd_realize(args) -> int:
    if args.kind in ("abc-units", "abc-intervals"):
        g = graph_from_json(_load_json(args.input))
        a, b, c = abc_parts(g)
        if args.kind == "abc-units":
            bs, report = realize_abc_unit_squares(g, a, b, c)
            _emit_json(box_system_to_json(bs), args.output)
        else:
            rep, report = realize_abc_intervals(g, a, b, c)
            _emit_json(interval_rep_to_json(rep), args.output)
        return 0 if report.equal else 1
    if args.kind == "pointbox-plane":
        pts, bs, report = realize_pointbox_plane(args.n, args.i)
        _emit_json(
            {"points": [list(p) for p in pts], "box_system": box_system_to_json(bs)},
            args.output,
        )
        return 0 if report.equal else 1
    if args.kind == "pointbox-r3":
        data = _load_json(args.input)
        points = _json_pairs(data, "points", "point")
        if "box_system" not in data:
            raise GraphError("point-box JSON is missing key 'box_system'")
        bs = box_system_from_json(data["box_system"])
        bs3 = embed_pointbox_r3(points, bs)
        _emit_json(box_system_to_json(bs3), args.output)
        return 0
    raise GraphError(f"unknown realization {args.kind!r}")


def _cmd_verify(args) -> int:
    base = _load_json(args.config) if args.config else {}
    if not isinstance(base, dict):
        raise ConfigError("campaign config must be a JSON object")
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "sizes": [int(x) for x in args.sizes.split(",")] if args.sizes else None,
        "output": args.output,
        "format": args.format,
    }
    cfg = CampaignConfig.from_json(
        {**base, **{k: v for k, v in overrides.items() if v is not None}}
    )
    report = verify_campaign(args.campaign, cfg, workers=args.workers)
    data = report.to_json()
    if cfg.format == "markdown":
        _emit_text(render_markdown(data), cfg.output)
    else:
        _emit_json(data, cfg.output)
    print(
        f"{report.campaign}: {report.passed}/{len(report.instances)} instances passed",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    data = report_from_json(_load_json(args.input))
    if args.format == "md":
        _emit_text(render_markdown(data), args.output)
    else:
        _emit_json(data, args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing the usage block and exiting,
    so that ``main`` reports them like any other bad input: one ``error:``
    line and exit code 2. Sub-parsers inherit the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="funbox",
        description="exact functionality / symmetric difference toolkit",
    )
    parser.add_argument("--version", action="version", version=f"funbox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named graph family")
    gen.add_argument("family", choices=["half", "abc", "gk", "gk-abc", "hni", "hypercube"])
    gen.add_argument("--n", type=int, default=3)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--i", type=int, default=1)
    gen.add_argument("--perm", help="comma-separated permutation of 1..n (abc)")
    gen.add_argument("--seed", type=int, help="seed for a random abc permutation")
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    comp = sub.add_parser("compute", help="exact parameters of a graph file")
    comp.add_argument("what", choices=["fun-vertex", "fun-graph", "sd-pair", "sd-graph"])
    comp.add_argument("-i", "--input", required=True)
    comp.add_argument("--vertex", type=int)
    comp.add_argument("--x", type=int)
    comp.add_argument("--y", type=int)
    comp.add_argument("--max-n", type=int, dest="max_n")
    comp.add_argument("-o", "--output")
    comp.set_defaults(func=_cmd_compute)

    wit = sub.add_parser("witness", help="low-arity witness constructions")
    wit.add_argument("kind", choices=["interval"])
    wit.add_argument("-i", "--input", required=True)
    wit.add_argument("-o", "--output")
    wit.set_defaults(func=_cmd_witness)

    real = sub.add_parser("realize", help="validated geometric realizations")
    real.add_argument(
        "kind",
        choices=["abc-units", "abc-intervals", "pointbox-plane", "pointbox-r3"],
    )
    real.add_argument("-i", "--input")
    real.add_argument("--n", type=int, default=2)
    real.add_argument("--i", type=int, dest="i", default=1)
    real.add_argument("-o", "--output")
    real.set_defaults(func=_cmd_realize)

    ver = sub.add_parser("verify", help="run a named verification campaign")
    ver.add_argument("campaign", choices=list(CAMPAIGN_NAMES))
    ver.add_argument("--config", help="campaign config JSON file")
    ver.add_argument("--seed", type=int)
    ver.add_argument("--trials", type=int)
    ver.add_argument("--sizes", help="comma-separated size list")
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--output", "-o")
    ver.add_argument("--format", choices=["json", "markdown"])
    ver.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", help="render a raw JSON report")
    rep.add_argument("--in", dest="input", required=True)
    rep.add_argument("--format", choices=["json", "md"], default="md")
    rep.add_argument("-o", "--output")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PremiseViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        GraphError,
        ConfigError,
        SizeLimitError,
        OSError,
        argparse.ArgumentError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
