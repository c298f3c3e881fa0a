"""Command-line surface: generate, compute, witness, realize, verify, report.

Exit codes: 0 success / all instances pass, 1 any verification failure,
2 usage or configuration error, malformed input, or an input over a size
guard. ``realize`` exits 1 with one ``error:`` line when a model fails its
own self-check (its rebuilt graph differs from the target). ``compute
--max-n`` sets the size guard of ``fun-graph`` and ``sd-graph`` and is an
error with any other target; no environment variable changes a guard.
Likewise ``gen`` and ``realize`` refuse a flag their family or kind does not
read: ``gen`` families read their ``FAMILY_SIZES`` parameters (abc also
``--perm`` and ``--seed``); ``realize`` reads ``-i`` for every kind but
``pointbox-plane``, which alone reads ``--n`` and ``--i``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from . import __version__
from .campaigns import (
    CAMPAIGN_NAMES,
    CampaignConfig,
    random_permutation,
    render_markdown,
    report_from_json,
    verify_campaign,
)
from .constructions import (
    FAMILY_SIZES,
    abc_graph,
    abc_parts,
    check_size,
    extend_gk_to_abc,
    g_k,
    half_graph,
    hypercube,
    point_box_incidence,
)
from .geometry import (
    RealizationError,
    box_system_from_json,
    box_system_to_json,
    embed_pointbox_r3,
    realize_abc_intervals,
    realize_abc_unit_squares,
    realize_pointbox_plane,
)
from .graphs import (
    GraphError,
    SizeLimitError,
    _json_object,
    _json_pairs,
    graph_from_json,
    graph_to_json,
)
from .intervals import (
    find_low_fun_witness,
    interval_rep_from_json,
    interval_rep_to_json,
    normalize,
)
from .parameters import (
    fun_graph,
    fun_vertex,
    sd_graph,
    sd_pair,
    witness_to_json,
)


def _write(out, path: str | None) -> None:
    """Write ``out`` and a newline to file ``path``, or to stdout without one: a
    string as it is, anything else as indented, key-sorted JSON, streamed in
    batches of encoder chunks so that the document is never one string."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    chunks = iter((out,)) if isinstance(out, str) else encoder.iterencode(out)
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        while batch := "".join(itertools.islice(chunks, 1 << 14)):
            fh.write(batch)
        fh.write("\n")


def _load_json(path: str | None):
    """The JSON in file ``path``; no path, or too deep a nesting, is a GraphError."""
    if path is None:
        raise GraphError("this command needs an input file: pass -i / --input")
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise GraphError(f"{path} is nested too deeply to read") from None


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type of ``--sizes`` and ``--perm``: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _refuse_unread(kind: str, flags: dict) -> None:
    """Refuse, naming it, the first flag that is given but that ``kind`` does
    not read; ``flags`` maps each flag to its value and the kinds that read it."""
    for flag, (value, readers) in flags.items():
        if value is not None and kind not in readers:
            listed = readers[0] if len(readers) == 1 else (
                f"{', '.join(readers[:-1])} and {readers[-1]}"
            )
            raise GraphError(f"{flag} applies to {listed}, not {kind}")


def _abc_perm(args):
    """abc's permutation: ``--perm``, else one drawn from ``--seed``, else None."""
    if args.perm is not None:
        return args.perm
    return None if args.seed is None else random_permutation(args.n, args.seed)


# gen family -> the graph it writes, built from the parsed arguments
_GEN = {
    "half": lambda args: half_graph(args.n)[0],
    "abc": lambda args: abc_graph(args.n, _abc_perm(args))[0],
    "gk": lambda args: g_k(args.k)[0],
    "gk-abc": lambda args: extend_gk_to_abc(*g_k(args.k))[0],
    "hni": lambda args: point_box_incidence(args.n, args.i)[0],
    "hypercube": lambda args: hypercube(args.n)[0],
}


def _gen_reads(family: str) -> tuple[str, ...]:
    """The arguments ``gen family`` reads: its size parameters, and abc's permutation."""
    return FAMILY_SIZES[family][0] + (("perm", "seed") if family == "abc" else ())


# gen argument -> the families that read it, and its value when not given
_GEN_READERS = {
    name: tuple(f for f in _GEN if name in _gen_reads(f))
    for name in ("n", "k", "i", "perm", "seed")
}
_GEN_DEFAULTS = {"n": 3, "k": 2, "i": 1}


def _cmd_gen(args) -> int:
    _refuse_unread(
        args.family,
        {f"--{name}": (getattr(args, name), readers) for name, readers in _GEN_READERS.items()},
    )
    for name, default in _GEN_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    check_size(args.family, args.n, args.k, args.i)
    _write(graph_to_json(_GEN[args.family](args)), args.output)
    return 0


def _cmd_compute(args) -> int:
    if args.max_n is not None and args.what not in ("fun-graph", "sd-graph"):
        raise GraphError(f"--max-n applies to fun-graph and sd-graph, not {args.what}")
    g = graph_from_json(_load_json(args.input))
    if args.what == "fun-vertex":
        if args.vertex is None:
            raise GraphError("fun-vertex needs --vertex")
        k, w = fun_vertex(g, args.vertex)
        _write({"vertex": args.vertex, "fun": k, "witness": witness_to_json(w)}, args.output)
    elif args.what == "fun-graph":
        _write({"fun_graph": fun_graph(g, args.max_n)}, args.output)
    elif args.what == "sd-pair":
        if args.x is None or args.y is None:
            raise GraphError("sd-pair needs --x and --y")
        _write({"x": args.x, "y": args.y, "sd": sd_pair(g, args.x, args.y)}, args.output)
    elif args.what == "sd-graph":
        _write({"sd_graph": sd_graph(g, args.max_n)}, args.output)
    return 0


def _cmd_witness(args) -> int:
    rep = interval_rep_from_json(_load_json(args.input))
    w = find_low_fun_witness(normalize(rep))
    _write(witness_to_json(w), args.output)
    return 0


def _cmd_realize(args) -> int:
    plane = ("pointbox-plane",)
    _refuse_unread(
        args.kind,
        {
            "-i/--input": (args.input, ("abc-units", "abc-intervals", "pointbox-r3")),
            "--n": (args.n, plane),
            "--i": (args.i, plane),
        },
    )
    if args.kind in plane:
        n, i = (2 if args.n is None else args.n), (1 if args.i is None else args.i)
        pts, bs, _ = realize_pointbox_plane(n, i)
        data = {"points": [list(p) for p in pts], "box_system": box_system_to_json(bs)}
    elif args.kind == "pointbox-r3":
        pb = _json_object(_load_json(args.input), "point-box JSON", ("points", "box_system"))
        points = _json_pairs(pb["points"], "point-box JSON 'points'", "point", capped=True)
        bs = box_system_from_json(pb["box_system"])
        data = box_system_to_json(embed_pointbox_r3(tuple(points), bs))
    else:
        g = graph_from_json(_load_json(args.input))
        a, b, c = abc_parts(g)
        if args.kind == "abc-units":
            data = box_system_to_json(realize_abc_unit_squares(g, a, b, c)[0])
        else:
            data = interval_rep_to_json(realize_abc_intervals(g, a, b, c)[0])
    _write(data, args.output)
    return 0


def _cmd_verify(args) -> int:
    base = _json_object(_load_json(args.config), "campaign config") if args.config else {}
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "sizes": args.sizes,
        "output": args.output,
        "format": args.format,
    }
    cfg = CampaignConfig.from_json(
        {**base, **{k: v for k, v in overrides.items() if v is not None}}
    )
    report = verify_campaign(args.campaign, cfg, workers=args.workers)
    data = report.to_json()
    _write(render_markdown(data) if cfg.format == "markdown" else data, cfg.output)
    print(
        f"{report.campaign}: {report.passed}/{len(report.instances)} instances passed",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    data = report_from_json(_load_json(args.input))
    _write(render_markdown(data) if args.format == "md" else data, args.output)
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
    gen.add_argument("family", choices=list(_GEN))
    gen.add_argument("--n", type=int, help="n (default 3)")
    gen.add_argument("--k", type=int, help="k (default 2)")
    gen.add_argument("--i", type=int, help="level i (default 1)")
    gen.add_argument(
        "--perm", type=_int_list, help="comma-separated permutation of 1..n (abc)"
    )
    gen.add_argument("--seed", type=int, help="seed for a random abc permutation")
    gen.set_defaults(func=_cmd_gen)

    comp = sub.add_parser("compute", help="exact parameters of a graph file")
    comp.add_argument("what", choices=["fun-vertex", "fun-graph", "sd-pair", "sd-graph"])
    comp.add_argument("-i", "--input", required=True)
    comp.add_argument("--vertex", type=int)
    comp.add_argument("--x", type=int)
    comp.add_argument("--y", type=int)
    comp.add_argument("--max-n", type=int, dest="max_n")
    comp.set_defaults(func=_cmd_compute)

    wit = sub.add_parser("witness", help="low-arity witness constructions")
    wit.add_argument("kind", choices=["interval"])
    wit.add_argument("-i", "--input", required=True)
    wit.set_defaults(func=_cmd_witness)

    real = sub.add_parser("realize", help="validated geometric realizations")
    real.add_argument(
        "kind",
        choices=["abc-units", "abc-intervals", "pointbox-plane", "pointbox-r3"],
    )
    real.add_argument("-i", "--input")
    real.add_argument("--n", type=int, help="pointbox-plane: n (default 2)")
    real.add_argument("--i", type=int, dest="i", help="pointbox-plane: level i (default 1)")
    real.set_defaults(func=_cmd_realize)

    ver = sub.add_parser("verify", help="run a named verification campaign")
    ver.add_argument("campaign", choices=list(CAMPAIGN_NAMES))
    ver.add_argument("--config", help="campaign config JSON file")
    ver.add_argument("--seed", type=int)
    ver.add_argument("--trials", type=int)
    ver.add_argument("--sizes", type=_int_list, help="comma-separated size list")
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--format", choices=["json", "markdown"])
    ver.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", help="render a raw JSON report")
    rep.add_argument("--in", dest="input", required=True)
    rep.add_argument("--format", choices=["json", "md"], default="md")
    rep.set_defaults(func=_cmd_report)
    for command in sub.choices.values():
        command.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except RealizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, SizeLimitError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
