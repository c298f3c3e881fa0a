"""Named, seeded verification campaigns and their report format.

Each campaign turns one structural claim into a finite batch of checks:
generate instances from a seed, run the relevant checkers, and report one
pass/fail record per instance. Reports are machine-first JSON (optionally
rendered to markdown) and are byte-identical for identical configs and
seeds, timing fields aside.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

from . import __version__
from .constructions import (
    abc_graph,
    g_k,
    hypercube,
    point_box_incidence,
)
from .geometry import (
    embed_pointbox_r3,
    graph_from_boxes,
    realize_abc_unit_squares,
    realize_abc_intervals,
    realize_pointbox_plane,
)
from .graphs import Graph, equal_labeled, from_edge_list
from .intervals import (
    IntervalRep,
    check_sd_lemma,
    find_low_fun_witness,
    graph_from_intervals,
    normalize,
)
from .parameters import (
    _min_pair_sd,
    fun_graph,
    fun_vertex,
    fun_vertex_naive,
    is_function_of,
    is_threshold,
    refute_function,
    sd_pair,
    witness_is_valid,
)
from .rng import SplitMix64

CAMPAIGN_NAMES = (
    "lemma-sd",
    "thm-fun8",
    "gk-sd",
    "hni",
    "refute",
    "abc-realize",
    "fun-sd-bound",
    "threshold-fun0",
)


class ConfigError(ValueError):
    """Bad campaign name or configuration."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class CampaignConfig:
    seed: int = 1
    sizes: list[int] | None = None
    trials: int | None = None
    fun_max_n: int = 12
    sd_max_n: int = 14
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.format not in ("json", "markdown"):
            raise ConfigError(f"unknown report format {self.format!r}")

    @classmethod
    def from_json(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise ConfigError("campaign config must be a JSON object")
        limits = data.get("limits", {})
        if not isinstance(limits, dict):
            raise ConfigError("config 'limits' must be an object")
        values = {
            "seed": data.get("seed", 1),
            "sizes": data.get("sizes"),
            "trials": data.get("trials"),
            "fun_max_n": limits.get("fun_max_n", 12),
            "sd_max_n": limits.get("sd_max_n", 14),
            "output": data.get("output"),
            "format": data.get("format", "json"),
        }
        for key in ("seed", "trials", "fun_max_n", "sd_max_n"):
            value = values[key]
            if not _is_int(value) and not (key == "trials" and value is None):
                raise ConfigError(f"config {key!r} must be an integer, got {value!r}")
        sizes = values["sizes"]
        if sizes is not None and (
            not isinstance(sizes, list) or not all(map(_is_int, sizes))
        ):
            raise ConfigError(f"config 'sizes' must be a list of integers, got {sizes!r}")
        if not isinstance(values["output"], (str, type(None))):
            raise ConfigError(f"config 'output' must be a string, got {values['output']!r}")
        return cls(**values)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "sizes": self.sizes,
            "trials": self.trials,
            "limits": {"fun_max_n": self.fun_max_n, "sd_max_n": self.sd_max_n},
            "output": self.output,
            "format": self.format,
        }


@dataclass
class CampaignReport:
    campaign: str
    version: str
    config: dict
    instances: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.instances if r["pass"])

    @property
    def failed(self) -> int:
        return sum(1 for r in self.instances if not r["pass"])

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "campaign": self.campaign,
            "version": self.version,
            "config": self.config,
            "instances": self.instances,
            "summary": {
                "total": len(self.instances),
                "passed": self.passed,
                "failed": self.failed,
            },
            "ok": self.ok,
        }


def render_markdown(report: dict) -> str:
    lines = [
        f"# Campaign `{report['campaign']}`",
        "",
        f"- toolkit version: {report['version']}",
        f"- config: `{json.dumps(report['config'], sort_keys=True)}`",
        f"- result: **{'PASS' if report['ok'] else 'FAIL'}** "
        f"({report['summary']['passed']}/{report['summary']['total']} instances)",
        "",
        "| # | inputs | outputs | pass |",
        "|---|--------|---------|------|",
    ]
    for rec in report["instances"]:
        lines.append(
            f"| {rec['index']} | `{json.dumps(rec['inputs'], sort_keys=True)}` "
            f"| `{json.dumps(rec['outputs'], sort_keys=True)}` "
            f"| {'yes' if rec['pass'] else 'NO'} |"
        )
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def random_interval_rep(n: int, seed: int, coord_range: int) -> IntervalRep:
    """n random closed intervals with endpoints in [1, coord_range]."""
    if n < 1:
        raise ConfigError("need n >= 1 intervals")
    if coord_range < 2:
        raise ConfigError("coordinate range must be >= 2")
    rng = SplitMix64(seed)
    intervals = []
    for _ in range(n):
        a = rng.randint(1, coord_range)
        b = rng.randint(1, coord_range)
        intervals.append((min(a, b), max(a, b)))
    return IntervalRep(intervals=tuple(intervals))


def random_graph(n: int, p_num: int, p_den: int, seed: int) -> Graph:
    """Seeded Bernoulli graph: each pair is an edge with probability p_num/p_den."""
    if n < 1:
        raise ConfigError("need n >= 1 vertices")
    if p_den < 1 or not 0 <= p_num <= p_den:
        raise ConfigError("edge probability must be in [0, 1]")
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.below(p_den) < p_num:
                edges.append((u, v))
    return from_edge_list(n, edges)


def random_permutation(n: int, seed: int) -> tuple[int, ...]:
    """Seeded permutation of 1..n."""
    rng = SplitMix64(seed)
    return tuple(rng.shuffle(list(range(1, n + 1))))


# ---------------------------------------------------------------------------
# campaign instance runners
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _refute_target(name: str):
    if name == "hni44":
        g, _ = point_box_incidence(4, 4)
        return g, 1, 2
    if name == "q4":
        g, _ = hypercube(4)
        return g, 1, 3
    raise ConfigError(f"unknown refutation target {name!r}")


def _instance_lemma_sd(params: dict) -> tuple[dict, bool]:
    rep = random_interval_rep(params["n"], params["seed"], params["coord_range"])
    result = check_sd_lemma(normalize(rep))
    out = {"pairs": result.pairs_checked, "violation": result.violation}
    return out, result.ok


def _instance_thm_fun8(params: dict) -> tuple[dict, bool]:
    rep = random_interval_rep(params["n"], params["seed"], params["coord_range"])
    pts = normalize(rep)
    w = find_low_fun_witness(pts)
    from .intervals import graph_from_points

    ok = witness_is_valid(graph_from_points(pts), w)
    bound = 7 if params["n"] <= 8 else 8
    ok = ok and w.arity <= bound
    return {"arity": w.arity, "origin": w.origin, "bound": bound}, ok


def _instance_gk_sd(params: dict) -> tuple[dict, bool]:
    k = params["k"]
    g, meta = g_k(k)
    worst = _min_pair_sd(g.rows, g.full_mask)[0]
    ok = worst >= k
    out = {"n": g.n, "min_sd": worst}
    if params.get("check_coordinates"):
        a_mask = 0
        for v in meta.parts["A"]:
            a_mask |= 1 << v
        c_mask = 0
        for v in meta.parts["C"]:
            c_mask |= 1 << v
        coord_ok = True
        b_ids = meta.parts["B"]
        for ui in range(len(b_ids)):
            u = b_ids[ui]
            du = meta.vertex_data[u]
            for vi in range(ui + 1, len(b_ids)):
                v = b_ids[vi]
                dv = meta.vertex_data[v]
                diff = g.rows[u] ^ g.rows[v]
                if (diff & a_mask).bit_count() != abs(du["bx"] - dv["bx"]):
                    coord_ok = False
                    break
                if (diff & c_mask).bit_count() != abs(du["by"] - dv["by"]):
                    coord_ok = False
                    break
            if not coord_ok:
                break
        out["coordinate_counts_exact"] = coord_ok
        ok = ok and coord_ok
    return out, ok


def _instance_hni(params: dict) -> tuple[dict, bool]:
    from .parameters import structure_scan

    n, i = params["n"], params["i"]
    g, meta = point_box_incidence(n, i)
    p_ids, box_ids = meta.parts["P"], meta.parts["Box"]
    checks = {
        "p_count": len(p_ids) == n ** i,
        "box_count": len(box_ids) == i * n ** (i - 1),
        "box_degree": all(g.degree(v) == n for v in box_ids),
        "point_degree": all(g.degree(v) == i for v in p_ids),
    }
    scan = structure_scan(g, 2)
    checks["k22_free"] = scan.k2p_free
    checks["triangle_free"] = scan.triangle_free
    pts, bs, report = realize_pointbox_plane(n, i)
    checks["plane_equal"] = report.equal
    bs3 = embed_pointbox_r3(pts, bs)
    checks["r3_equal"] = equal_labeled(graph_from_boxes(bs3), g)
    return checks, all(checks.values())


def _instance_refute(params: dict) -> tuple[dict, bool]:
    g, k, p = _refute_target(params["graph"])
    rng = SplitMix64(params["seed"])
    x = rng.below(g.n)
    s = set()
    while len(s) < k:
        v = rng.below(g.n)
        if v != x:
            s.add(v)
    pair = refute_function(g, x, s, k, p)
    ok_fn, _ = is_function_of(g, x, s)
    shared_profile = all(
        g.has_edge(pair.u, t) == g.has_edge(pair.w, t) for t in s
    )
    split = g.has_edge(x, pair.u) and not g.has_edge(x, pair.w)
    ok = (not ok_fn) and shared_profile and split
    return {"x": x, "s": sorted(s), "u": pair.u, "w": pair.w}, ok


def _instance_abc_realize(params: dict) -> tuple[dict, bool]:
    n = params["n"]
    perm = random_permutation(n, params["seed"])
    g, meta = abc_graph(n, perm)
    a, b, c = meta.parts["A"], meta.parts["B"], meta.parts["C"]
    _, sq_report = realize_abc_unit_squares(g, a, b, c)
    rep, iv_report = realize_abc_intervals(g, a, b, c)
    w = find_low_fun_witness(normalize(rep))
    w_ok = witness_is_valid(graph_from_intervals(rep), w) and w.arity <= 8
    out = {
        "n": n,
        "squares_equal": sq_report.equal,
        "squares_unit": sq_report.unit,
        "intervals_equal": iv_report.equal,
        "witness_arity": w.arity,
    }
    return out, sq_report.equal and bool(sq_report.unit) and iv_report.equal and w_ok


def _instance_fun_sd_bound(params: dict) -> tuple[dict, bool]:
    g = random_graph(params["n"], 1, 2, params["seed"])
    n = g.n
    rng = SplitMix64(params["seed"] ^ 0xDEADBEEF)
    checks = {"deg_bounds": True, "sd_bound": True, "twins": True, "anti_twins": True}
    funs = {}
    for y in range(n):
        k, w = fun_vertex(g, y)
        funs[y] = k
        if k > g.degree(y) or k > n - 1 - g.degree(y):
            checks["deg_bounds"] = False
    for x in range(n):
        for y in range(x + 1, n):
            d = sd_pair(g, x, y)
            if funs[x] > d + 1 or funs[y] > d + 1:
                checks["sd_bound"] = False
            keep = g.full_mask & ~(1 << x) & ~(1 << y)
            rx, ry = g.rows[x] & keep, g.rows[y] & keep
            if rx == ry and d != 0:
                checks["twins"] = False
            if rx ^ ry == keep and d != n - 2:
                checks["anti_twins"] = False
    probe = rng.below(n)
    naive_k, _ = fun_vertex_naive(g, probe)
    checks["naive_match"] = funs[probe] == naive_k
    return {"n": n, "checks": checks}, all(checks.values())


def _instance_threshold_fun0(params: dict) -> tuple[dict, bool]:
    g = random_graph(params["n"], params["p_num"], params["p_den"], params["seed"])
    fg = fun_graph(g, max_n=params["n"])
    th = is_threshold(g)
    return {"n": g.n, "fun_graph": fg, "threshold": th}, (fg == 0) == th


_RUNNERS = {
    "lemma-sd": _instance_lemma_sd,
    "thm-fun8": _instance_thm_fun8,
    "gk-sd": _instance_gk_sd,
    "hni": _instance_hni,
    "refute": _instance_refute,
    "abc-realize": _instance_abc_realize,
    "fun-sd-bound": _instance_fun_sd_bound,
    "threshold-fun0": _instance_threshold_fun0,
}


# ---------------------------------------------------------------------------
# instance plans (deterministic given the config)
# ---------------------------------------------------------------------------

def _plan(name: str, cfg: CampaignConfig) -> list[dict]:
    rng = SplitMix64(cfg.seed)
    if name == "lemma-sd":
        trials = cfg.trials or 500
        sizes = cfg.sizes or list(range(1, 61))
        return [
            {
                "n": sizes[rng.below(len(sizes))],
                "seed": rng.next_u64(),
                "coord_range": 1000,
            }
            for _ in range(trials)
        ]
    if name == "thm-fun8":
        trials = cfg.trials or 500
        sizes = cfg.sizes or list(range(1, 61))
        return [
            {
                "n": sizes[rng.below(len(sizes))],
                "seed": rng.next_u64(),
                "coord_range": 1000,
            }
            for _ in range(trials)
        ]
    if name == "gk-sd":
        sizes = cfg.sizes or [2, 3, 4]
        if min(sizes) < 2:
            raise ConfigError(f"gk-sd needs every k >= 2, got {min(sizes)}")
        return [{"k": k, "check_coordinates": k <= 3} for k in sizes]
    if name == "hni":
        sizes = cfg.sizes or [4]
        top = max(sizes)
        return [
            {"n": n, "i": i}
            for n in range(1, top + 1)
            for i in range(1, n + 1)
        ]
    if name == "refute":
        trials = cfg.trials or 1000
        plans = []
        for graph in ("hni44", "q4"):
            plans.extend(
                {"graph": graph, "seed": rng.next_u64()} for _ in range(trials)
            )
        return plans
    if name == "abc-realize":
        trials = cfg.trials or 100
        sizes = cfg.sizes or list(range(1, 51))
        return [
            {"n": sizes[rng.below(len(sizes))], "seed": rng.next_u64()}
            for _ in range(trials)
        ]
    if name == "fun-sd-bound":
        trials = cfg.trials or 1000
        sizes = cfg.sizes or list(range(4, 13))
        if max(sizes) > cfg.fun_max_n:
            raise ConfigError(
                f"sizes up to {max(sizes)} exceed the fun_max_n limit {cfg.fun_max_n}"
            )
        return [
            {"n": sizes[rng.below(len(sizes))], "seed": rng.next_u64()}
            for _ in range(trials)
        ]
    if name == "threshold-fun0":
        trials = cfg.trials or 200
        sizes = cfg.sizes or list(range(2, 10))
        if max(sizes) > cfg.fun_max_n:
            raise ConfigError(
                f"sizes up to {max(sizes)} exceed the fun_max_n limit {cfg.fun_max_n}"
            )
        plans = []
        for _ in range(trials):
            plans.append(
                {
                    "n": sizes[rng.below(len(sizes))],
                    "p_num": 1 + rng.below(3),
                    "p_den": 4,
                    "seed": rng.next_u64(),
                }
            )
        return plans
    raise ConfigError(f"unknown campaign {name!r}; choose from {CAMPAIGN_NAMES}")


def _run_one(task: tuple[str, int, dict]) -> dict:
    name, index, params = task
    start = time.perf_counter()
    try:
        outputs, ok = _RUNNERS[name](params)
    except Exception as exc:  # one instance's error must not end the campaign
        outputs, ok = {"error_type": type(exc).__name__, "error": str(exc)}, False
    return {
        "index": index,
        "inputs": params,
        "outputs": outputs,
        "pass": ok,
        "seconds": round(time.perf_counter() - start, 6),
    }


def verify_campaign(
    name: str, cfg: CampaignConfig | None = None, workers: int = 1
) -> CampaignReport:
    """Run a named campaign; the report is deterministic for a fixed config."""
    cfg = cfg or CampaignConfig()
    plans = _plan(name, cfg)
    if not plans:
        raise ConfigError(f"campaign {name!r} has no instances under this config")
    tasks = [(name, idx, params) for idx, params in enumerate(plans)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            instances = list(pool.map(_run_one, tasks, chunksize=8))
    else:
        instances = [_run_one(t) for t in tasks]
    return CampaignReport(
        campaign=name,
        version=__version__,
        config=cfg.to_json(),
        instances=instances,
    )
