"""Named, seeded verification campaigns and their report format.

Each campaign turns one structural claim into a finite batch of checks:
generate instances from a seed, run the relevant checkers, and report one
pass/fail record per instance. Reports are machine-first JSON (optionally
rendered to markdown) and are byte-identical for identical configs and
seeds, timing fields aside.

A campaign is one entry of ``CAMPAIGNS``, a ``Campaign(plan, run)`` record:
``plan(rng, cfg)`` lists the params of every instance and must depend only
on the config and on draws from ``rng`` (seeded with ``cfg.seed``);
``run(params)`` checks one instance and returns ``(outputs, ok)``. Params
must be plain JSON data, since they are pickled to worker processes and
copied into the report. A plan reads ``cfg.sizes`` only through ``_pool``,
which holds the one size rule.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable

from . import __version__
from .constructions import (
    FAMILY_SIZES,
    abc_graph,
    check_size,
    g_k,
    hypercube,
    point_box_incidence,
)
from .geometry import (
    embed_pointbox_r3,
    realize_abc_unit_squares,
    realize_abc_intervals,
    realize_pointbox_plane,
)
from .graphs import Graph, GraphError, _json_count, _json_int, _json_list, _json_object, mask_of
from .intervals import (
    IntervalRep,
    check_sd_lemma,
    find_low_fun_witness,
    normalize,
)
from .parameters import (
    FUN_MAX_N_DEFAULT,
    SD_MAX_N_DEFAULT,
    _k2p_free,
    _min_pair_sd,
    _triangle_free,
    fun_graph,
    fun_vertices,
    is_function_of,
    is_threshold,
    refute_function,
    witness_is_valid,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class CampaignConfig:
    """A campaign's settings; every field is checked here, whether the
    config comes from a file (``from_json``), from CLI flags or from Python."""

    seed: int = 1
    sizes: tuple[int, ...] | None = None
    trials: int | None = None
    fun_max_n: int = FUN_MAX_N_DEFAULT
    sd_max_n: int = SD_MAX_N_DEFAULT
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        # sizes and trials are capped like a file's entries, since planning
        # holds every instance's params before any instance runs
        if self.sizes is not None:
            for s in _json_list(self.sizes, "config 'sizes'", capped=True):
                _json_int(s, "config size")
        if self.trials is not None:
            _json_count(_json_int(self.trials, "config 'trials'"), "config", "trials")
        for name in ("seed", "fun_max_n", "sd_max_n"):
            _json_int(getattr(self, name), f"config {name!r}")
        if not isinstance(self.output, (str, type(None))):
            raise GraphError(f"config 'output' must be a string, got {self.output!r}")
        if self.trials is not None and self.trials < 1:
            raise GraphError("trials must be >= 1")
        if self.sizes is not None and not self.sizes:
            raise GraphError("sizes must not be empty; omit it for the defaults")
        if self.format not in ("json", "markdown"):
            raise GraphError(f"unknown report format {self.format!r}")
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(self.sizes))

    @classmethod
    def from_json(cls, data: dict) -> "CampaignConfig":
        """The config a JSON document describes. Its keys are those that
        ``to_json`` writes, and the constructor checks their values."""
        data = _json_object(data, "campaign config")
        limits = _json_object(data.get("limits", {}), "config 'limits'")
        keys = cls().to_json()
        unknown = [k for k in data if k not in keys]
        unknown += [f"limits.{k}" for k in limits if k not in keys["limits"]]
        if unknown:
            raise GraphError(f"unknown campaign config key {unknown[0]!r}")
        return cls(**{k: v for k, v in data.items() if k != "limits"}, **limits)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "sizes": None if self.sizes is None else list(self.sizes),
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


_REPORT_KEYS = ("campaign", "version", "config", "ok", "summary", "instances")
_INSTANCE_KEYS = ("index", "inputs", "outputs", "pass")


def report_from_json(data) -> dict:
    """Check that loaded JSON has the report shape ``render_markdown`` reads."""
    _json_object(data, "report JSON", _REPORT_KEYS)
    _json_object(data["summary"], "report JSON 'summary'", ("passed", "total"))
    for i, rec in enumerate(_json_list(data["instances"], "report JSON 'instances'")):
        _json_object(rec, f"report instance {i}", _INSTANCE_KEYS)
    return data


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
        raise GraphError("need n >= 1 intervals")
    if coord_range < 2:
        raise GraphError("coordinate range must be >= 2")
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
        raise GraphError("need n >= 1 vertices")
    if p_den < 1 or not 0 <= p_num <= p_den:
        raise GraphError("edge probability must be in [0, 1]")
    rng = SplitMix64(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.below(p_den) < p_num:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows)


def random_permutation(n: int, seed: int) -> tuple[int, ...]:
    """Seeded permutation of 1..n."""
    rng = SplitMix64(seed)
    return tuple(rng.shuffle(list(range(1, n + 1))))


# ---------------------------------------------------------------------------
# campaign instance runners
# ---------------------------------------------------------------------------

# name -> (family, family args, k, p): refute_function's premise on the graph
_REFUTE_TARGETS = {
    "hni44": (point_box_incidence, (4, 4), 1, 2),
    "q4": (hypercube, (4,), 1, 3),
}


@lru_cache(maxsize=len(_REFUTE_TARGETS))
def _refute_target(name: str):
    family, args, k, p = _REFUTE_TARGETS[name]
    g, _ = family(*args)
    return g, k, p


def _instance_lemma_sd(params: dict) -> tuple[dict, bool]:
    rep = random_interval_rep(params["n"], params["seed"], params["coord_range"])
    result = check_sd_lemma(normalize(rep))
    out = {"pairs": result.pairs_checked, "violation": result.violation}
    return out, result.ok


def _instance_thm_fun8(params: dict) -> tuple[dict, bool]:
    rep = random_interval_rep(params["n"], params["seed"], params["coord_range"])
    pts = normalize(rep)
    w = find_low_fun_witness(pts)  # validated against graph_from_points(pts)
    bound = 7 if params["n"] <= 8 else 8
    return {"arity": w.arity, "origin": w.origin, "bound": bound}, w.arity <= bound


def _instance_gk_sd(params: dict) -> tuple[dict, bool]:
    k = params["k"]
    g, meta = g_k(k)
    worst = _min_pair_sd(g.rows, g.full_mask)[0]
    ok = worst >= k
    out = {"n": g.n, "min_sd": worst}
    if params.get("check_coordinates"):
        # B vertices u, v differ on |bx_u - bx_v| vertices of A and |by_u - by_v| of C
        axes = [(mask_of(meta.parts["A"], g.n), "bx"), (mask_of(meta.parts["C"], g.n), "by")]
        data = meta.vertex_data
        coord_ok = all(
            ((g.rows[u] ^ g.rows[v]) & mask).bit_count() == abs(data[u][key] - data[v][key])
            for u, v in combinations(meta.parts["B"], 2)
            for mask, key in axes
        )
        out["coordinate_counts_exact"] = coord_ok
        ok = ok and coord_ok
    return out, ok


def _instance_hni(params: dict) -> tuple[dict, bool]:
    n, i = params["n"], params["i"]
    g, meta = point_box_incidence(n, i)
    p_ids, box_ids = meta.parts["P"], meta.parts["Box"]
    checks = {
        "p_count": len(p_ids) == n ** i,
        "box_count": len(box_ids) == i * n ** (i - 1),
        "box_degree": all(g.degree(v) == n for v in box_ids),
        "point_degree": all(g.degree(v) == i for v in p_ids),
    }
    checks["k22_free"] = _k2p_free(g.rows, 2)
    checks["triangle_free"] = _triangle_free(g.rows)
    # both realizers raise RealizationError unless their boxes rebuild g
    pts, bs, report = realize_pointbox_plane(n, i)
    checks["plane_equal"] = report.equal
    embed_pointbox_r3(pts, bs)
    checks["r3_equal"] = True
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
    w_ok = witness_is_valid(iv_report.realized_graph, w) and w.arity <= 8
    out = {
        "n": n,
        "squares_equal": sq_report.equal,
        "squares_unit": sq_report.unit,
        "intervals_equal": iv_report.equal,
        "witness_arity": w.arity,
    }
    return out, sq_report.equal and bool(sq_report.unit) and iv_report.equal and w_ok


def _least_arity_holds(g: Graph, y: int, k: int, args: tuple[int, ...]) -> bool:
    """Whether ``args`` is an argument set of y and k is y's functionality.

    Only the (k - 1)-sets of the other vertices need a check: any superset
    of a working argument set also works, so if no (k - 1)-set works, no
    smaller set does either.
    """
    if len(args) != k or not is_function_of(g, y, args)[0]:
        return False
    others = [v for v in range(g.n) if v != y]
    return k == 0 or not any(
        is_function_of(g, y, c)[0] for c in combinations(others, k - 1)
    )


def _instance_fun_sd_bound(params: dict) -> tuple[dict, bool]:
    g = random_graph(params["n"], 1, 2, params["seed"])
    n = g.n
    rng = SplitMix64(params["seed"] ^ 0xDEADBEEF)
    checks = {"deg_bounds": True, "sd_bound": True, "twins": True, "anti_twins": True}
    answers = fun_vertices(g, max_n=n)
    funs = [k for k, _ in answers]
    for y, k in enumerate(funs):
        if k > g.degree(y) or k > n - 1 - g.degree(y):
            checks["deg_bounds"] = False
    for x in range(n):
        for y in range(x + 1, n):
            keep = g.full_mask & ~(1 << x) & ~(1 << y)
            rx, ry = g.rows[x] & keep, g.rows[y] & keep
            d = (rx ^ ry).bit_count()
            if funs[x] > d + 1 or funs[y] > d + 1:
                checks["sd_bound"] = False
            if rx == ry and d != 0:
                checks["twins"] = False
            if rx ^ ry == keep and d != n - 2:
                checks["anti_twins"] = False
    probe = rng.below(n)
    k, w = answers[probe]
    checks["naive_match"] = _least_arity_holds(g, probe, k, w.args)
    return {"n": n, "checks": checks}, all(checks.values())


def _instance_threshold_fun0(params: dict) -> tuple[dict, bool]:
    g = random_graph(params["n"], params["p_num"], params["p_den"], params["seed"])
    fg = fun_graph(g, max_n=params["n"])
    th = is_threshold(g)
    return {"n": g.n, "fun_graph": fg, "threshold": th}, (fg == 0) == th


# ---------------------------------------------------------------------------
# instance plans (deterministic given the config) and the campaign table
# ---------------------------------------------------------------------------

def _pool(cfg: CampaignConfig, sizes, family=None, least=1):
    """``cfg.sizes or sizes``, refused if a size is below ``least`` or if
    ``family``'s largest instance, every parameter at the top size, fails
    ``check_size``."""
    pool = cfg.sizes or sizes
    if min(pool) < least:
        raise GraphError(f"sizes must be >= {least}, got {min(pool)}")
    if family:
        check_size(family, **dict.fromkeys(FAMILY_SIZES[family][0], max(pool)))
    return pool


def _sampled(
    trials, sizes, *, coord_range=None, edge_p=False, fun_limited=False, family=None
):
    """Plan of ``cfg.trials or trials`` instances, each drawing n from the
    ``_pool`` of ``sizes`` and ``family``, then (``edge_p``) an edge
    probability p_num/4, then a seed; ``fun_limited`` caps the pool at
    ``cfg.fun_max_n``."""

    def plan(rng: SplitMix64, cfg: CampaignConfig) -> list[dict]:
        pool = _pool(cfg, sizes, family)
        if fun_limited and max(pool) > cfg.fun_max_n:
            raise GraphError(
                f"sizes up to {max(pool)} exceed the fun_max_n limit {cfg.fun_max_n}"
            )
        plans = []
        for _ in range(cfg.trials or trials):
            params = {"n": pool[rng.below(len(pool))]}
            if edge_p:
                params.update(p_num=1 + rng.below(3), p_den=4)
            params["seed"] = rng.next_u64()
            if coord_range:
                params["coord_range"] = coord_range
            plans.append(params)
        return plans

    return plan


def _plan_gk_sd(rng: SplitMix64, cfg: CampaignConfig) -> list[dict]:
    sizes = _pool(cfg, (2, 3, 4), "gk", least=2)
    return [{"k": k, "check_coordinates": k <= 3} for k in sizes]


def _plan_hni(rng: SplitMix64, cfg: CampaignConfig) -> list[dict]:
    top = max(_pool(cfg, (4,), "hni"))
    return [{"n": n, "i": i} for n in range(1, top + 1) for i in range(1, n + 1)]


def _plan_refute(rng: SplitMix64, cfg: CampaignConfig) -> list[dict]:
    trials = cfg.trials or 1000
    return [
        {"graph": graph, "seed": rng.next_u64()}
        for graph in _REFUTE_TARGETS
        for _ in range(trials)
    ]


@dataclass(frozen=True)
class Campaign:
    plan: Callable[[SplitMix64, CampaignConfig], list[dict]]
    run: Callable[[dict], tuple[dict, bool]]


CAMPAIGNS: dict[str, Campaign] = {
    "lemma-sd": Campaign(
        _sampled(500, range(1, 61), coord_range=1000, family="interval model"), _instance_lemma_sd
    ),
    "thm-fun8": Campaign(
        _sampled(500, range(1, 61), coord_range=1000, family="interval model"), _instance_thm_fun8
    ),
    "gk-sd": Campaign(_plan_gk_sd, _instance_gk_sd),
    "hni": Campaign(_plan_hni, _instance_hni),
    "refute": Campaign(_plan_refute, _instance_refute),
    "abc-realize": Campaign(_sampled(100, range(1, 51), family="abc"), _instance_abc_realize),
    "fun-sd-bound": Campaign(
        _sampled(1000, range(4, 13), fun_limited=True), _instance_fun_sd_bound
    ),
    "threshold-fun0": Campaign(
        _sampled(200, range(2, 10), edge_p=True, fun_limited=True),
        _instance_threshold_fun0,
    ),
}
CAMPAIGN_NAMES = tuple(CAMPAIGNS)


def _run_one(task: tuple[str, int, dict]) -> dict:
    name, index, params = task
    start = time.perf_counter()
    try:
        outputs, ok = CAMPAIGNS[name].run(params)
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
    """Run a named campaign; the report is deterministic for a fixed config.

    The instances run in min(``workers``, instance count, CPU count)
    processes. When that is 1 they run in this process, and the process
    pool is never imported: it loads ``multiprocessing`` and about 35 other
    modules that a one-process run never uses.
    """
    cfg = cfg or CampaignConfig()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise GraphError(f"workers must be an integer >= 1, got {workers!r}")
    if name not in CAMPAIGNS:
        raise GraphError(f"unknown campaign {name!r}; choose from {CAMPAIGN_NAMES}")
    plans = CAMPAIGNS[name].plan(SplitMix64(cfg.seed), cfg)
    if not plans:
        raise GraphError(f"campaign {name!r} has no instances under this config")
    tasks = [(name, idx, params) for idx, params in enumerate(plans)]
    procs = min(workers, len(tasks), os.cpu_count() or 1)
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # chunks of at most 8 instances, small enough that every process gets one
        chunksize = min(8, len(tasks) // procs)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            instances = list(pool.map(_run_one, tasks, chunksize=chunksize))
    else:
        instances = [_run_one(t) for t in tasks]
    return CampaignReport(
        campaign=name,
        version=__version__,
        config=cfg.to_json(),
        instances=instances,
    )
