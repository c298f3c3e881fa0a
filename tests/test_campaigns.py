import concurrent.futures
import copy
import hashlib
import json
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import funbox as fb
from funbox import campaigns
from funbox.campaigns import (
    CAMPAIGN_NAMES,
    CampaignConfig,
    render_markdown,
    verify_campaign,
)
from funbox.geometry import RealizationError
from funbox.graphs import GraphError, SizeLimitError
from funbox.rng import SplitMix64


def test_splitmix64_known_stream():
    # reference values for seed 0 (standard splitmix64 constants)
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_rejects_empty_ranges():
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(0).below(0)
    with pytest.raises(ValueError, match="empty range"):
        SplitMix64(0).randint(2, 1)


def test_random_interval_rep_deterministic():
    a = fb.random_interval_rep(5, 42, 100)
    b = fb.random_interval_rep(5, 42, 100)
    assert a == b
    assert fb.random_interval_rep(1, 7, 10).n == 1


def test_random_interval_rep_validates():
    with pytest.raises(GraphError):
        fb.random_interval_rep(0, 1, 10)
    with pytest.raises(GraphError):
        fb.random_interval_rep(3, 1, 1)


def test_random_graph_extremes():
    empty = fb.random_graph(6, 0, 1, 3)
    full = fb.random_graph(6, 1, 1, 3)
    assert empty.edge_count() == 0
    assert full.edge_count() == 15
    assert fb.equal_labeled(fb.random_graph(10, 1, 2, 9), fb.random_graph(10, 1, 2, 9))


def test_random_graph_validates_probability():
    with pytest.raises(GraphError):
        fb.random_graph(5, 3, 2, 1)


def test_random_graph_needs_a_vertex():
    with pytest.raises(GraphError, match="n >= 1"):
        fb.random_graph(0, 1, 2, 1)


def test_config_json_round_trip():
    cfg = CampaignConfig.from_json(
        {"seed": 9, "trials": 3, "limits": {"fun_max_n": 10, "sd_max_n": 11}}
    )
    assert cfg.seed == 9 and cfg.trials == 3
    assert cfg.fun_max_n == 10 and cfg.sd_max_n == 11
    assert CampaignConfig.from_json(cfg.to_json()) == cfg


def test_config_is_frozen():
    # a field set after construction would skip the checks and reach the report
    cfg = CampaignConfig()
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, True)
    assert cfg == CampaignConfig()


def test_config_holds_its_sizes_as_a_tuple():
    # a list would stay open to changes that skip the checks
    sizes = [2]
    cfg = CampaignConfig(sizes=sizes)
    sizes.append("a")
    assert cfg.sizes == (2,) and not hasattr(cfg.sizes, "append")
    assert hash(cfg) == hash(CampaignConfig(sizes=(2,)))
    assert cfg.to_json()["sizes"] == [2]
    assert CampaignConfig.from_json(cfg.to_json()) == cfg
    assert verify_campaign("gk-sd", cfg).config["sizes"] == [2]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"trials": 1 << 16}, None),
        ({"sizes": [1] * (1 << 16)}, None),
        ({"trials": (1 << 16) + 1}, "config has 65537 trials, more than the limit 65536"),
        ({"trials": 10**8}, "config has 100000000 trials, more than the limit 65536"),
        (
            {"sizes": [1] * ((1 << 16) + 1)},
            "config 'sizes' has 65537 entries, more than the limit 65536",
        ),
    ],
)
def test_config_caps_trials_and_sizes(fields, message):
    # planning holds every instance's params before the first one runs
    if message is None:
        CampaignConfig(**fields)
    else:
        with pytest.raises(SizeLimitError) as exc:
            CampaignConfig(**fields)
        assert str(exc.value) == message


def test_config_validates():
    with pytest.raises(GraphError):
        CampaignConfig(trials=0)
    with pytest.raises(GraphError):
        CampaignConfig(format="yaml")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"sizes": ["a"]}, "config size must be an integer, got 'a'"),
        ({"seed": "x"}, "config 'seed' must be an integer, got 'x'"),
        ({"fun_max_n": None}, "config 'fun_max_n' must be an integer, got None"),
        ({"sizes": [5], "trials": 2.0}, "config 'trials' must be an integer, got 2.0"),
        ({"trials": True}, "config 'trials' must be an integer, got True"),
        ({"output": 3}, "config 'output' must be a string, got 3"),
    ],
)
def test_config_built_in_python_is_checked(fields, message):
    with pytest.raises(GraphError) as exc:
        verify_campaign("threshold-fun0", CampaignConfig(**fields))
    assert str(exc.value) == message


def test_unknown_campaign():
    with pytest.raises(GraphError):
        verify_campaign("nope", CampaignConfig())


def test_sizes_beyond_limits_rejected():
    with pytest.raises(GraphError, match="fun_max_n"):
        verify_campaign("threshold-fun0", CampaignConfig(sizes=[13], trials=1))


def test_empty_plan_rejected(monkeypatch):
    # no config reaches an empty plan, but a campaign without instances must
    # not pass vacuously
    real = campaigns.CAMPAIGNS["hni"]
    monkeypatch.setitem(campaigns.CAMPAIGNS, "hni", replace(real, plan=lambda rng, cfg: []))
    with pytest.raises(GraphError, match="no instances"):
        verify_campaign("hni", CampaignConfig())


@pytest.mark.parametrize("name", [n for n in CAMPAIGN_NAMES if n != "refute"])
def test_a_size_below_the_least_is_refused_before_any_instance(monkeypatch, name):
    least = 2 if name == "gk-sd" else 1

    def never(params):
        raise AssertionError("an instance ran")

    monkeypatch.setitem(campaigns.CAMPAIGNS, name, replace(campaigns.CAMPAIGNS[name], run=never))
    with pytest.raises(GraphError) as exc:
        verify_campaign(name, CampaignConfig(sizes=(least - 1, 5)))
    assert str(exc.value) == f"sizes must be >= {least}, got {least - 1}"


def test_refute_ignores_sizes():
    report = verify_campaign("refute", CampaignConfig(sizes=(0,), trials=1))
    assert report.ok and len(report.instances) == 2


@pytest.mark.parametrize("exc_type", [SizeLimitError, RealizationError, AssertionError])
def test_instance_error_is_recorded(monkeypatch, exc_type):
    real = campaigns.CAMPAIGNS["gk-sd"]

    def flaky(params):
        if params["k"] == 3:
            raise exc_type("boom")
        return real.run(params)

    monkeypatch.setitem(campaigns.CAMPAIGNS, "gk-sd", replace(real, run=flaky))
    report = verify_campaign("gk-sd", CampaignConfig(sizes=[2, 3]))
    good, bad = report.instances
    assert good["pass"] and "error" not in good["outputs"]
    assert not bad["pass"]
    assert bad["outputs"] == {"error_type": exc_type.__name__, "error": "boom"}
    assert not report.ok and report.failed == 1


def _strip_timing(report: dict) -> dict:
    out = copy.deepcopy(report)
    for rec in out["instances"]:
        rec.pop("seconds")
    return out


@pytest.mark.parametrize("name", ["lemma-sd", "thm-fun8", "abc-realize"])
def test_reports_reproducible(name):
    cfg = CampaignConfig(seed=11, trials=8)
    r1 = verify_campaign(name, cfg).to_json()
    r2 = verify_campaign(name, CampaignConfig(seed=11, trials=8)).to_json()
    assert json.dumps(_strip_timing(r1), sort_keys=True) == json.dumps(
        _strip_timing(r2), sort_keys=True
    )
    assert r1["ok"]


# sha256 of each report's to_json() with "seconds" stripped, keys sorted
PINNED_DIGESTS = {
    ("lemma-sd", 5, None): "248ad802f5866494100d3adbd3a0a48a50ed4d5485cfe7183989c7e9e721dd1d",
    ("thm-fun8", 5, None): "9a17f9f42acb3341d49f798228927fed08a44662146b3e9706bd38c10e4f1871",
    ("gk-sd", 5, None): "d519f2712fc233acc8366781079aef5e0405df4ce1881448ce1b917ef35bea0a",
    ("hni", 5, None): "2c1e505c5f16c16ef75bf53f976091b53cbdcfe94ce884602ee1051ebbbc5bc9",
    ("refute", 5, None): "bb1aa60823f6a5fad4b502f3cba9721e774bed735062d86b47d79cddb99f23ab",
    ("abc-realize", 5, None): "78dcb0c2cf004ff5353f424099064e227f7b9e054a99028591a988d897e8557e",
    ("fun-sd-bound", 5, None): "3f7c7bea0c141b7d3efb492e0bd8ec362965d43129536094df86b9dc8bc2143e",
    ("threshold-fun0", 5, None): "df33df95472a0db9486d4863f9b0e06ecd11226371c630b08b2e9417ad943469",
    ("lemma-sd", 3, (2, 3)): "ee427c0a768f3a88a00bd8fa84aa964620248f5e73ff2163bcadb2bab1467c5f",
    ("thm-fun8", 3, (2, 3)): "5ad49af7b19140b2064343d9695ea35d247e2c418dc043cdf9ac61041ea29971",
    ("gk-sd", 3, (2, 3)): "ac60a47ba21b0b433ac462a621027b65944841cd238b0a733fd0c406f59e2f8c",
    ("hni", 3, (2, 3)): "096179afb5133c39598be334fd44a7ca7352e2784c0719b294149754cf6c464f",
    ("refute", 3, (2, 3)): "e4d123c7c9311cdb5f3ff2c289a91d211e23ccc3596fbecacfa76a02cfba4c51",
    ("abc-realize", 3, (2, 3)): "91c924587e81783cdecbb5cc0fcb5dbfd488fe6b44187b2ee3a092f764950e17",
    ("fun-sd-bound", 3, (2, 3)): "ab2f63edb472a563851f7babf62d666c52621e42202abc079adf63843946e261",
    ("threshold-fun0", 3, (2, 3)): "0c38d4230bb591897783499c5a15528c3c0059b10d038656b2eada7c65780d94",
}


@pytest.mark.parametrize("name, trials, sizes", list(PINNED_DIGESTS))
def test_report_digest_pinned(name, trials, sizes):
    cfg = CampaignConfig(seed=7, trials=trials, sizes=list(sizes) if sizes else None)
    text = json.dumps(_strip_timing(verify_campaign(name, cfg).to_json()), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name, trials, sizes]


def test_report_independent_of_worker_count():
    cfg = CampaignConfig(seed=4, trials=6)
    seq = verify_campaign("lemma-sd", cfg, workers=1).to_json()
    par = verify_campaign("lemma-sd", cfg, workers=2).to_json()
    assert _strip_timing(seq) == _strip_timing(par)


@pytest.fixture
def pool_sizes(monkeypatch):
    """``(max_workers, chunksize, task count)`` of every process pool made;
    the pool maps in process."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            pools.append((self.max_workers, chunksize, len(tasks)))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # a module-level import in campaigns would bypass the patch above and fork
    # max_workers real processes; patch that name too, so it fails instead
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", RecordingPool, raising=False)
    return pools


@pytest.mark.parametrize(
    "workers, sizes, cpus, made",
    [
        (10**6, [2, 2, 3], 64, [(3, 1)]),  # capped by the instance count
        (10**6, [2, 2, 3], 2, [(2, 1)]),  # capped by the CPU count
        (10**6, [2, 2, 3], 1, []),
        (10**6, [2, 2, 3], None, []),
        (2, [2], 64, []),  # one instance runs in process
        (2, [2, 2, 3], 64, [(2, 1)]),
        (3, [2] * 10, 64, [(3, 3)]),  # chunks of 8 would leave a process idle
        (2, [2] * 16, 64, [(2, 8)]),
        (2, [2] * 21, 64, [(2, 8)]),
    ],
)
def test_pool_size_is_capped(monkeypatch, pool_sizes, workers, sizes, cpus, made):
    monkeypatch.setattr(campaigns.os, "cpu_count", lambda: cpus)
    cfg = CampaignConfig(sizes=sizes)
    report = verify_campaign("gk-sd", cfg, workers=workers).to_json()
    assert [(procs, chunksize) for procs, chunksize, _ in pool_sizes] == made
    for procs, chunksize, instances in pool_sizes:
        assert -(-instances // chunksize) >= procs  # every process gets a chunk
    assert _strip_timing(report) == _strip_timing(verify_campaign("gk-sd", cfg).to_json())


def test_least_arity_check_agrees_with_the_naive_search():
    for n in range(1, 11):
        for seed in range(3):
            g = campaigns.random_graph(n, 1, 2, 100 * n + seed)
            for y, (k, w) in enumerate(fb.fun_vertices(g)):
                naive_k, naive_args = fb.fun_vertex_naive(g, y)
                assert k == naive_k
                assert campaigns._least_arity_holds(g, y, k, w.args)
                assert campaigns._least_arity_holds(g, y, naive_k, naive_args)
                spare = [v for v in range(n) if v != y and v not in w.args]
                if spare:  # a working set one too large
                    assert not campaigns._least_arity_holds(
                        g, y, k + 1, tuple(sorted(w.args + (spare[0],)))
                    )
                if k:  # one too small
                    assert not campaigns._least_arity_holds(g, y, k - 1, w.args[:-1])


def test_every_campaign_passes_smoke_config():
    sizes = {"gk-sd": [2], "hni": [3]}
    for name in CAMPAIGN_NAMES:
        cfg = CampaignConfig(seed=2, trials=4, sizes=sizes.get(name))
        report = verify_campaign(name, cfg)
        assert report.ok, (name, [r for r in report.instances if not r["pass"]])
        assert report.version == fb.__version__
        assert report.to_json()["config"]["seed"] == 2


def test_markdown_rendering():
    report = verify_campaign("gk-sd", CampaignConfig(sizes=[2])).to_json()
    text = render_markdown(report)
    assert "# Campaign `gk-sd`" in text
    assert "PASS" in text
