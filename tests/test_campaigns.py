import copy
import json

import pytest

import funbox as fb
from funbox import campaigns
from funbox.campaigns import (
    CAMPAIGN_NAMES,
    CampaignConfig,
    ConfigError,
    render_markdown,
    verify_campaign,
)
from funbox.geometry import RealizationError
from funbox.graphs import SizeLimitError
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


def test_random_interval_rep_deterministic():
    a = fb.random_interval_rep(5, 42, 100)
    b = fb.random_interval_rep(5, 42, 100)
    assert a == b
    assert fb.random_interval_rep(1, 7, 10).n == 1


def test_random_interval_rep_validates():
    with pytest.raises(ConfigError):
        fb.random_interval_rep(0, 1, 10)
    with pytest.raises(ConfigError):
        fb.random_interval_rep(3, 1, 1)


def test_random_graph_extremes():
    empty = fb.random_graph(6, 0, 1, 3)
    full = fb.random_graph(6, 1, 1, 3)
    assert empty.edge_count() == 0
    assert full.edge_count() == 15
    assert fb.equal_labeled(fb.random_graph(10, 1, 2, 9), fb.random_graph(10, 1, 2, 9))


def test_random_graph_validates_probability():
    with pytest.raises(ConfigError):
        fb.random_graph(5, 3, 2, 1)


def test_config_json_round_trip():
    cfg = CampaignConfig.from_json(
        {"seed": 9, "trials": 3, "limits": {"fun_max_n": 10, "sd_max_n": 11}}
    )
    assert cfg.seed == 9 and cfg.trials == 3
    assert cfg.fun_max_n == 10 and cfg.sd_max_n == 11
    assert CampaignConfig.from_json(cfg.to_json()) == cfg


def test_config_validates():
    with pytest.raises(ConfigError):
        CampaignConfig(trials=0)
    with pytest.raises(ConfigError):
        CampaignConfig(format="yaml")


def test_unknown_campaign():
    with pytest.raises(ConfigError):
        verify_campaign("nope", CampaignConfig())


def test_sizes_beyond_limits_rejected():
    with pytest.raises(ConfigError, match="fun_max_n"):
        verify_campaign("threshold-fun0", CampaignConfig(sizes=[13], trials=1))


def test_empty_plan_rejected():
    with pytest.raises(ConfigError, match="no instances"):
        verify_campaign("hni", CampaignConfig(sizes=[0]))


@pytest.mark.parametrize("exc_type", [SizeLimitError, RealizationError, AssertionError])
def test_instance_error_is_recorded(monkeypatch, exc_type):
    real = campaigns._RUNNERS["gk-sd"]

    def flaky(params):
        if params["k"] == 3:
            raise exc_type("boom")
        return real(params)

    monkeypatch.setitem(campaigns._RUNNERS, "gk-sd", flaky)
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


def test_report_independent_of_worker_count():
    cfg = CampaignConfig(seed=4, trials=6)
    seq = verify_campaign("lemma-sd", cfg, workers=1).to_json()
    par = verify_campaign("lemma-sd", cfg, workers=2).to_json()
    assert _strip_timing(seq) == _strip_timing(par)


def test_every_campaign_passes_smoke_config():
    for name in CAMPAIGN_NAMES:
        cfg = CampaignConfig(seed=2, trials=4)
        if name == "gk-sd":
            cfg.sizes = [2]
        if name == "hni":
            cfg.sizes = [3]
        report = verify_campaign(name, cfg)
        assert report.ok, (name, [r for r in report.instances if not r["pass"]])
        assert report.version == fb.__version__
        assert report.to_json()["config"]["seed"] == 2


def test_markdown_rendering():
    report = verify_campaign("gk-sd", CampaignConfig(sizes=[2])).to_json()
    text = render_markdown(report)
    assert "# Campaign `gk-sd`" in text
    assert "PASS" in text
