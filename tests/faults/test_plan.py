"""FaultPlan validation, zero-plan classification and spec parsing."""

import pytest

from repro.errors import ConfigError
from repro.faults import ChurnSpec, FaultPlan, LinkDownWindow, SiteDownWindow, hardened


class TestWindows:
    def test_link_window_canonical_order(self):
        w = LinkDownWindow(5, 2, 1.0, 3.0)
        assert (w.u, w.v) == (2, 5)
        assert w.key == (2, 5)

    def test_link_window_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            LinkDownWindow(3, 3, 0.0, 1.0)

    @pytest.mark.parametrize("start,end", [(-1.0, 2.0), (2.0, 2.0), (3.0, 1.0)])
    def test_bad_window_times(self, start, end):
        with pytest.raises(ConfigError):
            LinkDownWindow(0, 1, start, end)
        with pytest.raises(ConfigError):
            SiteDownWindow(0, start, end)

    def test_open_ended_site_window(self):
        w = SiteDownWindow(4, 10.0, float("inf"))
        assert w.end == float("inf")


class TestPlanValidation:
    def test_default_is_zero(self):
        assert FaultPlan().is_zero()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_prob": 0.1},
            {"delay_jitter": 0.5},
            {"link_windows": (LinkDownWindow(0, 1, 0.0, 1.0),)},
            {"site_windows": (SiteDownWindow(0, 0.0, 1.0),)},
            {"link_loss": (((0, 1), 0.2),)},
            {"link_churn": ChurnSpec(3)},
            {"site_churn": ChurnSpec(1)},
        ],
    )
    def test_nonzero_detection(self, kwargs):
        assert not FaultPlan(**kwargs).is_zero()

    def test_zero_count_churn_is_zero(self):
        assert FaultPlan(link_churn=ChurnSpec(0)).is_zero()

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_loss_prob_bounds(self, p):
        with pytest.raises(ConfigError):
            FaultPlan(loss_prob=p)
        with pytest.raises(ConfigError):
            FaultPlan(link_loss=(((0, 1), p),))

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(delay_jitter=-1.0)

    def test_churn_validation(self):
        with pytest.raises(ConfigError):
            ChurnSpec(-1)
        with pytest.raises(ConfigError):
            ChurnSpec(1, mean_downtime=0.0)
        with pytest.raises(ConfigError):
            ChurnSpec(1, horizon=-5.0)

    def test_link_loss_override(self):
        plan = FaultPlan(loss_prob=0.1, link_loss=(((0, 1), 0.5),))
        assert plan.loss_for((0, 1)) == 0.5
        assert plan.loss_for((1, 2)) == 0.1

    def test_scaled(self):
        plan = FaultPlan(loss_prob=0.1, delay_jitter=0.3)
        scaled = plan.scaled(0.25)
        assert scaled.loss_prob == 0.25
        assert scaled.delay_jitter == 0.3


class TestSpecParsing:
    def test_full_spec(self):
        plan = FaultPlan.from_spec(
            "loss=0.05, jitter=0.5, links=6, sites=2, downtime=20, horizon=300, seed=3"
        )
        assert plan.loss_prob == 0.05
        assert plan.delay_jitter == 0.5
        assert plan.link_churn == ChurnSpec(6, 20.0, 300.0)
        assert plan.site_churn == ChurnSpec(2, 20.0, 300.0)
        assert plan.seed == 3

    def test_empty_spec_is_zero(self):
        assert FaultPlan.from_spec("").is_zero()

    @pytest.mark.parametrize(
        "spec",
        [
            "loss", "loss=abc", "bogus=1",
            # churn counts are whole and >= 0 (else -1 would read as no
            # churn, and 2.7 as 2)
            "links=-1", "sites=-2", "links=2.7", "joins=-1", "joins=1.5",
            "joins=1,join_links=-1", "joins=1,join_links=2.5", "sites=inf",
        ],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec(spec)


def test_hardened_helper(rtds_config):
    cfg = hardened(rtds_config, ack_timeout=3.0, ack_retries=2)
    assert cfg.hardened
    assert cfg.ack_timeout == 3.0
    assert cfg.ack_retries == 2
    assert not rtds_config.hardened
