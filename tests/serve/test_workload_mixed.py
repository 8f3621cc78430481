"""Mixed-network tenant streams: grammar, validation, determinism."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.workload import (
    TenantSpec,
    bursty_arrivals,
    diurnal_arrivals,
    mixed_arrivals,
    parse_tenant_mix,
    poisson_arrivals,
    trace_arrivals,
)


class TestSpec:
    def test_networks_property(self):
        spec = TenantSpec(
            name="a", mix=(("alexnet", 3.0), ("vgg", 1.0))
        )
        assert spec.networks == ("alexnet", "vgg")

    def test_empty_mix(self):
        with pytest.raises(ConfigError, match="at least one network"):
            TenantSpec(name="a", mix=())

    def test_duplicate_network_in_mix(self):
        with pytest.raises(ConfigError, match="duplicate network 'alexnet'"):
            TenantSpec(
                name="a", mix=(("alexnet", 1.0), ("alexnet", 2.0))
            )

    @pytest.mark.parametrize("share", [0.0, -1.0])
    def test_bad_share(self, share):
        with pytest.raises(ConfigError, match="share must be"):
            TenantSpec(name="a", mix=(("alexnet", share),))

    def test_bad_weight(self):
        with pytest.raises(ConfigError, match="weight"):
            TenantSpec(name="a", mix=(("alexnet", 1.0),), weight=0.0)


class TestGrammar:
    def test_full_grammar(self):
        tenants = parse_tenant_mix("acme=alexnet:3/vgg:1@2,beta=nin")
        assert len(tenants) == 2
        acme, beta = tenants
        assert acme.name == "acme"
        assert acme.mix == (("alexnet", 3.0), ("vgg", 1.0))
        assert acme.weight == 2.0
        assert beta.mix == (("nin", 1.0),)
        assert beta.weight == 1.0

    def test_share_defaults_to_one(self):
        (t,) = parse_tenant_mix("a=alexnet/nin")
        assert t.mix == (("alexnet", 1.0), ("nin", 1.0))

    def test_slo_flows_through(self):
        (t,) = parse_tenant_mix("a=alexnet", slo_ms=100.0)
        assert t.slo_ms == 100.0

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="bad tenant-mix entry"):
            parse_tenant_mix("alexnet")

    def test_bad_weight_string(self):
        with pytest.raises(ConfigError, match="bad tenant weight"):
            parse_tenant_mix("a=alexnet@heavy")

    def test_bad_share_string(self):
        with pytest.raises(ConfigError, match="bad network share"):
            parse_tenant_mix("a=alexnet:lots")

    def test_unknown_network_names_choices(self):
        with pytest.raises(ConfigError) as err:
            parse_tenant_mix("a=resnet")
        message = str(err.value)
        assert "unknown network 'resnet'" in message
        assert "alexnet" in message  # the valid choices are listed

    def test_duplicate_tenant_names(self):
        with pytest.raises(ConfigError, match="duplicate tenant name 'a'"):
            parse_tenant_mix("a=alexnet,a=nin")


class TestMixedArrivals:
    TENANTS = parse_tenant_mix("acme=alexnet:3/nin:1@3,beta=nin")

    def test_same_seed_identical_stream(self):
        a = mixed_arrivals(50.0, 4.0, self.TENANTS, seed=11)
        b = mixed_arrivals(50.0, 4.0, self.TENANTS, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        a = mixed_arrivals(50.0, 4.0, self.TENANTS, seed=11)
        b = mixed_arrivals(50.0, 4.0, self.TENANTS, seed=12)
        assert a != b

    def test_draws_are_valid(self):
        requests = mixed_arrivals(80.0, 4.0, self.TENANTS, seed=0)
        assert requests, "expected a non-empty stream"
        by_name = {t.name: t for t in self.TENANTS}
        for r in requests:
            assert r.tenant in by_name
            assert r.network in by_name[r.tenant].networks
            assert 0.0 <= r.arrival_s < 4.0
            assert r.deadline_s > r.arrival_s
        # rids are dense and ordered, arrivals non-decreasing
        assert [r.rid for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)

    def test_weights_shape_traffic(self):
        requests = mixed_arrivals(200.0, 10.0, self.TENANTS, seed=1)
        acme = sum(1 for r in requests if r.tenant == "acme")
        # acme carries 3x beta's weight; allow generous sampling slack
        assert acme / len(requests) == pytest.approx(0.75, abs=0.1)

    def test_mix_shapes_networks(self):
        requests = mixed_arrivals(200.0, 10.0, self.TENANTS, seed=1)
        acme = [r for r in requests if r.tenant == "acme"]
        alex = sum(1 for r in acme if r.network == "alexnet")
        assert alex / len(acme) == pytest.approx(0.75, abs=0.1)

    def test_bad_rate(self):
        with pytest.raises(ConfigError, match="rate"):
            mixed_arrivals(0.0, 1.0, self.TENANTS)

    def test_bad_duration(self):
        with pytest.raises(ConfigError, match="duration"):
            mixed_arrivals(10.0, -1.0, self.TENANTS)

    def test_empty_tenants(self):
        with pytest.raises(ConfigError, match="at least one tenant"):
            mixed_arrivals(10.0, 1.0, [])


class TestDrawRule:
    """The pinned generators give a request its tenant's one network; the
    mixed ones draw a network for every request."""

    TENANTS = [
        TenantSpec("solo", "alexnet"),
        TenantSpec("ab", (("alexnet", 1.0), ("nin", 2.0))),
    ]

    def test_a_network_name_is_stored_as_pairs(self):
        spec = TenantSpec("solo", "alexnet")
        assert spec.mix == (("alexnet", 1.0),)
        assert spec == TenantSpec("solo", (("alexnet", 1.0),))
        assert spec.network == "alexnet"

    @pytest.mark.parametrize(
        "generate",
        [
            lambda tenants, path: poisson_arrivals(10.0, 1.0, tenants),
            lambda tenants, path: bursty_arrivals(10.0, 1.0, tenants),
            lambda tenants, path: diurnal_arrivals(5.0, 10.0, 1.0, tenants, day_s=1.0),
            lambda tenants, path: trace_arrivals(path, tenants),
        ],
        ids=["poisson", "bursty", "diurnal", "trace"],
    )
    def test_pinned_generator_rejects_a_mixing_tenant_by_name(self, generate, tmp_path):
        path = tmp_path / "arrivals.trace"
        path.write_text("0.0\n0.5,ab\n")
        with pytest.raises(
            ConfigError, match=r"tenant 'ab' mixes networks \['alexnet', 'nin'\]"
        ):
            generate(self.TENANTS, str(path))

    def test_mixed_generator_draws_each_tenants_networks(self):
        stream = mixed_arrivals(200.0, 2.0, self.TENANTS, seed=0)
        pairs = {(r.tenant, r.network) for r in stream}
        assert pairs == {("solo", "alexnet"), ("ab", "alexnet"), ("ab", "nin")}
