"""Forecast specs and the mixed diurnal generator: determinism and shape."""

from __future__ import annotations

import pytest

from repro.capacity.forecast import ForecastSpec
from repro.errors import ConfigError
from repro.serve.workload import (
    TenantSpec,
    mixed_arrivals,
    mixed_diurnal_arrivals,
    parse_tenant_mix,
)

TENANTS = tuple(parse_tenant_mix("acme=alexnet:3/nin:1@2,beta=nin", slo_ms=150.0))


class TestMixedDiurnalArrivals:
    def test_same_seed_same_requests(self):
        a = mixed_diurnal_arrivals(10.0, 60.0, 1.0, TENANTS, seed=7, day_s=4.0)
        b = mixed_diurnal_arrivals(10.0, 60.0, 1.0, TENANTS, seed=7, day_s=4.0)
        assert a == b
        assert a != mixed_diurnal_arrivals(10.0, 60.0, 1.0, TENANTS, seed=8, day_s=4.0)

    def test_draws_networks_from_tenant_mixes(self):
        requests = mixed_diurnal_arrivals(
            20.0, 120.0, 1.0, TENANTS, seed=1, day_s=4.0
        )
        by_tenant = {t.name: set() for t in TENANTS}
        for r in requests:
            by_tenant[r.tenant].add(r.network)
        assert by_tenant["acme"] == {"alexnet", "nin"}
        assert by_tenant["beta"] == {"nin"}

    def test_validation(self):
        with pytest.raises(ConfigError, match="peak_rate"):
            mixed_diurnal_arrivals(10.0, 5.0, 1.0, TENANTS)


class TestForecastSpec:
    def test_parse_round_trips_the_tenant_grammar(self):
        spec = ForecastSpec.parse(
            "acme=alexnet:3/nin:1@2,beta=nin", rate=50.0, duration_s=2.0,
            slo_ms=150.0, seed=4,
        )
        assert [t.name for t in spec.tenants] == ["acme", "beta"]
        assert spec.max_slo_s == pytest.approx(0.15)

    def test_requests_are_deterministic_and_match_the_generator(self):
        spec = ForecastSpec(tenants=TENANTS, rate=40.0, duration_s=2.0, seed=9)
        assert spec.requests() == spec.requests()
        assert spec.requests() == mixed_arrivals(40.0, 2.0, list(TENANTS), seed=9)

    def test_diurnal_kind_uses_the_diurnal_generator(self):
        spec = ForecastSpec(
            tenants=TENANTS, rate=10.0, duration_s=8.0, kind="diurnal",
            peak_rate=60.0, day_s=4.0, seed=2,
        )
        assert spec.requests() == mixed_diurnal_arrivals(
            10.0, 60.0, 2.0, list(TENANTS), seed=2, day_s=4.0
        )

    def test_network_shares_fold_tenant_weights(self):
        spec = ForecastSpec(tenants=TENANTS, rate=1.0, duration_s=1.0)
        shares = dict(spec.network_shares())
        # acme carries 2/3 of traffic, split 3:1 alexnet:nin; beta is all nin
        assert shares["alexnet"] == pytest.approx(0.5)
        assert shares["nin"] == pytest.approx(0.5)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown forecast kind"):
            ForecastSpec(tenants=TENANTS, rate=1.0, duration_s=1.0, kind="spiky")
        with pytest.raises(ConfigError, match="at least one tenant"):
            ForecastSpec(tenants=(), rate=1.0, duration_s=1.0)
        with pytest.raises(ConfigError, match="peak_rate"):
            ForecastSpec(
                tenants=TENANTS, rate=10.0, duration_s=1.0, kind="diurnal",
                peak_rate=5.0,
            )
        with pytest.raises(ConfigError, match="forecast rate must be positive"):
            ForecastSpec.parse("a=alexnet", rate=float("nan"), duration_s=1.0)
        with pytest.raises(
            ConfigError, match="forecast rate must be positive and finite, got True"
        ):
            ForecastSpec.parse("a=alexnet", rate=True, duration_s=1.0)

    @pytest.mark.parametrize("field", ["rate", "duration_s", "peak_rate", "day_s"])
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, True],
        ids=["nan", "inf", "-inf", "zero", "negative", "bool"],
    )
    def test_rejects_bad_numbers_naming_the_field(self, field, bad):
        numbers = dict(rate=10.0, duration_s=2.0, peak_rate=60.0, day_s=4.0)
        numbers[field] = bad
        with pytest.raises(ConfigError, match=rf"\b{field}\b"):
            ForecastSpec(tenants=TENANTS, kind="diurnal", **numbers)

    def test_cli_names_the_day_length_it_was_given(self):
        from repro.__main__ import main

        argv = ["capacity", "--forecast", "diurnal", "--peak-rate", "400",
                "--day-s", "inf", "--duration", "2"]
        with pytest.raises(ConfigError, match="forecast day_s .* got inf"):
            main(argv)

    def test_spec_is_hashable_for_the_worker_memo(self):
        spec = ForecastSpec(tenants=TENANTS, rate=1.0, duration_s=1.0)
        assert {spec: 1}[spec] == 1

    def test_to_dict_is_json_stable(self):
        spec = ForecastSpec(
            tenants=(TenantSpec("t", (("nin", 1.0),)),),
            rate=5.0, duration_s=2.0, kind="diurnal", peak_rate=9.0, day_s=4.0,
        )
        d = spec.to_dict()
        assert d["kind"] == "diurnal"
        assert d["peak_rate_rps"] == 9.0
        assert d["tenants"][0]["mix"] == [["nin", 1.0]]
