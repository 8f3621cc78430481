"""Oracle search tests: Algorithm 2 vs exhaustive per-layer optimum."""

import pytest

from repro.adaptive import best_scheme_for_layer, plan_network, search_network
from repro.adaptive.selector import select_scheme
from repro.arch.config import CONFIG_16_16

from tests.conftest import make_ctx


class TestBestSchemeForLayer:
    def test_conv1_oracle_picks_partition(self, alexnet_conv1_ctx, cfg16):
        outcome = best_scheme_for_layer(alexnet_conv1_ctx, cfg16)
        assert outcome.scheme == "partition"

    def test_alternatives_include_all_legal(self, alexnet_conv1_ctx, cfg16):
        outcome = best_scheme_for_layer(alexnet_conv1_ctx, cfg16)
        names = {r.scheme for r in outcome.alternatives}
        assert names == {"inter", "inter-improved", "intra", "partition"}

    def test_winner_has_fewest_cycles(self, cfg16):
        ctx = make_ctx(in_maps=32, out_maps=32, kernel=3, pad=1, hw=16)
        outcome = best_scheme_for_layer(ctx, cfg16)
        assert outcome.cycles == min(
            r.total_cycles for r in outcome.alternatives
        )

    def test_1x1_layer_excludes_partition(self, cfg16):
        ctx = make_ctx(in_maps=64, out_maps=64, kernel=1, hw=16)
        outcome = best_scheme_for_layer(ctx, cfg16)
        names = {r.scheme for r in outcome.alternatives}
        assert "partition" not in names


class TestAlgorithm2VsOracle:
    def test_rule_close_to_oracle_on_benchmarks(self, all_networks, cfg16):
        """The paper claims Algorithm 2 'ensures the optimal performance';
        we verify it lands within 10% of the exhaustive per-layer optimum
        on every benchmark network."""
        for net in all_networks:
            oracle_cycles = sum(
                o.result.total_cycles for o in search_network(net, cfg16)
            )
            rule = plan_network(net, cfg16, "adaptive-2")
            rule_cycles = sum(r.total_cycles for r in rule.layers)
            assert rule_cycles <= 1.10 * oracle_cycles, net.name

    def test_rule_matches_oracle_per_layer_mostly(self, alexnet, cfg16):
        """On AlexNet 16-16 the rule and the oracle agree layer by layer."""
        for ctx in alexnet.conv_contexts():
            rule = select_scheme(ctx, cfg16).scheme
            oracle = best_scheme_for_layer(ctx, cfg16).scheme
            # the oracle may exploit Din-chunk quantization effects the rule
            # ignores; when they differ the cycle gap must be small
            if rule != oracle:
                rule_cycles = [
                    r.total_cycles
                    for r in best_scheme_for_layer(ctx, cfg16).alternatives
                    if r.scheme == rule
                ][0]
                oracle_cycles = best_scheme_for_layer(ctx, cfg16).cycles
                assert rule_cycles <= 1.25 * oracle_cycles

    def test_oracle_never_worse_than_any_fixed_policy(self, alexnet, cfg16):
        oracle = plan_network(alexnet, cfg16, "oracle")
        for policy in ("inter", "intra", "partition"):
            fixed = plan_network(alexnet, cfg16, policy)
            layer_sum_oracle = sum(r.total_cycles for r in oracle.layers)
            layer_sum_fixed = sum(r.total_cycles for r in fixed.layers)
            assert layer_sum_oracle <= layer_sum_fixed * 1.0001, policy


class TestObjectives:
    def test_unknown_objective(self, alexnet_conv1_ctx, cfg16):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            best_scheme_for_layer(alexnet_conv1_ctx, cfg16, objective="area")

    def test_energy_objective_runs(self, alexnet, cfg16):
        outcomes = search_network(alexnet, cfg16, objective="energy")
        assert len(outcomes) == 5
        assert outcomes[0].scheme == "partition"

    def test_performance_and_energy_agree_on_benchmarks(self, alexnet, cfg16):
        """The paper's claim that the adaptive scheme optimizes performance
        and energy 'simultaneously': per-layer, the cycle-optimal and
        energy-optimal schemes coincide on AlexNet at 16-16."""
        cycles = [o.scheme for o in search_network(alexnet, cfg16)]
        energy = [o.scheme for o in search_network(alexnet, cfg16, objective="energy")]
        assert cycles == energy

    def test_edp_never_worse_than_both_extremes(self, alexnet, cfg16):
        from repro.adaptive.search import layer_energy_pj
        from repro.arch.energy import EnergyModel

        model = EnergyModel(cfg16)
        for ctx in alexnet.conv_contexts():
            edp_pick = best_scheme_for_layer(ctx, cfg16, objective="edp").result
            cyc_pick = best_scheme_for_layer(ctx, cfg16, objective="cycles").result
            edp = layer_energy_pj(edp_pick, model) * edp_pick.total_cycles
            ref = layer_energy_pj(cyc_pick, model) * cyc_pick.total_cycles
            assert edp <= ref * 1.0001
