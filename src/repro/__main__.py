"""Command-line interface: ``python -m repro <command>``.

Commands
--------
report
    Regenerate every table and figure of the paper's evaluation section
    and print them (the text form of Figs. 3/7/8/9/10 and Tables 4/5).
plan NETWORK [--config 16-16] [--policy adaptive-2]
    Plan one network and print the per-layer schedule.
select NETWORK [--config 16-16] [--json]
    Print Algorithm 2's per-layer scheme choices with reasons.
serve [--mix alexnet:2,vgg:1] [--rate 100] [--duration 10] ...
    Simulate a multi-tenant serving tier with dynamic batching and
    SLO accounting (see ``docs/serving.md``).
autoscale [--base-rate 6] [--peak-rate 42] [--days 3] [--compare] ...
    Drive the serving fleet with the closed-loop autoscaler over a
    multi-day diurnal workload with flash crowds; ``--compare`` adds
    the static mean-/peak-provisioned baselines (see
    ``docs/autoscaling.md``).
shard NETWORK [--chips 4] [--strategy pipeline|data-parallel] ...
    Partition a network across multiple accelerator chips with an
    inter-chip link model (see ``docs/sharding.md``).
chaos [SCENARIO ...] [--seed 1] [--json PATH] [--control]
    Run fault-injection scenarios — replica crashes, fail-slow windows,
    link flaps, PE masks, silent-data-corruption windows — against the
    serving tier and report availability, goodput under fault, MTTR and
    latency ratios (see ``docs/resilience.md``).  Exits non-zero when a
    scenario's declared invariant is violated.  ``--control`` switches to
    the chaos-under-autoscaling suite: the same faults land while the
    self-healing control loop is steering, plus faults in the control
    plane itself (see ``docs/chaos_control.md``).
tenancy {partition|fleet} [--tenants ...] [--rate 470] ...
    Carve one chip into co-resident tenant partitions and race the
    result against time-multiplexing the whole chip, or compare
    heterogeneous fleet compositions at equal cost (see
    ``docs/tenancy.md``).
capacity [--tenants ...] [--rate 300] [--slo-target 0.95] ...
    What-if capacity planning: search a deterministic deployment grid
    (geometries x fleet sizes x replication/sharding/partitioning x
    batching) against a traffic forecast, per-tenant SLOs, a chip-level
    fault model and ABFT on/off; prune with analytic capacity bounds,
    simulate the survivors, and rank by cost per million within-SLO
    requests (see ``docs/capacity.md``).
integrity [--seed 0] [--flips 4] [--smoke] [--json PATH]
    Run the ABFT bit-flip injection sweep: detection / false-positive /
    correction rates per buffer site and scheme path, plus the costed
    checksum overhead per layer (see ``docs/integrity.md``).  Exits
    non-zero when detection < 99%, any false positive fires, or
    recovery is not bit-identical.
networks
    List the benchmark networks and their Table 2 characteristics.

Every command also accepts the planning-performance flags (see
``docs/performance.md``): ``--no-plan-cache`` disables the schedule cache,
and ``--perf-report`` prints phase timings and cache statistics after the
command finishes.  Planning runs in the calling process; only ``capacity
--jobs N`` fans work out, its candidate simulations over N worker
processes (-1 = all CPUs).

Invalid input (a :class:`~repro.errors.ConfigError`, e.g. ``serve --rate
nan``, or a path the command cannot open or write) prints ``error:
<message>`` on stderr and exits 2, argparse's usage-error code.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.adaptive import choices_for_network, plan_network
from repro.adaptive.planner import POLICY_NAMES
from repro.arch.config import named_config as _named_config
from repro.arch.presets import PRESETS
from repro.errors import ConfigError, check_real
from repro.nn.zoo import NETWORK_BUILDERS, build


def named_config(name: str):
    """CLI config resolver: a preset name or a 'Tin-Tout' string."""
    if name in PRESETS:
        return PRESETS[name]
    return _named_config(name)


def _emit_json(path: str, text: str, label: str, render: Callable[[], None]) -> None:
    """The ``--json PATH|-`` writer every command shares.

    ``-`` prints only the canonical JSON ``text``.  Otherwise ``render``
    prints the human view and, given a ``PATH``, ``text`` is also written
    there.
    """
    if path == "-":
        print(text, end="")
        return
    render()
    if path:
        with open(path, "w") as handle:
            handle.write(text)
        print(f"\n{label} JSON written to {path}")


def _print_energy(energy) -> None:
    print(
        f"energy: PE {energy.pe_pj / 1e6:.2f} uJ, buffers "
        f"{energy.buffer_pj / 1e6:.2f} uJ, DRAM {energy.dram_pj / 1e6:.2f} uJ"
    )


def cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.export import write_csv
    from repro.analysis.manifest import ARTIFACTS

    printed = [a for a in ARTIFACTS if a.render]
    rows = {a.name: a.driver() for a in (ARTIFACTS if args.csv_dir else printed)}
    blocks = [a.render(rows[a.name]) for a in printed]
    print(("\n\n" + "=" * 72 + "\n\n").join(blocks))
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for a in ARTIFACTS:
            write_csv(rows[a.name], os.path.join(args.csv_dir, a.golden))
        print(f"\nCSV artifacts written to {args.csv_dir}/")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.layerwise import render_layerwise

    net = build(args.network)
    config = named_config(args.config)
    run = plan_network(
        net, config, args.policy, include_non_conv=args.full
    )
    print(f"{net.name} on {config.name} under policy {args.policy!r}:")
    print(render_layerwise(run, top=args.top))
    if args.timeline:
        from repro.analysis.timeline import render_timeline

        print()
        print(render_timeline(run, top=args.top))
    print(
        f"\ntotal: {run.total_cycles:,.0f} cycles = {run.milliseconds():.3f} ms, "
        f"utilization {run.utilization:.1%}, "
        f"buffer traffic {run.buffer_accesses:,} words, "
        f"DRAM {run.dram_words:,} words"
    )
    _print_energy(run.energy())
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    net = build(args.network)
    config = named_config(args.config)
    choices = choices_for_network(net, config)
    if args.json:
        from repro.serve.metrics import to_json

        payload = {
            "network": net.name,
            "config": config.name,
            "choices": [
                {"layer": c.layer_name, "scheme": c.scheme, "reason": c.reason}
                for c in choices
            ],
        }
        print(to_json(payload), end="")
        return 0
    for choice in choices:
        print(f"{choice.layer_name:<26s} -> {choice.scheme:<15s} {choice.reason}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        BatchPolicy,
        QueuePolicy,
        ServingEngine,
        bursty_arrivals,
        parse_mix,
        poisson_arrivals,
        render_summary,
        trace_arrivals,
    )

    config = named_config(args.config)
    tenants = parse_mix(args.mix, slo_ms=args.slo_ms)
    # read only under --arrival bursty, but never NaN or infinite
    check_real(args.burst_factor, "burst_factor")
    check_real(args.burst_fraction, "burst_fraction")
    check_real(args.burst_period, "period_s")
    if args.arrival == "poisson":
        requests = poisson_arrivals(args.rate, args.duration, tenants, seed=args.seed)
    elif args.arrival == "bursty":
        requests = bursty_arrivals(
            args.rate,
            args.duration,
            tenants,
            seed=args.seed,
            burst_factor=args.burst_factor,
            burst_fraction=args.burst_fraction,
            period_s=args.burst_period,
        )
    else:  # trace
        if not args.trace:
            raise ConfigError("--arrival trace requires --trace FILE")
        requests = trace_arrivals(
            args.trace, tenants, seed=args.seed, duration_s=args.duration
        )
    engine = ServingEngine(
        config,
        batch_policy=BatchPolicy(
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms
        ),
        queue_policy=QueuePolicy(
            max_depth=args.queue_depth,
            order=args.queue_order,
            max_age_s=args.max_age_ms / 1e3 if args.max_age_ms else None,
            shed_expired=args.shed_expired,
        ),
        replicas=args.replicas,
        routing=args.routing,
        plan_policy=args.policy,
    )
    report = engine.run(
        requests,
        args.duration,
        extra_meta={
            "arrival": args.arrival,
            "mix": args.mix,
            "rate_rps": args.rate,
            "seed": args.seed,
            "slo_ms": args.slo_ms,
        },
    )
    _emit_json(
        args.json,
        report.to_json(),
        "metrics",
        lambda: print(render_summary(report.summary)),
    )
    return 0


def cmd_autoscale(args: argparse.Namespace) -> int:
    from repro.serve import (
        BatchCoster,
        BatchPolicy,
        QueuePolicy,
        diurnal_arrivals,
        parse_mix,
        render_summary,
    )
    from repro.control import AutoscalePolicy, HealingPolicy, SelfHealingControlLoop
    from repro.control.loop import run_static_baselines
    from repro.serve.metrics import to_json

    config = named_config(args.config)
    tenants = parse_mix(args.mix, slo_ms=args.slo_ms)
    duration = args.days * args.day_s
    flash = []
    for spec in args.flash:
        try:
            start, dur, factor = (float(x) for x in spec.split(":"))
        except ValueError:
            raise ConfigError(
                f"bad --flash {spec!r}; expected START:DURATION:FACTOR"
            ) from None
        flash.append((start, dur, factor))
    requests = diurnal_arrivals(
        args.base_rate,
        args.peak_rate,
        args.days,
        tenants,
        seed=args.seed,
        day_s=args.day_s,
        flash_crowds=flash,
        flash_per_day=args.flash_per_day,
        flash_factor=args.flash_factor,
        churn=args.churn,
    )
    coster = BatchCoster(config, policy=args.policy)
    batch_policy = BatchPolicy(max_batch=args.max_batch, max_wait_ms=args.max_wait_ms)
    queue_policy = QueuePolicy(max_depth=args.queue_depth)
    autoscale = AutoscalePolicy(
        epoch_s=args.epoch_s,
        min_replicas=args.min_replicas,
        max_replicas=args.max_replicas,
        high_band=args.high_band,
        low_band=args.low_band,
        cooldown_epochs=args.cooldown,
        headroom=args.headroom,
        retune=not args.no_retune,
    )
    loop = SelfHealingControlLoop(
        config,
        tenants,
        autoscale=autoscale,
        healing=HealingPolicy.disabled(),
        batch_policy=batch_policy,
        queue_policy=queue_policy,
        replicas=args.replicas,
        plan_policy=args.policy,
        coster=coster,
    )
    meta = {
        "arrival": "diurnal",
        "mix": args.mix,
        "base_rate_rps": args.base_rate,
        "peak_rate_rps": args.peak_rate,
        "days": args.days,
        "day_s": args.day_s,
        "seed": args.seed,
        "slo_ms": args.slo_ms,
    }
    report = loop.run(requests, duration, extra_meta=meta)
    payload = dict(report.summary)

    if args.compare:
        peak_inst = args.peak_rate * max(
            [args.flash_factor if args.flash_per_day else 1.0]
            + [f for _, _, f in flash]
        )
        baselines = run_static_baselines(
            config, coster, tenants, requests, duration, peak_inst,
            batch_policy, queue_policy, args.policy,
        )
        payload["baselines"] = {
            name: {
                "replicas": n,
                "deadline_hit_rate": static.summary["deadline_hit_rate"],
                "shed": static.summary["shed"],
                "chip_seconds": round(chip, 6),
            }
            for name, (n, static, chip) in baselines.items()
        }

    def counts(by_kind: dict) -> str:
        return ", ".join(f"{k}={v}" for k, v in by_kind.items()) or "none"

    def render() -> None:
        print(render_summary(report.summary))
        control = report.summary["control"]
        print()
        print("autoscaler:")
        print(f"  epochs               {control['n_epochs']}")
        print(f"  actions              {counts(control['actions_by_kind'])}")
        print(f"  verdicts             {counts(control['verdicts_by_status'])}")
        print(f"  oscillation freezes  {len(control['freezes'])}")
        fleet = report.summary["fleet"]
        print(
            f"  fleet                peak {fleet['peak_replicas']}, "
            f"final {fleet['final_replicas']}, "
            f"{fleet['chip_seconds']:.1f} chip-seconds"
        )
        if args.compare:
            print()
            print("vs static provisioning:")
            for name, stats in payload["baselines"].items():
                print(
                    f"  {name:<12s} {stats['replicas']:>2d} replicas  "
                    f"hit {stats['deadline_hit_rate']:.4f}  "
                    f"shed {stats['shed']:>5d}  "
                    f"{stats['chip_seconds']:.1f} chip-seconds"
                )

    _emit_json(args.json, to_json(payload), "metrics", render)
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    from repro.cluster import LinkSpec, plan_data_parallel, plan_pipeline, rollup
    from repro.serve.metrics import to_json

    net = build(args.network)
    config = named_config(args.config)
    link = LinkSpec(
        bandwidth_gbs=args.link_gbs, latency_s=args.link_latency_us / 1e6
    )

    def pipeline(strategy: str):
        return plan_pipeline(
            net, config, args.chips, link=link, policy=args.policy, strategy=strategy
        )

    if args.strategy == "pipeline":
        plan = pipeline(args.partition)
    else:
        plan = plan_data_parallel(
            net,
            config,
            args.chips,
            link=link,
            batch_size=args.batch,
            policy=args.policy,
        )
    summary = rollup(plan)

    def render() -> None:
        from repro.analysis.report import format_table

        print(
            f"{net.name} across {args.chips} x {config.name} chips, "
            f"{args.strategy}"
            + (f" ({args.partition} balancer)" if args.strategy == "pipeline" else "")
            + f", {link.describe()}"
        )
        print()
        if args.strategy == "pipeline":
            rows = []
            for s in plan.stages:
                span = (
                    s.layer_names[0]
                    if len(s.layer_names) == 1
                    else f"{s.layer_names[0]}..{s.layer_names[-1]}"
                )
                rows.append(
                    [
                        str(s.chip),
                        f"{span} ({len(s.layer_names)})",
                        f"{s.compute_s * 1e3:.3f}",
                        f"{s.send_s * 1e3:.3f}",
                        f"{plan.utilization(s.chip):.1%}",
                        f"{plan.link_occupancy(s.chip):.1%}",
                    ]
                )
            print(
                format_table(
                    ["chip", "layers", "compute ms", "send ms", "util", "link"], rows
                )
            )
            print(
                f"\nbottleneck {plan.bottleneck_s * 1e3:.3f} ms -> "
                f"{plan.throughput_ips:.1f} img/s steady state; "
                f"fill {plan.fill_latency_s * 1e3:.3f} ms, "
                f"drain {plan.drain_latency_s * 1e3:.3f} ms"
            )
            if args.partition == "dp":
                even = pipeline("even")
                ratio = even.bottleneck_s / plan.bottleneck_s
                print(
                    f"even-split baseline bottleneck {even.bottleneck_s * 1e3:.3f} ms "
                    f"(dp balancer is {ratio:.2f}x better)"
                )
        else:
            rows = [
                [
                    str(s.chip),
                    str(s.batch),
                    f"{s.compute_s * 1e3:.3f}",
                    f"{plan.utilization(s.chip):.1%}",
                ]
                for s in plan.shards
            ]
            print(format_table(["chip", "batch", "compute ms", "util"], rows))
            print(
                f"\nstep {plan.step_s * 1e3:.3f} ms "
                f"(scatter {plan.scatter_s * 1e3:.3f}, gather {plan.gather_s * 1e3:.3f}) "
                f"-> {plan.throughput_ips:.1f} img/s, "
                f"speedup {plan.speedup:.2f}x vs 1 chip "
                f"(efficiency {plan.efficiency:.1%}), "
                f"link busy {plan.link_occupancy:.1%}"
            )

    _emit_json(args.json, to_json(summary), "sharding", render)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.scenarios import violations
    from repro.serve.metrics import to_json

    # the two catalogues share everything but their scenarios and view
    if args.control:
        from repro.control.chaos_scenarios import (
            CONTROL_SCENARIO_NAMES as catalogue,
            CONTROL_VIEW as view,
            build_control_scenario as build,
            run_control_scenario as run,
        )
    else:
        from repro.resilience.scenarios import (
            SCENARIO_NAMES as catalogue,
            VIEW as view,
            build_scenario as build,
            run_scenario as run,
        )
    if args.list:
        for name in catalogue:
            print(f"{name:{view.width}s} {build(name, seed=args.seed).description}")
        return 0
    names = list(dict.fromkeys(args.scenarios or catalogue))
    config = named_config(args.config)
    rollups = {name: run(build(name, seed=args.seed), config) for name in names}
    payload = rollups[names[0]] if len(names) == 1 else {
        "seed": args.seed,
        "config": config.name,
        "scenarios": rollups,
    }
    _emit_json(
        args.json,
        to_json(payload),
        "chaos",
        lambda: print(view.render(args.seed, config.name, rollups, names)),
    )
    return 1 if violations(rollups, names) else 0


def cmd_tenancy(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.serve import BatchPolicy, QueuePolicy
    from repro.serve.workload import parse_tenant_mix
    from repro.tenancy import (
        PartitionSpec,
        compare_fleets,
        compare_partitioned,
        even_partitions,
        parse_fleet,
    )
    from repro.serve.metrics import to_json

    tenants = parse_tenant_mix(args.tenants, slo_ms=args.slo_ms)
    # what both modes pass their comparison, and the cells both tables share
    common = dict(
        seed=args.seed,
        batch_policy=BatchPolicy(
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms
        ),
        queue_policy=QueuePolicy(max_depth=args.queue_depth),
        plan_policy=args.policy,
    )

    def cells(s: dict, p95_ms: float) -> list:
        return [
            str(s["offered"]),
            str(s["shed"]),
            f"{s['goodput_rps']:.1f}",
            f"{p95_ms:.1f}",
            f"{s['deadline_hit_rate']:.1%}",
        ]

    if args.mode == "partition":
        config = named_config(args.config)
        if args.partitions:
            specs = []
            for entry in args.partitions.split(","):
                entry = entry.strip()
                if not entry:
                    continue
                name, sep, dims = entry.partition(":")
                try:
                    tin_s, tout_s = dims.split("x")
                    specs.append(
                        PartitionSpec(
                            name=name, tin=int(tin_s), tout=int(tout_s)
                        )
                    )
                except ValueError:
                    raise ConfigError(
                        f"bad partition entry {entry!r}; expected "
                        "'name:TINxTOUT'"
                    ) from None
        else:
            specs = even_partitions(config, args.split)
        rollup = compare_partitioned(
            config, specs, tenants, args.rate, args.duration, **common
        )
        head = rollup["headline"]
        title = (
            f"{config.name} carved into "
            + ", ".join(
                f"{s.name}={s.tin}x{s.tout}" for s in specs
            )
            + f" vs time-multiplexed whole chip, {args.rate:g} req/s "
            f"x {args.duration:g} s (seed {args.seed})"
        )
        columns = ["deployment"]
        rows = [
            [side] + cells(rollup[side], head["worst_tenant_p95_ms"][side])
            for side in ("partitioned", "timemux")
        ]
        verdict = "wins" if head["partitioned_wins"] else "loses"
        footer = (
            f"partitioned co-residency {verdict} on worst-tenant p95 "
            f"({head['p95_ratio']:.2f}x the time-multiplexed tail)"
        )
    else:  # fleet
        if not args.fleet:
            raise ConfigError(
                "tenancy fleet mode needs at least one --fleet "
                "'name=class:Tin-Tout:count,...'"
            )
        fleets = []
        for entry in args.fleet:
            name, sep, spec = entry.partition("=")
            if not sep or not name or not spec:
                raise ConfigError(
                    f"bad --fleet {entry!r}; expected "
                    "'name=class:Tin-Tout[:count],...'"
                )
            fleets.append(parse_fleet(spec, name=name))
        rollup = compare_fleets(fleets, tenants, args.rate, args.duration, **common)
        head = rollup["headline"]
        title = (
            f"fleet comparison at {args.rate:g} req/s x {args.duration:g} s "
            f"(seed {args.seed})"
        )
        columns = ["fleet", "weight"]
        rows = [
            [name, f"{rollup['fleets'][name]['fleet']['total_weight']:g}"]
            + cells(rollup["fleets"][name], head["worst_tenant_p95_ms"][name])
            for name in head["ranking"]
        ]
        footer = f"winner: {head['winner']}"
    columns += ["offered", "shed", "goodput/s", "worst-tenant p95 ms", "hit rate"]

    def render() -> None:
        print(f"{title}\n\n{format_table(columns, rows)}\n\n{footer}")

    _emit_json(args.json, to_json(rollup), "tenancy", render)
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    from repro.capacity import (
        CandidateGrid,
        FaultModel,
        ForecastSpec,
        plan_capacity,
        render_report,
        report_to_json,
    )

    def _ints(spec: str):
        return tuple(int(v) for v in spec.split(",") if v.strip())

    def _strs(spec: str):
        return tuple(v.strip() for v in spec.split(",") if v.strip())

    grid = CandidateGrid(
        geometries=_strs(args.geometries),
        chip_counts=_ints(args.chips),
        strategies=_strs(args.strategies),
        groups=_ints(args.groups),
        splits=_ints(args.splits),
        max_batches=_ints(args.max_batches),
        link_gbs=args.link_gbs,
    )
    # read only under --forecast diurnal, but never NaN or infinite
    check_real(args.peak_rate, "forecast peak_rate")
    check_real(args.day_s, "forecast day_s")
    forecast = ForecastSpec.parse(
        args.tenants,
        rate=args.rate,
        duration_s=args.duration,
        kind=args.forecast,
        peak_rate=args.peak_rate if args.forecast == "diurnal" else 0.0,
        day_s=args.day_s,
        slo_ms=args.slo_ms,
        seed=args.seed,
    )
    fault_model = None
    if args.crashes or args.slowdowns or args.sdc_windows:
        fault_model = FaultModel(
            seed=args.fault_seed,
            crashes=args.crashes,
            slowdowns=args.slowdowns,
            sdc_windows=args.sdc_windows,
        )

    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"  simulated {done}/{total} candidates", file=sys.stderr)

    report = plan_capacity(
        grid,
        forecast,
        slo_target=args.slo_target,
        fault_model=fault_model,
        abft=args.abft,
        plan_policy=args.policy,
        jobs=args.jobs,
        prune=not args.no_prune,
        progress=progress,
    )
    _emit_json(
        args.json,
        report_to_json(report),
        "capacity",
        lambda: print(render_report(report, top=args.top)),
    )
    return 0


def cmd_integrity(args: argparse.Namespace) -> int:
    from repro.integrity.sweep import render_sweep, run_sweep
    from repro.serve.metrics import to_json

    config = named_config(args.config)
    rollup = run_sweep(
        seed=args.seed,
        flips_per_site=args.flips,
        smoke=args.smoke,
        config=config,
    )
    head = rollup["headline"]
    ok = (
        head["false_positives"] == 0
        and head["detection_rate"] >= 0.99
        and head["recovery_bit_identical"]
    )
    _emit_json(
        args.json, to_json(rollup), "integrity", lambda: print(render_sweep(rollup))
    )
    if ok:
        return 0
    if args.json != "-":
        print("\nINTEGRITY GUARD FAILED ACCEPTANCE THRESHOLDS")
    return 1


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.quantization import quantization_report, render_quantization
    from repro.analysis.reuse import render_reuse, reuse_table
    from repro.nn.zoo import sequential_cnn

    net = build(args.network)
    config = named_config(args.config)

    print("Reuse factors for the first conv layer under each scheme:\n")
    print(render_reuse(reuse_table(net.conv1(), config)))

    if args.quantization:
        # quantization runs a numerical forward pass; do it on a scaled
        # stand-in with the same first-layer geometry to stay fast
        c1 = net.conv1().layer
        probe = sequential_cnn(
            f"{net.name}-probe",
            (c1.in_maps, 4 * c1.kernel + c1.stride, 4 * c1.kernel + c1.stride),
            f"C{min(c1.out_maps, 16)}k{c1.kernel}s{c1.stride}p{c1.pad} R C10k1",
        )
        print()
        print(render_quantization(quantization_report(probe)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.isa.compiler import compile_network
    from repro.isa.validate import lint_program
    from repro.sim.machine import Machine

    net = build(args.network)
    config = named_config(args.config)
    program = compile_network(net, config, args.policy)
    issues = lint_program(program, config)
    errors = [i for i in issues if i.severity == "error"]
    print(
        f"compiled {len(program)} macro instructions; lint: "
        f"{len(errors)} errors, {len(issues) - len(errors)} warnings"
    )
    if errors:
        for issue in errors:
            print(f"  [error] {issue.message}")
        return 1
    result = Machine(config).execute(program)
    print(
        f"machine: {result.total_cycles:,.0f} cycles "
        f"({result.milliseconds():.3f} ms) over {len(result.regions)} "
        f"regions, utilization {result.utilization:.1%}, "
        f"{result.buffer_accesses:,} buffer words, "
        f"{result.dram_words:,} DRAM words"
    )
    _print_energy(result.energy())
    if args.asm:
        from repro.isa.assembly import disassemble

        with open(args.asm, "w") as handle:
            handle.write(disassemble(program))
        print(f"assembly written to {args.asm}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import render_comparison

    net = build(args.network)
    config = named_config(args.config)
    run_a = plan_network(net, config, args.policy_a)
    run_b = plan_network(net, config, args.policy_b)
    print(render_comparison(run_a, run_b))
    return 0


def cmd_networks(args: argparse.Namespace) -> int:
    if args.detail:
        from repro.nn.stats import render_network_stats

        print(render_network_stats(build(args.detail), top=args.top))
        return 0
    for name in NETWORK_BUILDERS:
        s = build(name).summary()
        c1 = s.conv1
        print(
            f"{s.name:<10s} conv1=({c1.in_maps},{c1.kernel},{c1.stride},"
            f"{c1.out_maps})  #conv={s.conv_layers:<3d} "
            f"kernels={','.join(map(str, s.kernel_sizes)):<10s} "
            f"MACs={s.total_macs:.3e}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The command table: one subparser per command, its handler bound as
    ``args.handler``.  Handlers import their subsystem when they run, so
    parsing never loads serving or control code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="C-Brain (DAC'16) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # planning-performance flags shared by every subcommand
    perf_opts = argparse.ArgumentParser(add_help=False)
    perf_opts.add_argument(
        "--no-plan-cache",
        action="store_true",
        help="disable the per-layer schedule cache",
    )
    perf_opts.add_argument(
        "--perf-report",
        action="store_true",
        help="print phase timings and cache statistics when done",
    )

    def command(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[perf_opts])
        p.set_defaults(handler=handler)
        return p

    def json_flag(p: argparse.ArgumentParser, noun: str) -> None:
        p.add_argument(
            "--json",
            default="",
            metavar="PATH",
            help=f"write the {noun} JSON here ('-' = stdout only)",
        )

    p_report = command("report", "regenerate all tables and figures", cmd_report)
    p_report.add_argument(
        "--csv-dir",
        default="",
        help="also write each dataset as CSV into this directory",
    )

    p_plan = command("plan", "plan one network", cmd_plan)
    p_plan.add_argument("network", choices=sorted(NETWORK_BUILDERS))
    p_plan.add_argument("--config", default="16-16")
    p_plan.add_argument("--policy", default="adaptive-2", choices=POLICY_NAMES)
    p_plan.add_argument(
        "--full",
        action="store_true",
        help="include pooling/FC/LRN layers, not just conv",
    )
    p_plan.add_argument(
        "--top",
        type=int,
        default=0,
        help="show only the N most expensive layers",
    )
    p_plan.add_argument(
        "--timeline",
        action="store_true",
        help="draw the compute-vs-stream timeline",
    )

    p_sel = command("select", "show Algorithm 2 choices", cmd_select)
    p_sel.add_argument("network", choices=sorted(NETWORK_BUILDERS))
    p_sel.add_argument("--config", default="16-16")
    p_sel.add_argument(
        "--json",
        action="store_true",
        help="emit the per-layer choices as machine-readable JSON",
    )

    p_srv = command(
        "serve", "simulate multi-tenant serving with dynamic batching", cmd_serve
    )
    p_srv.add_argument(
        "--mix",
        default="alexnet",
        help='tenant mix, e.g. "alexnet:2,googlenet:1" (weights are traffic shares)',
    )
    p_srv.add_argument("--rate", type=float, default=100.0, help="mean arrival rate, req/s")
    p_srv.add_argument("--duration", type=float, default=10.0, help="offered-load window, s")
    p_srv.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    p_srv.add_argument(
        "--arrival",
        default="poisson",
        choices=["poisson", "bursty", "trace"],
        help="arrival process",
    )
    p_srv.add_argument("--trace", default="", help="trace file for --arrival trace")
    p_srv.add_argument("--burst-factor", type=float, default=4.0)
    p_srv.add_argument("--burst-fraction", type=float, default=0.2)
    p_srv.add_argument("--burst-period", type=float, default=1.0)
    p_srv.add_argument("--slo-ms", type=float, default=250.0, help="per-request latency SLO")
    p_srv.add_argument(
        "--max-batch", type=int, default=16, help="dynamic batching cap (1 = batch-1 serving)"
    )
    p_srv.add_argument(
        "--max-wait-ms", type=float, default=10.0, help="partial-batch dispatch timeout"
    )
    p_srv.add_argument("--queue-depth", type=int, default=256, help="admission queue bound")
    p_srv.add_argument("--queue-order", default="fifo", choices=["fifo", "edf"])
    p_srv.add_argument(
        "--max-age-ms",
        type=float,
        default=0.0,
        help="shed requests older than this at dispatch (0 = never)",
    )
    p_srv.add_argument(
        "--shed-expired",
        action="store_true",
        help="shed requests already past their deadline at dispatch",
    )
    p_srv.add_argument("--replicas", type=int, default=1, help="accelerator instances")
    p_srv.add_argument(
        "--routing", default="round-robin", choices=["round-robin", "least-loaded"]
    )
    p_srv.add_argument("--policy", default="adaptive-2", choices=POLICY_NAMES)
    p_srv.add_argument("--config", default="16-16")
    json_flag(p_srv, "metrics")

    p_auto = command(
        "autoscale",
        "closed-loop autoscaling over a diurnal flash-crowd workload",
        cmd_autoscale,
    )
    p_auto.add_argument(
        "--mix",
        default="vgg:3,alexnet:1",
        help='tenant mix, e.g. "vgg:3,alexnet:1" (weights are traffic shares)',
    )
    p_auto.add_argument("--base-rate", type=float, default=6.0, help="night-trough rate, req/s")
    p_auto.add_argument("--peak-rate", type=float, default=42.0, help="mid-day crest rate, req/s")
    p_auto.add_argument("--days", type=float, default=3.0, help="simulated days")
    p_auto.add_argument(
        "--day-s", type=float, default=100.0, help="seconds per simulated day (compressed)"
    )
    p_auto.add_argument(
        "--flash",
        action="append",
        default=[],
        metavar="START:DURATION:FACTOR",
        help="explicit flash-crowd window (repeatable)",
    )
    p_auto.add_argument(
        "--flash-per-day", type=float, default=1.0, help="seeded random flash crowds per day"
    )
    p_auto.add_argument(
        "--flash-factor", type=float, default=3.0, help="rate multiplier of seeded flashes"
    )
    p_auto.add_argument("--churn", type=float, default=0.0, help="tenant-mix churn in [0,1)")
    p_auto.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    p_auto.add_argument("--slo-ms", type=float, default=600.0, help="per-request latency SLO")
    p_auto.add_argument("--epoch-s", type=float, default=2.0, help="control epoch, simulated s")
    p_auto.add_argument("--replicas", type=int, default=1, help="initial fleet size")
    p_auto.add_argument("--min-replicas", type=int, default=1)
    p_auto.add_argument("--max-replicas", type=int, default=12)
    p_auto.add_argument(
        "--high-band", type=float, default=0.8, help="scale-up band: windowed p95 over SLO"
    )
    p_auto.add_argument(
        "--low-band", type=float, default=0.35, help="scale-down band: windowed p95 over SLO"
    )
    p_auto.add_argument(
        "--cooldown", type=int, default=2, help="epochs to hold after a scale action"
    )
    p_auto.add_argument(
        "--headroom", type=float, default=0.25, help="capacity headroom when demand-sizing"
    )
    p_auto.add_argument(
        "--no-retune",
        action="store_true",
        help="freeze max-batch/max-wait instead of retuning them",
    )
    p_auto.add_argument("--max-batch", type=int, default=16, help="initial dynamic-batching cap")
    p_auto.add_argument(
        "--max-wait-ms", type=float, default=10.0, help="initial partial-batch timeout"
    )
    p_auto.add_argument("--queue-depth", type=int, default=256, help="admission queue bound")
    p_auto.add_argument(
        "--compare",
        action="store_true",
        help="also run static mean-/peak-provisioned baselines",
    )
    p_auto.add_argument("--policy", default="adaptive-2", choices=POLICY_NAMES)
    p_auto.add_argument("--config", default="16-16")
    json_flag(p_auto, "metrics")

    p_shard = command(
        "shard", "partition a network across multiple accelerator chips", cmd_shard
    )
    p_shard.add_argument("network", choices=sorted(NETWORK_BUILDERS))
    p_shard.add_argument("--chips", type=int, default=2, help="accelerator instances")
    p_shard.add_argument(
        "--strategy",
        default="pipeline",
        choices=["pipeline", "data-parallel"],
        help="layer pipeline vs batch-sharded replication",
    )
    p_shard.add_argument(
        "--partition",
        default="dp",
        choices=["dp", "even"],
        help="pipeline balancer: optimal DP or naive even-by-count split",
    )
    p_shard.add_argument(
        "--batch",
        type=int,
        default=None,
        help="global batch for data-parallel (default: one image per chip)",
    )
    p_shard.add_argument(
        "--link-gbs",
        type=float,
        default=25.0,
        help="inter-chip link bandwidth, GB/s",
    )
    p_shard.add_argument(
        "--link-latency-us",
        type=float,
        default=1.0,
        help="fixed per-transfer hop latency, microseconds",
    )
    p_shard.add_argument("--config", default="16-16")
    p_shard.add_argument("--policy", default="adaptive-2", choices=POLICY_NAMES)
    json_flag(p_shard, "rollup")

    p_chaos = command(
        "chaos", "run fault-injection scenarios against the serving tier", cmd_chaos
    )
    p_chaos.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="named scenarios to run (default: all; see --list)",
    )
    p_chaos.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    p_chaos.add_argument("--seed", type=int, default=1, help="fault/workload RNG seed")
    p_chaos.add_argument("--config", default="16-16")
    p_chaos.add_argument(
        "--control",
        action="store_true",
        help="run chaos-under-autoscaling scenarios (self-healing loop vs "
        "frozen fleet vs non-healing loop)",
    )
    json_flag(p_chaos, "rollup")

    p_ten = command(
        "tenancy",
        "partition a chip among tenants / compare fleet compositions",
        cmd_tenancy,
    )
    p_ten.add_argument(
        "mode",
        choices=["partition", "fleet"],
        help="co-resident partitions vs time-mux, or fleet compositions",
    )
    p_ten.add_argument(
        "--tenants",
        default="acme=alexnet:9/nin:1,beta=alexnet:4/nin:1",
        help='per-tenant network mixes, e.g. "acme=alexnet:3/vgg:1@2,beta=nin"',
    )
    p_ten.add_argument("--config", default="32-32", help="chip to partition")
    p_ten.add_argument(
        "--split",
        type=int,
        default=2,
        help="partition mode: split into N equal column strips",
    )
    p_ten.add_argument(
        "--partitions",
        default="",
        metavar="NAME:TINxTOUT,...",
        help='explicit partition specs, e.g. "a:16x32,b:16x32" (overrides --split)',
    )
    p_ten.add_argument(
        "--fleet",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help="fleet mode: 'name=class:Tin-Tout[:count],...' (repeatable)",
    )
    p_ten.add_argument("--rate", type=float, default=470.0, help="total arrival rate, req/s")
    p_ten.add_argument("--duration", type=float, default=10.0, help="offered-load window, s")
    p_ten.add_argument("--seed", type=int, default=1, help="workload RNG seed")
    p_ten.add_argument("--slo-ms", type=float, default=250.0, help="per-request latency SLO")
    p_ten.add_argument("--max-batch", type=int, default=16, help="dynamic batching cap")
    p_ten.add_argument(
        "--max-wait-ms", type=float, default=10.0, help="partial-batch dispatch timeout"
    )
    p_ten.add_argument("--queue-depth", type=int, default=256, help="admission queue bound")
    p_ten.add_argument("--policy", default="adaptive-2", choices=POLICY_NAMES)
    json_flag(p_ten, "rollup")

    p_cap = command(
        "capacity",
        "what-if capacity planning: rank deployments vs SLOs/faults/cost",
        cmd_capacity,
    )
    p_cap.add_argument(
        "--tenants",
        default="acme=alexnet:9/nin:1,beta=alexnet:4/nin:1",
        help='per-tenant network mixes, e.g. "acme=alexnet:3/vgg:1@2,beta=nin"',
    )
    p_cap.add_argument("--rate", type=float, default=300.0, help="mean arrival rate, req/s")
    p_cap.add_argument("--duration", type=float, default=8.0, help="forecast window, s")
    p_cap.add_argument(
        "--forecast",
        default="steady",
        choices=["steady", "diurnal"],
        help="arrival shape (diurnal sweeps --rate (trough) to --peak-rate)",
    )
    p_cap.add_argument("--peak-rate", type=float, default=0.0, help="diurnal crest rate, req/s")
    p_cap.add_argument("--day-s", type=float, default=8.0, help="seconds per simulated day")
    p_cap.add_argument("--seed", type=int, default=1, help="workload RNG seed")
    p_cap.add_argument("--slo-ms", type=float, default=250.0, help="per-request latency SLO")
    p_cap.add_argument(
        "--slo-target", type=float, default=0.95, help="required deadline-hit rate per tenant"
    )
    p_cap.add_argument(
        "--geometries", default="16-16,32-32", help="chip geometries, comma-separated"
    )
    p_cap.add_argument("--chips", default="1,2,4", help="fleet sizes, comma-separated")
    p_cap.add_argument(
        "--strategies",
        default="replicated,pipeline,data-parallel,partitioned",
        help="deployment organisations to search, comma-separated",
    )
    p_cap.add_argument("--groups", default="2", help="chips per shard group options")
    p_cap.add_argument("--splits", default="2", help="partitions per chip options")
    p_cap.add_argument("--max-batches", default="1,16", help="batching cap options")
    p_cap.add_argument("--link-gbs", type=float, default=25.0, help="inter-chip link GB/s")
    p_cap.add_argument("--fault-seed", type=int, default=1, help="fault schedule seed")
    p_cap.add_argument("--crashes", type=int, default=0, help="chip fail-stops to inject")
    p_cap.add_argument("--slowdowns", type=int, default=0, help="chip fail-slow windows")
    p_cap.add_argument(
        "--sdc-windows", type=int, default=0, help="silent-data-corruption windows"
    )
    p_cap.add_argument(
        "--abft", action="store_true", help="serve with ABFT verification on every batch"
    )
    p_cap.add_argument("--policy", default="adaptive-2", choices=POLICY_NAMES)
    p_cap.add_argument(
        "--no-prune", action="store_true", help="simulate every candidate (skip bounds pruning)"
    )
    p_cap.add_argument(
        "--progress", action="store_true", help="log per-candidate progress to stderr"
    )
    p_cap.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulate candidates on N processes (-1 = all CPUs)",
    )
    p_cap.add_argument("--top", type=int, default=0, help="show only the N best deployments")
    json_flag(p_cap, "ranked report")

    p_int = command("integrity", "run the ABFT bit-flip injection sweep", cmd_integrity)
    p_int.add_argument("--seed", type=int, default=0, help="tensor/fault RNG seed")
    p_int.add_argument(
        "--flips", type=int, default=4, help="flips per (layer, path, site) cell"
    )
    p_int.add_argument(
        "--smoke", action="store_true", help="reduced sweep for CI smoke runs"
    )
    p_int.add_argument("--config", default="16-16")
    json_flag(p_int, "rollup")

    p_sim = command(
        "simulate", "compile, lint and machine-execute a network", cmd_simulate
    )
    p_sim.add_argument("network", choices=sorted(NETWORK_BUILDERS))
    p_sim.add_argument("--config", default="16-16")
    p_sim.add_argument("--policy", default="adaptive-2", choices=POLICY_NAMES)
    p_sim.add_argument("--asm", default="", help="also dump the assembly to a file")

    p_cmp = command("compare", "diff two policies layer by layer", cmd_compare)
    p_cmp.add_argument("network", choices=sorted(NETWORK_BUILDERS))
    p_cmp.add_argument("policy_a", choices=POLICY_NAMES)
    p_cmp.add_argument("policy_b", choices=POLICY_NAMES)
    p_cmp.add_argument("--config", default="16-16")

    p_an = command("analyze", "reuse/quantization analytics", cmd_analyze)
    p_an.add_argument("network", choices=sorted(NETWORK_BUILDERS))
    p_an.add_argument("--config", default="16-16")
    p_an.add_argument(
        "--quantization",
        action="store_true",
        help="also run the 16-bit fixed-point SQNR probe",
    )

    p_nets = command("networks", "list benchmark networks (Table 2)", cmd_networks)
    p_nets.add_argument(
        "--detail",
        default="",
        choices=[""] + sorted(NETWORK_BUILDERS),
        help="per-layer statistics for one network",
    )
    p_nets.add_argument("--top", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.perf import schedule_cache

    if args.no_plan_cache:
        schedule_cache.configure(enabled=False)
    rc = args.handler(args)
    if args.perf_report:
        from repro.perf import render_perf_report

        print()
        print(render_perf_report())
    return rc


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        sys.exit(0)
    except (ConfigError, OSError) as exc:
        # bad input or an unusable path is a usage error, reported like
        # argparse's (exit 2)
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
