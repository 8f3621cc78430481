"""Differential test: the columnar generators against the record-building ones.

The six generators below (with ``_pick_mixed``, ``_pick_tenant`` and
``_make_request``) are :mod:`repro.serve.workload`'s as they were before
the generators emitted :class:`~repro.serve.workload.Arrivals` columns,
kept verbatim: each request is a :class:`Request` built as it is drawn.
On generated inputs — rates, durations and seeds, mixes with non-integer
weights, bursty shapes, flash windows (explicit and seeded) and churn,
mixed tenants and trace files — every stream must equal its reference
request for request, field by field.
"""

from __future__ import annotations

import math
import os
import random
import tempfile
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, check_real
from repro.serve import workload
from repro.serve.workload import (
    Request,
    TenantSpec,
    _validate_tenants,
    _validate_tenants as _validate_mixed_tenants,
    _walk,
    check_flash_crowd,
    diurnal_rate,
)


# -- the generators as they were ---------------------------------------------


def mixed_arrivals(
    rate: float,
    duration_s: float,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
) -> List[Request]:
    """Poisson traffic where each tenant spreads over a network mix.

    One arrival stream at mean ``rate``: each request draws its tenant by
    tenant weight, then its network by that tenant's mix shares — two RNG
    draws per arrival from one seeded generator, so the same seed always
    produces the identical request list.  This is the multi-tenant input
    the tenancy and control benchmarks are judged on: a partition or chip
    pinned to a tenant must absorb *that tenant's whole mix*, not one
    network.
    """
    check_real(rate, "arrival rate", gt=0)
    check_real(duration_s, "duration", gt=0)
    _validate_mixed_tenants(tenants)
    rng = random.Random(seed)
    requests: List[Request] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        picked, network = _pick_mixed(rng, tenants)
        requests.append(
            Request(
                rid=len(requests),
                tenant=picked.name,
                network=network,
                arrival_s=t,
                deadline_s=t + picked.slo_ms / 1e3,
            )
        )
        t += rng.expovariate(rate)
    return requests


def _pick_mixed(
    rng: random.Random, tenants: Sequence[TenantSpec]
) -> Tuple[TenantSpec, str]:
    """Two weighted draws: tenant by weight, then network by mix share."""
    total = sum(tenant.weight for tenant in tenants)
    x = rng.random() * total
    picked = tenants[-1]
    for tenant in tenants:
        x -= tenant.weight
        if x < 0:
            picked = tenant
            break
    share_total = sum(share for _, share in picked.mix)
    y = rng.random() * share_total
    network = picked.mix[-1][0]
    for net, share in picked.mix:
        y -= share
        if y < 0:
            network = net
            break
    return picked, network


def mixed_diurnal_arrivals(
    base_rate: float,
    peak_rate: float,
    days: float,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
    day_s: float = 86400.0,
) -> List[Request]:
    """Diurnal traffic over *mixed-tenant* sources: the planner's input.

    The rate envelope is the :func:`diurnal_rate` sinusoid (``base_rate``
    in the trough, ``peak_rate`` at the crest), sampled by exact thinning
    like :func:`diurnal_arrivals`; each accepted arrival then draws its
    tenant by weight and its network by that tenant's mix shares, like
    :func:`mixed_arrivals`.  One seeded RNG drives everything, so the same
    seed always yields the identical request list — the capacity
    planner's whole search is deterministic because its traffic forecast
    is.
    """
    check_real(base_rate, "base_rate", gt=0)
    check_real(peak_rate, "peak_rate", gt=0)
    if peak_rate < base_rate:
        raise ConfigError(
            f"peak_rate must be >= base_rate, got {peak_rate!r} < {base_rate!r}"
        )
    check_real(days, "days", gt=0)
    check_real(day_s, "day_s", gt=0)
    _validate_mixed_tenants(tenants)

    duration_s = days * day_s
    rng = random.Random(seed)
    requests: List[Request] = []
    t = 0.0
    while True:
        t += rng.expovariate(peak_rate)
        if t >= duration_s:
            break
        current = diurnal_rate(t, base_rate, peak_rate, day_s)
        if rng.random() * peak_rate >= current:
            continue
        tenant, network = _pick_mixed(rng, tenants)
        requests.append(
            Request(
                rid=len(requests),
                tenant=tenant.name,
                network=network,
                arrival_s=t,
                deadline_s=t + tenant.slo_ms / 1e3,
            )
        )
    return requests


def _pick_tenant(rng: random.Random, tenants: Sequence[TenantSpec]) -> TenantSpec:
    total = sum(t.weight for t in tenants)
    x = rng.random() * total
    for t in tenants:
        x -= t.weight
        if x < 0:
            return t
    return tenants[-1]


def _make_request(
    rid: int, tenant: TenantSpec, arrival_s: float
) -> Request:
    return Request(
        rid=rid,
        tenant=tenant.name,
        network=tenant.network,
        arrival_s=arrival_s,
        deadline_s=arrival_s + tenant.slo_ms / 1e3,
    )


def poisson_arrivals(
    rate: float,
    duration_s: float,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
) -> List[Request]:
    """Open-loop Poisson traffic: ``rate`` requests/second for ``duration_s``."""
    check_real(rate, "arrival rate", gt=0)
    check_real(duration_s, "duration", gt=0)
    _validate_tenants(tenants)
    rng = random.Random(seed)
    requests: List[Request] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        tenant = _pick_tenant(rng, tenants)
        requests.append(_make_request(len(requests), tenant, t))
        t += rng.expovariate(rate)
    return requests


def bursty_arrivals(
    rate: float,
    duration_s: float,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.2,
    period_s: float = 1.0,
) -> List[Request]:
    """On/off modulated Poisson traffic with the same *mean* rate.

    Each ``period_s`` window starts with a burst lasting
    ``burst_fraction`` of the period at ``burst_factor`` times the mean
    rate; the remainder of the period runs at a reduced rate chosen so the
    long-run average stays ``rate``.  ``burst_factor * burst_fraction``
    must not exceed 1 (the off-phase rate cannot go negative).
    """
    check_real(rate, "arrival rate", gt=0)
    check_real(duration_s, "duration", gt=0)
    if not burst_factor >= 1:
        raise ConfigError(f"burst_factor must be >= 1, got {burst_factor!r}")
    if not 0 < burst_fraction < 1:
        raise ConfigError(f"burst_fraction must be in (0, 1), got {burst_fraction!r}")
    check_real(period_s, "period_s", gt=0)
    if burst_factor * burst_fraction > 1:
        raise ConfigError(
            "burst_factor * burst_fraction must be <= 1 so the off-phase "
            f"rate stays non-negative, got {burst_factor * burst_fraction!r}"
        )
    _validate_tenants(tenants)
    on_rate = rate * burst_factor
    off_rate = rate * (1 - burst_factor * burst_fraction) / (1 - burst_fraction)
    rng = random.Random(seed)
    requests: List[Request] = []
    # thinning: draw candidates at the envelope (burst) rate, accept each
    # with probability rate(t)/on_rate — an exact non-homogeneous Poisson
    # sampler, so the long-run mean stays `rate` with no phase-edge bias
    t = 0.0
    while True:
        t += rng.expovariate(on_rate)
        if t >= duration_s:
            break
        phase = (t % period_s) / period_s
        current = on_rate if phase < burst_fraction else off_rate
        if rng.random() * on_rate >= current:
            continue
        tenant = _pick_tenant(rng, tenants)
        requests.append(_make_request(len(requests), tenant, t))
    return requests


def diurnal_arrivals(
    base_rate: float,
    peak_rate: float,
    days: float,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
    day_s: float = 86400.0,
    flash_crowds: Sequence[Tuple[float, float, float]] = (),
    flash_per_day: float = 0.0,
    flash_factor: float = 3.0,
    churn: float = 0.0,
) -> List[Request]:
    """Multi-day diurnal traffic: day/night cycle, flash crowds, churn.

    The mean rate follows a sinusoid per simulated day (``base_rate`` in the
    trough, ``peak_rate`` at the crest; ``day_s`` seconds per day so tests
    and benchmarks can compress a day).  Flash crowds are ``(start_s,
    duration_s, factor)`` rate-multiplier windows — pass them explicitly in
    ``flash_crowds`` and/or let ``flash_per_day`` of them be drawn at seeded
    uniform times, each ``flash_factor`` x for 2% of a day.  ``churn`` in
    [0, 1) slowly rotates the tenant mix: each tenant's weight is
    modulated by ``1 + churn * sin(2 pi t/day_s + phase)`` with a seeded
    per-tenant phase, so which network dominates drifts over the day.
    Sampling is exact thinning against the envelope rate, like
    :func:`bursty_arrivals`, and everything is driven by one seeded RNG —
    the same seed always yields the identical request list.
    """
    check_real(base_rate, "base_rate", gt=0)
    check_real(peak_rate, "peak_rate", gt=0)
    if peak_rate < base_rate:
        raise ConfigError(
            f"peak_rate must be >= base_rate, got {peak_rate!r} < {base_rate!r}"
        )
    check_real(days, "days", gt=0)
    check_real(day_s, "day_s", gt=0)
    if not 0 <= flash_per_day < math.inf:
        raise ConfigError(
            f"flash_per_day must be finite and >= 0, got {flash_per_day!r}"
        )
    if not 1 <= flash_factor < math.inf:
        raise ConfigError(
            f"flash_factor must be finite and >= 1, got {flash_factor!r}"
        )
    if not 0 <= churn < 1:
        raise ConfigError(f"churn must be in [0, 1), got {churn!r}")
    for window in flash_crowds:
        check_flash_crowd(window)
    _validate_tenants(tenants)

    duration_s = days * day_s
    rng = random.Random(seed)
    windows = [tuple(map(float, w)) for w in flash_crowds]
    n_seeded = int(round(flash_per_day * days))
    seeded_starts = sorted(rng.uniform(0.0, duration_s) for _ in range(n_seeded))
    windows.extend((s, 0.02 * day_s, float(flash_factor)) for s in seeded_starts)
    windows.sort()

    max_factor = max([1.0] + [f for _, _, f in windows])
    envelope = peak_rate * max_factor
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in tenants]

    def pick_tenant(t: float) -> TenantSpec:
        if not churn:
            return _pick_tenant(rng, tenants)
        weights = [
            tenant.weight
            * (1.0 + churn * math.sin(2.0 * math.pi * t / day_s + phases[k]))
            for k, tenant in enumerate(tenants)
        ]
        x = rng.random() * sum(weights)
        for tenant, w in zip(tenants, weights):
            x -= w
            if x < 0:
                return tenant
        return tenants[-1]

    requests: List[Request] = []
    t = 0.0
    while True:
        t += rng.expovariate(envelope)
        if t >= duration_s:
            break
        current = diurnal_rate(t, base_rate, peak_rate, day_s, windows)
        if rng.random() * envelope >= current:
            continue
        requests.append(_make_request(len(requests), pick_tenant(t), t))
    return requests


def trace_arrivals(
    path: str,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> List[Request]:
    """Replay arrival times from a trace file.

    Each non-empty, non-``#`` line is ``<arrival_seconds>[,<tenant>]``.
    Lines without a tenant are assigned one by weighted draw (seeded, so
    replay is deterministic).  Timestamps must be finite, non-negative and
    non-decreasing — a trace that jumps backwards in time is almost always
    a recording bug, so it is rejected with the offending entry named
    rather than silently re-sorted.  ``duration_s`` truncates the trace
    when given.
    """
    _validate_tenants(tenants)
    if duration_s is not None:
        check_real(duration_s, "duration", gt=0)
    by_name = {t.name: t for t in tenants}
    rng = random.Random(seed)
    rows = []
    prev: Optional[float] = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            time_s, _, tenant_name = line.partition(",")
            try:
                arrival = float(time_s)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad arrival time {time_s!r}"
                ) from None
            if not math.isfinite(arrival):
                raise ConfigError(
                    f"{path}:{lineno}: non-finite arrival time {arrival!r} "
                    f"(entry {len(rows)})"
                )
            if arrival < 0:
                raise ConfigError(f"{path}:{lineno}: negative arrival time {arrival!r}")
            if prev is not None and arrival < prev:
                raise ConfigError(
                    f"{path}:{lineno}: decreasing arrival time {arrival!r} "
                    f"after {prev!r} (entry {len(rows)}); trace timestamps "
                    f"must be non-decreasing"
                )
            prev = arrival
            tenant_name = tenant_name.strip()
            if tenant_name and tenant_name not in by_name:
                raise ConfigError(
                    f"{path}:{lineno}: unknown tenant {tenant_name!r}; "
                    f"trace tenants must be in {sorted(by_name)}"
                )
            rows.append((arrival, tenant_name))
    requests: List[Request] = []
    for arrival, tenant_name in rows:
        if duration_s is not None and arrival >= duration_s:
            break
        tenant = by_name[tenant_name] if tenant_name else _pick_tenant(rng, tenants)
        requests.append(_make_request(len(requests), tenant, arrival))
    return requests


# -- the differential tests ----------------------------------------------------

NETWORKS = ("alexnet", "googlenet", "nin", "vgg")
#: positive, mostly non-integer weights and shares
WEIGHTS = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def tenant_specs(draw) -> List[TenantSpec]:
    networks = draw(st.lists(st.sampled_from(NETWORKS), min_size=1, max_size=4))
    return [
        TenantSpec(
            f"t{k}",
            network,
            weight=draw(WEIGHTS),
            slo_ms=draw(st.floats(min_value=1.0, max_value=500.0)),
        )
        for k, network in enumerate(networks)
    ]


@st.composite
def mixed_specs(draw) -> List[TenantSpec]:
    out = []
    for k in range(draw(st.integers(1, 3))):
        networks = draw(
            st.lists(st.sampled_from(NETWORKS), min_size=1, max_size=3, unique=True)
        )
        out.append(
            TenantSpec(
                f"m{k}",
                tuple((network, draw(WEIGHTS)) for network in networks),
                weight=draw(WEIGHTS),
                slo_ms=draw(st.floats(min_value=1.0, max_value=500.0)),
            )
        )
    return out


def assert_same(got: workload.Arrivals, want: List[Request]) -> None:
    assert isinstance(got, workload.Arrivals)
    assert len(got) == len(want)
    assert list(got) == want
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    tenants=tenant_specs(),
    rate=st.floats(min_value=1.0, max_value=800.0),
    duration_s=st.floats(min_value=0.01, max_value=3.0),
    seed=SEEDS,
)
def test_poisson_matches(tenants, rate, duration_s, seed):
    assert_same(
        workload.poisson_arrivals(rate, duration_s, tenants, seed=seed),
        poisson_arrivals(rate, duration_s, tenants, seed=seed),
    )


@settings(max_examples=60, deadline=None)
@given(
    tenants=tenant_specs(),
    rate=st.floats(min_value=1.0, max_value=500.0),
    duration_s=st.floats(min_value=0.01, max_value=3.0),
    seed=SEEDS,
    burst_factor=st.floats(min_value=1.0, max_value=6.0),
    fraction=st.floats(min_value=0.01, max_value=1.0),
    period_s=st.floats(min_value=0.01, max_value=2.0),
)
def test_bursty_matches(
    tenants, rate, duration_s, seed, burst_factor, fraction, period_s
):
    # a burst fraction the factor leaves room for: factor * fraction <= 1
    burst_fraction = min(fraction / burst_factor, 0.99)
    kwargs = dict(
        seed=seed,
        burst_factor=burst_factor,
        burst_fraction=burst_fraction,
        period_s=period_s,
    )
    assert_same(
        workload.bursty_arrivals(rate, duration_s, tenants, **kwargs),
        bursty_arrivals(rate, duration_s, tenants, **kwargs),
    )


#: (start_s, duration_s, factor) flash windows inside a short run
flash_windows = st.tuples(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=1.0, max_value=4.0),
)


@settings(max_examples=60, deadline=None)
@given(
    tenants=tenant_specs(),
    base=st.floats(min_value=1.0, max_value=300.0),
    extra=st.floats(min_value=0.0, max_value=300.0),
    days=st.floats(min_value=0.1, max_value=2.0),
    day_s=st.floats(min_value=0.5, max_value=3.0),
    seed=SEEDS,
    flash_crowds=st.lists(flash_windows, max_size=3),
    flash_per_day=st.sampled_from((0.0, 0.5, 2.0)),
    flash_factor=st.floats(min_value=1.0, max_value=4.0),
    churn=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.95)),
)
def test_diurnal_matches(
    tenants, base, extra, days, day_s, seed, flash_crowds, flash_per_day,
    flash_factor, churn,
):
    args = (base, base + extra, days, tenants)
    kwargs = dict(
        seed=seed,
        day_s=day_s,
        flash_crowds=flash_crowds,
        flash_per_day=flash_per_day,
        flash_factor=flash_factor,
        churn=churn,
    )
    assert_same(
        workload.diurnal_arrivals(*args, **kwargs), diurnal_arrivals(*args, **kwargs)
    )


@settings(max_examples=60, deadline=None)
@given(
    tenants=mixed_specs(),
    rate=st.floats(min_value=1.0, max_value=800.0),
    duration_s=st.floats(min_value=0.01, max_value=3.0),
    seed=SEEDS,
)
def test_mixed_matches(tenants, rate, duration_s, seed):
    assert_same(
        workload.mixed_arrivals(rate, duration_s, tenants, seed=seed),
        mixed_arrivals(rate, duration_s, tenants, seed=seed),
    )


@settings(max_examples=60, deadline=None)
@given(
    tenants=mixed_specs(),
    base=st.floats(min_value=1.0, max_value=300.0),
    extra=st.floats(min_value=0.0, max_value=300.0),
    days=st.floats(min_value=0.1, max_value=2.0),
    day_s=st.floats(min_value=0.5, max_value=3.0),
    seed=SEEDS,
)
def test_mixed_diurnal_matches(tenants, base, extra, days, day_s, seed):
    args = (base, base + extra, days, tenants)
    assert_same(
        workload.mixed_diurnal_arrivals(*args, seed=seed, day_s=day_s),
        mixed_diurnal_arrivals(*args, seed=seed, day_s=day_s),
    )


@settings(max_examples=60, deadline=None)
@given(
    tenants=tenant_specs(),
    gaps=st.lists(st.integers(0, 50), max_size=60),
    named=st.lists(st.booleans(), max_size=60),
    seed=SEEDS,
    duration_s=st.one_of(st.none(), st.floats(min_value=0.01, max_value=3.0)),
)
def test_trace_matches(tenants, gaps, named, seed, duration_s):
    lines, t = ["# arrival_s[,tenant]"], 0.0
    for k, gap in enumerate(gaps):
        t += gap / 1e3
        tenant = tenants[k % len(tenants)].name
        lines.append(f"{t!r},{tenant}" if k < len(named) and named[k] else f"{t!r}")
    fd, path = tempfile.mkstemp(suffix=".trace")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert_same(
            workload.trace_arrivals(path, tenants, seed=seed, duration_s=duration_s),
            trace_arrivals(path, tenants, seed=seed, duration_s=duration_s),
        )
    finally:
        os.remove(path)


def test_tenant_walk_subtracts_in_turn():
    """At this draw ``x - w0 - w1`` rounds below zero while ``x < w0 + w1``
    is false: the walk picks the second tenant, where running sums would
    pick the third."""
    weights = (1.1098654996442376, 1.8117601157885834, 1.0)
    x = 2.921625615432821
    assert not x < weights[0] + weights[1]
    assert _walk(x, weights) == 1
    assert _walk(0.0, weights) == 0
    assert _walk(sum(weights), weights) == 2  # past the total: the last one
