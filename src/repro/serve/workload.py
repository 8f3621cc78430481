"""Request generators for the serving simulator.

A *workload* is an :class:`Arrivals` stream: one row per inference
request, in arrival order — who wants it (tenant), on which zoo network,
when it arrives, and by when the answer is due (the tenant's SLO).  The
stream is columnar: arrival and deadline seconds are float64 columns,
tenant and network are small-int codes into the stream's name tuples,
and a generated stream's row number is its request id.  Indexing,
slicing and iteration give :class:`Request` records built on demand, so
a stream reads like the list of records it stands for.  Three arrival
processes cover the traffic shapes a deployed accelerator sees:

* :func:`poisson_arrivals` — memoryless open-loop traffic at a fixed mean
  rate, the classic serving benchmark;
* :func:`bursty_arrivals` — an on/off modulated Poisson process (same mean
  rate, traffic squeezed into periodic bursts) that stresses the queue and
  the load-shedding policy;
* :func:`diurnal_arrivals` — a multi-day sinusoidal day/night cycle with
  scheduled flash-crowd spikes and slow tenant churn, the input the
  autoscaling control plane (:mod:`repro.control`) is judged on;
* :func:`trace_arrivals` — replay recorded arrival times from a file, for
  apples-to-apples comparisons against production traces.

Every generator is driven by :class:`random.Random` seeded explicitly, so
the same seed always produces the identical request sequence — the whole
simulation downstream is deterministic because its input is.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError, check_real

__all__ = [
    "Arrivals",
    "TenantSpec",
    "MixedTenantSpec",
    "Request",
    "parse_mix",
    "parse_tenant_mix",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "diurnal_rate",
    "mixed_arrivals",
    "mixed_diurnal_arrivals",
    "trace_arrivals",
    "check_flash_crowd",
]

#: default per-request latency SLO when a mix spec does not name one
DEFAULT_SLO_MS = 250.0


def check_flash_crowd(window: Tuple[float, float, float]) -> None:
    """Reject a flash-crowd ``(start_s, duration_s, factor)`` window that is
    not finite with ``start >= 0``, ``duration > 0`` and ``factor >= 1``."""
    start, duration, factor = window
    if not (
        0 <= start < math.inf and 0 < duration < math.inf and 1 <= factor < math.inf
    ):
        raise ConfigError(
            f"flash crowd {window!r} must be finite with "
            "(start>=0, duration>0, factor>=1)"
        )


@dataclass(frozen=True)
class TenantSpec:
    """One traffic source: a named tenant pinned to one zoo network."""

    name: str
    network: str
    weight: float = 1.0
    slo_ms: float = DEFAULT_SLO_MS

    def __post_init__(self) -> None:
        check_real(self.weight, f"tenant {self.name!r}: weight", gt=0)
        check_real(self.slo_ms, f"tenant {self.name!r}: slo_ms", gt=0)


@dataclass(frozen=True)
class Request:
    """One inference request in simulated time (seconds)."""

    rid: int
    tenant: str
    network: str
    arrival_s: float
    deadline_s: float

    def slo_s(self) -> float:
        return self.deadline_s - self.arrival_s


_ARRIVAL = attrgetter("arrival_s")
_DEADLINE = attrgetter("deadline_s")
_TENANT = attrgetter("tenant")
_NETWORK = attrgetter("network")
_RID = attrgetter("rid")
#: rows converted to Python values at a time when a stream is iterated
_CHUNK = 4096


def _code_dtype(n_names: int) -> type:
    """The smallest code column that indexes ``n_names`` names."""
    return np.int8 if n_names <= 127 else np.int32


def _coded(values: List[str]) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Each value's code, and the distinct values in first-seen order."""
    names = tuple(dict.fromkeys(values))
    code = {name: k for k, name in enumerate(names)}
    codes = map(code.__getitem__, values)
    return np.fromiter(codes, _code_dtype(len(names)), len(values)), names


def _recode(col: np.ndarray, names: Tuple[str, ...], union: Tuple[str, ...]):
    """``col``'s codes into ``names`` as codes into ``union``."""
    lookup = [union.index(name) for name in names]
    return np.array(lookup, _code_dtype(len(union)))[col]


class _Room:
    """The buffers behind a concatenated stream: its rows, then spare room.

    ``filled`` rows are in use; only the stream that ends there may append.
    """

    def __init__(self, stream, capacity, tenants, networks, rid) -> None:
        n = len(stream)

        def column(values, dtype):
            out = np.empty(capacity, dtype)
            out[:n] = values
            return out

        self.arrival = column(stream.arrival, np.float64)
        self.deadline = column(stream.deadline, np.float64)
        self.tenant = column(
            _recode(stream.tenant, stream.tenants, tenants), _code_dtype(len(tenants))
        )
        self.network = column(
            _recode(stream.network, stream.networks, networks),
            _code_dtype(len(networks)),
        )
        self.rid = None if rid is None else column(rid, np.int64)
        self.filled = n

    def fits(self, stream, rows, tenants, networks, rid) -> bool:
        """Whether ``stream`` may grow to ``rows`` rows in place."""
        return (
            self.filled == len(stream)
            and rows <= len(self.arrival)
            and self.tenant.dtype == _code_dtype(len(tenants))
            and self.network.dtype == _code_dtype(len(networks))
            and (self.rid is None) == (rid is None)
        )


def _column(values: array) -> np.ndarray:
    """A NumPy view of an :mod:`array` column (no copy)."""
    return np.frombuffer(values, dtype=values.typecode)


class Arrivals(SequenceABC):
    """A request stream as columns, one row per request in arrival order.

    ``arrival`` and ``deadline`` are float64 seconds; ``tenant`` and
    ``network`` are int8 codes into the ``tenants`` and ``networks`` name
    tuples (wider only past 127 names), so a row takes 18 bytes.  ``rid``
    holds the request ids of a stream converted from :class:`Request`
    records or cut from another stream; ``None`` means a row's id is its
    row number, as in every generated stream.  Indexing, slicing,
    iteration and equality read :class:`Request` views built on demand.
    A stream is never modified, so engines share one.
    """

    __slots__ = (
        "arrival", "deadline", "tenant", "network", "tenants", "networks", "rid",
        "_room",
    )

    def __init__(
        self,
        arrival: np.ndarray,
        deadline: np.ndarray,
        tenant: np.ndarray,
        network: np.ndarray,
        tenants: Tuple[str, ...],
        networks: Tuple[str, ...],
        rid: Optional[np.ndarray] = None,
    ) -> None:
        self.arrival = arrival
        self.deadline = deadline
        self.tenant = tenant
        self.network = network
        self.tenants = tenants
        self.networks = networks
        if rid is not None and np.array_equal(rid, np.arange(len(rid))):
            rid = None
        self.rid = rid
        self._room: Optional[_Room] = None

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "Arrivals":
        """The stream of ``requests``, in (arrival, rid) order, ids kept."""
        if isinstance(requests, Arrivals):
            return requests.sorted()
        tenant, tenants = _coded(list(map(_TENANT, requests)))
        network, networks = _coded(list(map(_NETWORK, requests)))
        n = len(requests)
        return cls(
            np.fromiter(map(_ARRIVAL, requests), np.float64, n),
            np.fromiter(map(_DEADLINE, requests), np.float64, n),
            tenant,
            network,
            tenants,
            networks,
            np.fromiter(map(_RID, requests), np.int64, n),
        ).sorted()

    def __len__(self) -> int:
        return len(self.arrival)

    def rids(self) -> np.ndarray:
        """Every row's request id."""
        return np.arange(len(self)) if self.rid is None else self.rid

    def take(self, rows: np.ndarray) -> "Arrivals":
        """The rows ``rows`` (an index array) as a stream of their own."""
        return Arrivals(
            self.arrival[rows],
            self.deadline[rows],
            self.tenant[rows],
            self.network[rows],
            self.tenants,
            self.networks,
            self.rids()[rows],
        )

    def sorted(self) -> "Arrivals":
        """This stream in (arrival, rid) order: itself when it already is."""
        step = np.diff(self.arrival)
        if self.rid is None:
            ordered = bool(np.all(step >= 0))
        else:
            ties = (step == 0) & (np.diff(self.rid) >= 0)
            ordered = bool(np.all((step > 0) | ties))
        if ordered:
            return self
        return self.take(np.lexsort((self.rids(), self.arrival)))

    def concat(self, other: "Arrivals") -> "Arrivals":
        """This stream's rows, then ``other``'s, over the union of the names.

        The result's columns are views into buffers with spare room, and
        a concat onto the stream whose rows end where its room is filled
        appends there, so k chunks concatenated in turn copy each row once
        (amortized).  Every other stream keeps its rows: a shorter view of
        the same room gets a room of its own.
        """
        if not len(other):
            return self
        if not len(self):
            return other
        tenants = tuple(dict.fromkeys(self.tenants + other.tenants))
        networks = tuple(dict.fromkeys(self.networks + other.networks))
        n, m = len(self), len(self) + len(other)
        rid, other_rids = self.rid, other.rids()
        if rid is None and not np.array_equal(other_rids, np.arange(n, m)):
            rid = self.rids()
        room = self._room
        if room is None or not room.fits(self, m, tenants, networks, rid):
            room = _Room(self, 2 * m, tenants, networks, rid)
        room.arrival[n:m] = other.arrival
        room.deadline[n:m] = other.deadline
        room.tenant[n:m] = _recode(other.tenant, other.tenants, tenants)
        room.network[n:m] = _recode(other.network, other.networks, networks)
        if room.rid is not None:
            room.rid[n:m] = other_rids
        room.filled = m
        out = Arrivals(
            room.arrival[:m],
            room.deadline[:m],
            room.tenant[:m],
            room.network[:m],
            tenants,
            networks,
        )
        out.rid = None if room.rid is None else room.rid[:m]
        out._room = room
        return out

    def __getitem__(self, key: Union[int, slice]) -> Union[Request, "Arrivals"]:
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        row = range(len(self))[key]  # IndexError past either end
        return Request(
            int(self.rid[row]) if self.rid is not None else row,
            self.tenants[self.tenant[row]],
            self.networks[self.network[row]],
            float(self.arrival[row]),
            float(self.deadline[row]),
        )

    def __iter__(self) -> Iterator[Request]:
        rids = self.rids()
        for lo in range(0, len(self), _CHUNK):
            hi = lo + _CHUNK
            yield from map(
                Request,
                rids[lo:hi].tolist(),
                [self.tenants[c] for c in self.tenant[lo:hi].tolist()],
                [self.networks[c] for c in self.network[lo:hi].tolist()],
                self.arrival[lo:hi].tolist(),
                self.deadline[lo:hi].tolist(),
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Arrivals, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


def _codes(n_names: int) -> array:
    """An empty code column for ``n_names`` names (see :func:`_code_dtype`)."""
    return array(np.dtype(_code_dtype(n_names)).char)


def _stream(
    times: array,
    picks: array,
    tenants: Sequence[Union[TenantSpec, "MixedTenantSpec"]],
    nets: Optional[array] = None,
    networks: Tuple[str, ...] = (),
) -> Arrivals:
    """A generated stream: arrival times and tenant codes as drawn, each
    deadline the arrival plus its tenant's SLO (float64 addition, the same
    bits as Python's), and the network codes ``nets`` into ``networks`` —
    or, when each tenant pins one network, the picked tenant's."""
    arrival = _column(times)
    tenant = _column(picks)
    slo_s = np.array([t.slo_ms / 1e3 for t in tenants], np.float64)
    if nets is None:
        networks = tuple(dict.fromkeys(t.network for t in tenants))
        lookup = [networks.index(t.network) for t in tenants]
        network = np.array(lookup, _code_dtype(len(networks)))[tenant]
    else:
        network = _column(nets)
    return Arrivals(
        arrival,
        arrival + slo_s[tenant],
        tenant,
        network,
        tuple(t.name for t in tenants),
        networks,
    )


def _walk(x: float, weights: Sequence[float]) -> int:
    """The index at which ``x`` drops below zero as each weight is
    subtracted in turn; the last index if it never does.

    The subtractions round one at a time, so this is not the same draw
    as comparing ``x`` with running sums: with weights ``(a, b, ...)``,
    ``x - a - b`` can fall below zero while ``x < a + b`` is false.
    """
    for k, w in enumerate(weights):
        x -= w
        if x < 0:
            return k
    return len(weights) - 1


@dataclass(frozen=True)
class MixedTenantSpec:
    """One traffic source whose requests draw from a *mix* of networks.

    A production tenant rarely pins a single model: an app ships a big
    and a small variant, or A/B-tests architectures inside one request
    stream.  ``mix`` is a tuple of ``(network, weight)`` pairs — relative
    shares of this tenant's traffic — and ``weight`` is the tenant's
    share of the overall stream, exactly like :class:`TenantSpec`.
    """

    name: str
    mix: Tuple[Tuple[str, float], ...]
    weight: float = 1.0
    slo_ms: float = DEFAULT_SLO_MS

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("mixed tenant needs a non-empty name")
        if not self.mix:
            raise ConfigError(
                f"tenant {self.name!r}: network mix must name at least one network"
            )
        seen = set()
        for network, share in self.mix:
            if network in seen:
                raise ConfigError(
                    f"tenant {self.name!r}: duplicate network {network!r} in mix"
                )
            seen.add(network)
            check_real(share, f"tenant {self.name!r}: network {network!r} share", gt=0)
        check_real(self.weight, f"tenant {self.name!r}: weight", gt=0)
        check_real(self.slo_ms, f"tenant {self.name!r}: slo_ms", gt=0)

    @property
    def networks(self) -> Tuple[str, ...]:
        return tuple(network for network, _ in self.mix)


def _validate_mixed_tenants(tenants: Sequence[MixedTenantSpec]) -> None:
    from repro.nn.zoo import NETWORK_BUILDERS

    if not tenants:
        raise ConfigError("workload needs at least one tenant")
    seen = set()
    for t in tenants:
        if t.name in seen:
            raise ConfigError(f"duplicate tenant name {t.name!r}")
        seen.add(t.name)
        for network in t.networks:
            if network not in NETWORK_BUILDERS:
                raise ConfigError(
                    f"tenant {t.name!r}: unknown network {network!r}; "
                    f"choose from {sorted(NETWORK_BUILDERS)}"
                )


def parse_tenant_mix(
    spec: str, slo_ms: float = DEFAULT_SLO_MS
) -> List[MixedTenantSpec]:
    """Parse a per-tenant network-mix spec.

    Grammar (entries comma-separated)::

        name=network[:share][/network[:share]...][@tenant_weight]

    e.g. ``"acme=alexnet:3/vgg:1@2,beta=nin"`` — tenant ``acme`` carries
    twice ``beta``'s traffic and splits it 3:1 between AlexNet and VGG.
    """
    tenants: List[MixedTenantSpec] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, rest = entry.partition("=")
        if not sep or not name or not rest:
            raise ConfigError(
                f"bad tenant-mix entry {entry!r}; expected "
                "'name=network[:share]/...[@weight]'"
            )
        rest, _, weight_s = rest.partition("@")
        try:
            weight = float(weight_s) if weight_s else 1.0
        except ValueError:
            raise ConfigError(
                f"bad tenant weight {weight_s!r} in entry {entry!r}"
            ) from None
        mix: List[Tuple[str, float]] = []
        for part in rest.split("/"):
            network, _, share_s = part.partition(":")
            try:
                share = float(share_s) if share_s else 1.0
            except ValueError:
                raise ConfigError(
                    f"bad network share {share_s!r} in entry {entry!r}"
                ) from None
            mix.append((network.strip(), share))
        tenants.append(
            MixedTenantSpec(
                name=name.strip(), mix=tuple(mix), weight=weight, slo_ms=slo_ms
            )
        )
    _validate_mixed_tenants(tenants)
    return tenants


def mixed_arrivals(
    rate: float,
    duration_s: float,
    tenants: Sequence[MixedTenantSpec],
    seed: int = 0,
) -> Arrivals:
    """Poisson traffic where each tenant spreads over a network mix.

    One arrival stream at mean ``rate``: each request draws its tenant by
    tenant weight, then its network by that tenant's mix shares — two RNG
    draws per arrival from one seeded generator, so the same seed always
    produces the identical request stream.  This is the multi-tenant input
    the tenancy and control benchmarks are judged on: a partition or chip
    pinned to a tenant must absorb *that tenant's whole mix*, not one
    network.
    """
    check_real(rate, "arrival rate", gt=0)
    check_real(duration_s, "duration", gt=0)
    _validate_mixed_tenants(tenants)
    draw = _MixedDraw(tenants, seed)
    times, picks, nets = array("d"), _codes(len(tenants)), _codes(len(draw.networks))
    rng, log = draw.rng.random, math.log
    # expovariate's own formula, inlined: the draws are unchanged
    t = -log(1.0 - rng()) / rate
    while t < duration_s:
        k, j = draw.pick()
        times.append(t)
        picks.append(k)
        nets.append(j)
        t += -log(1.0 - rng()) / rate
    return _stream(times, picks, tenants, nets, draw.networks)


class _MixedDraw:
    """Seeded (tenant, network) draws over mixed tenants: tenant by weight,
    then network by that tenant's mix shares, each by :func:`_walk`."""

    def __init__(self, tenants: Sequence[MixedTenantSpec], seed: int) -> None:
        self.rng = random.Random(seed)
        self.weights = tuple(t.weight for t in tenants)
        self.total = sum(self.weights)
        networks = chain.from_iterable(t.networks for t in tenants)
        self.networks = tuple(dict.fromkeys(networks))
        self.shares = [tuple(share for _, share in t.mix) for t in tenants]
        self.share_totals = [sum(shares) for shares in self.shares]
        self.codes = [tuple(map(self.networks.index, t.networks)) for t in tenants]

    def pick(self) -> Tuple[int, int]:
        rng = self.rng.random
        k = _walk(rng() * self.total, self.weights)
        j = _walk(rng() * self.share_totals[k], self.shares[k])
        return k, self.codes[k][j]


def mixed_diurnal_arrivals(
    base_rate: float,
    peak_rate: float,
    days: float,
    tenants: Sequence[MixedTenantSpec],
    seed: int = 0,
    day_s: float = 86400.0,
) -> Arrivals:
    """Diurnal traffic over *mixed-tenant* sources: the planner's input.

    The rate envelope is the :func:`diurnal_rate` sinusoid (``base_rate``
    in the trough, ``peak_rate`` at the crest), sampled by exact thinning
    like :func:`diurnal_arrivals`; each accepted arrival then draws its
    tenant by weight and its network by that tenant's mix shares, like
    :func:`mixed_arrivals`.  One seeded RNG drives everything, so the same
    seed always yields the identical request stream — the capacity
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
    draw = _MixedDraw(tenants, seed)
    times, picks, nets = array("d"), _codes(len(tenants)), _codes(len(draw.networks))
    rng, log = draw.rng.random, math.log
    t = 0.0
    while True:
        t += -log(1.0 - rng()) / peak_rate
        if t >= duration_s:
            break
        current = diurnal_rate(t, base_rate, peak_rate, day_s)
        if rng() * peak_rate >= current:
            continue
        k, j = draw.pick()
        times.append(t)
        picks.append(k)
        nets.append(j)
    return _stream(times, picks, tenants, nets, draw.networks)


def _validate_tenants(tenants: Sequence[TenantSpec]) -> None:
    from repro.nn.zoo import NETWORK_BUILDERS

    if not tenants:
        raise ConfigError("workload needs at least one tenant")
    seen = set()
    for t in tenants:
        if t.name in seen:
            raise ConfigError(f"duplicate tenant name {t.name!r}")
        seen.add(t.name)
        if t.network not in NETWORK_BUILDERS:
            raise ConfigError(
                f"tenant {t.name!r}: unknown network {t.network!r}; "
                f"choose from {sorted(NETWORK_BUILDERS)}"
            )


def parse_mix(spec: str, slo_ms: float = DEFAULT_SLO_MS) -> List[TenantSpec]:
    """Parse a CLI mix spec like ``"alexnet:2,googlenet:1"``.

    Each entry is ``network[:weight]``; the tenant is named after its
    network.  Weights are relative traffic shares.
    """
    tenants: List[TenantSpec] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, weight_s = entry.partition(":")
        try:
            weight = float(weight_s) if weight_s else 1.0
        except ValueError:
            raise ConfigError(f"bad weight {weight_s!r} in mix entry {entry!r}") from None
        tenants.append(TenantSpec(name=name, network=name, weight=weight, slo_ms=slo_ms))
    _validate_tenants(tenants)
    return tenants


def poisson_arrivals(
    rate: float,
    duration_s: float,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
) -> Arrivals:
    """Open-loop Poisson traffic: ``rate`` requests/second for ``duration_s``."""
    check_real(rate, "arrival rate", gt=0)
    check_real(duration_s, "duration", gt=0)
    _validate_tenants(tenants)
    rng, log = random.Random(seed).random, math.log
    weights = tuple(t.weight for t in tenants)
    total = sum(weights)
    times, picks = array("d"), _codes(len(tenants))
    # expovariate's own formula, inlined: the draws are unchanged
    t = -log(1.0 - rng()) / rate
    while t < duration_s:
        times.append(t)
        picks.append(_walk(rng() * total, weights))
        t += -log(1.0 - rng()) / rate
    return _stream(times, picks, tenants)


def bursty_arrivals(
    rate: float,
    duration_s: float,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.2,
    period_s: float = 1.0,
) -> Arrivals:
    """On/off modulated Poisson traffic with the same *mean* rate.

    Each ``period_s`` window starts with a burst lasting
    ``burst_fraction`` of the period at ``burst_factor`` times the mean
    rate; the remainder of the period runs at a reduced rate chosen so the
    long-run average stays ``rate``.  ``burst_factor * burst_fraction``
    must not exceed 1 (the off-phase rate cannot go negative).
    """
    check_real(rate, "arrival rate", gt=0)
    check_real(duration_s, "duration", gt=0)
    # an infinite factor fails the off-phase check below
    check_real(burst_factor, "burst_factor", ge=1, finite=False)
    check_real(burst_fraction, "burst_fraction", gt=0, lt=1)
    check_real(period_s, "period_s", gt=0)
    if burst_factor * burst_fraction > 1:
        raise ConfigError(
            "burst_factor * burst_fraction must be <= 1 so the off-phase "
            f"rate stays non-negative, got {burst_factor * burst_fraction!r}"
        )
    _validate_tenants(tenants)
    on_rate = rate * burst_factor
    off_rate = rate * (1 - burst_factor * burst_fraction) / (1 - burst_fraction)
    rng, log = random.Random(seed).random, math.log
    weights = tuple(t.weight for t in tenants)
    total = sum(weights)
    times, picks = array("d"), _codes(len(tenants))
    # thinning: draw candidates at the envelope (burst) rate, accept each
    # with probability rate(t)/on_rate — an exact non-homogeneous Poisson
    # sampler, so the long-run mean stays `rate` with no phase-edge bias
    t = 0.0
    while True:
        t += -log(1.0 - rng()) / on_rate
        if t >= duration_s:
            break
        phase = (t % period_s) / period_s
        current = on_rate if phase < burst_fraction else off_rate
        if rng() * on_rate >= current:
            continue
        times.append(t)
        picks.append(_walk(rng() * total, weights))
    return _stream(times, picks, tenants)


def diurnal_rate(
    t: float,
    base_rate: float,
    peak_rate: float,
    day_s: float,
    flash_windows: Sequence[Tuple[float, float, float]] = (),
) -> float:
    """Instantaneous arrival rate of the diurnal process at time ``t``.

    The daily cycle is sinusoidal — ``base_rate`` at midnight, ``peak_rate``
    at mid-day — and any flash-crowd window ``(start, duration, factor)``
    covering ``t`` multiplies the rate (overlapping windows take the max
    factor, mirroring the service-window semantics of failover runs).
    """
    rate = base_rate + (peak_rate - base_rate) * 0.5 * (
        1.0 - math.cos(2.0 * math.pi * t / day_s)
    )
    factor = 1.0
    for start, duration, f in flash_windows:
        if start <= t < start + duration:
            factor = max(factor, f)
    return rate * factor


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
) -> Arrivals:
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
    the same seed always yields the identical request stream.
    """
    check_real(base_rate, "base_rate", gt=0)
    check_real(peak_rate, "peak_rate", gt=0)
    if peak_rate < base_rate:
        raise ConfigError(
            f"peak_rate must be >= base_rate, got {peak_rate!r} < {base_rate!r}"
        )
    check_real(days, "days", gt=0)
    check_real(day_s, "day_s", gt=0)
    check_real(flash_per_day, "flash_per_day", ge=0)
    check_real(flash_factor, "flash_factor", ge=1)
    check_real(churn, "churn", ge=0, lt=1)
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
    weights = tuple(t.weight for t in tenants)
    total = sum(weights)
    random_, log = rng.random, math.log
    times, picks = array("d"), _codes(len(tenants))
    t = 0.0
    while True:
        t += -log(1.0 - random_()) / envelope
        if t >= duration_s:
            break
        current = diurnal_rate(t, base_rate, peak_rate, day_s, windows)
        if random_() * envelope >= current:
            continue
        times.append(t)
        if not churn:
            picks.append(_walk(random_() * total, weights))
            continue
        churned = [
            w * (1.0 + churn * math.sin(2.0 * math.pi * t / day_s + phase))
            for w, phase in zip(weights, phases)
        ]
        picks.append(_walk(random_() * sum(churned), churned))
    return _stream(times, picks, tenants)


def _utf8_lines(handle, path: str) -> Iterator[str]:
    """The lines of ``handle``, a trace opened as UTF-8; bytes that are not
    UTF-8 text are a :class:`ConfigError` naming ``path``."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def trace_arrivals(
    path: str,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
    duration_s: Optional[float] = None,
) -> Arrivals:
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
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(_utf8_lines(handle, path), 1):
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
    code = {t.name: k for k, t in enumerate(tenants)}
    weights = tuple(t.weight for t in tenants)
    total = sum(weights)
    times, picks = array("d"), _codes(len(tenants))
    for arrival, tenant_name in rows:
        if duration_s is not None and arrival >= duration_s:
            break
        times.append(arrival)
        if tenant_name:
            picks.append(code[tenant_name])
        else:
            picks.append(_walk(rng.random() * total, weights))
    return _stream(times, picks, tenants)
