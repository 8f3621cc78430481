"""Non-finite inputs fail fast, naming the argument and its value.

``rng.expovariate(inf)`` is ``0.0``, so an infinite rate, duration or
flash factor used to spin a generator forever, and a NaN one used to
return an empty or silently reshaped workload.  Every generator, both
tenant specs and both mix parsers now reject them up front.
"""

from __future__ import annotations

import math

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.serve.workload import (
    MixedTenantSpec,
    TenantSpec,
    bursty_arrivals,
    diurnal_arrivals,
    mixed_arrivals,
    mixed_diurnal_arrivals,
    parse_mix,
    parse_tenant_mix,
    poisson_arrivals,
    trace_arrivals,
)

NAN, INF = math.nan, math.inf
ALEX = [TenantSpec("alexnet", "alexnet")]
MIXED = [MixedTenantSpec(name="a", mix=(("alexnet", 1.0),))]

#: (id, call, expected message) — one entry per guarded argument
CASES = [
    ("poisson-rate-nan", lambda: poisson_arrivals(NAN, 1.0, ALEX),
     "arrival rate must be positive and finite, got nan"),
    ("poisson-rate-inf", lambda: poisson_arrivals(INF, 1.0, ALEX),
     "arrival rate must be positive and finite, got inf"),
    ("poisson-duration-nan", lambda: poisson_arrivals(10.0, NAN, ALEX),
     "duration must be positive and finite, got nan"),
    ("poisson-duration-inf", lambda: poisson_arrivals(10.0, INF, ALEX),
     "duration must be positive and finite, got inf"),
    ("mixed-rate-nan", lambda: mixed_arrivals(NAN, 1.0, MIXED),
     "arrival rate must be positive and finite, got nan"),
    ("mixed-rate-inf", lambda: mixed_arrivals(INF, 1.0, MIXED),
     "arrival rate must be positive and finite, got inf"),
    ("mixed-duration-inf", lambda: mixed_arrivals(10.0, INF, MIXED),
     "duration must be positive and finite, got inf"),
    ("bursty-rate-nan", lambda: bursty_arrivals(NAN, 1.0, ALEX),
     "arrival rate must be positive and finite, got nan"),
    ("bursty-rate-inf", lambda: bursty_arrivals(INF, 1.0, ALEX),
     "arrival rate must be positive and finite, got inf"),
    ("bursty-duration-inf", lambda: bursty_arrivals(10.0, INF, ALEX),
     "duration must be positive and finite, got inf"),
    ("bursty-factor-nan", lambda: bursty_arrivals(10.0, 1.0, ALEX, burst_factor=NAN),
     "burst_factor must be >= 1, got nan"),
    ("bursty-period-nan", lambda: bursty_arrivals(10.0, 1.0, ALEX, period_s=NAN),
     "period_s must be positive and finite, got nan"),
    ("diurnal-base-nan", lambda: diurnal_arrivals(NAN, 20.0, 1.0, ALEX),
     "base_rate must be positive and finite, got nan"),
    ("diurnal-peak-inf", lambda: diurnal_arrivals(5.0, INF, 1.0, ALEX),
     "peak_rate must be positive and finite, got inf"),
    ("diurnal-days-inf", lambda: diurnal_arrivals(5.0, 20.0, INF, ALEX),
     "days must be positive and finite, got inf"),
    ("diurnal-day-s-inf", lambda: diurnal_arrivals(5.0, 20.0, 1.0, ALEX, day_s=INF),
     "day_s must be positive and finite, got inf"),
    ("diurnal-flash-duration-nan",
     lambda: diurnal_arrivals(5.0, 20.0, 1.0, ALEX, day_s=40.0,
                              flash_crowds=[(16.0, NAN, 2.2)]),
     r"flash crowd \(16.0, nan, 2.2\) must be finite"),
    ("diurnal-flash-factor-inf",
     lambda: diurnal_arrivals(5.0, 20.0, 1.0, ALEX, day_s=40.0,
                              flash_crowds=[(16.0, 4.0, INF)]),
     r"flash crowd \(16.0, 4.0, inf\) must be finite"),
    ("diurnal-flash-per-day-nan",
     lambda: diurnal_arrivals(5.0, 20.0, 1.0, ALEX, flash_per_day=NAN),
     "flash_per_day must be finite and >= 0, got nan"),
    ("diurnal-seeded-flash-factor-inf",
     lambda: diurnal_arrivals(5.0, 20.0, 1.0, ALEX, day_s=40.0,
                              flash_per_day=1.0, flash_factor=INF),
     "flash_factor must be finite and >= 1, got inf"),
    ("mixed-diurnal-base-nan", lambda: mixed_diurnal_arrivals(NAN, 20.0, 1.0, MIXED),
     "base_rate must be positive and finite, got nan"),
    ("mixed-diurnal-peak-inf", lambda: mixed_diurnal_arrivals(5.0, INF, 1.0, MIXED),
     "peak_rate must be positive and finite, got inf"),
    ("tenant-weight-nan", lambda: TenantSpec("t", "alexnet", weight=NAN),
     "tenant 't': weight must be positive and finite, got nan"),
    ("tenant-weight-inf", lambda: TenantSpec("t", "alexnet", weight=INF),
     "tenant 't': weight must be positive and finite, got inf"),
    ("tenant-slo-nan", lambda: TenantSpec("t", "alexnet", slo_ms=NAN),
     "tenant 't': slo_ms must be positive and finite, got nan"),
    ("mixed-tenant-share-nan",
     lambda: MixedTenantSpec(name="a", mix=(("alexnet", NAN),)),
     "tenant 'a': network 'alexnet' share must be positive and finite, got nan"),
    ("mixed-tenant-weight-inf",
     lambda: MixedTenantSpec(name="a", mix=(("alexnet", 1.0),), weight=INF),
     "tenant 'a': weight must be positive and finite, got inf"),
    ("mixed-tenant-slo-nan",
     lambda: MixedTenantSpec(name="a", mix=(("alexnet", 1.0),), slo_ms=NAN),
     "tenant 'a': slo_ms must be positive and finite, got nan"),
    ("parse-mix-weight-nan", lambda: parse_mix("alexnet:nan"),
     "tenant 'alexnet': weight must be positive and finite, got nan"),
    ("parse-mix-weight-inf", lambda: parse_mix("alexnet:inf"),
     "tenant 'alexnet': weight must be positive and finite, got inf"),
    ("parse-mix-slo-nan", lambda: parse_mix("alexnet", slo_ms=NAN),
     "tenant 'alexnet': slo_ms must be positive and finite, got nan"),
    ("parse-tenant-mix-share-nan", lambda: parse_tenant_mix("a=alexnet:nan"),
     "tenant 'a': network 'alexnet' share must be positive and finite, got nan"),
    ("parse-tenant-mix-weight-inf", lambda: parse_tenant_mix("a=alexnet@inf"),
     "tenant 'a': weight must be positive and finite, got inf"),
    # a NaN wait never releases a partial batch, which hangs the serving
    # loop; a NaN age compares false against every age, disabling shedding
    ("serve-max-wait-nan", lambda: main(["serve", "--duration", "1", "--max-wait-ms", "nan"]),
     "max_wait_ms must be finite and >= 0, got nan"),
    ("serve-max-wait-inf", lambda: main(["serve", "--duration", "1", "--max-wait-ms", "inf"]),
     "max_wait_ms must be finite and >= 0, got inf"),
    ("serve-max-age-nan", lambda: main(["serve", "--duration", "1", "--max-age-ms", "nan"]),
     "max_age_s must be positive and finite, got nan"),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_non_finite_input_rejected(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


@pytest.mark.parametrize("duration", [NAN, INF])
def test_trace_duration_rejected(tmp_path, duration):
    path = tmp_path / "trace.txt"
    path.write_text("0.1\n0.2\n")
    with pytest.raises(ConfigError, match="duration must be positive and finite"):
        trace_arrivals(str(path), ALEX, duration_s=duration)


@pytest.mark.parametrize("flag", ["--rate", "--duration"])
def test_serve_cli_rejects_infinite_load(flag):
    with pytest.raises(ConfigError, match="must be positive and finite, got inf"):
        main(["serve", flag, "inf"])

