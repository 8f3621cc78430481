"""Every public record rejects NaN, undocumented infinities, bools and
non-integer counts, naming the field and the value.

One table row per record: a factory from keyword overrides to the record,
the error class its site raises, and its count and real fields (comma
separated, each ``field`` or ``field=label`` where the message names it
differently).
Counts get NaN, +-inf, ``True`` and ``2.5``; reals get NaN, ``True`` and,
unless listed under ``inf_ok``, +-inf.  The documented infinities stay
accepted.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.arch.config import AcceleratorConfig
from repro.arch.dram import DramModel
from repro.arch.energy import EnergyTable
from repro.arch.fixedpoint import FixedPointFormat
from repro.capacity.forecast import ForecastSpec
from repro.capacity.grid import Candidate, CandidateGrid
from repro.capacity.planner import FaultModel
from repro.cluster.link import LinkSpec
from repro.control.chaos import (
    ActuationFault,
    ControlFaultSchedule,
    LoopCrash,
    SafeModePolicy,
    TelemetryFault,
)
from repro.control.chaos_scenarios import build_control_scenario
from repro.control.policy import AutoscalePolicy
from repro.errors import ConfigError, ShapeError
from repro.nn.layers import (
    ConvLayer,
    EltwiseAddLayer,
    FCLayer,
    PoolLayer,
    TensorShape,
)
from repro.resilience.faults import BitFlipFault, LinkFault, MaskFault, PEMask
from repro.resilience.scenarios import build_scenario
from repro.serve.batcher import BatchPolicy
from repro.serve.failover import ReplicaFault
from repro.serve.queue import QueuePolicy
from repro.serve.verified import SDCFault
from repro.serve.workload import TenantSpec, parse_tenant_mix
from repro.tenancy.fleet import ChipSpec
from repro.tenancy.partition import PartitionSpec
from repro.tenancy.placement import TenantDemand

INF = math.inf
MIX = tuple(parse_tenant_mix("a=alexnet"))


def _with(cls, *args, **defaults):
    """A factory for ``cls`` whose keyword overrides replace ``defaults``."""
    return lambda **kw: cls(*args, **{**defaults, **kw})


def _replace(record):
    return lambda **kw: dataclasses.replace(record, **kw)


#: (id, factory, error, counts, reals, inf_ok)
RECORDS = [
    ("TensorShape", _with(TensorShape, depth=3, height=8, width=8),
     ShapeError, "depth, height, width", "", ""),
    ("ConvLayer", _with(ConvLayer, "c", in_maps=4, out_maps=8, kernel=3),
     ShapeError, "in_maps, out_maps, kernel, stride, pad, groups", "", ""),
    ("PoolLayer", _with(PoolLayer, "p", kernel=2, stride=2),
     ShapeError, "kernel, stride, pad", "", ""),
    ("FCLayer", _with(FCLayer, "f", out_features=10),
     ShapeError, "out_features", "", ""),
    ("EltwiseAddLayer", _with(EltwiseAddLayer, "e"),
     ShapeError, "branch_count", "", ""),
    ("AcceleratorConfig", AcceleratorConfig, ConfigError,
     "tin, tout, input_buffer_bytes, output_buffer_bytes, weight_buffer_bytes, "
     "bias_buffer_bytes, word_bytes",
     "frequency_hz, dram_words_per_cycle", ""),
    ("EnergyTable", EnergyTable, ConfigError, "",
     "mult_pj, add_pj, sram_base_pj, dram_access_pj", ""),
    ("DramModel", DramModel, ConfigError, "burst_words, row_words",
     "cycles_per_burst, row_miss_penalty", ""),
    ("FixedPointFormat", FixedPointFormat, ConfigError, "total_bits, frac_bits", "", ""),
    # serve
    ("BatchPolicy", BatchPolicy, ConfigError, "max_batch", "max_wait_ms", ""),
    ("QueuePolicy", _with(QueuePolicy, max_age_s=1.0),
     ConfigError, "max_depth", "max_age_s", ""),
    ("TenantSpec", _with(TenantSpec, "t", "alexnet"),
     ConfigError, "", "weight, slo_ms", ""),
    # TenantSpec's pairs form: a mixed tenant, spread over a network mix
    ("MixedTenantSpec", _with(TenantSpec, "t", (("alexnet", 1.0),)),
     ConfigError, "", "weight, slo_ms", ""),
    # a slow fault lasting inf is permanent; an infinite fault time is
    # FaultSchedule's to reject, naming the entry
    ("ReplicaFault", _with(
        ReplicaFault, kind="slow", replica=0, time_s=1.0, factor=2.0),
     ConfigError, "replica", "time_s=fault time, factor=slow factor, "
     "duration_s=slow duration", "time_s, duration_s"),
    ("SDCFault", _with(SDCFault, replica=0, time_s=1.0, duration_s=1.0),
     ConfigError, "replica, seed",
     "time_s=SDC fault time, duration_s=SDC fault duration, "
     "per_batch=per-batch probability", "time_s"),
    # control
    ("AutoscalePolicy", AutoscalePolicy, ConfigError,
     "min_replicas, max_replicas, cooldown_epochs",
     "epoch_s, headroom, high_band, low_band", ""),
    ("TelemetryFault", _with(TelemetryFault, kind="loss", epoch=1),
     ConfigError, "epoch", "drop_frac", ""),
    ("ActuationFault", _with(ActuationFault, epoch=1),
     ConfigError, "epoch", "", ""),
    ("LoopCrash", _with(LoopCrash, epoch=1),
     ConfigError, "epoch, down_epochs", "", ""),
    ("SafeModePolicy", SafeModePolicy, ConfigError,
     "fault_threshold, window_epochs, clean_epochs", "", ""),
    ("ControlChaosScenario", _replace(build_control_scenario("crash-replace")),
     ConfigError, "replicas, seed",
     "rate_rps, duration_s, mttr_deadline_s, recovery_frac", ""),
    # tenancy
    ("PartitionSpec", _with(PartitionSpec, "p", tin=8, tout=16),
     ConfigError, "tin, tout", "buffer_fraction, dram_fraction", ""),
    ("ChipSpec", _with(ChipSpec, "c", AcceleratorConfig()),
     ConfigError, "count", "cost_weight", ""),
    ("TenantDemand", _with(
        TenantDemand, "t", rate_rps=10.0, mix=(("alexnet", 1.0),)),
     ConfigError, "", "rate_rps, slo_ms", ""),
    # capacity
    ("ForecastSpec", _with(
        ForecastSpec, tenants=MIX, rate=10.0, duration_s=1.0, kind="diurnal",
        peak_rate=20.0, day_s=10.0),
     ConfigError, "seed", "rate, duration_s, peak_rate, day_s", ""),
    ("Candidate", _with(Candidate, geometry="16-16", n_chips=1),
     ConfigError, "n_chips, max_batch", "", ""),
    # an infinite link is the free interconnect
    ("CandidateGrid", CandidateGrid, ConfigError, "", "link_gbs", "link_gbs"),
    ("FaultModel", FaultModel, ConfigError,
     "seed, crashes, slowdowns, sdc_windows", "", ""),
    # resilience
    ("BitFlipFault", _with(BitFlipFault, site="weight", index=0, bit=1),
     ConfigError, "index, bit, step", "", ""),
    ("PEMask", PEMask, ConfigError, "masked_cols, masked_rows", "", ""),
    ("LinkFault", _with(LinkFault, time_s=1.0, factor=2.0, duration_s=1.0),
     ConfigError, "", "time_s=link fault time, factor=degrade factor, "
     "duration_s=link fault duration", "time_s"),
    ("MaskFault", _with(MaskFault, time_s=1.0, replica=0, mask=PEMask(1, 0)),
     ConfigError, "replica", "time_s=mask fault time", ""),
    ("LinkSpec", LinkSpec, ConfigError, "",
     "bandwidth_gbs=link bandwidth, latency_s=link latency", "bandwidth_gbs"),
    ("ChaosScenario", _replace(build_scenario("single-crash")),
     ConfigError, "replicas, chips, seed", "", ""),
    ("ControlFaultSchedule", _with(ControlFaultSchedule, seed=1),
     ConfigError, "seed", "", ""),
]


def _fields(spec: str):
    for item in filter(None, (part.strip() for part in spec.split(","))):
        field, _, label = item.partition("=")
        yield field, label or field


def _cases():
    for name, factory, error, counts, reals, inf_ok in RECORDS:
        for field, label in _fields(counts):
            for value in (math.nan, INF, -INF, True, 2.5):
                yield pytest.param(factory, error, field, label, value,
                                   id=f"{name}.{field}={value!r}")
        for field, label in _fields(reals):
            values = [math.nan, True]
            if field not in dict(_fields(inf_ok)):
                values += [INF, -INF]
            for value in values:
                yield pytest.param(factory, error, field, label, value,
                                   id=f"{name}.{field}={value!r}")


@pytest.mark.parametrize("factory", [r[1] for r in RECORDS], ids=[r[0] for r in RECORDS])
def test_valid_defaults_construct(factory):
    factory()


@pytest.mark.parametrize("factory, error, field, label, value", list(_cases()))
def test_bad_value_named(factory, error, field, label, value):
    with pytest.raises(error) as excinfo:
        factory(**{field: value})
    message = str(excinfo.value)
    assert label in message and repr(value) in message, message


@pytest.mark.parametrize(
    "factory, field",
    [(r[1], f) for r in RECORDS for f, _ in _fields(r[5])],
    ids=[f"{r[0]}.{f}" for r in RECORDS for f, _ in _fields(r[5])],
)
def test_documented_infinity_accepted(factory, field):
    assert getattr(factory(**{field: INF}), field) == INF


def test_numpy_integer_counts_are_stored_as_python_ints():
    import numpy as np

    layer = ConvLayer("c", np.int64(4), 8, np.int32(3))
    assert type(layer.in_maps) is int and type(layer.kernel) is int
    assert type(BatchPolicy(max_batch=np.int64(8)).max_batch) is int
