"""Differential test: batching a cost row against batching a copied record.

``batch_layer`` and ``plan_batch`` below are the batched-inference
functions as they stood while a :class:`~repro.schemes.base.ScheduleResult`
copied every number of its row into its own fields and access counters,
kept verbatim but for two edits: ``plan_batch`` plans the single image
with the cost-table oracle's reference planner (uncached, records of the
reference type) and records no ``plan_batch`` phase.  Today a record is a
view over its :class:`~repro.schemes.base.Costs` row and ``batch_layer``
scales the row.

On generated rows, bound to generated configs, every batch size from 1 to
64 must give a record that reports what the reference's does, each value
with its type; on the four zoo networks at generated configs, under every
policy, ``plan_batch`` must give the reference's batched plan.
"""

from __future__ import annotations

import dataclasses
from typing import List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive.batch import BatchRun
from repro.adaptive.batch import batch_layer as row_batch_layer
from repro.adaptive.batch import plan_batch as row_plan_batch
from repro.adaptive.planner import POLICY_NAMES
from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.errors import check_count
from repro.nn.network import Network
from repro.schemes.base import Costs, FrozenDict
from repro.schemes.base import ScheduleResult as TableRecord
from repro.sim.trace import NetworkRun
from repro.tiling.layout import Layout
from tests.schemes.test_cost_table_oracle import ZOO, ScheduleResult, configs
from tests.schemes.test_cost_table_oracle import plan_network as reference_plan_network
from tests.schemes.test_cost_table_oracle import record_view

# ---------------------------------------------------------------------------
# the reference, verbatim
# ---------------------------------------------------------------------------


def batch_layer(result: ScheduleResult, batch_size: int) -> ScheduleResult:
    """Scale one layer's single-image schedule to a batch.

    Weight buffer fills (and their DRAM words) stay at the single-image
    amount; everything image-linked multiplies by ``batch_size``.
    """
    check_count(batch_size, "batch size", 1)
    if batch_size == 1:
        return result
    b = batch_size
    weight_fills = result.accesses["weight"].stores
    accesses = {
        name: AccessCounter(counter.loads * b, counter.stores * b)
        for name, counter in result.accesses.items()
    }
    # weights are fetched from DRAM once per batch
    accesses["weight"] = AccessCounter(
        result.accesses["weight"].loads * b, weight_fills
    )
    dram_words = (result.dram_words - weight_fills) * b + weight_fills
    config = result.config
    return dataclasses.replace(
        result,
        operations=result.operations * b,
        useful_macs=result.useful_macs * b,
        extra_adds=result.extra_adds * b,
        accesses=accesses,
        dram_words=dram_words,
        dma_cycles=dram_words / config.dram_words_per_cycle,
        reshape_cycles=result.reshape_cycles * b,
        notes={**result.notes, "batch_size": b},
    )


def plan_batch(
    net: Network,
    config: AcceleratorConfig,
    policy: str = "adaptive-2",
    batch_size: int = 1,
    include_non_conv: bool = True,
) -> BatchRun:
    """Plan ``net`` for a batch of images.

    Defaults to including the non-conv layers, since FC amortization is
    the point of batching.  The underlying single-image plan goes through
    the schedule cache, so sizing a batch sweep (many batch sizes, one
    geometry set) schedules each layer only once.
    """
    check_count(batch_size, "batch size", 1)
    single = reference_plan_network(net, config, policy, include_non_conv=include_non_conv)
    batched = NetworkRun(
        network_name=net.name,
        policy=f"{policy}@batch{batch_size}",
        config=config,
        input_reorder_words=single.input_reorder_words * batch_size,
    )
    layers: List[ScheduleResult] = [
        batch_layer(r, batch_size) for r in single.layers
    ]
    for layer in layers:
        batched.append(layer)
    return BatchRun(run=batched, batch_size=batch_size)


# ---------------------------------------------------------------------------
# generated rows and comparisons
# ---------------------------------------------------------------------------

_COUNT = st.integers(0, 10**12)
_CYCLES = st.floats(0.0, 1e12, allow_nan=False)


@st.composite
def rows(draw) -> Costs:
    """A row as a table prices one: eleven counts, DMA and reshape cycles,
    a layout and notes (some of them an earlier batch's)."""
    notes = draw(st.dictionaries(
        st.sampled_from(["passes", "mode", "pieces", "batch_size"]),
        st.one_of(st.integers(0, 64), st.floats(0.0, 4.0), st.text(max_size=8)),
        max_size=3,
    ))
    return Costs(
        *draw(st.lists(_COUNT, min_size=11, max_size=11)),
        draw(_CYCLES), draw(st.one_of(st.just(0.0), _CYCLES)),
        draw(st.sampled_from(list(Layout))), FrozenDict(notes),
    )


def _reference(record: TableRecord) -> ScheduleResult:
    """The reference record that reports what ``record`` reports."""
    return ScheduleResult(**{
        f.name: getattr(record, f.name) for f in dataclasses.fields(ScheduleResult)
    })


@settings(max_examples=300, deadline=None)
@given(
    row=rows(), config=configs(), scheme=st.sampled_from(["intra", "aux-fc"]),
    batch_size=st.integers(1, 64),
)
def test_every_batched_record_matches_the_reference(row, config, scheme, batch_size):
    record = TableRecord(scheme, "layer", config, row)
    reference = _reference(record)
    assert record_view(reference) == record_view(record)
    batched = row_batch_layer(record, batch_size)
    assert type(batched) is TableRecord and type(batched.notes) is FrozenDict
    assert record_view(batched) == record_view(batch_layer(reference, batch_size))
    if batch_size == 1:
        assert batched is record


def _same_batch(new: BatchRun, ref: BatchRun) -> None:
    assert new.batch_size == ref.batch_size
    assert dataclasses.replace(new.run, layers=[]) == dataclasses.replace(ref.run, layers=[])
    assert [record_view(r) for r in new.run.layers] == [record_view(r) for r in ref.run.layers]
    assert new.total_cycles == ref.total_cycles
    assert new.cycles_per_image == ref.cycles_per_image
    assert new.images_per_second() == ref.images_per_second()
    assert new.latency_ms() == ref.latency_ms()


@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    net=st.sampled_from(sorted(ZOO)), config=configs(),
    policy=st.sampled_from(POLICY_NAMES), batch_size=st.integers(1, 64),
)
def test_every_batched_plan_matches_the_reference(net, config, policy, batch_size):
    network = ZOO[net]
    for include_non_conv in (True, False):
        _same_batch(
            row_plan_batch(network, config, policy, batch_size, include_non_conv),
            plan_batch(network, config, policy, batch_size, include_non_conv),
        )
