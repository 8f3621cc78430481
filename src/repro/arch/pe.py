"""PE-array model: operation counting and utilization.

One *operation* clocks the whole array for one cycle: ``Tin`` data words are
multiplied against ``Tin`` weights in each of ``Tout`` lanes and each lane's
adder tree reduces its products to one partial sum.  The array is a rigid
SIMD structure — if a scheme can only supply ``u <= Tin`` useful data words,
the remaining ``Tin - u`` multipliers still burn a cycle (this is exactly the
inter-kernel waste on conv1 the paper highlights).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_real

__all__ = ["PEArray", "OperationTally"]


@dataclass
class OperationTally:
    """Accumulated PE-array activity for a schedule.

    ``operations`` is the number of array cycles spent computing;
    ``useful_macs`` counts multiplies that contributed to a real output.
    """

    operations: int = 0
    useful_macs: int = 0
    #: adder-tree additions performed alongside the multiplies
    adds: int = 0

    def add(self, other: "OperationTally") -> None:
        self.operations += other.operations
        self.useful_macs += other.useful_macs
        self.adds += other.adds


class PEArray:
    """The computational block of Fig. 2: ``Tin x Tout`` multipliers."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self.tally = OperationTally()

    @property
    def tin(self) -> int:
        return self.config.tin

    @property
    def tout(self) -> int:
        return self.config.tout

    @property
    def macs_per_operation(self) -> int:
        """Peak multiplies per array cycle."""
        return self.config.multipliers

    def issue(self, operations: int, useful_macs: int) -> None:
        """Record ``operations`` array cycles performing ``useful_macs`` real MACs.

        ``useful_macs`` may not exceed the array's peak for that many cycles.
        """
        check_real(operations, "operations", ge=0)
        check_real(useful_macs, "useful_macs", ge=0)
        peak = operations * self.macs_per_operation
        if useful_macs > peak:
            raise ConfigError(
                f"{useful_macs} useful MACs cannot fit in {operations} "
                f"operations of a {self.config.name} array (peak {peak})"
            )
        self.tally.operations += operations
        self.tally.useful_macs += useful_macs
        # each lane's adder tree performs Tin-1 adds per operation
        self.tally.adds += operations * self.tout * max(0, self.tin - 1)

    @property
    def utilization(self) -> float:
        """Fraction of multiplier-cycles doing useful work (0 when idle)."""
        peak = self.tally.operations * self.macs_per_operation
        if peak == 0:
            return 0.0
        return self.tally.useful_macs / peak

    def reset(self) -> None:
        self.tally = OperationTally()
