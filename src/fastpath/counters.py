"""Commutative and mostly-commutative object support.

Grow-only counters and sets never conflict, so certificates touching them
execute without locks and converge once checkpointed. Account balances
need more care: subtraction with a zero floor is not monotonic, so debits
run against per-validator budgets. When enough honest budgets hit zero the
fast path blocks and the counter is consolidated through the unlock flow,
which settles every outstanding certificate and reissues the counter at
the next version with fresh budgets. Each consolidation at least halves
what is left, so a counter of value M fully drains within about log2(M)
consolidations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import Certificate, CommitteeParams

FLAVOR_GROW = "grow"
FLAVOR_USET = "uset"
FLAVOR_PNSET = "pnset"
FLAVOR_BOUNDED = "bounded"


def initial_budget(max_credit: int, params: CommitteeParams) -> int:
    """Per-validator spending allowance: floor(max_credit * (f+1) / (2f+1)).

    With this split, every finalized unit of spend burns at least f+1 units
    of honest budget, so even validators granting themselves infinite
    budget cannot push total finalized spend past max_credit. The rougher
    "half of the maximum" reading is what this works out to on tight
    committees.
    """
    if max_credit < 0:
        raise ValueError("max_credit must be non-negative")
    return max_credit * (params.f + 1) // (2 * params.f + 1)


def credit_half(amount: int) -> int:
    """Budget released immediately by a finalized credit; the remainder
    becomes spendable at the next consolidation."""
    return amount // 2


@dataclass
class GCounter:
    """Grow-only counter: a log of accepted credit certificates."""

    accepted: dict[bytes, int] = field(default_factory=dict)

    def accept(self, tx_digest: bytes, amount: int) -> None:
        self.accepted.setdefault(tx_digest, amount)

    def value(self) -> int:
        return sum(self.accepted.values())


@dataclass
class USet:
    """Union set: items can only be added."""

    items: set[bytes] = field(default_factory=set)

    def add(self, item: bytes) -> None:
        self.items.add(item)

    def __contains__(self, item: bytes) -> bool:
        return item in self.items


@dataclass
class PNSet:
    """Add/remove set built from two union sets; removal adds a tombstone."""

    additions: USet = field(default_factory=USet)
    tombstones: USet = field(default_factory=USet)

    def add(self, item: bytes) -> None:
        self.additions.add(item)

    def remove(self, item: bytes) -> None:
        self.tombstones.add(item)

    def __contains__(self, item: bytes) -> bool:
        return item in self.additions and item not in self.tombstones

    def members(self) -> set[bytes]:
        return self.additions.items - self.tombstones.items


@dataclass
class CounterLocal:
    """Validator-local bookkeeping for one commutative object.

    `seen` holds valid certificates received but not yet sequenced (these
    are what consolidation replies carry); `settled` holds the signed
    delta of every certificate acknowledged by the sequenced stream.
    """

    flavor: str
    limit: int = 0
    budget: int = 0
    version: int = 0
    seen: dict[bytes, Certificate] = field(default_factory=dict)
    settled: dict[bytes, int] = field(default_factory=dict)
    grow: GCounter = field(default_factory=GCounter)
    pnset: PNSet = field(default_factory=PNSet)

    def try_debit(self, amount: int) -> bool:
        """Atomically subtract from the budget; restore and refuse if it
        would go negative."""
        remaining = self.budget - amount
        if remaining < 0:
            return False
        self.budget = remaining
        return True

    def refund(self, amount: int) -> None:
        self.budget += amount

    def outstanding(self) -> int:
        return max(self.limit + sum(self.settled.values()), 0)

    def snapshot(self) -> dict:
        data = {
            "flavor": self.flavor,
            "limit": self.limit,
            "version": self.version,
            "settled": {d.hex(): v for d, v in sorted(self.settled.items())},
        }
        if self.flavor == FLAVOR_GROW:
            data["value"] = self.grow.value()
        if self.flavor in (FLAVOR_USET, FLAVOR_PNSET):
            data["members"] = sorted(i.hex() for i in self.pnset.members())
        return data
