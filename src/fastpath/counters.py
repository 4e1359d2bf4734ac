"""Commutative and mostly-commutative object support.

Grow-only counters and sets never conflict, so certificates touching them
execute without locks and converge once checkpointed. Account balances
need more care: subtraction with a zero floor is not monotonic, so debits
run against per-validator budgets. When enough honest budgets hit zero the
fast path blocks and the counter is consolidated through the unlock flow,
which settles every outstanding certificate and reissues the counter at
the next version with fresh budgets. Each consolidation at least halves
what is left, so a counter of value M fully drains within about log2(M)
consolidations. No budget bounds an unlock's replacement, which runs on the
consensus path without a certificate, so its debit is checked against the
counter's value: the limit plus every settled delta must cover it
(`CounterLocal.covers`), after the deltas of any certificates the unlock
carries, broadcast or riding its request. A certified debit is not
checked there: its quorum's budgets bound it, and it may be sequenced
before the credit whose released budget it spent.

A validator's replica of each such object, with all of its bookkeeping,
lives here in `CounterLocal`; the validator calls its methods and emits.
"""

from __future__ import annotations

from .types import Certificate, CommitteeParams, CounterDelta

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


class CounterLocal:
    """One validator's replica of one commutative object.

    `seen` holds valid certificates received but not yet sequenced (these
    are what consolidation replies carry); `settled` holds the signed
    delta of every certificate acknowledged by the sequenced stream.
    `grown` is a grow counter's log of credits; a set keeps its `added`
    items and its `removed` tombstones. `drawn` holds each debit the budget
    paid for since the counter was last reissued.
    """

    def __init__(self, flavor: str, limit: int = 0, budget: int = 0,
                 version: int = 0):
        self.flavor = flavor
        self.limit = limit
        self.budget = budget
        self.version = version
        self.seen: dict[bytes, Certificate] = {}
        self.settled: dict[bytes, int] = {}
        self.grown: dict[bytes, int] = {}
        self.added: set[bytes] = set()
        self.removed: set[bytes] = set()
        self.drawn: set[bytes] = set()

    def try_debit(self, tx_digest: bytes, amount: int) -> bool:
        """Atomically subtract the debit `tx_digest`'s amount from the
        budget and note it drawn; restore and refuse if it would go
        negative."""
        remaining = self.budget - amount
        if remaining < 0:
            return False
        self.budget = remaining
        self.drawn.add(tx_digest)
        return True

    def apply(self, tx_digest: bytes, delta: CounterDelta) -> int | None:
        """Apply an executed delta. A credit to a bounded counter returns
        the budget it released, possibly 0; any other delta returns None."""
        if self.flavor == FLAVOR_GROW:
            self.grown.setdefault(tx_digest, delta.delta)
        elif self.flavor != FLAVOR_BOUNDED:
            (self.added if delta.delta >= 0 else self.removed).add(delta.item)
        elif delta.delta > 0:
            self.budget += credit_half(delta.delta)
            return credit_half(delta.delta)
        return None

    def unapply(self, tx_digest: bytes, delta: CounterDelta) -> None:
        """Take back a delta applied on the fast path."""
        if self.flavor == FLAVOR_GROW:
            self.grown.pop(tx_digest, None)
        elif self.flavor != FLAVOR_BOUNDED:
            (self.added if delta.delta >= 0 else self.removed).discard(delta.item)
        elif delta.delta > 0:
            self.budget = max(self.budget - credit_half(delta.delta), 0)

    def note_seen(self, cert: Certificate) -> None:
        if cert.tx.digest not in self.settled:
            self.seen.setdefault(cert.tx.digest, cert)

    def unsettled(self) -> list[Certificate]:
        return [self.seen[d] for d in sorted(self.seen) if d not in self.settled]

    def settle(self, tx_digest: bytes, delta: CounterDelta) -> None:
        """Record a delta acknowledged by the sequenced stream."""
        self.seen.pop(tx_digest, None)
        if self.flavor in (FLAVOR_BOUNDED, FLAVOR_GROW):
            self.settled.setdefault(tx_digest, delta.delta)

    def value(self) -> int:
        """A bounded counter's value on the consensus path: its limit plus
        every settled delta."""
        return self.limit + sum(self.settled.values())

    def covers(self, delta: CounterDelta) -> bool:
        """Whether a bounded counter's value, less `delta`'s debit, stays
        non-negative."""
        return self.flavor != FLAVOR_BOUNDED or self.value() + delta.delta >= 0

    def reissue(self, params: CommitteeParams) -> int:
        """Move to the next version holding what is still unspent, with a
        fresh budget; returns that new limit."""
        self.limit = max(self.value(), 0)
        self.budget = initial_budget(self.limit, params)
        self.version += 1
        self.settled = {}
        self.seen = {}
        self.drawn = set()
        return self.limit

    def snapshot(self) -> dict:
        data = {
            "flavor": self.flavor,
            "limit": self.limit,
            "version": self.version,
            "settled": {d.hex(): v for d, v in sorted(self.settled.items())},
        }
        if self.flavor == FLAVOR_GROW:
            data["value"] = sum(self.grown.values())
        if self.flavor in (FLAVOR_USET, FLAVOR_PNSET):
            data["members"] = sorted(i.hex() for i in self.added - self.removed)
        return data
