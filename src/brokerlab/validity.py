"""The valid-allocation set: constraint vocabulary and exact enumeration.

A validity specification is either an explicit list of allocations or a
conjunction of constraint primitives:

- ``NodeCapacity``: on every node that declares a capacity, each bounded
  dimension's total usage fits; nodes without one are not checked, and a
  transaction needs a resource vector only to run on a node that has one.
- ``MaxTxPerNode``: the node executes at most ``limit`` transactions.
- ``RequiredNodeCount``: an allocated transaction runs on between
  ``min_nodes`` and ``max_nodes`` nodes.
- ``MustShareNode``: if every listed transaction is allocated, one node runs
  them all.
- ``MutualExclusion``: the two transactions are never both allocated.
- ``SingleAssignment``: every allocated transaction runs on exactly one node.

Each constraint must be closed under dropping a transaction (see
``Constraint``), so the empty allocation always satisfies every
specification.  Enumeration returns the full valid set in canonical
allocation order and refuses instances whose search space exceeds a
configurable cap.  The cap counts the effective space, the product over
transactions of the node sets each may take once the constraints' node-count
bounds are applied, not the raw ``(2^|N|)^|T|``.  ``is_valid`` tests the
same bounds before any ``holds``, so its answer does not depend on the
order of the constraints.

``enumerate_valid`` remembers its last result: the same instance and spec
objects (compared by identity, as ``mechanism.prepare_round`` compares
them) with an equal cap get a fresh copy of it without a second search.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from itertools import combinations
from math import comb, inf, prod
from typing import Iterable, Union

from .core import EMPTY_ALLOCATION, Allocation, MarketInstance
from .errors import InstanceTooLarge, MalformedInput
from .rationals import ZERO

DEFAULT_ENUM_CAP = 1 << 24


class Constraint:
    """A validity constraint primitive.

    A constraint must be closed under dropping a transaction: if an
    allocation satisfies it, so does the same allocation with any one
    transaction unassigned.  ``enumerate_valid`` relies on this to cut a
    search branch as soon as a partial allocation fails ``holds``.
    """

    def check_ids(self, txs: Set[str], nodes: Set[str]) -> None:
        """Refuse unknown transaction or node ids and out-of-range parameters."""

    def holds(self, instance: MarketInstance, allocation: Allocation) -> bool:
        raise NotImplementedError

    def node_counts(self, tx: str) -> tuple[int, float]:
        """Bounds on the number of nodes an allocated ``tx`` may run on."""
        return 0, inf


def _check_txs(listed: Iterable[str], txs: Set[str]) -> None:
    unknown = set(listed) - txs
    if unknown:
        raise MalformedInput(f"constraint references unknown transactions {sorted(unknown)}")


@dataclass(frozen=True)
class NodeCapacity(Constraint):
    """Per node and dimension, total resource usage must fit the node's capacity."""

    def holds(self, instance: MarketInstance, allocation: Allocation) -> bool:
        for node, bundle in allocation.bundles:
            capacity = instance.node(node).capacity
            if capacity is None:
                continue
            usage = [ZERO] * len(capacity)
            for tx in bundle:
                vector = instance.resources.get(tx)
                if vector is None:
                    raise MalformedInput(
                        f"transaction {tx!r} has no resource vector for capacity checks"
                    )
                if len(vector) != len(capacity):
                    raise MalformedInput(
                        f"resource vector of {tx!r} has wrong length for node {node!r}"
                    )
                usage = [u + g for u, g in zip(usage, vector)]
            if any(cap is not None and used > cap for used, cap in zip(usage, capacity)):
                return False
        return True


@dataclass(frozen=True)
class MaxTxPerNode(Constraint):
    node: str
    limit: int

    def check_ids(self, txs: Set[str], nodes: Set[str]) -> None:
        if self.node not in nodes:
            raise MalformedInput(f"constraint references unknown node {self.node!r}")
        if self.limit < 0:
            raise MalformedInput(f"negative transaction limit {self.limit} for node {self.node!r}")

    def holds(self, instance: MarketInstance, allocation: Allocation) -> bool:
        return len(allocation.inverse(self.node)) <= self.limit


@dataclass(frozen=True)
class RequiredNodeCount(Constraint):
    """An allocated transaction must run on between min_nodes and max_nodes nodes."""

    tx: str
    min_nodes: int
    max_nodes: int

    @staticmethod
    def exactly(tx: str, count: int) -> "RequiredNodeCount":
        return RequiredNodeCount(tx, count, count)

    def check_ids(self, txs: Set[str], nodes: Set[str]) -> None:
        if self.tx not in txs:
            raise MalformedInput(f"constraint references unknown transaction {self.tx!r}")
        if not (0 <= self.min_nodes <= self.max_nodes):
            raise MalformedInput(f"bad node count range for {self.tx!r}")

    def holds(self, instance: MarketInstance, allocation: Allocation) -> bool:
        nodes = allocation.nodes_for(self.tx)
        return not nodes or self.min_nodes <= len(nodes) <= self.max_nodes

    def node_counts(self, tx: str) -> tuple[int, float]:
        return (self.min_nodes, self.max_nodes) if tx == self.tx else (0, inf)


@dataclass(frozen=True)
class MustShareNode(Constraint):
    """If every listed transaction is allocated, some single node runs them all."""

    txs: tuple[str, ...]

    def check_ids(self, txs: Set[str], nodes: Set[str]) -> None:
        _check_txs(self.txs, txs)

    def holds(self, instance: MarketInstance, allocation: Allocation) -> bool:
        node_sets = []
        for tx in self.txs:
            nodes = allocation.nodes_for(tx)
            if not nodes:
                return True
            node_sets.append(set(nodes))
        return not node_sets or bool(set.intersection(*node_sets))


@dataclass(frozen=True)
class MutualExclusion(Constraint):
    first: str
    second: str

    def check_ids(self, txs: Set[str], nodes: Set[str]) -> None:
        _check_txs([self.first, self.second], txs)

    def holds(self, instance: MarketInstance, allocation: Allocation) -> bool:
        return not (allocation.nodes_for(self.first) and allocation.nodes_for(self.second))


@dataclass(frozen=True)
class SingleAssignment(Constraint):
    """Every allocated transaction runs on exactly one node."""

    def holds(self, instance: MarketInstance, allocation: Allocation) -> bool:
        return all(len(nodes) == 1 for _, nodes in allocation.pairs)

    def node_counts(self, tx: str) -> tuple[int, float]:
        return 0, 1


@dataclass(frozen=True)
class Constraints:
    constraints: tuple[Constraint, ...] = ()


@dataclass(frozen=True)
class Extensional:
    """An explicit valid set; the empty allocation is added if missing."""

    allocations: tuple[Allocation, ...]

    @staticmethod
    def of(allocations: Iterable[Allocation]) -> "Extensional":
        seen = sorted(set(allocations) | {EMPTY_ALLOCATION})
        return Extensional(tuple(seen))


ValiditySpec = Union[Constraints, Extensional]


def _check_constraint_ids(spec: Constraints, instance: MarketInstance) -> None:
    txs = set(instance.tx_ids)
    nodes = set(instance.node_ids)
    for c in spec.constraints:
        c.check_ids(txs, nodes)


def is_valid(
    allocation: Allocation,
    spec: ValiditySpec | None,
    instance: MarketInstance,
) -> bool:
    """Exact membership test for the valid set."""
    unknown_txs = allocation.transactions - set(instance.tx_ids)
    unknown_nodes = allocation.nodes - set(instance.node_ids)
    if unknown_txs or unknown_nodes:
        raise MalformedInput(
            f"allocation references unknown ids {sorted(unknown_txs | unknown_nodes)}"
        )
    if spec is None:
        spec = instance.validity
    if spec is None:
        return True
    if isinstance(spec, Extensional):
        return allocation.is_empty() or allocation in set(spec.allocations)
    _check_constraint_ids(spec, instance)
    # every node_counts bound first, so that no ``holds`` sees a node set the
    # enumerator would never build, whatever the constraint order
    for tx, nodes in allocation.pairs:
        for c in spec.constraints:
            lo, hi = c.node_counts(tx)
            if not lo <= len(nodes) <= hi:
                return False
    return all(c.holds(instance, allocation) for c in spec.constraints)


# (instance, spec, cap, valid set) of the last enumeration.  Strong references,
# so the ids compared below cannot be reused by other objects; one tuple,
# replaced whole, so a concurrent caller at worst searches again.
_last: tuple[MarketInstance, ValiditySpec | None, int, tuple[Allocation, ...]] | None = None


def enumerate_valid(
    instance: MarketInstance,
    spec: ValiditySpec | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Allocation]:
    """Every valid allocation exactly once, in canonical order.

    Constraint specs are enumerated by a depth-first search over
    per-transaction node subsets of the sizes the constraints allow.  Each
    partial allocation is tested with every constraint's ``holds`` and a
    failing branch is cut, which is exact because constraints are closed
    under dropping a transaction.

    The last result is remembered: a call with the very same instance and
    spec objects (by identity; both are immutable) and an equal cap returns
    it without searching again.  Every call returns a fresh list, so a
    caller may mutate it; the ``Allocation`` objects in it are shared.
    """
    global _last
    last = _last
    if last is not None and last[0] is instance and last[1] is spec and last[2] == cap:
        return list(last[3])
    found = _search_valid(instance, spec, cap)
    _last = (instance, spec, cap, tuple(found))
    return found


def _search_valid(
    instance: MarketInstance, spec: ValiditySpec | None, cap: int
) -> list[Allocation]:
    if spec is None:
        spec = instance.validity
    if isinstance(spec, Extensional):
        return sorted(set(spec.allocations) | {EMPTY_ALLOCATION})
    if spec is None:
        spec = Constraints(())
    _check_constraint_ids(spec, instance)
    constraints = spec.constraints
    txs = instance.tx_ids
    nodes = instance.node_ids

    def sizes_for(tx: str) -> range:
        """Node-set sizes a placed transaction may take (unplaced is size 0)."""
        bounds = [(1, len(nodes))] + [c.node_counts(tx) for c in constraints]
        return range(max(lo for lo, _ in bounds), min(hi for _, hi in bounds) + 1)

    space = prod(1 + sum(comb(len(nodes), k) for k in sizes_for(tx)) for tx in txs)
    if space > cap:
        raise InstanceTooLarge(
            f"search space of {len(txs)} transactions x {len(nodes)} nodes "
            f"has {space} leaves, which exceeds cap {cap}"
        )
    subsets = {tx: [s for k in sizes_for(tx) for s in combinations(nodes, k)] for tx in txs}
    found: list[Allocation] = []

    def search(index: int, partial: Allocation) -> None:
        if index == len(txs):
            found.append(partial)
            return
        search(index + 1, partial)
        tx = txs[index]
        for subset in subsets[tx]:
            # tx_ids and combinations are sorted, so the pairs stay canonical
            extended = Allocation(partial.pairs + ((tx, subset),))
            if all(c.holds(instance, extended) for c in constraints):
                search(index + 1, extended)

    search(0, EMPTY_ALLOCATION)
    found.sort()
    return found
