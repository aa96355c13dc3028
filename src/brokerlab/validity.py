"""The valid-allocation set: constraint vocabulary and exact enumeration.

A validity specification is either an explicit list of allocations or a
conjunction of constraint primitives.  The empty allocation always satisfies
every specification.  Enumeration returns the full valid set in canonical
allocation order and refuses instances whose search space exceeds a
configurable cap.  The cap counts the effective space, the product over
transactions of the node sets each may take once ``SingleAssignment`` and
``RequiredNodeCount`` are applied, not the raw ``(2^|N|)^|T|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import Iterable, Union

from .core import EMPTY_ALLOCATION, Allocation, MarketInstance
from .errors import InstanceTooLarge, MalformedInput
from .rationals import ZERO

DEFAULT_ENUM_CAP = 1 << 24


@dataclass(frozen=True)
class NodeCapacity:
    """Per node and dimension, total resource usage must fit the node's capacity."""


@dataclass(frozen=True)
class MaxTxPerNode:
    node: str
    limit: int


@dataclass(frozen=True)
class RequiredNodeCount:
    """An allocated transaction must run on between min_nodes and max_nodes nodes."""

    tx: str
    min_nodes: int
    max_nodes: int

    @staticmethod
    def exactly(tx: str, count: int) -> "RequiredNodeCount":
        return RequiredNodeCount(tx, count, count)


@dataclass(frozen=True)
class MustShareNode:
    """If every listed transaction is allocated, some single node runs them all."""

    txs: tuple[str, ...]


@dataclass(frozen=True)
class MutualExclusion:
    first: str
    second: str


@dataclass(frozen=True)
class SingleAssignment:
    """Every allocated transaction runs on exactly one node."""


Constraint = Union[
    NodeCapacity,
    MaxTxPerNode,
    RequiredNodeCount,
    MustShareNode,
    MutualExclusion,
    SingleAssignment,
]


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
        if isinstance(c, MaxTxPerNode) and c.node not in nodes:
            raise MalformedInput(f"constraint references unknown node {c.node!r}")
        if isinstance(c, RequiredNodeCount):
            if c.tx not in txs:
                raise MalformedInput(f"constraint references unknown transaction {c.tx!r}")
            if not (0 <= c.min_nodes <= c.max_nodes):
                raise MalformedInput(f"bad node count range for {c.tx!r}")
        if isinstance(c, MustShareNode):
            unknown = set(c.txs) - txs
            if unknown:
                raise MalformedInput(f"constraint references unknown transactions {sorted(unknown)}")
        if isinstance(c, MutualExclusion):
            unknown = {c.first, c.second} - txs
            if unknown:
                raise MalformedInput(f"constraint references unknown transactions {sorted(unknown)}")


def _node_usage(instance: MarketInstance, allocation: Allocation, node: str) -> list[Fraction]:
    """Per-dimension resource usage of a node's bundle; errors on missing vectors."""
    spec = instance.node(node)
    dims = len(spec.capacity) if spec.capacity is not None else None
    totals: list[Fraction] | None = None
    for tx in allocation.inverse(node):
        usage = instance.resources.get(tx)
        if usage is None:
            raise MalformedInput(f"transaction {tx!r} has no resource vector for capacity checks")
        if dims is not None and len(usage) != dims:
            raise MalformedInput(f"resource vector of {tx!r} has wrong length for node {node!r}")
        if totals is None:
            totals = list(usage)
        else:
            totals = [a + b for a, b in zip(totals, usage)]
    return totals if totals is not None else []


def _satisfies(instance: MarketInstance, allocation: Allocation, constraint: Constraint) -> bool:
    if isinstance(constraint, NodeCapacity):
        for node in allocation.nodes:
            capacity = instance.node(node).capacity
            if capacity is None:
                continue
            usage = _node_usage(instance, allocation, node)
            for used, cap in zip(usage, capacity):
                if cap is not None and used > cap:
                    return False
        return True
    if isinstance(constraint, MaxTxPerNode):
        return len(allocation.inverse(constraint.node)) <= constraint.limit
    if isinstance(constraint, RequiredNodeCount):
        nodes = allocation.nodes_for(constraint.tx)
        if not nodes:
            return True
        return constraint.min_nodes <= len(nodes) <= constraint.max_nodes
    if isinstance(constraint, MustShareNode):
        node_sets = []
        for tx in constraint.txs:
            nodes = allocation.nodes_for(tx)
            if not nodes:
                return True
            node_sets.append(set(nodes))
        shared = set.intersection(*node_sets) if node_sets else set()
        return bool(shared) or not node_sets
    if isinstance(constraint, MutualExclusion):
        return not (
            allocation.nodes_for(constraint.first) and allocation.nodes_for(constraint.second)
        )
    if isinstance(constraint, SingleAssignment):
        return all(len(nodes) == 1 for _, nodes in allocation.pairs)
    raise MalformedInput(f"unknown constraint {constraint!r}")


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
    return all(_satisfies(instance, allocation, c) for c in spec.constraints)


def enumerate_valid(
    instance: MarketInstance,
    spec: ValiditySpec | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Allocation]:
    """Every valid allocation exactly once, in canonical order.

    Constraint specs are enumerated by a depth-first search over per-transaction
    node subsets with incremental capacity and count pruning; every emitted leaf
    is re-checked against the full specification.
    """
    if spec is None:
        spec = instance.validity
    if isinstance(spec, Extensional):
        return sorted(set(spec.allocations) | {EMPTY_ALLOCATION})
    if spec is None:
        spec = Constraints(())
    _check_constraint_ids(spec, instance)

    txs = list(instance.tx_ids)
    nodes = list(instance.node_ids)
    single = any(isinstance(c, SingleAssignment) for c in spec.constraints)
    count_ranges: dict[str, tuple[int, int]] = {}
    for c in spec.constraints:
        if isinstance(c, RequiredNodeCount):
            lo, hi = count_ranges.get(c.tx, (0, len(nodes)))
            count_ranges[c.tx] = (max(lo, c.min_nodes), min(hi, c.max_nodes))

    def sizes_for(tx: str) -> range:
        """Node-set sizes a placed transaction may take (unplaced is size 0)."""
        lo, hi = count_ranges.get(tx, (0, len(nodes)))
        return range(max(lo, 1), min(hi, 1 if single else len(nodes)) + 1)

    space = prod(1 + sum(comb(len(nodes), k) for k in sizes_for(tx)) for tx in txs)
    if space > cap:
        raise InstanceTooLarge(
            f"search space of {len(txs)} transactions x {len(nodes)} nodes "
            f"has {space} leaves, which exceeds cap {cap}"
        )
    subsets = {
        tx: [()] + [s for k in sizes_for(tx) for s in combinations(nodes, k)] for tx in txs
    }
    node_limits = {
        c.node: c.limit for c in spec.constraints if isinstance(c, MaxTxPerNode)
    }
    exclusions: dict[str, set[str]] = {}
    for c in spec.constraints:
        if isinstance(c, MutualExclusion):
            exclusions.setdefault(c.first, set()).add(c.second)
            exclusions.setdefault(c.second, set()).add(c.first)
    capacity_on = any(isinstance(c, NodeCapacity) for c in spec.constraints)

    capacities = {
        n: instance.node(n).capacity for n in nodes if instance.node(n).capacity is not None
    }
    tx_counts = {n: 0 for n in nodes}
    usage = {n: [ZERO] * len(capacities[n]) for n in capacities}
    chosen: dict[str, tuple[str, ...]] = {}
    found: list[Allocation] = []

    def place(tx: str, subset: tuple[str, ...]) -> bool:
        """Apply one assignment, pruning; returns False if it cannot extend."""
        if subset and tx in exclusions:
            if any(chosen.get(other) for other in exclusions[tx]):
                return False
        for n in subset:
            if n in node_limits and tx_counts[n] + 1 > node_limits[n]:
                return False
        if capacity_on and subset:
            g = instance.resources.get(tx)
            if g is None:
                raise MalformedInput(
                    f"transaction {tx!r} has no resource vector for capacity checks"
                )
            for n in subset:
                if n not in capacities:
                    continue
                capacity = capacities[n]
                if len(g) != len(capacity):
                    raise MalformedInput(
                        f"resource vector of {tx!r} has wrong length for node {n!r}"
                    )
                for i, cap_i in enumerate(capacity):
                    if cap_i is not None and usage[n][i] + g[i] > cap_i:
                        return False
        for n in subset:
            tx_counts[n] += 1
            if capacity_on and n in capacities:
                g = instance.resources[tx]
                usage[n] = [u + gi for u, gi in zip(usage[n], g)]
        chosen[tx] = subset
        return True

    def unplace(tx: str) -> None:
        subset = chosen.pop(tx)
        for n in subset:
            tx_counts[n] -= 1
            if capacity_on and n in capacities:
                g = instance.resources[tx]
                usage[n] = [u - gi for u, gi in zip(usage[n], g)]

    def search(index: int) -> None:
        if index == len(txs):
            allocation = Allocation.of(chosen)
            if is_valid(allocation, spec, instance):
                found.append(allocation)
            return
        tx = txs[index]
        for subset in subsets[tx]:
            if place(tx, subset):
                search(index + 1)
                unplace(tx)

    search(0)
    found.sort()
    return found
