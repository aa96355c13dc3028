"""The valid-allocation set: constraint vocabulary and exact enumeration.

A validity specification is either an explicit list of allocations or a
conjunction of constraint primitives:

- ``NodeCapacity``: on every node that declares a capacity, each bounded
  dimension's total usage fits, so every transaction needs a resource
  vector of that length; nodes without a capacity are not checked.  Once
  those vectors are checked, a step sums and compares integers: the
  instance's ``resource_image``, every usage and capacity entry scaled by
  the lcm of its dimension's denominators.
- ``MaxTxPerNode``: the node executes at most ``limit`` transactions.
- ``RequiredNodeCount``: an allocated transaction runs on between
  ``min_nodes`` and ``max_nodes`` nodes.
- ``MustShareNode``: if every listed transaction is allocated, one node runs
  them all.
- ``MutualExclusion``: the two transactions are never both allocated.
- ``SingleAssignment``: every allocated transaction runs on exactly one node.

Each constraint must be closed under dropping a transaction (see
``Constraint``), so the empty allocation always satisfies every
specification, and an allocation satisfies a constraint exactly when each
of its ``(tx, nodes)`` pairs, in canonical order, is admitted by the prefix
before it.  A constraint therefore states one incremental test,
``admits``, or bounds only node-set sizes through ``node_counts``.
Inputs are checked once per call, so a step is a pure test that
``is_valid`` and the search share: a node-set size the constraints allow,
then every ``admits``.  Enumeration grows allocations one admitted pair at
a time, returns the full valid set in canonical allocation order and
refuses instances whose search space exceeds a configurable cap.  The cap
counts the effective space, the product over transactions of the node
sets each may take once the constraints' node-count bounds are applied,
not the raw ``(2^|N|)^|T|``.

``enumerate_valid``'s result is memoised on the market, freed with it: the
same spec object (compared by identity, as ``mechanism.prepare_round``
compares it, ``None`` standing for the instance's own) with an equal cap
gets a fresh copy of it without a second search, and ``is_valid`` accepts a
member of it without testing it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, inf, prod
from typing import Iterable, Union

from .core import EMPTY_ALLOCATION, Allocation, MarketInstance
from .errors import InstanceTooLarge, MalformedInput

DEFAULT_ENUM_CAP = 1 << 24


class Constraint:
    """A validity constraint primitive.

    A constraint must be closed under dropping a transaction: if an
    allocation satisfies it, so does the same allocation with any one
    transaction unassigned.  Then an allocation satisfies the constraint
    exactly when each of its ``(tx, nodes)`` pairs, taken in canonical
    order, is admitted by the prefix before it; ``is_valid`` folds
    ``admits`` over the pairs and ``enumerate_valid`` grows partial
    allocations one admitted pair at a time.

    ``check(instance)`` runs once per call and refuses every input the
    constraint cannot judge, so ``admits(instance, partial, tx, nodes)``
    never raises: may ``tx`` run on ``nodes`` when added to ``partial``,
    which satisfies the constraint and holds only transactions sorting
    before ``tx``?  A constraint that only bounds node-set sizes says so
    through ``node_counts`` and keeps the default ``admits``, which admits
    everything: no step takes a node set outside those bounds.
    """

    def check(self, instance: MarketInstance) -> None:
        """Refuse unknown ids, out-of-range parameters and malformed inputs."""

    def admits(
        self, instance: MarketInstance, partial: Allocation, tx: str, nodes: tuple[str, ...]
    ) -> bool:
        return True

    def node_counts(self, tx: str) -> tuple[int, float]:
        """Bounds on the number of nodes an allocated ``tx`` may run on."""
        return 0, inf


def _check_txs(listed: Iterable[str], instance: MarketInstance) -> None:
    unknown = set(listed) - set(instance.tx_ids)
    if unknown:
        raise MalformedInput(f"constraint references unknown transactions {sorted(unknown)}")


@dataclass(frozen=True)
class NodeCapacity(Constraint):
    """Per node and dimension, total resource usage must fit the node's capacity.

    A step sums and compares the instance's integer ``resource_image``,
    which ``check`` makes safe to read.
    """

    def check(self, instance: MarketInstance) -> None:
        capacitated = [n for n in instance.node_ids if instance.node(n).capacity is not None]
        for node, tx in product(capacitated, instance.tx_ids):
            vector = instance.resources.get(tx)
            if vector is None:
                raise MalformedInput(
                    f"transaction {tx!r} has no resource vector for capacity checks"
                )
            if len(vector) != len(instance.node(node).capacity):
                raise MalformedInput(
                    f"resource vector of {tx!r} has wrong length for node {node!r}"
                )

    def admits(
        self, instance: MarketInstance, partial: Allocation, tx: str, nodes: tuple[str, ...]
    ) -> bool:
        for node in nodes:
            if instance.node(node).capacity is None:
                continue
            image = instance.resource_image
            usage = image.usage
            placed = (usage[other] for other in partial.inverse(node))
            totals = map(sum, zip(usage[tx], *placed))
            if any(c is not None and u > c for u, c in zip(totals, image.capacity[node])):
                return False
        return True


@dataclass(frozen=True)
class MaxTxPerNode(Constraint):
    node: str
    limit: int

    def check(self, instance: MarketInstance) -> None:
        if self.node not in instance.node_ids:
            raise MalformedInput(f"constraint references unknown node {self.node!r}")
        if self.limit < 0:
            raise MalformedInput(f"negative transaction limit {self.limit} for node {self.node!r}")

    def admits(
        self, instance: MarketInstance, partial: Allocation, tx: str, nodes: tuple[str, ...]
    ) -> bool:
        return self.node not in nodes or len(partial.inverse(self.node)) < self.limit


@dataclass(frozen=True)
class RequiredNodeCount(Constraint):
    """An allocated transaction must run on between min_nodes and max_nodes nodes."""

    tx: str
    min_nodes: int
    max_nodes: int

    @staticmethod
    def exactly(tx: str, count: int) -> "RequiredNodeCount":
        return RequiredNodeCount(tx, count, count)

    def check(self, instance: MarketInstance) -> None:
        if self.tx not in instance.tx_ids:
            raise MalformedInput(f"constraint references unknown transaction {self.tx!r}")
        if not (0 <= self.min_nodes <= self.max_nodes):
            raise MalformedInput(f"bad node count range for {self.tx!r}")

    def node_counts(self, tx: str) -> tuple[int, float]:
        return (self.min_nodes, self.max_nodes) if tx == self.tx else (0, inf)


@dataclass(frozen=True)
class MustShareNode(Constraint):
    """If every listed transaction is allocated, some single node runs them all."""

    txs: tuple[str, ...]

    def check(self, instance: MarketInstance) -> None:
        _check_txs(self.txs, instance)

    def admits(
        self, instance: MarketInstance, partial: Allocation, tx: str, nodes: tuple[str, ...]
    ) -> bool:
        if tx not in self.txs:
            return True
        shared = set(nodes)
        for other in self.txs:
            if other != tx:
                placed = partial.nodes_for(other)
                if not placed:
                    return True
                shared.intersection_update(placed)
        return bool(shared)


@dataclass(frozen=True)
class MutualExclusion(Constraint):
    first: str
    second: str

    def check(self, instance: MarketInstance) -> None:
        _check_txs([self.first, self.second], instance)

    def admits(
        self, instance: MarketInstance, partial: Allocation, tx: str, nodes: tuple[str, ...]
    ) -> bool:
        if tx == self.first:
            # a transaction excluded from itself is never allocated
            return tx != self.second and not partial.nodes_for(self.second)
        return tx != self.second or not partial.nodes_for(self.first)


@dataclass(frozen=True)
class SingleAssignment(Constraint):
    """Every allocated transaction runs on exactly one node."""

    def node_counts(self, tx: str) -> tuple[int, float]:
        return 0, 1


@dataclass(frozen=True)
class Constraints:
    constraints: tuple[Constraint, ...] = ()


@dataclass(frozen=True)
class Extensional:
    """An explicit valid set, kept deduplicated and sorted, with the empty allocation."""

    allocations: tuple[Allocation, ...]

    def __post_init__(self):
        canonical = tuple(sorted(set(self.allocations) | {EMPTY_ALLOCATION}))
        object.__setattr__(self, "allocations", canonical)


ValiditySpec = Union[Constraints, Extensional]


def _resolve(spec: ValiditySpec | None, instance: MarketInstance) -> ValiditySpec:
    """The spec a call reads, ``None`` being the instance's own (or no
    constraints), once every input check on it has passed."""
    if spec is None:
        spec = instance.validity if instance.validity is not None else Constraints()
    if isinstance(spec, Extensional):
        for allocation in spec.allocations:
            instance.check_allocation_ids(allocation)
    else:
        for c in spec.constraints:
            c.check(instance)
    return spec


def _sizes(constraints: Iterable[Constraint], tx: str, n_nodes: int) -> range:
    """Node-set sizes an allocated ``tx`` may take (unallocated is size 0)."""
    bounds = [(1, n_nodes)] + [c.node_counts(tx) for c in constraints]
    return range(max(lo for lo, _ in bounds), min(hi for _, hi in bounds) + 1)


def _consulted(constraints: Iterable[Constraint]) -> list[Constraint]:
    """The constraints whose ``admits`` can refuse a step."""
    return [c for c in constraints if type(c).admits is not Constraint.admits]


def is_valid(
    allocation: Allocation,
    spec: ValiditySpec | None,
    instance: MarketInstance,
) -> bool:
    """Exact membership test for the valid set.

    An allocation in the valid set memoised on the market for the same spec
    object (``None`` read as the instance's own) is valid without a second
    test.  Any other allocation is tested,
    once the spec's inputs are checked, by the search's step rule folded over
    its pairs in canonical order.
    """
    instance.check_allocation_ids(allocation)
    memo = instance._valid
    if memo is not None and memo[0] is _key(spec, instance) and allocation in memo[3]:
        return True
    spec = _resolve(spec, instance)
    if isinstance(spec, Extensional):
        return allocation in spec.allocations
    constraints = spec.constraints
    consulted = _consulted(constraints)
    n_nodes = len(instance.node_ids)
    pairs = allocation.pairs
    for i, (tx, nodes) in enumerate(pairs):
        if len(nodes) not in _sizes(constraints, tx, n_nodes):
            return False
        partial = Allocation(pairs[:i])
        if not all(c.admits(instance, partial, tx, nodes) for c in consulted):
            return False
    return True


def enumerate_valid(
    instance: MarketInstance,
    spec: ValiditySpec | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Allocation]:
    """Every valid allocation exactly once, in canonical order.

    Constraint specs are enumerated by a depth-first search that extends a
    partial allocation by one ``(tx, nodes)`` step at a time, over
    transactions in id order and each transaction's node sets of the sizes
    the constraints allow, sorted as tuples.  A step is taken only if every
    constraint admits it, which is exact because constraints are closed
    under dropping a transaction, and each allocation is emitted when it is
    reached: preorder over canonically ordered steps is canonical
    allocation order, so nothing is sorted afterwards.

    The result is memoised on the market, freed with it: a later call with
    the very same spec object (by identity; specs are immutable), ``None``
    and the instance's own spec being one key, and an equal cap returns it
    without searching again or checking its inputs, and ``is_valid`` reads
    it.  The memo is one tuple, replaced whole, so a concurrent caller at
    worst searches again.  Every call returns a fresh list, so a caller may
    mutate it; the ``Allocation`` objects in it are shared.
    """
    key, memo = _key(spec, instance), instance._valid
    if memo is not None and memo[0] is key and memo[1] == cap:
        return list(memo[2])
    found = _search_valid(instance, spec, cap)
    object.__setattr__(instance, "_valid", (key, cap, tuple(found), frozenset(found)))
    return found


def _key(spec: ValiditySpec | None, instance: MarketInstance) -> ValiditySpec | None:
    """The spec object the valid-set memo is keyed by: ``None`` reads as the
    instance's own spec, so passing that spec explicitly is the same key."""
    return instance.validity if spec is None else spec


def _search_valid(
    instance: MarketInstance, spec: ValiditySpec | None, cap: int
) -> list[Allocation]:
    spec = _resolve(spec, instance)
    if isinstance(spec, Extensional):
        return list(spec.allocations)
    constraints = spec.constraints
    txs = instance.tx_ids
    nodes = instance.node_ids
    sizes = [_sizes(constraints, tx, len(nodes)) for tx in txs]
    space = prod(1 + sum(comb(len(nodes), k) for k in sized) for sized in sizes)
    if space > cap:
        raise InstanceTooLarge(
            f"search space of {len(txs)} transactions x {len(nodes)} nodes "
            f"has {space} leaves, which exceeds cap {cap}"
        )
    # node ids are sorted, so every combination is a sorted tuple
    subsets = [sorted(s for k in sized for s in combinations(nodes, k)) for sized in sizes]
    consulted = _consulted(constraints)
    found = [EMPTY_ALLOCATION]

    def search(start: int, partial: Allocation) -> None:
        for index in range(start, len(txs)):
            tx = txs[index]
            for subset in subsets[index]:
                # a plain loop rather than all(): no generator per step
                for c in consulted:
                    if not c.admits(instance, partial, tx, subset):
                        break
                else:
                    extended = Allocation(partial.pairs + ((tx, subset),))
                    found.append(extended)
                    search(index + 1, extended)

    search(0, EMPTY_ALLOCATION)
    # ``search`` holds itself through its closure cell: release it, so the
    # instance and the search's lists need no cyclic collection
    del search
    return found
