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
then every ``admits``.  Each call builds one ``_StepState`` that holds the
step rule (node-set sizes, the constraints to consult, integer capacities)
and the prefix, which the caller pushes each admitted pair onto (and the
search pops on return): each placed transaction's node set, each node's
transaction count and each capacitated node's running integer usage, so
no step re-derives the prefix.  Enumeration grows allocations one admitted
pair at a time, returns the full valid set in canonical allocation order
and refuses instances whose search space exceeds a configurable cap.  The cap
counts the effective space, the product over transactions of the node
sets each may take once the constraints' node-count bounds are applied,
not the raw ``(2^|N|)^|T|``.

``enumerate_valid``'s result is memoised on the market, freed with it: the
same spec object (compared by identity, as ``mechanism.prepare_round``
compares it, ``None`` standing for the instance's own) with an equal cap
gets a fresh copy of it without a second search, and ``is_valid`` accepts a
member of it, found by bisection over the canonically ordered tuple,
without testing it again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, inf, prod
from operator import add, attrgetter, sub
from typing import Iterable, Union

from .core import EMPTY_ALLOCATION, Allocation, MarketInstance
from .errors import InstanceTooLarge, MalformedInput

DEFAULT_ENUM_CAP = 1 << 24

# the memo's bisection key: canonical order is the order of ``pairs``
_PAIRS = attrgetter("pairs")


class _StepState:
    """One spec's step rule on one instance, and the partial allocation a
    step extends, as the search carries it.

    ``sizes`` maps each transaction, in id order, to the node-set sizes it
    may take once allocated, and ``consulted`` lists the constraints whose
    ``admits`` can refuse a step.  ``placed`` maps each placed transaction
    to its node set and ``count`` every node to its placed transactions.
    When some consulted constraint sets ``reads_load`` and some node has a
    capacity, ``load`` and ``capacity`` map each capacitated node to its
    running usage and its capacity in the instance's integer
    ``resource_image``, and ``usage`` is that image's per-transaction
    vectors; otherwise all three are empty, so the image is never read
    unchecked.  ``push`` places a pair and ``pop`` takes a placed
    transaction off again, exactly, in integers.
    """

    __slots__ = ("sizes", "consulted", "placed", "count", "load", "usage", "capacity")

    def __init__(self, instance: MarketInstance, constraints: tuple[Constraint, ...]):
        n_nodes = len(instance.node_ids)
        self.sizes: dict[str, range] = {}
        for tx in instance.tx_ids:
            bounds = [(1, n_nodes)] + [c.node_counts(tx) for c in constraints]
            self.sizes[tx] = range(max(lo for lo, _ in bounds), min(hi for _, hi in bounds) + 1)
        self.consulted = [c for c in constraints if type(c).admits is not Constraint.admits]
        self.placed: dict[str, tuple[str, ...]] = {}
        self.count = dict.fromkeys(instance.node_ids, 0)
        self.load: dict[str, tuple[int, ...]] = {}
        self.usage: dict[str, tuple[int, ...]] = {}
        self.capacity: dict[str, tuple[int | None, ...]] = {}
        if any(c.reads_load for c in self.consulted) and any(
            node.capacity is not None for node in instance.nodes
        ):
            image = instance.resource_image
            self.usage, self.capacity = image.usage, image.capacity
            self.load = {node: (0,) * len(c) for node, c in image.capacity.items()}

    def push(self, tx: str, nodes: tuple[str, ...]) -> None:
        self.placed[tx] = nodes
        count, load = self.count, self.load
        for node in nodes:
            count[node] += 1
            if node in load:
                load[node] = tuple(map(add, load[node], self.usage[tx]))

    def pop(self, tx: str) -> None:
        count, load = self.count, self.load
        for node in self.placed.pop(tx):
            count[node] -= 1
            if node in load:
                load[node] = tuple(map(sub, load[node], self.usage[tx]))


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
    constraint cannot judge, so ``admits(state, tx, nodes)`` never raises:
    may ``tx`` run on ``nodes`` when added to the partial allocation that
    ``state`` (a ``_StepState``) holds, which satisfies the constraint and
    places only transactions sorting before ``tx``?  ``admits`` reads only
    the state.  A constraint that reads ``state.load``, ``state.usage`` or
    ``state.capacity`` sets ``reads_load``.  A constraint that only bounds
    node-set sizes says so through ``node_counts`` and keeps the default
    ``admits``, which admits everything: no step takes a node set outside
    those bounds.
    """

    reads_load = False

    def check(self, instance: MarketInstance) -> None:
        """Refuse unknown ids, out-of-range parameters and malformed inputs."""

    def admits(self, state: _StepState, tx: str, nodes: tuple[str, ...]) -> bool:
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

    A step adds the transaction's vector in the instance's integer
    ``resource_image``, which ``check`` makes safe to read, to each
    capacitated node's running usage and compares the sum with the node's
    capacity in that image, all three read from the step state.
    """

    reads_load = True

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

    def admits(self, state: _StepState, tx: str, nodes: tuple[str, ...]) -> bool:
        usage = state.usage.get(tx)
        for node in nodes:
            load = state.load.get(node)
            if load is not None and any(
                c is not None and l + u > c for l, u, c in zip(load, usage, state.capacity[node])
            ):
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

    def admits(self, state: _StepState, tx: str, nodes: tuple[str, ...]) -> bool:
        return self.node not in nodes or state.count[self.node] < self.limit


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

    def admits(self, state: _StepState, tx: str, nodes: tuple[str, ...]) -> bool:
        if tx not in self.txs:
            return True
        shared = set(nodes)
        for other in self.txs:
            if other != tx:
                placed = state.placed.get(other)
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

    def admits(self, state: _StepState, tx: str, nodes: tuple[str, ...]) -> bool:
        if tx == self.first:
            # a transaction excluded from itself is never allocated
            return tx != self.second and self.second not in state.placed
        return tx != self.second or self.first not in state.placed


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


def is_valid(
    allocation: Allocation,
    spec: ValiditySpec | None,
    instance: MarketInstance,
) -> bool:
    """Exact membership test for the valid set.

    An allocation in the valid set memoised on the market for the same spec
    object (``None`` read as the instance's own) is valid without a second
    test: the memo is in canonical order, so one bisection over its pairs
    finds it.  Any other allocation is tested, once the spec's inputs are
    checked, by the search's step rule folded over its pairs in canonical
    order, each admitted pair pushed onto one step state.
    """
    instance.check_allocation_ids(allocation)
    memo = instance._valid
    if memo is not None and memo[0] is _key(spec, instance):
        found, pairs = memo[2], allocation.pairs
        i = bisect_left(found, pairs, key=_PAIRS)
        if i < len(found) and found[i].pairs == pairs:
            return True
    spec = _resolve(spec, instance)
    if isinstance(spec, Extensional):
        return allocation in spec.allocations
    state = _StepState(instance, spec.constraints)
    for tx, nodes in allocation.pairs:
        if len(nodes) not in state.sizes[tx]:
            return False
        if not all(c.admits(state, tx, nodes) for c in state.consulted):
            return False
        state.push(tx, nodes)
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
    allocation order, so nothing is sorted afterwards.  One step state
    carries the partial allocation: a step is pushed onto it before the
    search descends and popped on return, and a step on the last
    transaction, which has nothing to descend to, is not pushed.

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
    object.__setattr__(instance, "_valid", (key, cap, tuple(found)))
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
    state = _StepState(instance, spec.constraints)
    txs = instance.tx_ids
    nodes = instance.node_ids
    sizes = state.sizes.values()
    space = prod(1 + sum(comb(len(nodes), k) for k in sized) for sized in sizes)
    if space > cap:
        raise InstanceTooLarge(
            f"enumerate_valid: search space of {len(txs)} transactions x {len(nodes)} nodes "
            f"has {space} leaves, which exceeds cap {cap}"
        )
    # node ids are sorted, so every combination is a sorted tuple
    subsets = [sorted(s for k in sized for s in combinations(nodes, k)) for sized in sizes]
    consulted = state.consulted
    last = len(txs) - 1
    found = [EMPTY_ALLOCATION]

    def search(start: int, pairs: tuple) -> None:
        for index in range(start, len(txs)):
            tx = txs[index]
            for subset in subsets[index]:
                # a plain loop rather than all(): no generator per step
                for c in consulted:
                    if not c.admits(state, tx, subset):
                        break
                else:
                    extended = pairs + ((tx, subset),)
                    found.append(Allocation(extended))
                    if index < last:
                        state.push(tx, subset)
                        search(index + 1, extended)
                        state.pop(tx)

    search(0, ())
    # ``search`` holds itself through its closure cell: release it, so the
    # instance and the search's lists need no cyclic collection
    del search
    return found
