"""Domain types and scalar functionals for heterogeneous two-sided markets.

Transactions (demand side) carry a valuation for being executed; nodes
(supply side) carry a cost function over bundles of transactions.  A routing
pairs an allocation with payment rules for both sides.  All quantities are
exact rationals and every function here is pure.

``MarketInstance.validate_reports`` is the one report rule: it checks a
profile once, naming its first fault in canonical agent order, and returns
its report objects in that order.  A node's cost, as its type or as its
report, is held to one coverage rule, ``cost_fault``, wherever it enters.

Canonical orders used for tie-breaking throughout the package:

* allocations compare by their normalized pair form (sorted ``(tx, nodes)``
  pairs, lexicographic), so the empty allocation sorts first;
* agents are ordered transactions-first, each group sorted by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING, Callable, ItemsView, Iterable, Mapping

from .errors import MalformedInput
from .rationals import ZERO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .validity import ValiditySpec


def _number_fault(x: object) -> str | None:
    """What keeps ``x`` from being a non-negative ``int`` or ``Fraction`` (a
    ``bool`` is none, as in JSON; a subclass is one), worded to follow its
    name, or None.  The exact types pass the first test."""
    if (type(x) is Fraction or type(x) is int) and x.numerator >= 0:
        return None
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        return f" must be an int or a Fraction, got {x!r}"
    return f" must be non-negative, got {x}" if x < 0 else None


def _refuse(named: Iterable[tuple[str, object]], fault_of: Callable, what: str) -> None:
    """Refuse the first ``(id, x)`` of ``named`` in which ``fault_of`` finds
    a fault, as ``what`` and the id; only that fault is formatted."""
    for name, x in named:
        fault = fault_of(x)
        if fault is not None:
            raise MalformedInput(f"{what} {name!r}{fault}")


def _require_nonneg(x: Fraction, what: str) -> Fraction:
    if (fault := _number_fault(x)) is not None:
        raise MalformedInput(what + fault)
    return x


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------


class CostFunction:
    """Cost a node incurs to execute a bundle of transactions.

    Every variant evaluates to 0 on the empty bundle.  ``resources`` maps
    transaction ids to usage vectors and is only consulted by the
    resource-linear variant.
    """

    def cost(
        self,
        bundle: Iterable[str],
        resources: Mapping[str, tuple[Fraction, ...]] | None = None,
    ) -> Fraction:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(CostFunction):
    """Costless execution of any bundle."""

    def cost(self, bundle, resources=None):
        return ZERO


@dataclass(frozen=True)
class ConstantNonempty(CostFunction):
    """Fixed cost for any non-empty bundle."""

    amount: Fraction

    def __post_init__(self):
        _require_nonneg(self.amount, "ConstantNonempty amount")

    def cost(self, bundle, resources=None):
        return self.amount if set(bundle) else ZERO


@dataclass(frozen=True)
class PerTransaction(CostFunction):
    """Additive per-transaction cost; transactions absent from the map cost 0."""

    rates: Mapping[str, Fraction]

    def __post_init__(self):
        for tx, rate in self.rates.items():
            _require_nonneg(rate, f"PerTransaction rate for {tx!r}")

    def cost(self, bundle, resources=None):
        return sum((self.rates.get(t, ZERO) for t in bundle), ZERO)


@dataclass(frozen=True)
class LinearResources(CostFunction):
    """Cost linear in resource usage: sum over the bundle of g(t) . unit_costs."""

    unit_costs: tuple[Fraction, ...]

    def __post_init__(self):
        for c in self.unit_costs:
            _require_nonneg(c, "LinearResources unit cost")

    def cost(self, bundle, resources=None):
        bundle = set(bundle)
        if not bundle:
            return ZERO
        if resources is None:
            raise MalformedInput("LinearResources cost needs per-transaction resource vectors")
        total = ZERO
        for t in bundle:
            usage = resources.get(t)
            if usage is None:
                raise MalformedInput(f"no resource vector for transaction {t!r}")
            if len(usage) != len(self.unit_costs):
                raise MalformedInput(
                    f"resource vector for {t!r} has length {len(usage)}, "
                    f"expected {len(self.unit_costs)}"
                )
            total += sum((g * c for g, c in zip(usage, self.unit_costs)), ZERO)
        return total


MAX_SUBSET_TABLE_TXS = 16


@dataclass(frozen=True)
class SubsetTable(CostFunction):
    """Explicit cost for every subset of a declared transaction set.

    The table must be total over the power set of ``transactions`` (at most
    16 of them) and must charge 0 for the empty bundle.
    """

    transactions: frozenset[str]
    table: Mapping[frozenset[str], Fraction]

    def __post_init__(self):
        if len(self.transactions) > MAX_SUBSET_TABLE_TXS:
            raise MalformedInput(
                f"SubsetTable supports at most {MAX_SUBSET_TABLE_TXS} transactions, "
                f"got {len(self.transactions)}"
            )
        expected = 1 << len(self.transactions)
        if len(self.table) != expected:
            raise MalformedInput(
                f"SubsetTable must be total: expected {expected} entries, got {len(self.table)}"
            )
        for subset, value in self.table.items():
            if not subset <= self.transactions:
                raise MalformedInput(f"SubsetTable entry {sorted(subset)} is not a declared subset")
            _require_nonneg(value, f"SubsetTable cost of {sorted(subset)}")
        if self.table[frozenset()] != 0:
            raise MalformedInput("SubsetTable must charge 0 for the empty bundle")

    def cost(self, bundle, resources=None):
        key = frozenset(bundle)
        value = self.table.get(key)
        if value is None:
            raise MalformedInput(f"SubsetTable has no entry for bundle {sorted(key)}")
        return value


def cost_fault(cost: object, tx_ids: frozenset[str], resources: Mapping | None = None) -> str | None:
    """What keeps ``cost`` from being a node's cost over the transactions
    ``tx_ids``, worded to follow the node's name, or None: no
    ``CostFunction``, a ``PerTransaction`` rate for another id (ignored), a
    ``SubsetTable`` not over exactly them, or, given their ``resources``, a
    ``LinearResources`` cost that cannot price one (``NodeCapacity``'s rule).
    A ``ReportProfile`` has no resource vectors to give."""
    if not isinstance(cost, CostFunction):
        return f" must be a cost function, got {cost!r}"
    if isinstance(cost, PerTransaction) and not tx_ids.issuperset(cost.rates):
        return f": PerTransaction rates for unknown transactions {sorted(set(cost.rates) - tx_ids)}"
    if isinstance(cost, SubsetTable) and cost.transactions != tx_ids:
        return ": SubsetTable must cover exactly the instance transactions"
    if isinstance(cost, LinearResources) and resources is not None:
        d = len(cost.unit_costs)
        for tx in sorted(tx_ids):
            usage = resources.get(tx)
            if usage is None or len(usage) != d:
                return f": LinearResources cost needs a resource vector of length {d} for {tx!r}"
    return None


# ---------------------------------------------------------------------------
# Agents and instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransactionSpec:
    """A transaction and the user who submitted it.

    ``resources`` is the per-dimension usage vector for resource markets;
    general instances may omit it.
    """

    id: str
    value: Fraction
    resources: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        # a cost table's bundle is written as its comma-joined ids, and the
        # empty string is the empty bundle's key
        if not self.id or "," in self.id:
            raise MalformedInput(f"transaction id {self.id!r} must be non-empty and contain no ','")
        _require_nonneg(self.value, f"value of {self.id!r}")
        if self.resources is not None:
            for g in self.resources:
                _require_nonneg(g, f"resource usage of {self.id!r}")


@dataclass(frozen=True)
class NodeSpec:
    """An executing node: a cost function and an optional capacity vector.

    ``None`` capacity entries leave that dimension unconstrained.
    """

    id: str
    cost: CostFunction
    capacity: tuple[Fraction | None, ...] | None = None

    def __post_init__(self):
        if self.capacity is not None:
            for r in self.capacity:
                if r is not None:
                    _require_nonneg(r, f"capacity of {self.id!r}")


@dataclass(frozen=True, order=True)
class Allocation:
    """Assignment of transactions to sets of executing nodes.

    Normalized form keeps only transactions with a non-empty node set as
    sorted ``(tx, sorted nodes)`` pairs; dataclass ordering over that form is
    the global canonical allocation order (the empty allocation sorts first).
    """

    pairs: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @staticmethod
    def of(assignment: Mapping[str, Iterable[str]]) -> "Allocation":
        pairs = []
        for tx, nodes in assignment.items():
            nodes = tuple(sorted(set(nodes)))
            if nodes:
                pairs.append((tx, nodes))
        return Allocation(tuple(sorted(pairs)))

    @cached_property
    def _by_tx(self) -> dict[str, tuple[str, ...]]:
        return dict(self.pairs)

    @cached_property
    def _inverse(self) -> dict[str, frozenset[str]]:
        inv: dict[str, set[str]] = {}
        for tx, nodes in self.pairs:
            for n in nodes:
                inv.setdefault(n, set()).add(tx)
        return {n: frozenset(inv[n]) for n in sorted(inv)}

    def nodes_for(self, tx: str) -> tuple[str, ...]:
        return self._by_tx.get(tx, ())

    def inverse(self, node: str) -> frozenset[str]:
        """Transactions the given node executes under this allocation."""
        return self._inverse.get(node, frozenset())

    @property
    def bundles(self) -> ItemsView[str, frozenset[str]]:
        """``(node, transactions)`` for each node that runs something, sorted
        by node id."""
        return self._inverse.items()

    @cached_property
    def transactions(self) -> frozenset[str]:
        return frozenset(tx for tx, _ in self.pairs)

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(n for _, nodes in self.pairs for n in nodes)

    def is_empty(self) -> bool:
        return not self.pairs


EMPTY_ALLOCATION = Allocation()


@dataclass(frozen=True)
class Routing:
    """An allocation plus total payment rules for both market sides."""

    allocation: Allocation
    tx_payments: Mapping[str, Fraction]
    node_payments: Mapping[str, Fraction]


@dataclass(frozen=True)
class ReportProfile:
    """Submitted (possibly untruthful) types for every transaction and node."""

    tx_reports: Mapping[str, Fraction]
    node_reports: Mapping[str, CostFunction]

    def replace_tx(self, tx: str, value: Fraction) -> "ReportProfile":
        if tx not in self.tx_reports:
            raise MalformedInput(f"unknown transaction {tx!r} in report profile")
        updated = dict(self.tx_reports)
        updated[tx] = _require_nonneg(value, f"report of {tx!r}")
        return ReportProfile(updated, self.node_reports)

    def replace_node(self, node: str, cost: CostFunction) -> "ReportProfile":
        if node not in self.node_reports:
            raise MalformedInput(f"unknown node {node!r} in report profile")
        if (fault := cost_fault(cost, frozenset(self.tx_reports))) is not None:
            raise MalformedInput(f"report of {node!r}{fault}")
        updated = dict(self.node_reports)
        updated[node] = cost
        return ReportProfile(self.tx_reports, updated)


@dataclass(frozen=True)
class ResourceImage:
    """Resource data scaled to integers, one scale per dimension.

    ``scales[i]`` is the lcm of the denominators of every usage entry and
    every bounded capacity entry in dimension i.  ``usage`` (per
    transaction) and ``capacity`` (per node that declares one, ``None``
    entries kept) hold those entries times their dimension's scale, so sums
    and comparisons within a dimension are exact in integers: the rational
    entry is ``Fraction(x, scales[i])``.
    """

    scales: tuple[int, ...]
    usage: Mapping[str, tuple[int, ...]]
    capacity: Mapping[str, tuple[int | None, ...]]


@dataclass(frozen=True)
class MarketInstance:
    """A market: transactions, nodes, and the validity specification."""

    transactions: tuple[TransactionSpec, ...]
    nodes: tuple[NodeSpec, ...]
    validity: "ValiditySpec | None" = None

    # the memos of ``validity.enumerate_valid`` and ``strategy._welfare_max``:
    # not fields, so out of ==, hash and repr; each replaced whole
    _valid = None
    _argmax = None

    def __post_init__(self):
        ids = [t.id for t in self.transactions] + [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise MalformedInput("agent ids must be unique across transactions and nodes")
        _refuse(((n.id, n.cost) for n in self.nodes), self.cost_fault, "node")

    @cached_property
    def tx_ids(self) -> tuple[str, ...]:
        return tuple(sorted(t.id for t in self.transactions))

    @cached_property
    def tx_set(self) -> frozenset[str]:
        return frozenset(self.tx_ids)

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(n.id for n in self.nodes))

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.node_ids)

    def cost_fault(self, cost: object) -> str | None:
        """``core.cost_fault`` over this market's transactions and their vectors."""
        return cost_fault(cost, self.tx_set, self.resources)

    @cached_property
    def agent_ids(self) -> tuple[str, ...]:
        """Canonical agent order: transactions first, then nodes, each sorted."""
        return self.tx_ids + self.node_ids

    @cached_property
    def _tx_by_id(self) -> dict[str, TransactionSpec]:
        return {t.id: t for t in self.transactions}

    @cached_property
    def _node_by_id(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    def transaction(self, tx: str) -> TransactionSpec:
        spec = self._tx_by_id.get(tx)
        if spec is None:
            raise MalformedInput(f"unknown transaction id {tx!r}")
        return spec

    def node(self, node: str) -> NodeSpec:
        spec = self._node_by_id.get(node)
        if spec is None:
            raise MalformedInput(f"unknown node id {node!r}")
        return spec

    @cached_property
    def resources(self) -> dict[str, tuple[Fraction, ...]]:
        """Resource vectors for the transactions that declare them."""
        return {t.id: t.resources for t in self.transactions if t.resources is not None}

    @cached_property
    def resource_image(self) -> ResourceImage:
        """The usage and capacity vectors as integers over per-dimension scales.

        Built on first read, once per instance.  Read it only after
        ``NodeCapacity.check`` or ``ResourceMarket``'s own checks have
        passed: every transaction then has a resource vector, and every
        vector and capacity has one length.
        """
        capacity = {n.id: n.capacity for n in self.nodes if n.capacity is not None}
        vectors = [*self.resources.values(), *capacity.values()]
        scales = tuple(
            lcm(*(v[i].denominator for v in vectors if v[i] is not None))
            for i in range(len(vectors[0]) if vectors else 0)
        )

        def scaled(vector):
            return tuple(
                None if x is None else x.numerator * (s // x.denominator)
                for x, s in zip(vector, scales)
            )

        return ResourceImage(
            scales,
            {tx: scaled(v) for tx, v in self.resources.items()},
            {n: scaled(v) for n, v in capacity.items()},
        )

    def truthful_reports(self) -> ReportProfile:
        return ReportProfile(
            {t.id: t.value for t in self.transactions},
            {n.id: n.cost for n in self.nodes},
        )

    def empty_routing(self) -> Routing:
        return Routing(
            EMPTY_ALLOCATION,
            {t: ZERO for t in self.tx_ids},
            {n: ZERO for n in self.node_ids},
        )

    def validate_routing(self, routing: Routing) -> None:
        """Check payment totality, non-negativity, and id hygiene."""
        if routing.tx_payments.keys() != self.tx_set:
            raise MalformedInput("transaction payment rule must be total over the instance")
        if routing.node_payments.keys() != self.node_set:
            raise MalformedInput("node payment rule must be total over the instance")
        _refuse(routing.tx_payments.items(), _number_fault, "payment of")
        _refuse(routing.node_payments.items(), _number_fault, "payment to")
        self.check_allocation_ids(routing.allocation)

    def check_allocation_ids(self, allocation: Allocation) -> None:
        """Refuse an allocation that names a transaction or node not in the market."""
        unknown_txs = allocation.transactions - self.tx_set
        unknown_nodes = allocation.nodes - self.node_set
        if unknown_txs or unknown_nodes:
            raise MalformedInput(
                f"allocation references unknown ids {sorted(unknown_txs | unknown_nodes)}"
            )

    def validate_reports(self, reports: ReportProfile) -> tuple:
        """The profile's report objects in canonical agent order, once both
        mappings are total, each value has no ``_number_fault`` and each cost
        no ``cost_fault``; the first fault in that order is named."""
        txs, nodes = reports.tx_reports, reports.node_reports
        if txs.keys() != self.tx_set:
            raise MalformedInput("transaction reports must be total over the instance")
        if nodes.keys() != self.node_set:
            raise MalformedInput("node reports must be total over the instance")
        values = [txs[t] for t in self.tx_ids]
        costs = [nodes[n] for n in self.node_ids]
        _refuse(zip(self.tx_ids, values), _number_fault, "report of")
        _refuse(zip(self.node_ids, costs), self.cost_fault, "report of")
        return tuple(values + costs)


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def margin(routing: Routing) -> Fraction:
    """Net cash flow of a routing: total transaction payments minus node payments."""
    inflow = sum(routing.tx_payments.values(), ZERO)
    outflow = sum(routing.node_payments.values(), ZERO)
    return inflow - outflow


def is_budget_balanced(routing: Routing) -> bool:
    return margin(routing) >= 0


def tx_utility(tx: str, routing: Routing, value: Fraction) -> Fraction:
    """Utility of a transaction with the given valuation under a routing."""
    if tx not in routing.tx_payments:
        raise MalformedInput(f"unknown transaction id {tx!r}")
    included = tx in routing.allocation.transactions
    return (value if included else ZERO) - routing.tx_payments[tx]


def node_utility(
    node: str,
    routing: Routing,
    cost: CostFunction,
    resources: Mapping[str, tuple[Fraction, ...]] | None = None,
) -> Fraction:
    """Utility of a node with the given cost function under a routing."""
    if node not in routing.node_payments:
        raise MalformedInput(f"unknown node id {node!r}")
    bundle = routing.allocation.inverse(node)
    return routing.node_payments[node] - cost.cost(bundle, resources)


def agent_utility(instance: MarketInstance, agent: str, routing: Routing, types: ReportProfile) -> Fraction:
    """Utility of any agent under a routing, types read from the given profile."""
    if agent in types.tx_reports:
        return tx_utility(agent, routing, types.tx_reports[agent])
    if agent in types.node_reports:
        return node_utility(agent, routing, types.node_reports[agent], instance.resources)
    raise MalformedInput(f"unknown agent id {agent!r}")


def surplus(instance: MarketInstance, routing: Routing, types: ReportProfile) -> Fraction:
    """Sum of transaction and node utilities under the given type profile.

    Payments are transfers, so they cancel down to the broker's margin, and
    every cost function charges 0 on the empty bundle, so only the nodes
    that run something add a cost: the sum is the allocation's welfare minus
    the margin.
    """
    return welfare(instance, routing.allocation, types) - margin(routing)


def welfare(instance: MarketInstance, allocation: Allocation, types: ReportProfile) -> Fraction:
    """Total allocated value minus total incurred cost; payment-free.

    Nodes are charged in id order, so which reported cost function raises
    first does not depend on the hash seed.
    """
    total = ZERO
    for tx in allocation.transactions:
        total += types.tx_reports[tx]
    for node, bundle in allocation.bundles:
        total -= types.node_reports[node].cost(bundle, instance.resources)
    return total
