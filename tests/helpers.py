"""Seeded random generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations, product
from math import prod
from typing import Iterable, Iterator, Sequence

from brokerlab.core import (
    MAX_SUBSET_TABLE_TXS,
    Allocation,
    ConstantNonempty,
    LinearResources,
    MarketInstance,
    NodeSpec,
    PerTransaction,
    ReportProfile,
    Routing,
    SubsetTable,
    TransactionSpec,
    Zero,
    agent_utility,
    margin,
    node_utility,
    surplus,
    tx_utility,
    welfare,
)
from brokerlab.equilibrium import (
    MAX_NODE_CANDIDATES,
    DeviationWitness,
    TruthfulnessReport,
    _candidates,
    _deviation_witnesses,
    _interval_representatives,
    _with_report,
    check_pne,
)
from brokerlab.errors import (
    InfeasibleTarget,
    InstanceTooLarge,
    InvalidProposal,
    MalformedInput,
    MarketError,
)
from brokerlab.linineq import Constraint, find_point, nonneg_orthant
from brokerlab.mdfm import (
    ResourceMarket,
    fee_maximal_allocations,
    inclusion_maximal_allocations,
    pools_at_price,
)
from brokerlab.mechanism import (
    MechanismOutcome,
    Proposal,
    RejectionReason,
    _report_objects,
    _Terms,
    broker_utility,
    prepare_round,
    run,
)
from brokerlab.strategy import (
    DEFAULT_QUANTUM,
    DynamicsStep,
    DynamicsTrace,
    max_extraction_routing,
    scaled_rebate_routing,
)
from brokerlab.validity import (
    DEFAULT_ENUM_CAP,
    Constraints,
    MaxTxPerNode,
    MustShareNode,
    MutualExclusion,
    NodeCapacity,
    RequiredNodeCount,
    SingleAssignment,
    ValiditySpec,
    enumerate_valid,
    is_valid,
)

ZERO = Fraction(0)


def frac(rng: random.Random, lo: int = 0, hi: int = 10, dens=(1, 1, 2, 4)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_subset_table(rng: random.Random, tx_ids: list[str]) -> SubsetTable:
    table = {}
    for size in range(len(tx_ids) + 1):
        for combo in combinations(sorted(tx_ids), size):
            table[frozenset(combo)] = frac(rng, 0, 8) if combo else ZERO
    return SubsetTable(frozenset(tx_ids), table)


def random_cost(rng: random.Random, tx_ids: list[str]):
    roll = rng.random()
    if roll < 0.3:
        return Zero()
    if roll < 0.65:
        return ConstantNonempty(frac(rng, 0, 6))
    if roll < 0.9 or len(tx_ids) > 3:
        rates = {t: frac(rng, 0, 4) for t in tx_ids if rng.random() < 0.8}
        return PerTransaction(rates)
    return random_subset_table(rng, tx_ids)


def random_instance(
    rng: random.Random, max_txs: int = 4, max_nodes: int = 3
) -> MarketInstance:
    n_txs = rng.randint(1, max_txs)
    n_nodes = rng.randint(1, max_nodes)
    tx_ids = [f"t{i + 1}" for i in range(n_txs)]
    txs = tuple(TransactionSpec(tx, frac(rng)) for tx in tx_ids)
    nodes = tuple(
        NodeSpec(f"n{j + 1}", random_cost(rng, tx_ids)) for j in range(n_nodes)
    )
    constraints = []
    if rng.random() < 0.7:
        constraints.append(SingleAssignment())
    if rng.random() < 0.4:
        constraints.append(MaxTxPerNode(f"n{rng.randint(1, n_nodes)}", rng.randint(1, 2)))
    if n_txs >= 2 and rng.random() < 0.25:
        a, b = rng.sample(tx_ids, 2)
        constraints.append(MutualExclusion(a, b))
    if n_txs >= 1 and n_nodes >= 2 and rng.random() < 0.15:
        constraints.append(RequiredNodeCount.exactly(rng.choice(tx_ids), 2))
    return MarketInstance(txs, nodes, Constraints(tuple(constraints)))


def random_reports(
    rng: random.Random, instance: MarketInstance, liar_prob: float = 0.5
) -> tuple[ReportProfile, set[str]]:
    """A report profile plus the set of agents reporting truthfully."""
    truthful = instance.truthful_reports()
    tx_reports = dict(truthful.tx_reports)
    node_reports = dict(truthful.node_reports)
    honest = set(instance.agent_ids)
    for tx in instance.tx_ids:
        if rng.random() < liar_prob:
            tx_reports[tx] = frac(rng)
            if tx_reports[tx] != truthful.tx_reports[tx]:
                honest.discard(tx)
    for node in instance.node_ids:
        if rng.random() < liar_prob:
            reported = random_cost(rng, list(instance.tx_ids))
            node_reports[node] = reported
            if reported != truthful.node_reports[node]:
                honest.discard(node)
    return ReportProfile(tx_reports, node_reports), honest


def random_routing(
    rng: random.Random,
    instance: MarketInstance,
    allocation: Allocation,
    reports: ReportProfile,
) -> Routing:
    mode = rng.random()
    if mode < 0.35:
        return max_extraction_routing(instance, allocation, reports)
    if mode < 0.6:
        w = welfare(instance, allocation, reports)
        if w > 0:
            target = w * Fraction(rng.randint(0, 4), 4)
            return scaled_rebate_routing(instance, allocation, reports, target)
        if w == 0:
            return scaled_rebate_routing(instance, allocation, reports, ZERO)
    tx_payments = {}
    for tx in instance.tx_ids:
        cap = reports.tx_reports[tx] + 2
        tx_payments[tx] = (
            Fraction(rng.randint(0, int(cap * 2)), 2) if tx in allocation.transactions or rng.random() < 0.1 else ZERO
        )
    node_payments = {}
    for node in instance.node_ids:
        bundle = allocation.inverse(node)
        base = reports.node_reports[node].cost(bundle, instance.resources)
        node_payments[node] = Fraction(rng.randint(0, int(base * 2) + 4), 2)
    return Routing(allocation, tx_payments, node_payments)


def random_proposals(
    rng: random.Random,
    instance: MarketInstance,
    reports: ReportProfile,
    allocations: list[Allocation],
    max_brokers: int = 3,
) -> tuple[list[Proposal], list[str]]:
    n = rng.randint(0, max_brokers)
    brokers = [f"b{i + 1}" for i in range(n)]
    proposals = []
    for broker in brokers:
        allocation = rng.choice(allocations)
        if rng.random() < 0.12:
            proposals.append(Proposal(broker, instance.empty_routing()))
        else:
            proposals.append(
                Proposal(broker, random_routing(rng, instance, allocation, reports))
            )
    order = list(brokers)
    rng.shuffle(order)
    return proposals, order


def naive_enumerate(instance: MarketInstance, spec=None) -> list[Allocation]:
    """All (2^|N|)^|T| assignment maps filtered by the validity test."""
    return sorted(a for a in raw_space(instance) if is_valid(a, spec, instance))


def random_constrained_instance(
    rng: random.Random, max_txs: int = 4, max_nodes: int = 3
) -> MarketInstance:
    """A random market over all six constraint types, in random order.

    Resource vectors are sometimes missing, nodes sometimes declare no
    capacity or leave a dimension unbounded, one node may carry two
    ``MaxTxPerNode`` limits, and node-count ranges may be empty or exceed
    the node count.
    """
    n_txs = rng.randint(1, max_txs)
    n_nodes = rng.randint(1, max_nodes)
    dims = rng.randint(1, 2)
    tx_ids = [f"t{i + 1}" for i in range(n_txs)]
    node_ids = [f"n{j + 1}" for j in range(n_nodes)]
    txs = tuple(
        TransactionSpec(
            tx,
            frac(rng),
            None if rng.random() < 0.15 else tuple(frac(rng, 0, 3) for _ in range(dims)),
        )
        for tx in tx_ids
    )
    nodes = tuple(
        NodeSpec(
            node,
            Zero(),
            None
            if rng.random() < 0.3
            else tuple(None if rng.random() < 0.25 else frac(rng, 0, 4) for _ in range(dims)),
        )
        for node in node_ids
    )
    constraints: list = []
    if rng.random() < 0.6:
        constraints.append(NodeCapacity())
    if rng.random() < 0.3:
        constraints.append(SingleAssignment())
    if rng.random() < 0.5:
        node = rng.choice(node_ids)
        for _ in range(rng.randint(1, 2)):
            constraints.append(MaxTxPerNode(node, rng.randint(0, 2)))
    if rng.random() < 0.4:
        lo = rng.randint(0, n_nodes)
        constraints.append(RequiredNodeCount(rng.choice(tx_ids), lo, rng.randint(lo, n_nodes + 1)))
    if n_txs >= 2 and rng.random() < 0.4:
        constraints.append(MustShareNode(tuple(sorted(rng.sample(tx_ids, rng.randint(2, n_txs))))))
    if n_txs >= 2 and rng.random() < 0.3:
        constraints.append(MutualExclusion(*rng.sample(tx_ids, 2)))
    rng.shuffle(constraints)
    return MarketInstance(txs, nodes, Constraints(tuple(constraints)))


def capacitated_instance() -> MarketInstance:
    """Resource vectors, a ``LinearResources`` cost and capacities with an
    unconstrained dimension, under ``NodeCapacity`` and ``SingleAssignment``:
    either node is over capacity with both transactions on it, so 7 of the
    9 single-assignment allocations are valid."""
    return MarketInstance(
        (
            TransactionSpec("t1", Fraction(5), (Fraction(1), Fraction(2))),
            TransactionSpec("t2", Fraction(3), (Fraction(2), Fraction(1))),
        ),
        (
            NodeSpec("n1", LinearResources((Fraction(1), Fraction(1))), (Fraction(2), None)),
            NodeSpec("n2", ConstantNonempty(Fraction(1)), (None, Fraction(2))),
        ),
        Constraints((NodeCapacity(), SingleAssignment())),
    )


# b1 runs t1 on n2 and t2 on n1, each node paid its cost, at margin 0
CAPACITATED_PROPOSAL = Proposal(
    "b1",
    Routing(
        Allocation.of({"t1": ["n2"], "t2": ["n1"]}),
        {"t1": Fraction(1), "t2": Fraction(3)},
        {"n1": Fraction(3), "n2": Fraction(1)},
    ),
)


def _node_usage_by_ladder(instance: MarketInstance, allocation: Allocation, node: str) -> list[Fraction]:
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


def satisfies_by_ladder(instance: MarketInstance, allocation: Allocation, constraint) -> bool:
    """One constraint decided on a whole allocation by a type switch, as
    before each constraint class owned its own test."""
    if isinstance(constraint, NodeCapacity):
        for node in sorted(allocation.nodes):
            capacity = instance.node(node).capacity
            if capacity is None:
                continue
            usage = _node_usage_by_ladder(instance, allocation, node)
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


def raw_space(instance: MarketInstance) -> list[Allocation]:
    """Every allocation of the raw (2^|N|)^|T| space."""
    nodes = list(instance.node_ids)
    node_subsets = [
        [nodes[i] for i in range(len(nodes)) if mask >> i & 1] for mask in range(1 << len(nodes))
    ]
    return [
        Allocation.of(dict(zip(instance.tx_ids, assignment)))
        for assignment in product(node_subsets, repeat=len(instance.tx_ids))
    ]


def check_vectors_by_ladder(instance: MarketInstance) -> None:
    """Refuse, before any allocation is judged, a ``NodeCapacity`` spec with a
    capacitated node and a transaction lacking a vector of its length."""
    if not any(isinstance(c, NodeCapacity) for c in instance.validity.constraints):
        return
    for node in instance.nodes:
        if node.capacity is None:
            continue
        for tx in instance.transactions:
            if tx.resources is None:
                raise MalformedInput(f"transaction {tx.id!r} has no resource vector")
            if len(tx.resources) != len(node.capacity):
                raise MalformedInput(f"resource vector of {tx.id!r} has wrong length")


def valid_by_ladder(instance: MarketInstance, allocation: Allocation) -> bool:
    """Every constraint of the instance decided by ``satisfies_by_ladder``,
    once ``check_vectors_by_ladder`` has passed, so no constraint can raise
    and their order cannot change the verdict."""
    check_vectors_by_ladder(instance)
    return all(satisfies_by_ladder(instance, allocation, c) for c in instance.validity.constraints)


def ladder_enumerate(instance: MarketInstance) -> list[Allocation]:
    """The raw space filtered by ``valid_by_ladder``."""
    return sorted(a for a in raw_space(instance) if valid_by_ladder(instance, a))


# ---------------------------------------------------------------------------
# Resource market generators and price-sweep oracles
# ---------------------------------------------------------------------------


def random_resource_market(
    rng: random.Random,
    max_txs: int = 5,
    with_costs: bool = True,
    positive_only: bool = False,
    dimensions: int = 1,
    n_nodes: int = 1,
) -> ResourceMarket:
    """A random market with resource-linear or zero node costs; one node
    in one dimension by default.  With several nodes it carries
    ``single_assignment``, the shape posted-price benchmarks accept."""
    n_txs = rng.randint(1, max_txs)
    lo = 1 if positive_only else 0
    txs = tuple(
        TransactionSpec(
            f"t{i + 1}",
            frac(rng, lo, 8, (1, 2)),
            tuple(frac(rng, 1, 4, (1, 2)) for _ in range(dimensions)),
        )
        for i in range(n_txs)
    )
    nodes = []
    for j in range(n_nodes):
        if with_costs and rng.random() < 0.5:
            node_cost: Zero | LinearResources = LinearResources(
                tuple(frac(rng, 0, 2, (1, 2)) for _ in range(dimensions))
            )
        else:
            node_cost = Zero()
        capacity = tuple(frac(rng, 2, 10, (1, 2)) for _ in range(dimensions))
        nodes.append(NodeSpec("n" if n_nodes == 1 else f"n{j + 1}", node_cost, capacity))
    return ResourceMarket(dimensions, txs, tuple(nodes), single_assignment=n_nodes > 1)


def sweep_prices(market: ResourceMarket, quantum: Fraction = Fraction(1, 64)) -> list[Fraction]:
    """Dense one-dimensional price sweep over all value and cost breakpoints."""
    points = {ZERO}
    for t in market.transactions:
        g = t.resources[0]
        if g > 0:
            points.add(t.value / g)
    for n in market.nodes:
        if isinstance(n.cost, LinearResources):
            points.add(n.cost.unit_costs[0])
    prices = set()
    for p in points:
        prices.add(p)
        prices.add(p + quantum)
        if p - quantum >= 0:
            prices.add(p - quantum)
    ordered = sorted(prices)
    for a, b in zip(ordered, ordered[1:]):
        prices.add((a + b) / 2)
    prices.add(max(ordered) + 1)
    return sorted(prices)


def sweep_benchmarks(market: ResourceMarket) -> dict[str, Fraction]:
    """INC / FEE / ORA computed by direct evaluation at swept prices."""
    instance = market.instance()
    truthful = instance.truthful_reports()

    def welfare_of(a: Allocation) -> Fraction:
        return welfare(instance, a, truthful)

    inc = fee = ora = None
    for price in sweep_prices(market):
        _, pool = pools_at_price(market, (price,))
        if not pool:
            continue
        inc_here = min(welfare_of(a) for a in inclusion_maximal_allocations(pool))
        fee_here = min(welfare_of(a) for a in fee_maximal_allocations(market, pool, (price,)))
        ora_here = max(welfare_of(a) for a in pool)
        inc = inc_here if inc is None else max(inc, inc_here)
        fee = fee_here if fee is None else max(fee, fee_here)
        ora = ora_here if ora is None else max(ora, ora_here)
    return {
        "inc": inc if inc is not None else ZERO,
        "fee": fee if fee is not None else ZERO,
        "ora": ora if ora is not None else ZERO,
    }


def attainability_system(market: ResourceMarket, allocation: Allocation) -> list[Constraint]:
    """p >= 0 keeping every included transaction willing and paying every
    working node at least its bundle cost, built from the market data: one
    row per included transaction in id order, then one per costly bundle in
    node order."""
    instance = market.instance()
    d = market.dimensions
    constraints = nonneg_orthant(d)
    for tx in sorted(allocation.transactions):
        t = instance.transaction(tx)
        constraints.append(Constraint(t.resources, t.value))
    for node, bundle in allocation.bundles:
        cost = instance.node(node).cost.cost(bundle, instance.resources)
        if cost != 0:
            usage = [sum((instance.resources[tx][i] for tx in bundle), ZERO) for i in range(d)]
            constraints.append(Constraint(tuple(-g for g in usage), -cost))
    return constraints


def ora_by_allocation(
    market: ResourceMarket,
) -> tuple[Fraction, Allocation, tuple[Fraction, ...]]:
    """ORA allocation by allocation, each decided by its own exact system.

    An allocation is attainable when some p >= 0 keeps every included
    transaction willing and pays every working node at least its bundle
    cost.  Returns the best attainable welfare, the first allocation in
    canonical order that attains it, and that allocation's solution point.
    """
    instance = market.instance()
    truthful = instance.truthful_reports()
    best = None
    for allocation in enumerate_valid(instance):
        point = find_point(attainability_system(market, allocation), market.dimensions)
        if point is None:
            continue
        value = welfare(instance, allocation, truthful)
        if best is None or value > best[0]:
            best = (value, allocation, point)
    assert best is not None  # the empty allocation is always attainable
    return best


# ---------------------------------------------------------------------------
# Round oracle: the auction round as it was before the prepared-round kernel
# ---------------------------------------------------------------------------

# ``run_reference`` is the former ``mechanism.run``, verbatim: it validates
# every proposal and recomputes every surplus on each call, summing every
# agent's utility with ``surplus_by_utilities``, the former ``core.surplus``.
# The prepared-round kernel must match it field for field.


def surplus_by_utilities(instance: MarketInstance, routing: Routing, types: ReportProfile) -> Fraction:
    """Sum of transaction and node utilities under the given type profile."""
    total = ZERO
    for tx in instance.tx_ids:
        total += tx_utility(tx, routing, types.tx_reports[tx])
    for n in instance.node_ids:
        total += node_utility(n, routing, types.node_reports[n], instance.resources)
    return total


def _reported_utilities(
    instance: MarketInstance, routing: Routing, reports: ReportProfile
) -> dict[str, Fraction]:
    return {a: agent_utility(instance, a, routing, reports) for a in instance.agent_ids}


def _rejection(
    instance: MarketInstance,
    reports: ReportProfile,
    reason: RejectionReason,
    violator: str | None = None,
) -> MechanismOutcome:
    empty = instance.empty_routing()
    return MechanismOutcome(
        routing=empty,
        winner=None,
        broker_payment=ZERO,
        agent_utilities=_reported_utilities(instance, empty, reports),
        rejection_reason=reason,
        ir_violator=violator,
    )


def run_reference(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    reports: ReportProfile,
    proposals: Sequence[Proposal],
    broker_order: Sequence[str],
) -> MechanismOutcome:
    """Execute one round.

    Raises ``InvalidProposal`` for any proposal whose allocation lies outside
    the valid set and ``MalformedInput`` for non-total reports or a broker
    order that is not a permutation of the proposing brokers.
    """
    instance.validate_reports(reports)
    brokers = [p.broker for p in proposals]
    if len(set(brokers)) != len(brokers):
        raise MalformedInput("each broker may submit at most one proposal")
    if sorted(broker_order) != sorted(set(broker_order)) or set(brokers) - set(broker_order):
        raise MalformedInput("broker order must be a permutation covering the proposing brokers")
    for proposal in proposals:
        instance.validate_routing(proposal.routing)
        if not is_valid(proposal.routing.allocation, spec, instance):
            raise InvalidProposal(
                f"proposal from {proposal.broker!r} carries an invalid allocation"
            )

    candidates = [p for p in proposals if margin(p.routing) >= 0]
    if not candidates:
        return _rejection(instance, reports, RejectionReason.NO_BUDGET_BALANCED_PROPOSAL)

    position = {b: i for i, b in enumerate(broker_order)}
    best = max(
        candidates,
        key=lambda p: (surplus_by_utilities(instance, p.routing, reports), -position[p.broker]),
    )

    utilities = _reported_utilities(instance, best.routing, reports)
    for agent in instance.agent_ids:
        if utilities[agent] < 0:
            return _rejection(instance, reports, RejectionReason.IR_VIOLATION, agent)

    return MechanismOutcome(
        routing=best.routing,
        winner=best.broker,
        broker_payment=margin(best.routing),
        agent_utilities=utilities,
    )


def outcome_or_error(settle, *args):
    """Every field of the outcome, the utilities in their order, or the
    type and message of the error raised."""
    try:
        outcome = settle(*args)
    except MarketError as exc:
        return type(exc), str(exc)
    return [(f.name, getattr(outcome, f.name)) for f in fields(outcome)] + [
        list(outcome.agent_utilities.items())
    ]


# ---------------------------------------------------------------------------
# Best-response oracle: the per-allocation search before the welfare pass
# ---------------------------------------------------------------------------

# ``broker_best_response_reference`` is the former
# ``strategy.broker_best_response``, verbatim, with the four-field record it
# returned and the ``_outcome_with`` it settled through: it scores every
# valid allocation with ``_max_winning_margin`` and keeps the lexicographic
# maximum of (margin, welfare).  Its routing comes from
# ``scaled_rebate_routing_reference``, the from-scratch formula the rebate
# plan replaced.  The one welfare pass must match its proposal, utility,
# wins and allocations examined.


@dataclass(frozen=True)
class BrokerBestResponse:
    proposal: Proposal
    utility: Fraction
    wins: bool
    allocations_examined: int = 0


def max_winning_margin_by_division(
    w: Fraction,
    rival_best: Fraction | None,
    wins_ties: bool,
    quantum: Fraction,
    lattice: bool,
) -> Fraction | None:
    """The former ``strategy._max_winning_margin``, verbatim: each lattice
    floor is a ``Fraction`` division followed by a floor."""
    if w < 0:
        return None
    if rival_best is None:
        m = w
    elif wins_ties:
        m = min(w, w - rival_best)
    else:
        gap = w - rival_best
        if gap <= 0:
            return None
        # largest lattice point strictly below the gap, capped at w
        steps = gap / quantum
        k = steps.numerator // steps.denominator
        if k * quantum == gap:
            k -= 1
        m = min(k * quantum, w)
    if lattice and m > 0:
        steps = m / quantum
        m = (steps.numerator // steps.denominator) * quantum
    if m < 0:
        return None
    return m


def scaled_rebate_routing_reference(
    instance: MarketInstance,
    allocation: Allocation,
    reports: ReportProfile,
    target_margin: Fraction,
) -> Routing:
    """The former ``strategy.scaled_rebate_routing``, verbatim: every call
    prices each node's bundle, totals costs and values, and checks the target
    against that welfare before scaling the transaction payments."""
    if target_margin < 0:
        raise InfeasibleTarget(f"target margin must be non-negative, got {target_margin}")
    node_payments = {
        n: reports.node_reports[n].cost(allocation.inverse(n), instance.resources)
        for n in instance.node_ids
    }
    total_cost = sum(node_payments.values(), ZERO)
    total_value = sum((reports.tx_reports[tx] for tx in allocation.transactions), ZERO)
    w = total_value - total_cost
    if target_margin > w:
        raise InfeasibleTarget(
            f"target margin {target_margin} exceeds reported welfare {w}"
        )
    if total_value == 0:
        # welfare <= 0 here, so the target must be exactly the (zero) welfare
        scale = ZERO
    else:
        scale = (total_cost + target_margin) / total_value
    tx_payments = {
        tx: (scale * reports.tx_reports[tx] if tx in allocation.transactions else ZERO)
        for tx in instance.tx_ids
    }
    return Routing(allocation, tx_payments, node_payments)


def broker_best_response_reference(
    broker: str,
    instance: MarketInstance,
    spec: ValiditySpec | None,
    reports: ReportProfile,
    rivals: Sequence[Proposal],
    broker_order: Sequence[str],
    quantum: Fraction = DEFAULT_QUANTUM,
    lattice_margins: bool = False,
    cap: int = DEFAULT_ENUM_CAP,
) -> BrokerBestResponse:
    """Exact utility-maximizing proposal against fixed rival proposals.

    For each valid allocation the broker's best winning margin is the
    allocation's reported welfare minus the surplus it must reach: the top
    rival surplus when the broker wins ties (it precedes every rival at that
    surplus in the fixed order), or the least lattice-representable surplus
    strictly above it otherwise.  When no margin is strictly positive the
    empty routing is the response (utility zero, never negative).
    """
    if quantum <= 0:
        raise MalformedInput(f"quantum must be positive, got {quantum}")
    if broker not in broker_order:
        raise MalformedInput(f"broker {broker!r} missing from broker order")
    for rival in rivals:
        if rival.broker == broker:
            raise MalformedInput("rival proposals must come from other brokers")
        if rival.broker not in broker_order:
            raise MalformedInput(f"rival broker {rival.broker!r} missing from broker order")

    position = {b: i for i, b in enumerate(broker_order)}
    rival_surpluses = [
        (surplus(instance, p.routing, reports), p.broker)
        for p in rivals
        if margin(p.routing) >= 0
    ]
    if rival_surpluses:
        rival_best = max(s for s, _ in rival_surpluses)
        wins_ties = all(
            position[broker] < position[b] for s, b in rival_surpluses if s == rival_best
        )
    else:
        rival_best, wins_ties = None, True

    best_margin: Fraction | None = None
    best_welfare: Fraction | None = None
    best_allocation: Allocation | None = None
    examined = 0
    for allocation in enumerate_valid(instance, spec, cap):
        examined += 1
        w = welfare(instance, allocation, reports)
        m = max_winning_margin_by_division(w, rival_best, wins_ties, quantum, lattice_margins)
        if m is None or m <= 0:
            continue
        # at equal margin prefer the higher-welfare allocation: the payoff is
        # the same but the win survives more rival configurations
        if best_margin is None or (m, w) > (best_margin, best_welfare):
            best_margin, best_welfare, best_allocation = m, w, allocation

    if best_margin is None:
        proposal = Proposal(broker, instance.empty_routing())
        outcome = _outcome_with(instance, spec, reports, rivals, proposal, broker_order)
        return BrokerBestResponse(proposal, ZERO, outcome.winner == broker, examined)

    routing = scaled_rebate_routing_reference(instance, best_allocation, reports, best_margin)
    proposal = Proposal(broker, routing)
    outcome = _outcome_with(instance, spec, reports, rivals, proposal, broker_order)
    return BrokerBestResponse(
        proposal, broker_utility(outcome, broker), outcome.winner == broker, examined
    )


def _outcome_with(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    reports: ReportProfile,
    rivals: Sequence[Proposal],
    proposal: Proposal,
    broker_order: Sequence[str],
) -> MechanismOutcome:
    ordered = sorted([*rivals, proposal], key=lambda p: broker_order.index(p.broker))
    return run(instance, spec, reports, ordered, broker_order)


def settled_terms(
    instance: MarketInstance, reports: ReportProfile, proposal: Proposal, broker_order: Sequence[str]
) -> _Terms:
    """``proposal``'s terms settled at ``reports`` from scratch, as a best
    response hands them to ``PreparedRound.with_proposal``: the margin,
    ``core.surplus`` and every agent's ``agent_utility``, stamped with the
    profile's report objects.  A broker outside the order gets position -1."""
    routing = proposal.routing
    at = _report_objects(instance, reports)
    return _Terms(
        proposal,
        margin(routing),
        list(broker_order).index(proposal.broker) if proposal.broker in broker_order else -1,
        scored_at=at,
        surplus=surplus(instance, routing, reports),
        utilities_at=at,
        utilities=tuple(agent_utility(instance, a, routing, reports) for a in instance.agent_ids),
    )


# ``best_response_dynamics_reference`` is the dynamics loop with nothing
# carried between turns: every turn's rivals are a plain proposal list, the
# response is ``broker_best_response_reference``'s, and the round it makes is
# prepared from scratch and settled by ``run``.


def best_response_dynamics_reference(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    reports: ReportProfile,
    initial: Sequence[Proposal],
    broker_order: Sequence[str],
    quantum: Fraction,
    max_rounds: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> DynamicsTrace:
    """Round-robin lattice best responses until a full round improves no
    broker (converged) or ``max_rounds`` rounds have run."""
    current = {p.broker: p for p in initial}

    def settle(proposals: dict[str, Proposal]) -> MechanismOutcome:
        ordered = [proposals[b] for b in broker_order]
        return run(instance, spec, reports, prepare_round(instance, spec, ordered, broker_order), broker_order)

    outcome = settle(current)
    steps: list[DynamicsStep] = []
    for rounds in range(1, max_rounds + 1):
        improved = False
        for broker in broker_order:
            rivals = [current[b] for b in broker_order if b != broker]
            response = broker_best_response_reference(
                broker, instance, spec, reports, rivals, broker_order, quantum, True, cap
            )
            candidate = settle({**current, broker: response.proposal})
            utility = broker_utility(candidate, broker)
            if utility > broker_utility(outcome, broker):
                current[broker], outcome = response.proposal, candidate
                steps.append(DynamicsStep(broker, response.proposal, utility))
                improved = True
        if not improved:
            return DynamicsTrace(tuple(steps), tuple(current[b] for b in broker_order), True, rounds)
    return DynamicsTrace(tuple(steps), tuple(current[b] for b in broker_order), False, max_rounds)


def dsic_product_oracle(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    true_types: ReportProfile,
    sigma: Sequence[Proposal],
    broker_order: Sequence[str],
    quantum: Fraction = DEFAULT_QUANTUM,
    cap: int = DEFAULT_ENUM_CAP,
) -> TruthfulnessReport:
    """``equilibrium.check_dsic_barring_b`` as it was before it settled one
    rival profile per agent: for each agent, every profile in the product of
    the other agents' breakpoint candidates is settled through ``run`` and a
    full deviation search (its sampling branch above ``others_cap`` left
    out).  A witness repeats once per rival profile that yields it, and
    ``profiles_checked`` counts every profile of every product."""
    if not sigma:
        raise MalformedInput("sigma must contain at least one proposal")
    allocations = {p.routing.allocation for p in sigma}
    if len(allocations) != 1:
        raise MalformedInput("all proposals in sigma must share one allocation")

    instance.validate_reports(true_types)
    sigma = prepare_round(instance, spec, sigma, broker_order)
    pne = check_pne(instance, spec, true_types, true_types, sigma, broker_order, quantum, cap)

    agents = list(instance.agent_ids)
    witnesses: list[DeviationWitness] = []
    profiles_checked = 0

    for agent in agents:
        others = [a for a in agents if a != agent]
        other_candidates = [_candidates(instance, other, sigma, true_types) for other in others]
        for profile in product(*other_candidates):
            profiles_checked += 1
            shifted = true_types
            for other, report in zip(others, profile):
                shifted = _with_report(shifted, other, report)
            truthful_outcome = run(instance, spec, shifted, sigma, broker_order)
            truthful_utility = agent_utility(
                instance, agent, truthful_outcome.routing, true_types
            )
            # candidates built at the rival profile, as the product loop did
            candidates = _candidates(instance, agent, sigma, shifted)
            _, found = _deviation_witnesses(
                instance, spec, true_types, shifted, sigma, broker_order, agent,
                candidates, truthful_utility, "against_rival_profile",
            )
            witnesses += found

    return TruthfulnessReport(
        holds=not witnesses and pne.is_pne,
        witnesses=tuple(witnesses),
        profiles_checked=profiles_checked,
        pne=pne,
    )


# ---------------------------------------------------------------------------
# Linear-inequality oracle: Fourier-Motzkin over Fraction rows
# ---------------------------------------------------------------------------

# ``find_point_reference`` is the former ``linineq.find_point``, verbatim,
# with its ``_eliminate``, ``Constraint.normalized`` (here ``normalized``)
# and ``_pick_in_interval``: it scales every row to a leading coefficient of
# +-1 and eliminates in ``Fraction``.  ``enumerate_cells_reference`` is the
# former walk over it.  The integer-row kernel must return identical points.


def node_candidate_tables_reference(
    instance: MarketInstance,
    node: str,
    proposals: Sequence[Proposal],
    reports: ReportProfile,
) -> list:
    """``equilibrium.node_deviation_candidates`` as it was before candidates
    became bundle overrides: every candidate a full ``SubsetTable`` over the
    instance's transactions (the former six-bundle cap left out)."""
    if node not in reports.node_reports:
        raise MalformedInput(f"unknown node {node!r}")
    current = reports.node_reports[node]
    assigned: list[frozenset[str]] = []
    for proposal in proposals:
        bundle = proposal.routing.allocation.inverse(node)
        if bundle and bundle not in assigned:
            assigned.append(bundle)
    if not assigned:
        return [Zero()]
    if len(instance.tx_ids) > MAX_SUBSET_TABLE_TXS:
        raise InstanceTooLarge(
            f"node_deviation_candidates: cost tables support at most "
            f"{MAX_SUBSET_TABLE_TXS} transactions, got {len(instance.tx_ids)}"
        )

    base_surpluses = [surplus(instance, p.routing, reports) for p in proposals]
    current_costs = {
        bundle: current.cost(bundle, instance.resources) for bundle in assigned
    }
    scalar_candidates: list[list[Fraction]] = []
    for bundle in assigned:
        breakpoints: set[Fraction] = {ZERO}
        for idx, proposal in enumerate(proposals):
            if proposal.routing.allocation.inverse(node) != bundle:
                continue
            breakpoints.add(proposal.routing.node_payments[node])
            # cost x on this bundle shifts proposal idx's surplus by
            # current_cost - x; equalize against every other proposal's
            # surplus at the current reports
            for jdx in range(len(proposals)):
                if proposal.routing.allocation.inverse(node) == proposals[
                    jdx
                ].routing.allocation.inverse(node):
                    continue
                x = base_surpluses[idx] + current_costs[bundle] - base_surpluses[jdx]
                if x >= 0:
                    breakpoints.add(x)
        scalar_candidates.append(_interval_representatives(breakpoints))

    count = prod(len(c) for c in scalar_candidates)
    if count > MAX_NODE_CANDIDATES:
        raise InstanceTooLarge(
            f"node_deviation_candidates: node {node!r} has {count} candidate cost "
            f"tables, cap is {MAX_NODE_CANDIDATES}"
        )
    all_txs = frozenset(instance.tx_ids)
    # the current report's table, with the assigned bundles overridden per candidate
    current_table = {
        subset: current_costs[subset]
        if subset in current_costs
        else current.cost(subset, instance.resources)
        for subset in map(frozenset, _powerset(sorted(all_txs)))
    }
    candidates: list = []
    for combo in product(*scalar_candidates):
        table = dict(current_table)
        table.update(zip(assigned, combo))
        candidates.append(SubsetTable(all_txs, table))
    return candidates


def _powerset(items: Sequence[str]):
    n = len(items)
    for mask in range(1 << n):
        yield {items[i] for i in range(n) if mask >> i & 1}


def normalized(c: Constraint) -> Constraint:
    scale = next((abs(x) for x in c.coeffs if x != 0), None)
    if scale is None or scale == 1:
        return c
    return Constraint(tuple(x / scale for x in c.coeffs), c.bound / scale, c.strict)


def _constant_holds(c: Constraint) -> bool:
    return c.bound > 0 or (c.bound == 0 and not c.strict)


def _eliminate(constraints: list[Constraint], var: int) -> list[Constraint] | None:
    """Remove one variable; None signals detected infeasibility."""
    uppers: list[Constraint] = []  # positive coefficient on var
    lowers: list[Constraint] = []  # negative coefficient on var
    rest: list[Constraint] = []
    for c in constraints:
        a = c.coeffs[var]
        if a > 0:
            uppers.append(c)
        elif a < 0:
            lowers.append(c)
        else:
            rest.append(c)

    combined: list[Constraint] = []
    for up in uppers:
        au = up.coeffs[var]
        for lo in lowers:
            al = lo.coeffs[var]
            # (-al) * up + au * lo cancels var; both multipliers are positive
            coeffs = tuple(-al * cu + au * cl for cu, cl in zip(up.coeffs, lo.coeffs))
            bound = -al * up.bound + au * lo.bound
            combined.append(Constraint(coeffs, bound, up.strict or lo.strict))

    reduced: dict[tuple, Constraint] = {}
    for c in rest + combined:
        if all(x == 0 for x in c.coeffs):
            if not _constant_holds(c):
                return None
            continue
        c = normalized(c)
        key = (c.coeffs, c.bound)
        prior = reduced.get(key)
        if prior is None or (c.strict and not prior.strict):
            reduced[key] = c
    return list(reduced.values())


def _pick_in_interval(
    lo: tuple[Fraction, bool] | None, hi: tuple[Fraction, bool] | None
) -> Fraction:
    """A rational inside the (guaranteed non-empty) interval."""

    def lo_admits(x: Fraction) -> bool:
        return lo is None or x > lo[0] or (x == lo[0] and not lo[1])

    def hi_admits(x: Fraction) -> bool:
        return hi is None or x < hi[0] or (x == hi[0] and not hi[1])

    if lo_admits(ZERO) and hi_admits(ZERO):
        return ZERO
    if lo is not None and not lo[1] and hi_admits(lo[0]):
        return lo[0]
    if hi is not None and not hi[1] and lo_admits(hi[0]):
        return hi[0]
    if lo is not None and hi is not None:
        return (lo[0] + hi[0]) / 2
    if lo is not None:
        return lo[0] + 1
    assert hi is not None
    return hi[0] - 1


def find_point_reference(
    constraints: Iterable[Constraint], n_vars: int
) -> tuple[Fraction, ...] | None:
    """A rational solution of the system, or None when it is infeasible."""
    system: list[Constraint] = []
    for c in constraints:
        if len(c.coeffs) != n_vars:
            raise ValueError(f"constraint arity {len(c.coeffs)} != {n_vars}")
        if all(x == 0 for x in c.coeffs):
            if not _constant_holds(c):
                return None
            continue
        system.append(normalized(c))

    if n_vars == 0:
        return ()

    levels: list[tuple[int, list[Constraint]]] = []
    remaining = list(range(n_vars))
    while len(remaining) > 1:
        def fill_cost(v: int) -> tuple[int, int]:
            ups = sum(1 for c in system if c.coeffs[v] > 0)
            los = sum(1 for c in system if c.coeffs[v] < 0)
            return (ups * los - ups - los, v)

        var = min(remaining, key=fill_cost)
        levels.append((var, system))
        reduced = _eliminate(system, var)
        if reduced is None:
            return None
        system = reduced
        remaining.remove(var)
    levels.append((remaining[0], system))

    point: list[Fraction] = [ZERO] * n_vars
    for var, level in reversed(levels):
        lo: tuple[Fraction, bool] | None = None
        hi: tuple[Fraction, bool] | None = None
        for c in level:
            a = c.coeffs[var]
            if a == 0:
                continue
            rest = sum(
                (c.coeffs[j] * point[j] for j in range(n_vars) if j != var and c.coeffs[j] != 0),
                ZERO,
            )
            value = (c.bound - rest) / a
            if a > 0:
                if hi is None or value < hi[0] or (value == hi[0] and c.strict):
                    hi = (value, c.strict)
            else:
                if lo is None or value > lo[0] or (value == lo[0] and c.strict):
                    lo = (value, c.strict)
        if lo is not None and hi is not None:
            if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
                return None  # defensive; elimination should prevent this
        point[var] = _pick_in_interval(lo, hi)
    return tuple(point)


def enumerate_cells_reference(
    base: Sequence[Constraint],
    hyperplanes: Sequence[Constraint],
    n_vars: int,
) -> Iterator[tuple[tuple[bool, ...], tuple[Fraction, ...]]]:
    """Feasible sign vectors of the arrangement, with a witness point each."""
    root = find_point_reference(base, n_vars)
    if root is None:
        return

    stack: list[Constraint] = list(base)
    signs: list[bool] = []

    def walk(index: int, witness: tuple[Fraction, ...]):
        if index == len(hyperplanes):
            yield (tuple(signs), witness)
            return
        h = hyperplanes[index]
        for sign, constraint in ((True, h), (False, h.complement())):
            if constraint.admits(witness):
                next_witness = witness
            else:
                next_witness = find_point_reference([*stack, constraint], n_vars)
                if next_witness is None:
                    continue
            stack.append(constraint)
            signs.append(sign)
            yield from walk(index + 1, next_witness)
            stack.pop()
            signs.pop()

    yield from walk(0, root)


def random_linear_system(
    rng: random.Random, n_vars: int, max_rows: int = 10
) -> list[Constraint]:
    """Rows with small rational entries, strict or not; some all-zero, some
    exact duplicates of an earlier row and some positive rescalings of one."""
    rows: list[Constraint] = []
    for _ in range(rng.randint(0, max_rows)):
        roll = rng.random()
        if rows and roll < 0.1:
            rows.append(rng.choice(rows))
        elif rows and roll < 0.2:
            c = rng.choice(rows)
            k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            rows.append(Constraint(tuple(x * k for x in c.coeffs), c.bound * k, c.strict))
        else:
            zero_row = roll < 0.25
            coeffs = tuple(
                ZERO if zero_row or rng.random() < 0.3 else frac(rng, -6, 6, (1, 1, 2, 3, 4, 7))
                for _ in range(n_vars)
            )
            rows.append(Constraint(coeffs, frac(rng, -6, 6, (1, 1, 2, 3)), rng.random() < 0.3))
    return rows
