"""Seeded random generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from brokerlab.core import (
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
    welfare,
)
from brokerlab.linineq import Constraint, find_point, nonneg_orthant
from brokerlab.mdfm import (
    ResourceMarket,
    fee_maximal_allocations,
    inclusion_maximal_allocations,
    pools_at_price,
)
from brokerlab.mechanism import Proposal
from brokerlab.strategy import max_extraction_routing, scaled_rebate_routing
from brokerlab.validity import (
    Constraints,
    MaxTxPerNode,
    MutualExclusion,
    RequiredNodeCount,
    SingleAssignment,
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
    node_subsets = []
    nodes = list(instance.node_ids)
    for mask in range(1 << len(nodes)):
        node_subsets.append([nodes[i] for i in range(len(nodes)) if mask >> i & 1])
    out = []
    for assignment in product(node_subsets, repeat=len(instance.tx_ids)):
        allocation = Allocation.of(dict(zip(instance.tx_ids, assignment)))
        if is_valid(allocation, spec, instance):
            out.append(allocation)
    return sorted(set(out))


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
    d = market.dimensions
    best = None
    for allocation in enumerate_valid(instance):
        constraints = nonneg_orthant(d)
        for tx in sorted(allocation.transactions):
            t = instance.transaction(tx)
            constraints.append(Constraint(t.resources, t.value))
        for node in sorted(allocation.nodes):
            bundle = allocation.inverse(node)
            cost = instance.node(node).cost.cost(bundle, instance.resources)
            if cost == 0:
                continue
            usage = [sum((instance.resources[tx][i] for tx in bundle), ZERO) for i in range(d)]
            constraints.append(Constraint(tuple(-g for g in usage), -cost))
        point = find_point(constraints, d)
        if point is None:
            continue
        value = welfare(instance, allocation, truthful)
        if best is None or value > best[0]:
            best = (value, allocation, point)
    assert best is not None  # the empty allocation is always attainable
    return best
