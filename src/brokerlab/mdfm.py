"""Multi-dimensional resource markets and the four efficiency benchmarks.

A d-dimensional resource market prices transactions by a per-dimension unit
base fee vector p; a transaction's fee is g(t) . p.  Benchmarks compare the
best surplus attainable when the allocation step is, respectively,
inclusion-maximal (INC), fee-maximal (FEE), surplus-maximal given full type
knowledge (ORA), or unconstrained (OPT).

The continuous maximum over p is computed exactly by enumerating the feasible
cells of the price-space arrangement cut by two predicate families:
*willingness* (g(t) . p <= v_t) and *participation* (a node's fee income on
its bundle covers the bundle's cost).  A cell is its sign vector, and its
admissible pool is every valid allocation whose mask of needed TRUE sides
lies inside the cell's.  One list of cells serves INC, FEE and ORA: each pool
is filtered once, and ORA is the best welfare admitted by any cell.  Surplus
equals allocation welfare because base-fee payments are internal transfers,
which holds only when each transaction runs on at most one node, so markets
whose valid set places a transaction on several nodes are refused.  Within a
cell the inner min/max over allocations is then price-free; only FEE's
objective depends on price magnitudes, which keeps it exact for d = 1 and a
certified lower bound for d >= 2.

The resource data are read as integers: the instance's ``resource_image``
scales each dimension by the lcm of its denominators.  Usage and fee vectors
are integer sums, an allocation's welfare is summed over one common
denominator of values and unit costs per scaled unit and made a ``Fraction``
once, and inside a cell the witness price is scaled once to integers, so
each distinct fee vector costs one integer dot product.  A participation
row is built as an integer multiple of -usage . p <= -cost, which
``Constraint`` reduces to the same primitive row, so the cells, witnesses
and the ORA price are those of the rational rows.

Participation is what separates ORA from OPT under heterogeneous node costs:
posted per-dimension prices cannot pay different nodes different unit rates,
so a node whose cost exceeds its fee income drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .core import (
    Allocation,
    ConstantNonempty,
    LinearResources,
    MarketInstance,
    NodeSpec,
    ResourceImage,
    TransactionSpec,
    Zero,
    welfare,
)
from .errors import InstanceTooLarge, MalformedInput
from .linineq import Constraint, enumerate_cells, find_point, nonneg_orthant
from .rationals import ONE, ZERO
from .validity import (
    DEFAULT_ENUM_CAP,
    Constraints,
    MaxTxPerNode,
    MutualExclusion,
    NodeCapacity,
    RequiredNodeCount,
    SingleAssignment,
    enumerate_valid,
)

MAX_PATTERN_TXS = 16
MAX_PATTERN_DIMS = 8


@dataclass(frozen=True)
class ResourceMarket:
    """A d-dimensional market: resource-vector transactions, capacity-bounded
    nodes with resource-linear (or zero) costs, capacity validity.

    ``exclusions`` are state conflicts: pairs of transactions that no
    allocation may include together, whatever the prices.  Like capacity
    they only forbid adding transactions, so the valid transaction sets stay
    closed under taking subsets.
    """

    dimensions: int
    transactions: tuple[TransactionSpec, ...]
    nodes: tuple[NodeSpec, ...]
    single_assignment: bool = False
    exclusions: tuple[MutualExclusion, ...] = ()

    def __post_init__(self):
        if self.dimensions < 1:
            raise MalformedInput("a resource market needs at least one dimension")
        for t in self.transactions:
            if t.resources is None or len(t.resources) != self.dimensions:
                raise MalformedInput(
                    f"transaction {t.id!r} needs a resource vector of length {self.dimensions}"
                )
        for n in self.nodes:
            if not isinstance(n.cost, (Zero, LinearResources)):
                raise MalformedInput(f"node {n.id!r} must have zero or resource-linear cost")
            if isinstance(n.cost, LinearResources) and len(n.cost.unit_costs) != self.dimensions:
                raise MalformedInput(f"unit costs of {n.id!r} have the wrong length")
            if n.capacity is not None and len(n.capacity) != self.dimensions:
                raise MalformedInput(f"capacity of {n.id!r} has the wrong length")
        for c in self.exclusions:
            if not isinstance(c, MutualExclusion):
                raise MalformedInput(f"exclusions: expected MutualExclusion, got {c!r}")

    def instance(self) -> MarketInstance:
        """The market as a ``MarketInstance``, built once per market, so every
        stage on one market shares its valid-set memo and resource image."""
        return self._instance

    @cached_property
    def _instance(self) -> MarketInstance:
        constraints: list = [NodeCapacity()]
        if self.single_assignment:
            constraints.append(SingleAssignment())
        constraints.extend(self.exclusions)
        return MarketInstance(self.transactions, self.nodes, Constraints(tuple(constraints)))


def base_fee(resources: Sequence[Fraction], price: Sequence[Fraction]) -> Fraction:
    """Total base fee of a usage vector: the dot product with the unit prices."""
    if len(resources) != len(price):
        raise MalformedInput(
            f"dimension mismatch: usage has {len(resources)} entries, price {len(price)}"
        )
    return sum((g * p for g, p in zip(resources, price)), ZERO)


def _tx_fees(market: ResourceMarket, price: Sequence[Fraction]) -> dict[str, Fraction]:
    return {t.id: base_fee(t.resources, price) for t in market.transactions}


def base_fee_payments(
    market: ResourceMarket, allocation: Allocation, price: Sequence[Fraction]
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Posted-price payment rules: included transactions pay their base fee,
    nodes collect the fees of the transactions they execute.

    With a transaction on several nodes each node still collects the full
    fee, so the routing's margin goes negative; such outcomes lie outside
    the posted-price model, and ``run_benchmarks`` refuses their markets.
    """
    fees = _tx_fees(market, price)
    tx_payments = {
        tx: fee if tx in allocation.transactions else ZERO for tx, fee in fees.items()
    }
    node_payments = {
        n.id: sum((fees[tx] for tx in allocation.inverse(n.id)), ZERO) for n in market.nodes
    }
    return tx_payments, node_payments


# ---------------------------------------------------------------------------
# Price-space cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WillingnessPattern:
    """The transactions whose base fee stays within their value at some
    price, together with a certifying price."""

    willing: frozenset[str]
    witness_price: tuple[Fraction, ...]


@dataclass(frozen=True)
class _AllocationInfo:
    allocation: Allocation
    welfare: Fraction
    welfare_num: int  # welfare times _prepare's den, which ranks as welfare does
    # sum of g(t) over included transactions, in the instance's resource image
    fee_vector: tuple[int, ...]
    fee_class: int  # equal exactly when the fee vectors are
    # hyperplanes needed on their TRUE side, repeats kept: each included
    # transaction's (sorted), then each costly bundle's
    rows: tuple[int, ...]
    mask: int  # bit i: i is in rows


def _usage(image: ResourceImage, txs: Iterable[str], d: int) -> tuple[int, ...]:
    vectors = [image.usage[tx] for tx in txs]
    return tuple(map(sum, zip(*vectors))) if vectors else (0,) * d


def _arrangement(
    market: ResourceMarket,
    participation: Mapping[tuple[str, frozenset[str]], Constraint],
    zero_splits: bool,
) -> tuple[list[Constraint], dict[object, int]]:
    """The hyperplanes that cut price space, as TRUE sides, and each member's index.

    ``participation`` gives each costly ``(node, bundle)`` pair its TRUE
    side, fee income covering cost.  Transactions of equal willingness
    half-spaces share a hyperplane, costly pairs of equal participation
    half-spaces another; a dropped duplicate only ever had its sign forced,
    so no cell is lost.  The order fixes the cell order and so every
    witness: willingness groups by sorted ids, then participation groups by
    sorted members, then, when asked, one split p_i <= 0 per dimension
    (TRUE: a zero price).
    """
    willingness: dict[Constraint, list[str]] = {}
    for t in market.transactions:
        willingness.setdefault(Constraint(t.resources, t.value), []).append(t.id)
    groups_of: dict[Constraint, set[tuple[str, frozenset[str]]]] = {}
    for member, side in participation.items():
        groups_of.setdefault(side, set()).add(member)
    groups: list[tuple[Constraint, Iterable[object]]] = [
        *sorted(willingness.items(), key=lambda kv: sorted(kv[1])),
        *sorted(groups_of.items(), key=lambda kv: sorted((n, sorted(b)) for n, b in kv[1])),
    ]
    hyperplanes = [h for h, _ in groups]
    index = {member: i for i, (_, members) in enumerate(groups) for member in members}
    if zero_splits:
        d = market.dimensions
        hyperplanes += [
            Constraint(tuple(ONE if j == i else ZERO for j in range(d)), ZERO) for i in range(d)
        ]
    return hyperplanes, index


def _willing(
    market: ResourceMarket, index: dict[object, int], signs: Sequence[bool]
) -> frozenset[str]:
    """The transactions on the TRUE side of their willingness hyperplane."""
    return frozenset(t.id for t in market.transactions if signs[index[t.id]])


def _over(den: int, x: Fraction) -> int:
    """``x * den``, for a ``den`` that ``x``'s denominator divides."""
    return x.numerator * (den // x.denominator)


def _prepare(
    market: ResourceMarket, cap: int = DEFAULT_ENUM_CAP, zero_splits: bool = False
) -> tuple[list[_AllocationInfo], list[Constraint], dict[object, int], tuple[int, ...]]:
    """The valid allocations, the arrangement that admits them, and the
    resource image's scales: an allocation's rows are the willingness of its
    transactions and the participation of its costly bundles.

    Usage and fee vectors are integers in the instance's resource image.
    Welfare is summed in integers over ``den``, one denominator for every
    value and every unit cost per scaled unit, and made a ``Fraction`` once
    per allocation; the integer is kept too, and ``run_benchmarks`` ranks by
    it.
    """
    instance = market.instance()
    d = market.dimensions
    allocations = enumerate_valid(instance, cap=cap)
    image = instance.resource_image
    unit_costs = {
        n.id: [Fraction(c, s) for c, s in zip(n.cost.unit_costs, image.scales)]
        for n in market.nodes
        if isinstance(n.cost, LinearResources)
    }
    den = lcm(
        *(t.value.denominator for t in market.transactions),
        *(c.denominator for costs in unit_costs.values() for c in costs),
    )
    values = {t.id: _over(den, t.value) for t in market.transactions}
    weights = {n: [_over(den, c) for c in costs] for n, costs in unit_costs.items()}
    # a participation row -usage . p <= -cost times lcm(scales) * den, in
    # integers; a Constraint keeps only its primitive row
    row_scale = lcm(*image.scales)
    row_factors = [row_scale // s * den for s in image.scales]
    # each (node, bundle) pair's cost over den, and each costly one's TRUE side
    costs: dict[tuple[str, frozenset[str]], int] = {}
    participation: dict[tuple[str, frozenset[str]], Constraint] = {}
    infos = []
    classes: dict[tuple[int, ...], int] = {}
    for allocation in allocations:
        value = sum(values[tx] for tx in allocation.transactions)
        costly = []
        for pair in allocation.bundles:
            cost = costs.get(pair)
            if cost is None:
                node, bundle = pair
                cost = 0
                if node in weights:
                    usage = _usage(image, bundle, d)
                    cost = sum(map(mul, usage, weights[node]))
                    if cost:
                        coeffs = tuple(-g * f for g, f in zip(usage, row_factors))
                        participation[pair] = Constraint(coeffs, -cost * row_scale)
                costs[pair] = cost
            if cost:
                value -= cost
                costly.append(pair)
        fee_vector = _usage(image, allocation.transactions, d)
        fee_class = classes.setdefault(fee_vector, len(classes))
        infos.append((allocation, value, fee_vector, fee_class, costly))
    hyperplanes, index = _arrangement(market, participation, zero_splits)
    prepared = []
    for allocation, value, fee_vector, fee_class, costly in infos:
        rows = tuple(index[member] for member in chain(sorted(allocation.transactions), costly))
        mask = sum(1 << i for i in set(rows))
        prepared.append(
            _AllocationInfo(
                allocation, Fraction(value, den), value, fee_vector, fee_class, rows, mask
            )
        )
    return prepared, hyperplanes, index, image.scales


def _check_pattern_caps(market: ResourceMarket) -> None:
    if len(market.transactions) > MAX_PATTERN_TXS:
        raise InstanceTooLarge(
            f"pattern search supports at most {MAX_PATTERN_TXS} transactions, "
            f"got {len(market.transactions)}"
        )
    if market.dimensions > MAX_PATTERN_DIMS:
        raise InstanceTooLarge(
            f"pattern search supports at most {MAX_PATTERN_DIMS} dimensions, "
            f"got {market.dimensions}"
        )


def feasible_patterns(market: ResourceMarket) -> list[WillingnessPattern]:
    """Every realizable willingness pattern with a certifying price.

    A subset S is feasible when some p >= 0 makes exactly the transactions in
    S willing (fee <= value) and everything else strictly unwilling.
    """
    _check_pattern_caps(market)
    d = market.dimensions
    hyperplanes, index = _arrangement(market, {}, zero_splits=False)
    # willingness groups are disjoint and non-empty, so cells have distinct patterns
    patterns = [
        WillingnessPattern(_willing(market, index, signs), witness)
        for signs, witness in enumerate_cells(nonneg_orthant(d), hyperplanes, d)
    ]
    return sorted(patterns, key=lambda pattern: sorted(pattern.willing))


def pools_at_price(
    market: ResourceMarket, price: Sequence[Fraction]
) -> tuple[frozenset[str], list[Allocation]]:
    """Direct evaluation at one price: the willing set and the admissible
    allocation pool (willing transactions only, every working node's fee
    income covering its bundle cost).

    Independent of the cell machinery; used to cross-check it.
    """
    instance = market.instance()
    fees = _tx_fees(market, price)
    willing = frozenset(t.id for t in market.transactions if fees[t.id] <= t.value)
    pool = []
    for allocation in enumerate_valid(instance):
        if not allocation.transactions <= willing:
            continue
        admissible = True
        for node, bundle in allocation.bundles:
            income = sum((fees[tx] for tx in bundle), ZERO)
            if income < instance.node(node).cost.cost(bundle, instance.resources):
                admissible = False
                break
        if admissible:
            pool.append(allocation)
    return willing, pool


def inclusion_maximal_allocations(pool: Sequence[Allocation]) -> list[Allocation]:
    """Pool members allocating a transaction set with no strict superset in the pool."""
    tsets = {a.transactions for a in pool}
    return [a for a in pool if not any(t > a.transactions for t in tsets)]


def fee_maximal_allocations(
    market: ResourceMarket, pool: Sequence[Allocation], price: Sequence[Fraction]
) -> list[Allocation]:
    """Pool members maximizing total base fees at the given price."""
    fees = _tx_fees(market, price)

    def total_fee(a: Allocation) -> Fraction:
        return sum((fees[tx] for tx in a.transactions), ZERO)

    top = max((total_fee(a) for a in pool), default=ZERO)
    return [a for a in pool if total_fee(a) == top]


def _maximal_infos(pool: list[_AllocationInfo], downward_closed: bool) -> list[_AllocationInfo]:
    """Pool members whose transaction set has no strict superset in the pool."""
    tsets = {info.allocation.transactions for info in pool}
    if downward_closed:
        universe: frozenset[str] = frozenset().union(*tsets) if tsets else frozenset()
        maximal = {t for t in tsets if not any(t | {x} in tsets for x in universe - t)}
    else:
        maximal = {t for t in tsets if not any(other > t for other in tsets)}
    return [info for info in pool if info.allocation.transactions in maximal]


def _fee_at_price(
    pool: list[_AllocationInfo], price: Sequence[Fraction], scales: Sequence[int]
) -> _AllocationInfo:
    """The first fee-maximizing member of the pool at a price of worst welfare.

    The price per scaled unit, ``price[i] / scales[i]``, is put over one
    common denominator once, so each fee times that positive denominator is
    an integer dot product with the fee vector, and members with equal fee
    vectors share one.
    """
    dens = [p.denominator * s for p, s in zip(price, scales)]
    den = lcm(*dens)
    scaled = [p.numerator * (den // q) for p, q in zip(price, dens)]
    fees: dict[int, int] = {}
    for info in pool:
        if info.fee_class not in fees:
            fees[info.fee_class] = sum(map(mul, info.fee_vector, scaled))
    top = max(fees.values())
    maximizers = (info for info in pool if fees[info.fee_class] == top)
    return min(maximizers, key=lambda info: info.welfare_num)


def _refuse_multi_node(infos: Iterable[_AllocationInfo]) -> None:
    for info in infos:
        for tx, nodes in info.allocation.pairs:
            if len(nodes) > 1:
                raise MalformedInput(
                    f"benchmarks need each transaction on at most one node, but a valid "
                    f"allocation places {tx!r} on {len(nodes)} nodes; set single_assignment"
                )


@dataclass(frozen=True)
class BenchmarkWitness:
    allocation: Allocation | None = None
    price: tuple[Fraction, ...] | None = None
    willing: frozenset[str] | None = None


@dataclass(frozen=True)
class BenchmarkResult:
    opt: Fraction
    inc: Fraction
    fee: Fraction
    fee_exact: bool
    ora: Fraction
    witnesses: Mapping[str, BenchmarkWitness]
    hierarchy_ok: bool | None


def opt_benchmark(market: ResourceMarket) -> Fraction:
    """Highest welfare of any valid allocation (payments are free transfers)."""
    return max((info.welfare for info in _prepare(market)[0]), default=ZERO)


def inc_benchmark(market: ResourceMarket) -> Fraction:
    return run_benchmarks(market).inc


def fee_benchmark(market: ResourceMarket) -> tuple[Fraction, bool]:
    result = run_benchmarks(market)
    return result.fee, result.fee_exact


def ora_benchmark(market: ResourceMarket) -> Fraction:
    return run_benchmarks(market).ora


def run_benchmarks(market: ResourceMarket, cap: int = DEFAULT_ENUM_CAP) -> BenchmarkResult:
    """OPT, INC, FEE and ORA in one pass over one list of price cells.

    Within a cell, a sign vector, the admissible pool (each allocation whose
    mask lies inside the cell's TRUE side) is fixed, so each benchmark's
    inner min/max over the pool is price-free and the outer max ranges over
    cells:

    - INC: best-case price, worst-case inclusion-maximal allocation.
    - FEE: best-case price, worst-case fee-maximal allocation at the cell's
      witness price.  For d = 1 the zero price is split off, and inside a
      cell with positive price the fee-maximizers all maximize total
      resource, so the value is exact.  For d >= 2 it is a lower bound
      certified at the witness prices.
    - ORA: the best allocation an informed planner can post prices for,
      i.e. the best welfare any cell admits.  Its witness is the first such
      allocation in canonical order, with a price solving its own system.

    Raises MalformedInput when a valid allocation places a transaction on
    several nodes, where posted prices pay every node the full fee, and
    InstanceTooLarge when the market exceeds the pattern-search caps
    (checked before the valid set is enumerated) or the valid-set search
    space exceeds ``cap``.
    """
    _check_pattern_caps(market)
    d = market.dimensions
    exact = d == 1
    infos, hyperplanes, index, scales = _prepare(market, cap, zero_splits=exact)
    _refuse_multi_node(infos)
    opt_info = max(infos, key=lambda info: info.welfare_num)
    # only willingness filters without a costly bundle, so pools are subset-closed;
    # with one a pool can skip a size (test_mdfm pins one) and one-extension errs
    downward = all(len(info.rows) == len(info.allocation.transactions) for info in infos)
    # (signs, witness, worst maximal member, worst fee-maximal member) per
    # cell; every pool holds the empty allocation, and max() keeps the first
    # cell that attains the best.  All welfare is ranked by its integer over
    # one denominator.
    cells = []
    attainable: set[Allocation] = set()
    for signs, witness in enumerate_cells(nonneg_orthant(d), hyperplanes, d):
        true = sum(1 << i for i, sign in enumerate(signs) if sign)
        pool = [info for info in infos if info.mask & true == info.mask]
        worst = min(_maximal_infos(pool, downward), key=lambda info: info.welfare_num)
        cells.append((signs, witness, worst, _fee_at_price(pool, witness, scales)))
        attainable.update(info.allocation for info in pool)
    inc_signs, inc_price, inc_info, _ = max(cells, key=lambda cell: cell[2].welfare_num)
    fee_signs, fee_price, _, fee_info = max(cells, key=lambda cell: cell[3].welfare_num)
    ora_info = max(
        (info for info in infos if info.allocation in attainable), key=lambda info: info.welfare_num
    )
    ora_price = find_point(nonneg_orthant(d) + [hyperplanes[i] for i in ora_info.rows], d)
    inc_value, fee_value, ora_value = inc_info.welfare, fee_info.welfare, ora_info.welfare
    return BenchmarkResult(
        opt=opt_info.welfare,
        inc=inc_value,
        fee=fee_value,
        fee_exact=exact,
        ora=ora_value,
        witnesses={
            "opt": BenchmarkWitness(opt_info.allocation, None, None),
            "inc": BenchmarkWitness(
                inc_info.allocation, inc_price, _willing(market, index, inc_signs)
            ),
            "fee": BenchmarkWitness(None, fee_price, _willing(market, index, fee_signs)),
            "ora": BenchmarkWitness(ora_info.allocation, ora_price, None),
        },
        hierarchy_ok=inc_value <= fee_value <= ora_value <= opt_info.welfare if exact else None,
    )


# ---------------------------------------------------------------------------
# Worst-case constructions
# ---------------------------------------------------------------------------


def inclusion_gap_market(d: int) -> ResourceMarket:
    """One node with unit capacity in each of d dimensions; d-1 cheap
    transactions t01..t(d-1), worth 2/d, each using only its own private
    dimension, and one valuable transaction t(d), worth 1, using all d.

    Capacity makes the valuable transaction conflict with every cheap one.
    The cheap ones conflict with each other through state, a
    MutualExclusion per pair, not through a priced resource, so no price
    can make them unwilling as a group while the valuable one stays willing.

    OPT = 1.  INC = 2/d: a price keeping t(d) willing has p_1 + ... + p_d
    <= 1; if every private price exceeded 2/d the sum would exceed
    2(d-1)/d > 1, so some cheap transaction is willing too.  Every
    inclusion-maximal allocation is then a single transaction, the worst
    worth 2/d, and the zero price attains that bound.  Degenerates below
    d = 3, where 2(d-1)/d is no longer above 1.
    """
    if d < 3:
        raise MalformedInput(f"inclusion-gap construction needs d >= 3, got {d}")
    value_small = Fraction(2, d)
    txs = []
    for j in range(1, d):
        g = [ZERO] * d
        g[j - 1] = ONE
        txs.append(TransactionSpec(f"t{j:02d}", value_small, tuple(g)))
    txs.append(TransactionSpec(f"t{d:02d}", ONE, (ONE,) * d))
    exclusions = tuple(MutualExclusion(a.id, b.id) for a, b in combinations(txs[:-1], 2))
    node = NodeSpec("n", Zero(), (ONE,) * d)
    return ResourceMarket(d, tuple(txs), (node,), exclusions=exclusions)


def fee_gap_market(k: int) -> ResourceMarket:
    """One node with room for k unit transactions; k cheap transactions and
    one worth half the capacity-filling total."""
    if k < 2:
        raise MalformedInput(f"fee-gap construction needs k >= 2, got {k}")
    small = Fraction(1, 2 * (k - 1))
    txs = [TransactionSpec(f"t{i:02d}", small, (ONE,)) for i in range(1, k + 1)]
    txs.append(TransactionSpec(f"t{k + 1:02d}", Fraction(1, 2), (ONE,)))
    node = NodeSpec("n", Zero(), (Fraction(k),))
    return ResourceMarket(1, tuple(txs), (node,))


def oracle_gap_market(
    k: int,
    resource_values: Sequence[Fraction],
    epsilon: Fraction = Fraction(1, 2),
) -> ResourceMarket:
    """k transactions with strictly increasing usage, each matched to the one
    node sized and priced for it; unit costs rise so fast that no single
    price vector keeps two matched pairs profitable at once."""
    if k < 2:
        raise MalformedInput(f"oracle-gap construction needs k >= 2, got {k}")
    if len(resource_values) != k:
        raise MalformedInput(f"expected {k} resource values, got {len(resource_values)}")
    values = [Fraction(v) for v in resource_values]
    if any(v <= 0 for v in values) or any(a >= b for a, b in zip(values, values[1:])):
        raise MalformedInput("resource values must be positive and strictly increasing")
    if epsilon <= 0:
        raise MalformedInput(f"epsilon must be positive, got {epsilon}")

    txs = []
    nodes = []
    unit_cost = ONE
    value = values[0] + 1
    for j in range(k):
        if j > 0:
            unit_cost = value / values[j - 1] + epsilon
            value = unit_cost * values[j] + 1
        txs.append(TransactionSpec(f"t{j + 1:02d}", value, (values[j],)))
        nodes.append(NodeSpec(f"n{j + 1:02d}", LinearResources((unit_cost,)), (values[j],)))
    return ResourceMarket(1, tuple(txs), tuple(nodes), single_assignment=True)


def collusion_example_instance() -> MarketInstance:
    """Two transactions, two unit-capacity nodes: the valuable transaction
    needs both nodes, the other needs exactly one."""
    txs = (
        TransactionSpec("t1", Fraction(6)),
        TransactionSpec("t2", Fraction(4)),
    )
    nodes = (
        NodeSpec("n1", ConstantNonempty(ONE)),
        NodeSpec("n2", ConstantNonempty(ONE)),
    )
    validity = Constraints(
        (
            RequiredNodeCount.exactly("t1", 2),
            RequiredNodeCount.exactly("t2", 1),
            MaxTxPerNode("n1", 1),
            MaxTxPerNode("n2", 1),
        )
    )
    return MarketInstance(txs, nodes, validity)


@dataclass(frozen=True)
class CollusionCertificate:
    """Exhaustive demonstration that the surplus-maximizing allocation of the
    two-transaction example admits no collusion-proof payment split."""

    valid_allocations: int
    best_allocation: Allocation
    best_welfare: Fraction
    max_total_node_payment: Fraction  # capped by the included transaction's value
    required_total_node_payment: Fraction  # both nodes matching the outside offer
    outside_offer: Fraction
    resistant: bool


def collusion_certificate() -> CollusionCertificate:
    instance = collusion_example_instance()
    truthful = instance.truthful_reports()
    allocations = enumerate_valid(instance)
    best_welfare = max(welfare(instance, a, truthful) for a in allocations)
    best = next(a for a in allocations if welfare(instance, a, truthful) == best_welfare)
    v1 = instance.transaction("t1").value
    outside = instance.transaction("t2").value
    required = outside * 2
    return CollusionCertificate(
        valid_allocations=len(allocations),
        best_allocation=best,
        best_welfare=best_welfare,
        max_total_node_payment=v1,
        required_total_node_payment=required,
        outside_offer=outside,
        resistant=required <= v1,
    )
