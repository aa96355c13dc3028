"""Constructive broker algorithms.

A broker who knows every reported type can build the margin-maximizing
routing on any allocation (charge each included transaction its full value,
pay each node its exact cost) and can rebate any amount of that margin back
to transactions by scaling their payments down proportionally.  Best
responses range over all valid allocations; where a rival's surplus must be
beaten strictly, margins live on a configurable lattice ``{k * quantum}``
because the continuous problem has no maximizer on an open set.  The best
winning margin never falls as welfare rises, so one welfare pass over the
valid set finds the best response (see ``broker_best_response``).  The
pass scores welfare in ints over one denominator and prices each distinct
``(node, bundle)`` once (``_welfare_argmax``).  Its argmax is memoised on
the market, freed with it, for one spec and the report objects, together
with its rebate plan: each node's reported cost on its bundle, the included
transactions' reported values, and the total value and the welfare as ints
over one denominator.  A rebate routing is a plan read at one scale of the
values (scale 1 is ``max_extraction_routing``), so a best response on a
memoised argmax computes one scale and one product per included
transaction, and prices no bundle.  A best response always settles one
prepared round, the rivals' plus the response.  It built the response, so
it hands the round the response's terms with their memo already settled at
the reports: the report objects, every agent's reported utility and their
sum, the reported surplus, as ints over a denominator read off the plan's
(the lcm of its reported values and costs) and the margin's, so the memo
costs no ``Fraction``.  Best-response dynamics check and settle the starting profile
once; then each broker turn checks only its response and settles one
round, the next profile's, and that settlement prices no bundle.  The
profile never changes, so each turn's report checks get the market's
memoised report tuple back (``MarketInstance.validate_reports``), and
every term already settled at it is settled in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import is_
from typing import Sequence

from .core import Allocation, MarketInstance, ReportProfile, Routing, _type_fault
from .errors import InfeasibleTarget, InstanceTooLarge, MalformedInput
from .mechanism import (
    MechanismOutcome,
    PreparedRound,
    Proposal,
    _Settlement,
    _Terms,
    broker_utility,
    prepare_round,
    run,
)
from .rationals import ONE, ZERO
from .validity import DEFAULT_ENUM_CAP, ValiditySpec, _check_cap, _key, enumerate_valid

DEFAULT_QUANTUM = Fraction(1, 1024)
# broker turns one dynamics run may take, whatever ``max_rounds`` allows
MAX_DYNAMICS_TURNS = 1 << 16


def _check_quantum(quantum: object) -> None:
    """Refuse a quantum that is not a positive ``int`` or ``Fraction`` (a ``bool`` is neither)."""
    if (fault := _type_fault(quantum)) is not None:
        raise MalformedInput("quantum" + fault)
    if quantum <= 0:
        raise MalformedInput(f"quantum must be positive, got {quantum}")


class _RebatePlan:
    """What every rebate routing on one allocation shares at one report
    profile: each node's payment, its reported cost on its bundle, and the
    included transactions' reported values.  Only the scale of the
    transaction payments depends on the target margin.

    The totals are ints over ``den``, the lcm of the costs' and values'
    denominators: ``value_nums`` (each included transaction's value),
    ``total_value_num`` and ``welfare_num``, from which ``_split`` reads the
    scale and ``settled`` writes a response's memo."""

    __slots__ = (
        "tx_ids", "allocation", "node_payments", "values",
        "den", "value_nums", "total_value_num", "welfare_num",
    )

    def __init__(self, instance: MarketInstance, allocation: Allocation, reports: ReportProfile):
        # the ids, not the instance: a plan memoised on it must not hold it
        self.tx_ids, self.allocation = instance.tx_ids, allocation
        self.node_payments = costs = {
            n: reports.node_reports[n].cost(allocation.inverse(n), instance.resources)
            for n in instance.node_ids
        }
        self.values = values = {
            tx: reports.tx_reports[tx] for tx in instance.tx_ids if tx in allocation.transactions
        }
        den = self.den = lcm(*(x.denominator for x in (*costs.values(), *values.values())))
        self.value_nums = {t: v.numerator * (den // v.denominator) for t, v in values.items()}
        self.total_value_num = sum(self.value_nums.values())
        total_cost_num = sum(c.numerator * (den // c.denominator) for c in costs.values())
        self.welfare_num = self.total_value_num - total_cost_num

    def scaled(self, scale: Fraction) -> Routing:
        """Nodes paid their reported costs, included transactions ``scale``
        times their reported values, in fresh dicts."""
        tx_payments = dict.fromkeys(self.tx_ids, ZERO)
        for tx, value in self.values.items():
            tx_payments[tx] = scale * value
        return Routing(self.allocation, tx_payments, dict(self.node_payments))

    def _split(self, target_margin: Fraction) -> tuple[int, Fraction]:
        """``(kept, scale)`` at ``target_margin``: the integer split of the
        welfare and the scale whose margin it is.

        With ``m = M / md`` and the plan's ints ``P = den``, ``TV`` and
        ``W``, an included transaction of value ``V / P`` keeps ``V * kept``
        and pays ``V * paid`` over ``P * md * TV``, where ``kept = W * md - M
        * P`` and ``paid = (TV - W) * md + M * P``; the scale is ``paid /
        (md * TV)``, 0 when ``TV`` is."""
        if target_margin < 0:
            raise InfeasibleTarget(f"target margin must be non-negative, got {target_margin}")
        m, md = target_margin.numerator, target_margin.denominator
        p, tv, w = self.den, self.total_value_num, self.welfare_num
        kept = w * md - m * p
        if kept < 0:
            raise InfeasibleTarget(
                f"target margin {target_margin} exceeds reported welfare {Fraction(w, p)}"
            )
        if tv == 0:
            # welfare <= 0 here, so the target must be exactly the (zero) welfare
            return kept, ZERO
        return kept, Fraction((tv - w) * md + m * p, md * tv)

    def settled(self, broker: str, position: int, target_margin: Fraction, at: tuple) -> _Terms:
        """The terms of ``broker``'s rebate proposal at ``target_margin``,
        with their memo settled at the plan's reports, whose objects are
        ``at``: the memo in integers over ``P * md * TV`` (see ``_split``),
        no ``Fraction`` made for it.  An included transaction keeps ``V *
        kept``, the surplus is ``TV * kept``, and every other agent keeps 0
        (a node is paid its cost)."""
        kept, scale = self._split(target_margin)
        tv, value_nums = self.total_value_num, self.value_nums
        utilities = [value_nums.get(tx, 0) * kept for tx in self.tx_ids]
        utilities += [0] * len(self.node_payments)
        return _Terms(
            Proposal(broker, self.scaled(scale)), target_margin, position,
            at=at, den=self.den * target_margin.denominator * tv,
            utilities=tuple(utilities), surplus=tv * kept,
        )


def max_extraction_routing(
    instance: MarketInstance, allocation: Allocation, reports: ReportProfile
) -> Routing:
    """Routing on ``allocation`` whose margin equals its reported welfare.

    Every included transaction pays its full reported value and every
    working node is paid exactly its reported bundle cost, so reported
    surplus is zero.  The reports and the allocation's ids are checked first.
    """
    instance.validate_reports(reports)
    instance.check_allocation_ids(allocation)
    return _RebatePlan(instance, allocation, reports).scaled(ONE)


@dataclass(frozen=True)
class WelfareMax:
    allocation: Allocation
    welfare: Fraction
    unique: bool


def welfare_max_allocation(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    reports: ReportProfile,
    cap: int = DEFAULT_ENUM_CAP,
) -> WelfareMax:
    """Argmax of reported welfare over the valid set, canonical tie-break."""
    allocations = enumerate_valid(instance, spec, cap)
    return _welfare_max(instance, spec, reports, instance.validate_reports(reports), allocations)[0]


def _welfare_max(
    instance: MarketInstance, spec: ValiditySpec | None, reports: ReportProfile,
    objects: tuple, allocations: Sequence[Allocation],
) -> tuple[WelfareMax, _RebatePlan]:
    """``_welfare_argmax`` over ``allocations``, the valid set of ``(instance,
    spec)``, and the argmax's rebate plan at ``reports``, whose report
    objects, checked by ``validate_reports``, are ``objects``.  Both are memoised
    on the market, freed with it, as one tuple replaced whole: ``(key,
    objects, argmax, plan)``, keyed by the spec (by identity, ``None`` read
    as the instance's own, as in ``enumerate_valid``; every cap that lets it
    finish gives the same set) and the report objects (by identity, as each
    term's memo is, so a report replaced or rebuilt equal since is scored
    again)."""
    key, memo = _key(spec, instance), instance._argmax
    if memo is not None and memo[0] is key and (
        memo[1] is objects or all(map(is_, memo[1], objects))
    ):
        return memo[2], memo[3]
    best = _welfare_argmax(instance, allocations, reports)
    plan = _RebatePlan(instance, best.allocation, reports)
    object.__setattr__(instance, "_argmax", (key, objects, best, plan))
    return best, plan


def _welfare_argmax(
    instance: MarketInstance, allocations: Sequence[Allocation], reports: ReportProfile
) -> WelfareMax:
    """The first of ``allocations`` with maximal reported welfare, scored as
    ints over one denominator, the lcm of the reported values' and the
    costs' denominators.

    Each allocation's bundles are read from its pairs, as ``mdfm._prepare``
    reads them, and each distinct ``(node, bundle)`` is priced once, where
    ``core.welfare`` would first price it (allocations in order, nodes in id
    order), so a raising cost raises there too."""
    node_reports, resources = reports.node_reports, instance.resources
    costs: dict[tuple[str, tuple[str, ...]], Fraction] = {}
    keyed = []
    for allocation in allocations:
        bundles: dict[str, list[str]] = {}
        for tx, nodes in allocation.pairs:
            for node in nodes:
                bundles.setdefault(node, []).append(tx)
        keys = [(node, tuple(bundles[node])) for node in sorted(bundles)]
        for key in keys:
            if key not in costs:
                costs[key] = node_reports[key[0]].cost(frozenset(key[1]), resources)
        keyed.append(keys)
    values = reports.tx_reports
    den = lcm(*(v.denominator for v in values.values()), *(c.denominator for c in costs.values()))
    value_nums = {t: v.numerator * (den // v.denominator) for t, v in values.items()}
    cost_nums = {k: c.numerator * (den // c.denominator) for k, c in costs.items()}
    best: Allocation | None = None
    best_num = ties = 0
    for allocation, keys in zip(allocations, keyed):
        w = sum([value_nums[tx] for tx, _ in allocation.pairs]) - sum([cost_nums[k] for k in keys])
        if best is None or w > best_num:
            best, best_num, ties = allocation, w, 1
        elif w == best_num:
            ties += 1
    assert best is not None  # the empty allocation is always enumerated
    return WelfareMax(best, Fraction(best_num, den), ties == 1)


def scaled_rebate_routing(
    instance: MarketInstance,
    allocation: Allocation,
    reports: ReportProfile,
    target_margin: Fraction,
) -> Routing:
    """Routing on ``allocation`` with the exact margin requested.

    Nodes are paid their reported costs; transaction payments are the
    reported values scaled by a common factor in [0, 1], so every agent's
    reported utility stays non-negative.  Feasible whenever
    ``0 <= target_margin <= welfare(allocation)``; the inputs are checked first.
    """
    instance.validate_reports(reports)
    instance.check_allocation_ids(allocation)
    if (fault := _type_fault(target_margin)) is not None:
        raise MalformedInput("target margin" + fault)
    plan = _RebatePlan(instance, allocation, reports)
    return plan.scaled(plan._split(target_margin)[1])


@dataclass(frozen=True)
class BrokerBestResponse:
    """A best response and the round it settles against the fixed rivals:
    ``outcome`` settles ``prepared``, the rivals plus the response, whose
    terms arrive in ``prepared`` already settled at the reports."""

    proposal: Proposal
    utility: Fraction
    wins: bool
    allocations_examined: int
    outcome: MechanismOutcome
    prepared: PreparedRound


def _max_winning_margin(
    w: Fraction,
    rival_best: Fraction | None,
    wins_ties: bool,
    quantum: Fraction,
    lattice: bool,
) -> Fraction | None:
    """Largest feasible margin on allocation welfare ``w`` that still wins.

    Returns None when no winning margin in [0, w] exists.  ``rival_best`` is
    the rivals' leader's surplus (None when no rival is budget-balanced);
    ``wins_ties`` says whether the broker precedes the leader.
    """
    if w < 0:
        return None
    # the lattice floors run on numerators and denominators
    qn, qd = quantum.numerator, quantum.denominator
    if rival_best is None:
        m = w
    elif wins_ties:
        m = min(w, w - rival_best)
    else:
        gap = w - rival_best
        if gap <= 0:
            return None
        # largest lattice point strictly below the gap, capped at w
        k = -(-(gap.numerator * qd) // (gap.denominator * qn)) - 1
        m = min(Fraction(k * qn, qd), w)
    if lattice and m > 0:
        m = Fraction(m.numerator * qd // (m.denominator * qn) * qn, qd)
    if m < 0:
        return None
    return m


def broker_best_response(
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
    allocation's reported welfare minus the surplus it must reach: the
    surplus of the rivals' ``PreparedRound.leader`` when the broker wins
    ties (it precedes the leader in the fixed order), or the least
    lattice-representable surplus strictly above it otherwise.  When no
    margin is strictly positive the
    empty routing is the response (utility zero, never negative).

    The response is the lexicographic maximum of (margin, welfare) over the
    valid set, first in canonical order.  ``_max_winning_margin`` is
    monotone non-decreasing in the welfare, with None below every margin:
    each branch (no rival, wins ties, strict lattice) and the lattice floor
    are, and so is the cut to None below welfare 0 or margin 0.  So no
    allocation beats the welfare maximum's margin, and among those that
    match it the maximal welfare comes first.  One welfare pass therefore
    finds the response: the first allocation of maximal reported welfare,
    with that welfare's margin; if this margin is None or not positive, no
    allocation's is.  ``outcome`` is the round settled on the rivals plus
    the response, in broker order.

    Reports are checked before the rivals, as ``run`` checks them.
    ``rivals`` may be a ``PreparedRound``: when it was prepared for this
    instance, spec and broker order, its cached terms are used and the
    leader is read through their memos; any other rivals are prepared
    afresh, in broker order.  Only the leader's surplus becomes a
    ``Fraction``.  Only the response is checked.  Its routing is the
    memoised argmax's rebate plan read at the winning margin.  Its memo is
    settled here, not by ``run``, in integers (``_RebatePlan.settled``):
    every agent's reported utility is 0 but an included transaction's, its
    value minus its payment, as nodes are paid their reported costs, and
    their sum, the reported surplus, is the welfare maximum's minus the
    margin asked of the plan (the empty routing is settled as any term is).
    """
    _check_quantum(quantum)
    _check_cap(cap)
    if broker not in broker_order:
        raise MalformedInput(f"broker {broker!r} missing from broker order")
    for rival in rivals:
        if rival.broker == broker:
            raise MalformedInput("rival proposals must come from other brokers")
        if rival.broker not in broker_order:
            raise MalformedInput(f"rival broker {rival.broker!r} missing from broker order")

    allocations = enumerate_valid(instance, spec, cap)
    settlement = _Settlement(instance, reports)
    best, plan = _welfare_max(instance, spec, reports, settlement.reports, allocations)
    position = {b: i for i, b in enumerate(broker_order)}
    if not (isinstance(rivals, PreparedRound) and rivals.prepared_for(instance, spec, broker_order)):
        rivals = prepare_round(
            instance, spec, sorted(rivals, key=lambda p: position[p.broker]), broker_order
        )
    # the broker precedes every rival at the top surplus iff it precedes the leader
    leader = rivals.leader(settlement)
    if leader is None:
        rival_best, wins_ties = None, True
    else:
        rival_best = leader.surplus_fraction()
        wins_ties = position[broker] < leader.position

    best_margin = _max_winning_margin(
        best.welfare, rival_best, wins_ties, quantum, lattice_margins
    )
    if best_margin is None or best_margin <= 0:
        settled = _Terms(Proposal(broker, instance.empty_routing()), ZERO, position[broker])
        settlement.settle(settled)
    else:
        settled = plan.settled(broker, position[broker], best_margin, settlement.reports)
    prepared = rivals.with_proposal(settled)
    outcome = run(instance, spec, reports, prepared, broker_order)
    return BrokerBestResponse(
        settled.proposal,
        broker_utility(outcome, broker),
        outcome.winner == broker,
        len(allocations),
        outcome,
        prepared,
    )


@dataclass(frozen=True)
class DynamicsStep:
    broker: str
    proposal: Proposal
    utility: Fraction


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple[DynamicsStep, ...]
    terminal: tuple[Proposal, ...]
    converged: bool
    rounds: int


def best_response_dynamics(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    reports: ReportProfile,
    initial: Sequence[Proposal],
    broker_order: Sequence[str],
    quantum: Fraction,
    max_rounds: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> DynamicsTrace:
    """Round-robin best responses with margins restricted to the quantum lattice.

    Each recorded step strictly improves the moving broker's utility; the
    dynamics stop after a full round with no improvement (converged) or when
    the round budget runs out.  The initial profile is checked and its round
    settled once.  After that the current round is the last adopted
    response's, prepared and settled, and each broker turn checks only its
    response and settles one round.  A run that needs more than
    ``MAX_DYNAMICS_TURNS`` broker turns raises ``InstanceTooLarge``.
    """
    _check_quantum(quantum)
    _check_cap(max_rounds, "max_rounds")
    _check_cap(cap)
    brokers = [p.broker for p in initial]
    if len(brokers) < 2:
        raise MalformedInput("best-response dynamics need at least two brokers")
    if sorted(brokers) != sorted(broker_order):
        raise MalformedInput("initial proposals must cover the broker order exactly")

    # reports are refused before proposals, as in run
    instance.validate_reports(reports)
    by_broker = {p.broker: p for p in initial}
    prepared = prepare_round(instance, spec, [by_broker[b] for b in broker_order], broker_order)
    current = run(instance, spec, reports, prepared, broker_order)
    steps: list[DynamicsStep] = []
    converged = False
    rounds = turns = 0
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for broker in broker_order:
            if turns == MAX_DYNAMICS_TURNS:
                raise InstanceTooLarge(
                    f"best_response_dynamics: {turns} broker turns without converging, "
                    f"cap is {MAX_DYNAMICS_TURNS}"
                )
            turns += 1
            response = broker_best_response(
                broker,
                instance,
                spec,
                reports,
                prepared.without(broker),
                broker_order,
                quantum,
                lattice_margins=True,
                cap=cap,
            )
            if response.utility > broker_utility(current, broker):
                # the response's round is the new profile's
                prepared, current = response.prepared, response.outcome
                steps.append(DynamicsStep(broker, response.proposal, response.utility))
                improved = True
        if not improved:
            converged = True
            break
    return DynamicsTrace(tuple(steps), tuple(prepared), converged, rounds)
