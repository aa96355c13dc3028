"""Constructive broker algorithms.

A broker who knows every reported type can build the margin-maximizing
routing on any allocation (charge each included transaction its full value,
pay each node its exact cost) and can rebate any amount of that margin back
to transactions by scaling their payments down proportionally.  Best
responses range over all valid allocations; where a rival's surplus must be
beaten strictly, margins live on a configurable lattice ``{k * quantum}``
because the continuous problem has no maximizer on an open set.  The best
winning margin never falls as welfare rises, so one welfare pass over the
valid set finds the best response (see ``broker_best_response``), and
its argmax is remembered for the last market and reports, together with its
rebate plan: each node's reported cost on its bundle, the included
transactions' reported values, their totals and the welfare.  A rebate
routing is a plan read at one scale of the values (scale 1 is
``max_extraction_routing``), so a best response on a remembered argmax
computes one scale and one product per included transaction, and prices
no bundle.  A best response always settles one prepared round, the
rivals' plus the response.  It built the response, so it hands the round
the response's terms already settled at the reports: its margin, reported
surplus and reported utilities.
Best-response dynamics check and settle the starting profile once; then
each broker turn checks only its response and settles one round, the next
profile's, without scoring the response.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Allocation, MarketInstance, ReportProfile, Routing, welfare
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
from .validity import DEFAULT_ENUM_CAP, ValiditySpec, enumerate_valid

DEFAULT_QUANTUM = Fraction(1, 1024)
# broker turns one dynamics run may take, whatever ``max_rounds`` allows
MAX_DYNAMICS_TURNS = 1 << 16


class _RebatePlan:
    """What every rebate routing on one allocation shares at one report
    profile: each node's payment, its reported cost on its bundle, and their
    total; the included transactions' reported values and their total; and
    the allocation's reported welfare.  Only the scale of the transaction
    payments depends on the target margin."""

    __slots__ = (
        "instance", "allocation", "node_payments", "total_cost", "values", "total_value", "welfare"
    )

    def __init__(self, instance: MarketInstance, allocation: Allocation, reports: ReportProfile):
        self.instance, self.allocation = instance, allocation
        self.node_payments = {
            n: reports.node_reports[n].cost(allocation.inverse(n), instance.resources)
            for n in instance.node_ids
        }
        self.total_cost = sum(self.node_payments.values(), ZERO)
        self.values = {
            tx: reports.tx_reports[tx] for tx in instance.tx_ids if tx in allocation.transactions
        }
        self.total_value = sum(self.values.values(), ZERO)
        self.welfare = self.total_value - self.total_cost

    def scaled(self, scale: Fraction) -> Routing:
        """Nodes paid their reported costs, included transactions ``scale``
        times their reported values, in fresh dicts."""
        tx_payments = dict.fromkeys(self.instance.tx_ids, ZERO)
        for tx, value in self.values.items():
            tx_payments[tx] = scale * value
        return Routing(self.allocation, tx_payments, dict(self.node_payments))

    def routing(self, target_margin: Fraction) -> Routing:
        """``scaled`` at the scale whose margin is ``target_margin``."""
        if target_margin < 0:
            raise InfeasibleTarget(f"target margin must be non-negative, got {target_margin}")
        if target_margin > self.welfare:
            raise InfeasibleTarget(
                f"target margin {target_margin} exceeds reported welfare {self.welfare}"
            )
        if self.total_value == 0:
            # welfare <= 0 here, so the target must be exactly the (zero) welfare
            return self.scaled(ZERO)
        return self.scaled((self.total_cost + target_margin) / self.total_value)


def max_extraction_routing(
    instance: MarketInstance, allocation: Allocation, reports: ReportProfile
) -> Routing:
    """Routing on ``allocation`` whose margin equals its reported welfare.

    Every included transaction pays its full reported value and every
    working node is paid exactly its reported bundle cost, so reported
    surplus is zero.
    """
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
    return _welfare_max(instance, spec, reports, enumerate_valid(instance, spec, cap))[0]


# (instance, spec, tx reports, node reports, argmax, the argmax's rebate plan)
# of the last welfare pass.  Strong references, as in ``validity``; one
# tuple, replaced whole.
_last_argmax: (
    tuple[MarketInstance, ValiditySpec | None, dict, dict, WelfareMax, _RebatePlan] | None
) = None


def _welfare_max(
    instance: MarketInstance, spec: ValiditySpec | None, reports: ReportProfile,
    allocations: Sequence[Allocation],
) -> tuple[WelfareMax, _RebatePlan]:
    """``_welfare_argmax`` over ``allocations``, the valid set of ``(instance,
    spec)``, and the argmax's rebate plan at ``reports``, remembered for the
    last instance and spec (by identity, as in ``enumerate_valid``; every
    cap that lets it finish gives the same set) and reports (by value,
    through copies of both mappings, so a profile mutated in place since is
    scored again).  Reports are checked before they are first scored, so a
    malformed profile raises ``MalformedInput``."""
    global _last_argmax
    tx_reports, node_reports = dict(reports.tx_reports), dict(reports.node_reports)
    last = _last_argmax
    if last and last[0] is instance and last[1] is spec and last[2:4] == (tx_reports, node_reports):
        return last[4], last[5]
    instance.validate_reports(reports)
    best = _welfare_argmax(instance, allocations, reports)
    plan = _RebatePlan(instance, best.allocation, reports)
    _last_argmax = (instance, spec, tx_reports, node_reports, best, plan)
    return best, plan


def _welfare_argmax(
    instance: MarketInstance, allocations: Sequence[Allocation], reports: ReportProfile
) -> WelfareMax:
    """The first of ``allocations`` with maximal reported welfare."""
    best: Allocation | None = None
    best_welfare = ZERO
    ties = 0
    for allocation in allocations:
        w = welfare(instance, allocation, reports)
        if best is None or w > best_welfare:
            best, best_welfare, ties = allocation, w, 1
        elif w == best_welfare:
            ties += 1
    assert best is not None  # the empty allocation is always enumerated
    return WelfareMax(best, best_welfare, ties == 1)


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
    ``0 <= target_margin <= welfare(allocation)``.
    """
    return _RebatePlan(instance, allocation, reports).routing(target_margin)


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
    the highest budget-balanced rival surplus (None when there is none);
    ``wins_ties`` says whether the broker precedes every rival attaining it.
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
    allocation's reported welfare minus the surplus it must reach: the top
    rival surplus when the broker wins ties (it precedes every rival at that
    surplus in the fixed order), or the least lattice-representable surplus
    strictly above it otherwise.  When no margin is strictly positive the
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
    budget-balanced rivals' surpluses are read from its memos; any other
    rivals are prepared afresh, in broker order.  Only the response is
    checked.  Its routing is the remembered argmax's rebate plan read at the
    winning margin.  Its terms are settled here, not scored by ``run``: the
    margin is the one asked of the plan (0 for the empty routing), the
    reported surplus is the welfare maximum's minus that margin, and
    every agent's reported utility is 0 but an included transaction's, its
    value minus its payment, as nodes are paid their reported costs.
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

    allocations = enumerate_valid(instance, spec, cap)
    best, plan = _welfare_max(instance, spec, reports, allocations)
    position = {b: i for i, b in enumerate(broker_order)}
    if not (isinstance(rivals, PreparedRound) and rivals.prepared_for(instance, spec, broker_order)):
        rivals = prepare_round(
            instance, spec, sorted(rivals, key=lambda p: position[p.broker]), broker_order
        )
    settlement = _Settlement(instance, reports)
    rival_surpluses = [(settlement.surplus(t), t.position) for t in rivals.balanced]
    if rival_surpluses:
        rival_best = max(s for s, _ in rival_surpluses)
        wins_ties = all(position[broker] < p for s, p in rival_surpluses if s == rival_best)
    else:
        rival_best, wins_ties = None, True

    best_margin = _max_winning_margin(
        best.welfare, rival_best, wins_ties, quantum, lattice_margins
    )
    if best_margin is None or best_margin <= 0:
        best_margin, response_surplus, routing = ZERO, ZERO, instance.empty_routing()
        values = {}
    else:
        response_surplus = best.welfare - best_margin
        routing, values = plan.routing(best_margin), plan.values
    payments = routing.tx_payments
    utilities = [values[t] - payments[t] if t in values else ZERO for t in instance.tx_ids]
    utilities += [ZERO] * len(instance.node_ids)
    at = settlement.reports
    settled = _Terms(
        Proposal(broker, routing),
        best_margin,
        position[broker],
        scored_at=at,
        surplus=response_surplus,
        utilities_at=at,
        utilities=tuple(utilities),
    )
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
    if quantum <= 0:
        raise MalformedInput(f"quantum must be positive, got {quantum}")
    if max_rounds < 1:
        raise MalformedInput(f"max_rounds must be at least 1, got {max_rounds}")
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
