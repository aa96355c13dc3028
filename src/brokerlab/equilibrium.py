"""Exact equilibrium verification via breakpoint deviation search.

The auction outcome, viewed as a function of one agent's report, is
piecewise constant.  A transaction's report is one coordinate, and a node's
is read only at the bundles the proposals assign it, one coordinate each.
A coordinate enters the surplus of each proposal that reads it affinely
(slope one for a transaction, minus one for a node) and an IR test flips
at a quoted payment, so the outcome changes only at finitely many
breakpoints.  Both agent kinds share one rule for them, and checking every
breakpoint plus one point per interval between them is a complete search
over the agent's infinite action space.  A node candidate is its current
report with the costs of its assigned bundles replaced, written out as a
``SubsetTable`` only when it becomes a witness; the product of its
per-bundle candidates is its one budget (``MAX_NODE_CANDIDATES``).
``check_pne`` settles every agent's candidates in one loop, which tells a
transaction from a node once per agent.

Broker deviations are checked through the exact best-response search, with
margins on the configured lattice where a rival must be beaten strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Mapping, Sequence

from .core import (
    MAX_SUBSET_TABLE_TXS,
    CostFunction,
    MarketInstance,
    ReportProfile,
    SubsetTable,
    Zero,
    agent_utility,
)
from .errors import InstanceTooLarge, MalformedInput
from .mechanism import Proposal, _Settlement, broker_utility, prepare_round, run, surpluses
from .rationals import ZERO
from .strategy import (
    DEFAULT_QUANTUM,
    broker_best_response,
    scaled_rebate_routing,
    welfare_max_allocation,
)
from .validity import DEFAULT_ENUM_CAP, ValiditySpec

DEFAULT_OTHERS_CAP = 2048
MAX_NODE_CANDIDATES = 4096


def _quoted_payments(rules: Iterable[Mapping[str, Fraction]], kind: str, agent: str) -> list[Fraction]:
    """``agent``'s payment in each payment rule, refusing a rule without one."""
    try:
        return [rule[agent] for rule in rules]
    except KeyError:
        raise MalformedInput(f"proposal payment rule is missing {kind} {agent!r}") from None


def _coordinate_candidates(
    current: Fraction, sign: int, reads: list[bool], bases: list[Fraction], payments: list[Fraction]
) -> list[Fraction]:
    """One report coordinate's candidates, in increasing order.

    The coordinate is now at ``current``.  At ``x``, a proposal marked in
    ``reads`` has surplus ``base + sign * (x - current)`` and any other keeps
    its ``base``.  The breakpoints are zero, the quoted ``payments`` and each
    non-negative point where a reading proposal's surplus meets another's,
    ``current + sign * (other - base)``.  The candidates are the breakpoints,
    the midpoints between neighbours and one point past the largest.
    """
    others = [sign * other for read, other in zip(reads, bases) if not read]
    points = {ZERO, *payments}
    for read, base in zip(reads, bases):
        if read:
            at = current - sign * base
            points.update(at + other for other in others)
    points = sorted(p for p in points if p >= 0)
    out = []
    for a, b in zip(points, points[1:]):
        out += (a, Fraction(a + b, 2))  # exact between two int payments too
    return out + [points[-1], points[-1] + 1]


def tx_deviation_candidates(
    instance: MarketInstance,
    tx: str,
    proposals: Sequence[Proposal],
    reports: ReportProfile,
) -> list[Fraction]:
    """A finite report set meeting every outcome the transaction can reach.

    The transaction's report is one coordinate, read with slope one by the
    proposals that allocate it; every proposal's quoted payment for the
    transaction is a breakpoint.
    """
    if tx not in reports.tx_reports:
        raise MalformedInput(f"unknown transaction {tx!r}")
    bases = surpluses(instance, proposals, reports)
    payments = _quoted_payments((p.routing.tx_payments for p in proposals), "transaction", tx)
    reads = [tx in p.routing.allocation.transactions for p in proposals]
    return _coordinate_candidates(reports.tx_reports[tx], 1, reads, bases, payments)


class _BundleCosts(CostFunction):
    """A node's ``report`` with the costs of some bundles replaced."""

    __slots__ = ("report", "costs")

    def __init__(self, report: CostFunction, costs: dict[frozenset[str], Fraction]):
        self.report = report
        self.costs = costs

    def cost(self, bundle, resources=None):
        key = frozenset(bundle)
        value = self.costs.get(key)
        return self.report.cost(key, resources) if value is None else value


def node_deviation_candidates(
    instance: MarketInstance,
    node: str,
    proposals: Sequence[Proposal],
    reports: ReportProfile,
) -> list[CostFunction]:
    """Candidate cost reports covering every outcome the node can force.

    The mechanism reads a node's report only at the bundles the proposals
    assign it, so a candidate is the current report with the costs of those
    bundles replaced.  Each bundle is one coordinate, read with slope minus
    one by the proposals that assign it; only their quoted payments to the
    node are its breakpoints.
    """
    if node not in reports.node_reports:
        raise MalformedInput(f"unknown node {node!r}")
    current = reports.node_reports[node]
    held = [p.routing.allocation.inverse(node) for p in proposals]
    assigned = list(dict.fromkeys(bundle for bundle in held if bundle))
    if not assigned:
        return [Zero()]
    if len(instance.tx_ids) > MAX_SUBSET_TABLE_TXS:
        raise InstanceTooLarge(
            f"node_deviation_candidates: cost tables support at most "
            f"{MAX_SUBSET_TABLE_TXS} transactions, got {len(instance.tx_ids)}"
        )

    bases = surpluses(instance, proposals, reports)
    scalar_candidates: list[list[Fraction]] = []
    for bundle in assigned:
        reads = [bundle_here == bundle for bundle_here in held]
        current_cost = current.cost(bundle, instance.resources)
        payments = _quoted_payments(
            (p.routing.node_payments for p, read in zip(proposals, reads) if read), "node", node
        )
        scalar_candidates.append(_coordinate_candidates(current_cost, -1, reads, bases, payments))

    count = prod(len(c) for c in scalar_candidates)
    if count > MAX_NODE_CANDIDATES:
        raise InstanceTooLarge(
            f"node_deviation_candidates: node {node!r} has {count} candidate cost "
            f"tables, cap is {MAX_NODE_CANDIDATES}"
        )
    return [
        _BundleCosts(current, dict(zip(assigned, combo))) for combo in product(*scalar_candidates)
    ]


@dataclass(frozen=True)
class DeviationWitness:
    """A certified profitable unilateral deviation."""

    agent: str
    kind: str  # "tx_report" | "node_report" | "broker_proposal"
    deviation: object
    utility_before: Fraction
    utility_after: Fraction


@dataclass(frozen=True)
class EquilibriumReport:
    is_pne: bool
    witnesses: tuple[DeviationWitness, ...]
    checked_agent_deviations: int
    checked_broker_allocations: int


def _subset_table(instance: MarketInstance, costs: CostFunction) -> SubsetTable:
    """``costs`` written out over every subset of the instance's transactions."""
    txs = sorted(instance.tx_ids)
    subsets = (
        frozenset(t for i, t in enumerate(txs) if mask >> i & 1) for mask in range(1 << len(txs))
    )
    return SubsetTable(frozenset(txs), {s: costs.cost(s, instance.resources) for s in subsets})


def check_pne(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    true_types: ReportProfile,
    reports: ReportProfile,
    proposals: Sequence[Proposal],
    broker_order: Sequence[str],
    quantum: Fraction = DEFAULT_QUANTUM,
    cap: int = DEFAULT_ENUM_CAP,
) -> EquilibriumReport:
    """Complete unilateral-deviation search at the given action profile.

    Agents are checked exactly through the breakpoint candidates; brokers
    through the exact best response against the fixed others, where a
    witness must improve utility on the margin lattice.  The proposals are
    prepared once and every deviation settles against them through ``run``.
    A quantum that is not positive is refused first, even if no broker proposes.
    """
    if quantum <= 0:
        raise MalformedInput(f"quantum must be positive, got {quantum}")
    instance.validate_reports(true_types)
    # reports are refused before proposals, as in run
    instance.validate_reports(reports)
    proposals = prepare_round(instance, spec, proposals, broker_order)
    base = run(instance, spec, reports, proposals, broker_order)
    witnesses: list[DeviationWitness] = []
    agent_checks = 0
    for agent in instance.agent_ids:
        before = agent_utility(instance, agent, base.routing, true_types)
        # the agent's kind decides its candidates, its swap and its witnesses;
        # a transaction's current report settles the base round, so it is skipped
        if agent in reports.tx_reports:
            kind, swap, as_table = "tx_report", reports.replace_tx, False
            current = reports.tx_reports[agent]
            candidates = tx_deviation_candidates(instance, agent, proposals, reports)
            candidates = [c for c in candidates if c != current]
        else:
            kind, swap, as_table = "node_report", reports.replace_node, True
            candidates = node_deviation_candidates(instance, agent, proposals, reports)
        agent_checks += len(candidates)
        for candidate in candidates:
            outcome = run(instance, spec, swap(agent, candidate), proposals, broker_order)
            after = agent_utility(instance, agent, outcome.routing, true_types)
            if after > before:
                deviation = _subset_table(instance, candidate) if as_table else candidate
                witnesses.append(DeviationWitness(agent, kind, deviation, before, after))

    broker_allocations = 0
    by_broker = {p.broker: p for p in proposals}
    for broker in broker_order:
        if broker not in by_broker:
            continue
        before = broker_utility(base, broker)
        rivals = proposals.without(broker)
        response = broker_best_response(
            broker, instance, spec, reports, rivals, broker_order, quantum, cap=cap
        )
        broker_allocations += response.allocations_examined
        if response.utility > before:
            witnesses.append(
                DeviationWitness(
                    broker, "broker_proposal", response.proposal, before, response.utility
                )
            )

    return EquilibriumReport(
        is_pne=not witnesses,
        witnesses=tuple(witnesses),
        checked_agent_deviations=agent_checks,
        checked_broker_allocations=broker_allocations,
    )


@dataclass(frozen=True)
class TruthfulnessReport:
    """Result of checking that truthful reporting dominates for every agent,
    quantified over every report profile of the other agents with brokers
    fixed.  The answer is always complete: with one shared allocation it is
    decided without a search (see ``check_dsic_barring_b``), so ``witnesses``
    is always empty and stays a field only so that reports keep their
    ``witnesses`` entry.  ``profiles_checked`` counts the agents whose
    rivals can all pass the IR gate, one rival profile standing for each."""

    holds: bool
    witnesses: tuple[DeviationWitness, ...]
    profiles_checked: int
    pne: EquilibriumReport
    exhaustive = True
    coverage = "exhaustive"


def check_dsic_barring_b(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    true_types: ReportProfile,
    sigma: Sequence[Proposal],
    broker_order: Sequence[str],
    others_cap: int = DEFAULT_OTHERS_CAP,
    seed: int | None = None,
    quantum: Fraction = DEFAULT_QUANTUM,
    cap: int = DEFAULT_ENUM_CAP,
) -> TruthfulnessReport:
    """Check both requirements for truthfulness with brokers pinned to sigma.

    First, with the broker profile fixed, truthful reporting must be a best
    response for every agent against *every* report profile of the other
    agents.  Second, truthful reports plus sigma must form an equilibrium,
    delegated to the exact checker.

    Every proposal in sigma must share one allocation, so each one's reported
    surplus is that allocation's reported welfare minus its margin, and for
    any reports ``run`` picks the same winner: the budget-balanced proposal
    of least margin, ties to the earlier broker position, which is sigma's
    ``PreparedRound.leader`` read at the true types.  Neither the winner nor
    any payment depends on the reports, so the first requirement holds by
    construction (the taxation principle): the IR gate tests each agent
    against its own report, so agent i's true utility is ``u_i * [i passes]
    * [every other agent passes]``, ``u_i`` read off the winner's routing.
    Reporting truthfully, i passes exactly when ``u_i >= 0`` and so earns
    ``max(u_i, 0)`` whenever the others pass, the most any report earns.
    ``witnesses`` is therefore always empty, and the answer is the
    equilibrium check's.

    ``profiles_checked`` is the number of agents whose rivals can all pass
    the gate at some report.  A transaction left out of the winner's
    allocation and still charged fails it at every report; every other agent
    passes at some report (an included transaction at its payment, a node at
    cost 0 for its bundle).  So it is every agent when none is blocked, the
    blocked one when exactly one is, and 0 when two or more are or when no
    proposal is budget-balanced.  ``others_cap`` (at least 1) and ``seed``
    are accepted and change no answer.
    """
    if others_cap < 1:
        raise MalformedInput(f"others_cap must be at least 1, got {others_cap}")
    if not sigma:
        raise MalformedInput("sigma must contain at least one proposal")
    allocations = {p.routing.allocation for p in sigma}
    if len(allocations) != 1:
        raise MalformedInput("all proposals in sigma must share one allocation")

    instance.validate_reports(true_types)
    sigma = prepare_round(instance, spec, sigma, broker_order)
    pne = check_pne(instance, spec, true_types, true_types, sigma, broker_order, quantum, cap)

    profiles_checked = 0
    leader = sigma.leader(_Settlement(instance, true_types))
    if leader is not None:
        routing = leader.proposal.routing
        included = routing.allocation.transactions
        blocked = sum(1 for tx, paid in routing.tx_payments.items() if paid and tx not in included)
        profiles_checked = int(blocked == 1) if blocked else len(instance.agent_ids)

    return TruthfulnessReport(
        holds=pne.is_pne,
        witnesses=(),
        profiles_checked=profiles_checked,
        pne=pne,
    )


def construct_consensus_equilibrium(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    true_types: ReportProfile,
    broker_ids: Sequence[str],
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Proposal]:
    """The canonical equilibrium profile: every broker proposes the same
    zero-margin routing on the welfare-maximizing allocation.

    With at least two brokers this profile is a pure equilibrium and makes
    truthful reporting dominant for transactions and nodes.
    """
    if len(set(broker_ids)) != len(broker_ids):
        raise MalformedInput("each broker may submit at most one proposal")
    if len(broker_ids) < 2:
        raise MalformedInput("the consensus profile needs at least two brokers")
    best = welfare_max_allocation(instance, spec, true_types, cap)
    routing = scaled_rebate_routing(instance, best.allocation, true_types, ZERO)
    return [Proposal(b, routing) for b in broker_ids]
