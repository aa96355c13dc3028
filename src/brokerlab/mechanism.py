"""One auction round: filter budget-balanced proposals, select by reported
surplus, apply the individual-rationality gate, settle payments.

Selection ties break by the fixed broker order supplied by the caller.  The
IR gate is strict: a proposal is rejected only if some agent's reported
utility is negative; zero utility is accepted.  When the gate fires, the
first violator in canonical agent order (transactions then nodes, sorted by
id) is named.

A round is prepared once and settled many times.  ``prepare_round`` makes
every check on the proposals and the broker order and caches, for each
budget-balanced proposal, the terms that do not depend on the reports: its
margin and its broker's position.  Settling one report profile then ranks
the proposals by reported surplus, their allocation's reported welfare
(``core.welfare``) minus the cached margin, which is ``core.surplus``.
Deviation search changes one report at a time, so it prepares once and
passes the prepared sequence to ``run``.  A best response changes one
proposal: ``PreparedRound.without`` drops a broker's proposal and
``with_proposal`` swaps one in, checking only the new proposal.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .core import MarketInstance, ReportProfile, Routing, agent_utility, margin, welfare
from .errors import InvalidProposal, MalformedInput
from .rationals import ZERO
from .validity import ValiditySpec, is_valid


class RejectionReason(str, Enum):
    NO_BUDGET_BALANCED_PROPOSAL = "no_budget_balanced_proposal"
    IR_VIOLATION = "ir_violation"


@dataclass(frozen=True)
class Proposal:
    """A broker's submitted routing."""

    broker: str
    routing: Routing


@dataclass(frozen=True)
class MechanismOutcome:
    """Result of one round: the settled routing, the winner, and diagnostics.

    ``agent_utilities`` holds every agent's utility under the output routing
    at the *reported* types; all entries are non-negative whenever a winner
    is present.
    """

    routing: Routing
    winner: str | None
    broker_payment: Fraction
    agent_utilities: Mapping[str, Fraction]
    rejection_reason: RejectionReason | None = None
    ir_violator: str | None = None


@dataclass(frozen=True)
class _Terms:
    """The report-independent terms of one budget-balanced proposal."""

    proposal: Proposal
    margin: Fraction
    position: int


@dataclass(frozen=True, eq=False)
class PreparedRound(Sequence):
    """The proposals of one round, validated for one instance, validity spec
    and broker order; built by ``prepare_round``.

    It reads as the immutable sequence of the proposals.  The proposals'
    routings must not be mutated after preparation.
    """

    proposals: tuple[Proposal, ...]
    instance: MarketInstance
    spec: ValiditySpec | None
    broker_order: tuple[str, ...]
    terms: tuple[_Terms, ...]

    def __getitem__(self, index):
        return self.proposals[index]

    def __len__(self) -> int:
        return len(self.proposals)

    def __iter__(self):
        return iter(self.proposals)

    def prepared_for(
        self, instance: MarketInstance, spec: ValiditySpec | None, broker_order: Sequence[str]
    ) -> bool:
        """Whether this round was prepared for this very instance and spec (by
        identity) and an equal broker order, so that it needs no check again."""
        same = self.instance is instance and self.spec is spec
        return same and self.broker_order == tuple(broker_order)

    def without(self, broker: str) -> "PreparedRound":
        """This round without ``broker``'s proposal; nothing is checked again."""
        proposals = tuple(p for p in self.proposals if p.broker != broker)
        terms = tuple(t for t in self.terms if t.proposal.broker != broker)
        return PreparedRound(proposals, self.instance, self.spec, self.broker_order, terms)

    def with_proposal(self, proposal: Proposal) -> "PreparedRound":
        """This round with ``proposal`` in place of its broker's proposal, or
        added when that broker has none, in broker order.

        Only ``proposal`` is checked, as ``prepare_round`` checks each one;
        the other proposals keep their cached terms.
        """
        order = self.broker_order
        if proposal.broker not in order:
            raise MalformedInput(
                "broker order must be a permutation covering the proposing brokers"
            )
        _check_proposal(self.instance, self.spec, proposal)
        kept = self.without(proposal.broker)
        proposals = sorted([*kept.proposals, proposal], key=lambda p: order.index(p.broker))
        terms = kept.terms
        proposal_margin = margin(proposal.routing)
        if proposal_margin >= 0:
            terms += (_Terms(proposal, proposal_margin, order.index(proposal.broker)),)
        return PreparedRound(tuple(proposals), self.instance, self.spec, order, terms)


def _check_proposal(
    instance: MarketInstance, spec: ValiditySpec | None, proposal: Proposal
) -> None:
    instance.validate_routing(proposal.routing)
    if not is_valid(proposal.routing.allocation, spec, instance):
        raise InvalidProposal(f"proposal from {proposal.broker!r} carries an invalid allocation")


def prepare_round(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    proposals: Sequence[Proposal],
    broker_order: Sequence[str],
) -> PreparedRound:
    """Validate the proposals once and cache their report-independent terms.

    Raises ``InvalidProposal`` for any proposal whose allocation lies outside
    the valid set and ``MalformedInput`` for a duplicate broker, a broker
    order that is not a permutation covering the proposing brokers, or a
    malformed routing.  A ``PreparedRound`` is returned unchanged only when
    it was prepared for this very instance and spec (by identity) and an
    equal broker order; any other sequence is validated from scratch.
    """
    order = tuple(broker_order)
    if isinstance(proposals, PreparedRound) and proposals.prepared_for(instance, spec, order):
        return proposals
    brokers = [p.broker for p in proposals]
    if len(set(brokers)) != len(brokers):
        raise MalformedInput("each broker may submit at most one proposal")
    if sorted(order) != sorted(set(order)) or set(brokers) - set(order):
        raise MalformedInput("broker order must be a permutation covering the proposing brokers")
    for proposal in proposals:
        _check_proposal(instance, spec, proposal)

    position = {b: i for i, b in enumerate(order)}
    terms = []
    for proposal in proposals:
        proposal_margin = margin(proposal.routing)
        if proposal_margin >= 0:
            terms.append(_Terms(proposal, proposal_margin, position[proposal.broker]))
    return PreparedRound(tuple(proposals), instance, spec, order, tuple(terms))


def _reported_utilities(
    instance: MarketInstance, routing: Routing, reports: ReportProfile
) -> dict[str, Fraction]:
    return {a: agent_utility(instance, a, routing, reports) for a in instance.agent_ids}


def _rejection(
    instance: MarketInstance, reason: RejectionReason, violator: str | None = None
) -> MechanismOutcome:
    # the empty routing pays nobody and, as every cost function charges 0 on
    # the empty bundle, costs nobody anything
    return MechanismOutcome(
        routing=instance.empty_routing(),
        winner=None,
        broker_payment=ZERO,
        agent_utilities=dict.fromkeys(instance.agent_ids, ZERO),
        rejection_reason=reason,
        ir_violator=violator,
    )


def run(
    instance: MarketInstance,
    spec: ValiditySpec | None,
    reports: ReportProfile,
    proposals: Sequence[Proposal],
    broker_order: Sequence[str],
) -> MechanismOutcome:
    """Execute one round.

    Raises ``MalformedInput`` for non-total reports, checked first, and
    otherwise refuses the proposals as ``prepare_round`` does.  ``proposals``
    may be a ``PreparedRound``; its validation is reused only when it was
    prepared for this very instance and spec (by identity) and an equal
    broker order, and is redone otherwise.
    """
    instance.validate_reports(reports)
    prepared = prepare_round(instance, spec, proposals, broker_order)
    if not prepared.terms:
        return _rejection(instance, RejectionReason.NO_BUDGET_BALANCED_PROPOSAL)

    best = max(
        prepared.terms,
        key=lambda t: (
            welfare(instance, t.proposal.routing.allocation, reports) - t.margin,
            -t.position,
        ),
    )

    utilities = _reported_utilities(instance, best.proposal.routing, reports)
    for agent in instance.agent_ids:
        if utilities[agent] < 0:
            return _rejection(instance, RejectionReason.IR_VIOLATION, agent)

    return MechanismOutcome(
        routing=best.proposal.routing,
        winner=best.proposal.broker,
        broker_payment=best.margin,
        agent_utilities=utilities,
    )


def broker_utility(outcome: MechanismOutcome, broker: str) -> Fraction:
    """A broker's payoff from an outcome: the margin if it won, else zero."""
    return outcome.broker_payment if outcome.winner == broker else ZERO
