"""One auction round: filter budget-balanced proposals, select by reported
surplus, apply the individual-rationality gate, settle payments.

Selection ties break by the fixed broker order supplied by the caller.  The
IR gate is strict: a proposal is rejected only if some agent's reported
utility is negative; zero utility is accepted.  When the gate fires, the
first violator in canonical agent order (transactions then nodes, sorted by
id) is named.

A round is prepared once and settled many times.  ``prepare_round`` makes
every check on the proposals and the broker order and caches, for each
proposal, the terms that do not depend on the reports: its margin, whether
it is budget-balanced, and its broker's position.  Settling one report
profile then ranks the budget-balanced proposals by reported surplus, their
allocation's reported welfare minus the cached margin, which is
``core.surplus``.

``run`` first copies the profile's report objects out of its mappings in
canonical agent order and checks them in one pass: the mappings must be
total and every transaction report non-negative, or
``MarketInstance.validate_reports`` raises its error.  Each budget-balanced
term also keeps a one-entry memo, written by ``run`` or handed in settled
by a best response (below): the report objects of the profile it was last
settled at, its reported surplus there, and, once it has won, every agent's
reported utility.  ``run`` compares the incoming profile's report objects
with a memo's by identity, agent by agent, once per memo profile, so a report
replaced, rebuilt equal or edited in place counts as changed.  It then
moves each term's surplus by the changed agents alone (a transaction by its
new minus old report where it is allocated, a node by its old minus new
cost on its bundle), and recomputes only their utilities for the IR gate; a
term is scored with ``core.welfare`` only the first time.  Deviation search
changes one report at a time, so it prepares once and passes the prepared
sequence to ``run``.  A best response changes one proposal:
``PreparedRound.without`` drops a broker's proposal and ``with_proposal``
swaps in the response's terms, checking only the new proposal; both keep
the other terms and their memos.  The best response built its proposal, so
it already knows the margin, reported surplus and reported utilities, and
hands them over as a memo stamped with the report objects of the profile it
answered.  ``run`` then finds no changed agent in that memo and scores
nothing for the response: once a dynamics run has settled its starting
profile, ``core.welfare`` runs no more, and ``agent_utility`` only for a
starting proposal that first wins later.  ``surpluses`` reads every
proposal's reported surplus from the memos without writing them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .core import (
    MarketInstance,
    ReportProfile,
    Routing,
    agent_utility,
    margin,
    surplus,
    welfare,
)
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


@dataclass(eq=False, slots=True)
class _Terms:
    """The report-independent terms of one proposal, and its memo (see the
    module docstring).

    ``balanced`` says whether the margin is non-negative.  ``scored_at`` and
    ``utilities_at`` hold the report objects of the profile ``surplus`` and
    ``utilities`` were settled at, in canonical agent order; ``utilities``
    is in that order too.
    """

    proposal: Proposal
    margin: Fraction
    position: int
    balanced: bool = field(init=False)
    scored_at: tuple | None = None
    surplus: Fraction = ZERO
    utilities_at: tuple | None = None
    utilities: tuple[Fraction, ...] = ()

    def __post_init__(self):
        self.balanced = self.margin >= 0


class _Settlement:
    """One report profile settled against terms' memos.

    ``reports`` holds the profile's report objects in canonical agent order,
    or None when its mappings are not total over the instance.  The agents
    whose report object differs from a memo's are found once per memo
    profile.
    """

    def __init__(self, instance: MarketInstance, profile: ReportProfile):
        self.instance = instance
        self.profile = profile
        self.reports = _report_objects(instance, profile)
        self._changed: dict[int, tuple[tuple, tuple[int, ...]]] = {}

    def changed(self, at: tuple) -> tuple[int, ...]:
        """Indices, in canonical agent order, of the agents whose report
        object is not the one in ``at``."""
        hit = self._changed.get(id(at))
        if hit is None:
            new = self.reports
            changed = tuple(i for i, r in enumerate(at) if r is not new[i])
            # ``at`` is kept with its entry so that its id is not reused
            hit = self._changed[id(at)] = (at, changed)
        return hit[1]

    def surplus(self, term: _Terms) -> Fraction:
        """``term``'s reported surplus at this profile, its memo moved by the
        changed agents' reports; ``core.welfare`` when it has none."""
        allocation = term.proposal.routing.allocation
        at = term.scored_at
        if at is None:
            return welfare(self.instance, allocation, self.profile) - term.margin
        value = term.surplus
        agents, new = self.instance.agent_ids, self.reports
        n_txs = len(self.instance.tx_ids)
        for i in self.changed(at):
            if i < n_txs:
                if agents[i] in allocation.transactions:
                    value += new[i] - at[i]
            elif bundle := allocation.inverse(agents[i]):
                resources = self.instance.resources
                value += at[i].cost(bundle, resources) - new[i].cost(bundle, resources)
        return value

    def settle(self, term: _Terms) -> Fraction:
        """``surplus``, written to ``term``'s memo."""
        term.surplus = self.surplus(term)
        term.scored_at = self.reports
        return term.surplus

    def utilities(self, term: _Terms) -> tuple[Fraction, ...]:
        """Every agent's reported utility under ``term``'s routing, in
        canonical agent order, from its memo; written back to the memo."""
        agents = self.instance.agent_ids
        if term.utilities_at is None:
            changed, values = range(len(agents)), [ZERO] * len(agents)
        else:
            changed, values = self.changed(term.utilities_at), list(term.utilities)
        routing = term.proposal.routing
        for i in changed:
            values[i] = agent_utility(self.instance, agents[i], routing, self.profile)
        term.utilities, term.utilities_at = tuple(values), self.reports
        return term.utilities


def _report_objects(instance: MarketInstance, reports: ReportProfile) -> tuple | None:
    """The profile's report objects in canonical agent order, or None when
    its mappings are not total over the instance."""
    txs, nodes = reports.tx_reports, reports.node_reports
    if len(txs) != len(instance.tx_ids) or len(nodes) != len(instance.node_ids):
        return None
    try:
        return tuple([txs[t] for t in instance.tx_ids] + [nodes[n] for n in instance.node_ids])
    except KeyError:
        return None


@dataclass(frozen=True, eq=False)
class PreparedRound(Sequence):
    """The proposals of one round, validated for one instance, validity spec
    and broker order; built by ``prepare_round``.

    ``terms`` holds one ``_Terms`` per proposal; ``proposals`` and
    ``balanced`` (the budget-balanced terms, which ``run`` ranks) are read
    off it.  It reads as the immutable sequence of the proposals.  The
    proposals' routings must not be mutated after preparation.
    """

    terms: tuple[_Terms, ...]
    instance: MarketInstance
    spec: ValiditySpec | None
    broker_order: tuple[str, ...]
    proposals: tuple[Proposal, ...] = field(init=False, repr=False)
    balanced: tuple[_Terms, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "proposals", tuple(t.proposal for t in self.terms))
        object.__setattr__(self, "balanced", tuple(t for t in self.terms if t.balanced))

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
        terms = tuple(t for t in self.terms if t.proposal.broker != broker)
        return PreparedRound(terms, self.instance, self.spec, self.broker_order)

    def with_proposal(self, settled: _Terms) -> "PreparedRound":
        """This round with the proposal of ``settled`` in place of its
        broker's proposal, or added when that broker has none, in broker
        order.

        ``settled`` comes already settled from the best response that built
        the proposal: its margin, its broker's position in the broker order
        and its memo are taken as they are.  Only the proposal is checked, as
        ``prepare_round`` checks each one; the other proposals keep their
        cached terms.
        """
        proposal = settled.proposal
        if proposal.broker not in self.broker_order:
            raise MalformedInput(
                "broker order must be a permutation covering the proposing brokers"
            )
        _check_proposal(self.instance, self.spec, proposal)
        terms = [t for t in self.terms if t.proposal.broker != proposal.broker]
        terms.append(settled)
        terms.sort(key=lambda t: t.position)
        return PreparedRound(tuple(terms), self.instance, self.spec, self.broker_order)


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
    terms = tuple([_Terms(p, margin(p.routing), position[p.broker]) for p in proposals])
    return PreparedRound(terms, instance, spec, order)


def surpluses(
    instance: MarketInstance, proposals: Sequence[Proposal], reports: ReportProfile
) -> list[Fraction]:
    """Each proposal's reported surplus at ``reports`` (``core.surplus``), in
    the order of ``proposals``.

    When ``proposals`` is a round prepared for ``instance`` and ``reports``
    is total, each is read from its term's memo and the changed agents'
    reports (``core.welfare`` minus the cached margin when it has no memo);
    no memo is written.  Otherwise the reports are checked first, so
    reports that are not total raise ``MalformedInput``.
    """
    if isinstance(proposals, PreparedRound) and proposals.instance is instance:
        settlement = _Settlement(instance, reports)
        if settlement.reports is not None:
            return [settlement.surplus(t) for t in proposals.terms]
    instance.validate_reports(reports)
    return [surplus(instance, p.routing, reports) for p in proposals]


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

    Raises ``MalformedInput`` for malformed reports, checked first, and
    otherwise refuses the proposals as ``prepare_round`` does.  ``proposals``
    may be a ``PreparedRound``; its validation and its terms' memos are
    reused only when it was prepared for this very instance and spec (by
    identity) and an equal broker order, and the round is prepared afresh
    otherwise.  With the memos, only the reports that changed since a term
    was last settled are scored.
    """
    settlement = _Settlement(instance, reports)
    n_txs = len(instance.tx_ids)
    if settlement.reports is None or any(v < 0 for v in settlement.reports[:n_txs]):
        # raises, naming what is wrong
        instance.validate_reports(reports)
    prepared = prepare_round(instance, spec, proposals, broker_order)
    if not prepared.balanced:
        return _rejection(instance, RejectionReason.NO_BUDGET_BALANCED_PROPOSAL)

    best = max(prepared.balanced, key=lambda t: (settlement.settle(t), -t.position))

    utilities = settlement.utilities(best)
    for agent, utility in zip(instance.agent_ids, utilities):
        if utility < 0:
            return _rejection(instance, RejectionReason.IR_VIOLATION, agent)

    return MechanismOutcome(
        routing=best.proposal.routing,
        winner=best.proposal.broker,
        broker_payment=best.margin,
        agent_utilities=dict(zip(instance.agent_ids, utilities)),
    )


def broker_utility(outcome: MechanismOutcome, broker: str) -> Fraction:
    """A broker's payoff from an outcome: the margin if it won, else zero."""
    return outcome.broker_payment if outcome.winner == broker else ZERO
