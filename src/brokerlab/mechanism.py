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
it is budget-balanced, and its broker's position.  Each term also keeps one
memo: the report objects of the profile it was last settled at, every
agent's reported utility there in canonical order, and their sum, which is
the reported surplus (``core.surplus``: payments cancel down to the margin).

The memo is integer arithmetic over one denominator ``den``: its utilities
and its surplus are ints over ``den``, and it keeps one invariant: every
payment's denominator divides ``den``.  The first settle makes ``den`` the
lcm of the payments' denominators (a best response that writes a memo
picks one its payments divide).  A report ``r`` (a transaction's value, or
a node's cost on its bundle) with denominator ``d`` enters as
``r.numerator * (den // d)`` when ``d`` divides ``den``; otherwise the memo
first rescales exactly: ``den`` is multiplied by ``d // gcd(den, d)``, and
so is every int it holds.  Nothing is rounded.

Only an allocated transaction's utility and a bundled node's read a
report, so only those agents are scored, each from its report and its
payment in the routing (0 where a plain list's routing lacks one), both
over ``den``.  Every other agent's utility is minus its payment (a
transaction) or its payment (a node), set by the first settle.  Later
settles compare the profile's report objects with the memo's by identity,
so a report replaced, rebuilt equal or edited in place counts as changed,
and rescore only the changed agents among those.  ``run`` checks the
reports once, by the one report rule, ``MarketInstance.validate_reports``,
which returns their objects in canonical agent order, reads the winner
from ``PreparedRound.leader``, the one winner rule (the best response and
the truthfulness check read it too), and reads the signs of the winner's
utilities: the IR gate names the first negative one.

``Fraction``s are made only at the boundary, fresh on each read: the
outcome's ``agent_utilities`` and what ``surpluses`` returns.  A zero reads
as ``ZERO``.

Deviation search changes one report at a time, so it prepares once and
passes the prepared sequence to ``run``.  A best response changes one
proposal: ``PreparedRound.without`` drops a broker's proposal and
``with_proposal`` swaps in the response's terms, checking only the new
proposal; both keep the other terms and their memos.  The best response
built its proposal, so it hands over its memo already settled at the
profile it answered, and ``run`` scores nothing for it.  ``surpluses``
settles every proposal's terms, a plain list's through temporary ones.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .core import MarketInstance, ReportProfile, Routing, margin
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

    ``balanced`` says whether the margin is non-negative.  ``at`` holds the
    report objects of the profile the memo was settled at, in canonical
    agent order, or None before the first settle.  ``utilities`` is in that
    order too, as ints over ``den``, and ``surplus``, the sum of
    ``utilities``, is over ``den`` as well.
    """

    proposal: Proposal
    margin: Fraction
    position: int
    balanced: bool = field(init=False)
    at: tuple | None = None
    den: int = 1
    utilities: tuple[int, ...] = ()
    surplus: int = 0

    def __post_init__(self):
        self.balanced = self.margin >= 0

    def utility_fractions(self) -> list[Fraction]:
        """Every agent's reported utility as a ``Fraction``, in canonical
        order."""
        den = self.den
        return [Fraction(u, den) if u else ZERO for u in self.utilities]

    def surplus_fraction(self) -> Fraction:
        """The reported surplus as a ``Fraction``."""
        return Fraction(self.surplus, self.den) if self.surplus else ZERO


class _Settlement:
    """One report profile, checked once, settled against terms' memos:
    ``reports`` holds its report objects in canonical agent order, as
    ``MarketInstance.validate_reports`` returns them."""

    def __init__(self, instance: MarketInstance, profile: ReportProfile):
        self.instance = instance
        self.reports = instance.validate_reports(profile)

    def settle(self, term: _Terms) -> None:
        """Settle ``term``'s memo at this profile: the utilities that read a
        report object other than the memo's are rescored, every utility the
        first time.  A report off the memo's denominator rescales the memo
        first.  Nothing is written when a report raises."""
        instance, new = self.instance, self.reports
        agents, n_txs = instance.agent_ids, len(instance.tx_ids)
        routing = term.proposal.routing
        txs, nodes = routing.tx_payments, routing.node_payments
        if term.at is None:
            # each agent's utility without its report: minus a transaction's
            # payment, a node's payment
            payments = [txs.get(a, ZERO) for a in agents[:n_txs]]
            payments += [nodes.get(a, ZERO) for a in agents[n_txs:]]
            den = lcm(*(p.denominator for p in payments))
            values = [p.numerator * (den // p.denominator) for p in payments]
            for i in range(n_txs):
                values[i] = -values[i]
            value = sum(values)
            changed = range(len(agents))
        else:
            at = term.at
            changed = [i for i, r in enumerate(new) if r is not at[i]]
            if not changed:
                return
            den, values, value = term.den, list(term.utilities), term.surplus
        allocation = routing.allocation
        included = allocation.transactions
        for i in changed:
            agent = agents[i]
            if i < n_txs:
                if agent not in included:
                    continue
                report, payment = new[i], txs.get(agent, ZERO)
            else:
                bundle = allocation.inverse(agent)
                if not bundle:
                    continue
                report = new[i].cost(bundle, instance.resources)
                payment = nodes.get(agent, ZERO)
            d = report.denominator
            if den % d:
                factor = d // gcd(den, d)
                den *= factor
                values = [v * factor for v in values]
                value *= factor
            scaled = report.numerator * (den // d)
            paid = payment.numerator * (den // payment.denominator)
            utility = scaled - paid if i < n_txs else paid - scaled
            if utility != values[i]:
                value += utility - values[i]
                values[i] = utility
        term.at, term.den = new, den
        term.utilities, term.surplus = tuple(values), value


@dataclass(frozen=True, eq=False)
class PreparedRound(Sequence):
    """The proposals of one round, validated for one instance, validity spec
    and broker order; built by ``prepare_round``.

    ``terms`` holds one ``_Terms`` per proposal; ``proposals`` is read off
    it.  It reads as the immutable sequence of the proposals.  The
    proposals' routings must not be mutated after preparation.  ``leader``
    is the one winner rule.
    """

    terms: tuple[_Terms, ...]
    instance: MarketInstance
    spec: ValiditySpec | None
    broker_order: tuple[str, ...]
    proposals: tuple[Proposal, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "proposals", tuple(t.proposal for t in self.terms))

    def __getitem__(self, index):
        return self.proposals[index]

    def __len__(self) -> int:
        return len(self.proposals)

    def __iter__(self):
        return iter(self.proposals)

    def leader(self, settlement: _Settlement) -> _Terms | None:
        """The budget-balanced term of greatest reported surplus at
        ``settlement``'s profile, ties to the earlier broker position; None
        when no term is balanced.  Only the balanced terms are settled, and
        surpluses compare as integer cross-products (dens are positive)."""
        best = None
        for term in self.terms:
            if not term.balanced:
                continue
            settlement.settle(term)
            lead = 1 if best is None else term.surplus * best.den - best.surplus * term.den
            if lead > 0 or (lead == 0 and term.position < best.position):
                best = term
        return best

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

    A round prepared for ``instance`` settles its terms' memos; any other
    sequence is settled through temporary terms.  Reports are checked as
    ``run`` checks them.
    """
    settlement = _Settlement(instance, reports)
    if isinstance(proposals, PreparedRound) and proposals.instance is instance:
        terms = proposals.terms
    else:
        terms = [_Terms(p, margin(p.routing), 0) for p in proposals]
    for t in terms:
        settlement.settle(t)
    return [t.surplus_fraction() for t in terms]


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
    best = prepare_round(instance, spec, proposals, broker_order).leader(settlement)
    if best is None:
        return _rejection(instance, RejectionReason.NO_BUDGET_BALANCED_PROPOSAL)

    for agent, utility in zip(instance.agent_ids, best.utilities):
        if utility < 0:
            return _rejection(instance, RejectionReason.IR_VIOLATION, agent)

    return MechanismOutcome(
        routing=best.proposal.routing,
        winner=best.proposal.broker,
        broker_payment=best.margin,
        agent_utilities=dict(zip(instance.agent_ids, best.utility_fractions())),
    )


def broker_utility(outcome: MechanismOutcome, broker: str) -> Fraction:
    """A broker's payoff from an outcome: the margin if it won, else zero."""
    return outcome.broker_payment if outcome.winner == broker else ZERO
