import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from brokerlab import equilibrium, mechanism, strategy
from brokerlab.core import (
    Allocation,
    ConstantNonempty,
    MarketInstance,
    PerTransaction,
    ReportProfile,
    Routing,
    SubsetTable,
    agent_utility,
    margin,
    node_utility,
    surplus,
    tx_utility,
)
from brokerlab.equilibrium import check_dsic_barring_b, check_pne
from brokerlab.errors import InvalidProposal, MalformedInput, MarketError
from brokerlab.mdfm import collusion_example_instance
from brokerlab.mechanism import (
    PreparedRound,
    Proposal,
    RejectionReason,
    broker_utility,
    prepare_round,
    run,
)
from brokerlab.strategy import broker_best_response, max_extraction_routing, scaled_rebate_routing
from brokerlab.validity import Constraints, Extensional

from helpers import (
    CountedCost,
    counted_reports,
    frac,
    naive_enumerate,
    payments_divide,
    outcome_or_error,
    pne_profiles,
    random_instance,
    random_cost,
    random_proposals,
    random_reports,
    random_routing,
    raw_space,
    rebuilt_profile,
    report_objects,
    run_reference,
    settled_terms,
)


@pytest.fixture
def collusion_market():
    return collusion_example_instance()


def demo_proposals(instance):
    truthful = instance.truthful_reports()
    both = Allocation.of({"t1": ["n1", "n2"]})
    single = Allocation.of({"t2": ["n1"]})
    return [
        Proposal("b1", scaled_rebate_routing(instance, both, truthful, F(0))),
        Proposal("b2", max_extraction_routing(instance, single, truthful)),
    ]


class TestSelection:
    def test_highest_surplus_proposal_wins(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        outcome = run(collusion_market, collusion_market.validity, truthful, demo_proposals(collusion_market), ["b1", "b2"])
        assert outcome.winner == "b1"
        assert outcome.broker_payment == 0
        assert outcome.routing.allocation == Allocation.of({"t1": ["n1", "n2"]})
        assert all(u >= 0 for u in outcome.agent_utilities.values())

    @pytest.mark.parametrize(
        "allocation, tx_payments, node_payments, violator",
        [
            # t2 values 4, and each node costs 1 on a non-empty bundle
            ({"t2": ["n1"]}, {"t2": F(5)}, {"n1": F(1)}, "t2"),
            ({"t2": ["n1"]}, {"t2": F(5)}, {"n1": F(0)}, "t2"),
            ({"t1": ["n1", "n2"]}, {"t1": F(1)}, {"n1": F(0), "n2": F(1, 2)}, "n1"),
        ],
        ids=["transaction", "transaction-and-node", "two-nodes"],
    )
    def test_ir_violation_names_first_violator(
        self, collusion_market, allocation, tx_payments, node_payments, violator
    ):
        truthful = collusion_market.truthful_reports()
        overcharge = Proposal(
            "b1",
            Routing(
                Allocation.of(allocation),
                {"t1": F(0), "t2": F(0), **tx_payments},
                {"n1": F(0), "n2": F(0), **node_payments},
            ),
        )
        outcome = run(collusion_market, collusion_market.validity, truthful, [overcharge], ["b1"])
        assert outcome.winner is None
        assert outcome.rejection_reason is RejectionReason.IR_VIOLATION
        assert outcome.ir_violator == violator
        assert outcome.routing.allocation.is_empty()

    def test_no_proposals_rejects(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        outcome = run(collusion_market, collusion_market.validity, truthful, [], [])
        assert outcome.winner is None
        assert outcome.rejection_reason is RejectionReason.NO_BUDGET_BALANCED_PROPOSAL

    def test_negative_margin_proposals_are_filtered(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        deficit = Proposal(
            "b1",
            Routing(
                Allocation.of({"t1": ["n1", "n2"]}),
                {"t1": F(1), "t2": F(0)},
                {"n1": F(1), "n2": F(1)},
            ),
        )
        outcome = run(collusion_market, collusion_market.validity, truthful, [deficit], ["b1"])
        assert outcome.rejection_reason is RejectionReason.NO_BUDGET_BALANCED_PROPOSAL

    def test_tie_breaks_by_broker_order(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        routing = demo_proposals(collusion_market)[0].routing
        proposals = [Proposal("b1", routing), Proposal("b2", routing)]
        assert run(collusion_market, collusion_market.validity, truthful, proposals, ["b2", "b1"]).winner == "b2"
        assert run(collusion_market, collusion_market.validity, truthful, proposals, ["b1", "b2"]).winner == "b1"

    def test_ties_go_to_the_earliest_broker_whatever_the_proposal_order(self, collusion_market):
        # a deficit proposal from the earliest broker has the greatest
        # surplus but is not budget-balanced, so it never leads
        truthful, spec = collusion_market.truthful_reports(), collusion_market.validity
        routing = demo_proposals(collusion_market)[0].routing
        deficit = Routing(routing.allocation, {"t1": F(1), "t2": F(0)}, {"n1": F(1), "n2": F(1)})
        proposals = [Proposal(b, routing) for b in ("b3", "b1", "b2")] + [Proposal("b0", deficit)]
        order = ["b0", "b2", "b3", "b1"]
        prepared = prepare_round(collusion_market, spec, proposals, order)
        for given in (proposals, prepared):
            outcome = run(collusion_market, spec, truthful, given, order)
            assert outcome.winner == "b2"
            assert outcome == run_reference(collusion_market, spec, truthful, proposals, order)
        assert prepared.leader(mechanism._Settlement(collusion_market, truthful)).proposal.broker == "b2"

    def test_invalid_allocation_rejected_at_intake(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        bad = Proposal(
            "b1",
            Routing(
                Allocation.of({"t1": ["n1"]}),  # t1 needs two nodes
                {"t1": F(0), "t2": F(0)},
                {"n1": F(0), "n2": F(0)},
            ),
        )
        with pytest.raises(InvalidProposal):
            run(collusion_market, collusion_market.validity, truthful, [bad], ["b1"])

    def test_duplicate_broker_rejected(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        p = demo_proposals(collusion_market)[0]
        with pytest.raises(MalformedInput):
            run(collusion_market, collusion_market.validity, truthful, [p, p], ["b1"])

    def test_order_must_cover_brokers(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        with pytest.raises(MalformedInput):
            run(collusion_market, collusion_market.validity, truthful, demo_proposals(collusion_market), ["b1"])


class TestInvariantsOnCorpus:
    def run_corpus(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            reports, honest = random_reports(rng, instance)
            allocations = naive_enumerate(instance, instance.validity)
            proposals, order = random_proposals(rng, instance, reports, allocations)
            outcome = run(instance, instance.validity, reports, proposals, order)
            yield instance, reports, honest, proposals, order, outcome

    def test_strong_budget_balance(self):
        for _, _, _, _, _, outcome in self.run_corpus(99, 200):
            inflow = sum(outcome.routing.tx_payments.values(), F(0))
            outflow = sum(outcome.routing.node_payments.values(), F(0))
            assert inflow == outflow + outcome.broker_payment

    def test_truthful_agents_never_lose(self):
        for instance, reports, honest, _, _, outcome in self.run_corpus(123, 200):
            truthful = instance.truthful_reports()
            for tx in instance.tx_ids:
                if tx in honest:
                    assert tx_utility(tx, outcome.routing, truthful.tx_reports[tx]) >= 0
            for node in instance.node_ids:
                if node in honest:
                    assert (
                        node_utility(
                            node,
                            outcome.routing,
                            truthful.node_reports[node],
                            instance.resources,
                        )
                        >= 0
                    )

    def test_empty_routing_brokers_get_zero(self):
        for instance, _, _, proposals, _, outcome in self.run_corpus(7, 200):
            for proposal in proposals:
                if proposal.routing.allocation.is_empty() and margin(proposal.routing) == 0:
                    assert broker_utility(outcome, proposal.broker) == 0

    def test_outcome_is_a_submitted_routing_or_empty(self):
        for instance, _, _, proposals, _, outcome in self.run_corpus(55, 200):
            if outcome.winner is None:
                assert outcome.routing.allocation.is_empty()
                assert outcome.broker_payment == 0
            else:
                assert outcome.routing in [p.routing for p in proposals]
                assert outcome.broker_payment == margin(outcome.routing)

    def test_determinism(self):
        rng = random.Random(31337)
        instance = random_instance(rng)
        reports, _ = random_reports(rng, instance)
        allocations = naive_enumerate(instance, instance.validity)
        proposals, order = random_proposals(rng, instance, reports, allocations)
        first = run(instance, instance.validity, reports, proposals, order)
        second = run(instance, instance.validity, reports, proposals, order)
        assert first == second

    def test_winner_utilities_nonnegative_under_reports(self):
        for instance, reports, _, _, _, outcome in self.run_corpus(888, 200):
            if outcome.winner is not None:
                assert all(u >= 0 for u in outcome.agent_utilities.values())
                assert surplus(instance, outcome.routing, reports) >= 0


class TestPreparedRound:
    def test_matches_the_reference_on_the_random_corpus(self):
        rng = random.Random(4242)
        settled = refused = 0
        for _ in range(300):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            spec = instance.validity
            reports, _ = random_reports(rng, instance)
            # a fifth of the rounds draw from the raw space, so some proposals are invalid
            pool = naive_enumerate(instance, spec if rng.random() < 0.8 else Constraints(()))
            proposals, order = random_proposals(rng, instance, reports, pool)
            expected = outcome_or_error(run_reference, instance, spec, reports, proposals, order)
            assert outcome_or_error(run, instance, spec, reports, proposals, order) == expected
            try:
                prepared = prepare_round(instance, spec, proposals, order)
            except MarketError as exc:
                assert (type(exc), str(exc)) == expected
                refused += 1
                continue
            assert list(prepared) == proposals and len(prepared) == len(proposals)
            # one preparation settles many report profiles
            for profile in [reports] + [random_reports(rng, instance)[0] for _ in range(3)]:
                assert outcome_or_error(
                    run, instance, spec, profile, prepared, order
                ) == outcome_or_error(run_reference, instance, spec, profile, proposals, order)
                settled += 1
        assert settled > 600 and refused > 10

    def test_one_swapped_proposal_matches_a_fresh_preparation(self, monkeypatch):
        checks = []

        def counted_is_valid(*args):
            checks.append(args)
            return is_valid(*args)

        is_valid = mechanism.is_valid
        monkeypatch.setattr(mechanism, "is_valid", counted_is_valid)
        rng = random.Random(2468)
        swapped = refused = 0
        for _ in range(300):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            spec = instance.validity
            reports, _ = random_reports(rng, instance)
            valid = naive_enumerate(instance, spec)
            proposals, order = random_proposals(rng, instance, reports, valid)
            if not proposals:
                continue
            prepared = prepare_round(instance, spec, proposals, order)
            broker = rng.choice(order)
            rest = [p for p in proposals if p.broker != broker]
            kept = prepared.without(broker)
            assert list(kept) == rest
            assert outcome_or_error(run, instance, spec, reports, kept, order) == outcome_or_error(
                run_reference, instance, spec, reports, rest, order
            )
            # a fifth of the new proposals draw from the raw space, so some are invalid
            pool = valid if rng.random() < 0.8 else raw_space(instance)
            new = Proposal(broker, random_routing(rng, instance, rng.choice(pool), reports))
            swapped_in = sorted([*rest, new], key=lambda p: order.index(p.broker))
            expected = outcome_or_error(run_reference, instance, spec, reports, swapped_in, order)
            for base in (prepared, kept):
                checks.clear()
                try:
                    result = base.with_proposal(settled_terms(instance, reports, new, order))
                except MarketError as exc:
                    assert (type(exc), str(exc)) == expected
                    refused += 1
                    continue
                # only the new proposal is checked
                assert len(checks) == 1
                assert list(result) == swapped_in
                assert outcome_or_error(run, instance, spec, reports, result, order) == expected
                swapped += 1
        assert swapped > 300 and refused > 10

    def test_a_broker_outside_the_order_cannot_be_swapped_in(self, collusion_market):
        spec = collusion_market.validity
        prepared = prepare_round(collusion_market, spec, demo_proposals(collusion_market), ["b1", "b2"])
        with pytest.raises(MalformedInput, match="permutation"):
            prepared.with_proposal(
                settled_terms(
                    collusion_market,
                    collusion_market.truthful_reports(),
                    Proposal("b3", collusion_market.empty_routing()),
                    ["b1", "b2"],
                )
            )

    def test_same_key_returns_the_prepared_round(self, collusion_market):
        spec = collusion_market.validity
        prepared = prepare_round(collusion_market, spec, demo_proposals(collusion_market), ["b1", "b2"])
        assert isinstance(prepared, PreparedRound)
        assert prepare_round(collusion_market, spec, prepared, ["b1", "b2"]) is prepared
        assert prepare_round(collusion_market, spec, prepared, ("b1", "b2")) is prepared
        # an equal but distinct instance is not the one it was prepared for
        again = prepare_round(replace(collusion_market), spec, prepared, ["b1", "b2"])
        assert again is not prepared and list(again) == list(prepared)

    def test_another_instance_is_revalidated(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        prepared = prepare_round(collusion_market, None, demo_proposals(collusion_market), ["b1", "b2"])
        only_empty = replace(collusion_market, validity=Extensional(()))
        with pytest.raises(InvalidProposal):
            run(only_empty, None, truthful, prepared, ["b1", "b2"])

    def test_another_spec_is_revalidated(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        spec = collusion_market.validity
        prepared = prepare_round(collusion_market, spec, demo_proposals(collusion_market), ["b1", "b2"])
        with pytest.raises(InvalidProposal):
            run(collusion_market, Extensional(()), truthful, prepared, ["b1", "b2"])

    def test_another_broker_order_is_revalidated(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        spec = collusion_market.validity
        routing = demo_proposals(collusion_market)[0].routing
        proposals = [Proposal("b1", routing), Proposal("b2", routing)]
        prepared = prepare_round(collusion_market, spec, proposals, ["b1", "b2"])
        assert run(collusion_market, spec, truthful, prepared, ["b1", "b2"]).winner == "b1"
        assert run(collusion_market, spec, truthful, prepared, ["b2", "b1"]).winner == "b2"
        with pytest.raises(MalformedInput, match="permutation"):
            run(collusion_market, spec, truthful, prepared, ["b1"])

    def test_reports_are_refused_before_proposals(self, collusion_market):
        spec = collusion_market.validity
        truthful = collusion_market.truthful_reports()
        partial = ReportProfile({"t1": F(1)}, truthful.node_reports)
        bad = Proposal(
            "b1",
            Routing(Allocation.of({"t1": ["n1"]}), {"t1": F(0), "t2": F(0)}, {"n1": F(0), "n2": F(0)}),
        )
        for settle in (run, run_reference):
            with pytest.raises(MalformedInput, match="transaction reports"):
                settle(collusion_market, spec, partial, [bad], ["b1"])
        prepared = prepare_round(collusion_market, spec, demo_proposals(collusion_market), ["b1", "b2"])
        with pytest.raises(MalformedInput, match="transaction reports"):
            run(collusion_market, spec, partial, prepared, ["b1", "b2"])
        with pytest.raises(MalformedInput, match="transaction reports"):
            check_pne(collusion_market, spec, truthful, partial, [bad], ["b1"])
        with pytest.raises(MalformedInput, match="transaction reports"):
            check_dsic_barring_b(collusion_market, spec, partial, [bad], ["b1"])

    # a node report must be a cost function, and none of these is one
    @pytest.mark.parametrize("report", [0.5, "1", None, True, False])
    def test_a_report_that_is_not_an_int_or_a_fraction_is_refused(self, collusion_market, report):
        spec, order = collusion_market.validity, ["b1", "b2"]
        truthful = collusion_market.truthful_reports()
        proposals = demo_proposals(collusion_market)
        prepared = prepare_round(collusion_market, spec, proposals, order)
        for odd, message in (
            (
                ReportProfile({**truthful.tx_reports, "t1": report}, truthful.node_reports),
                "report of 't1' must be an int or a Fraction",
            ),
            (
                ReportProfile(truthful.tx_reports, {**truthful.node_reports, "n1": report}),
                f"^report of 'n1' must be a cost function, got {re.escape(repr(report))}$",
            ),
        ):
            for settled in (proposals, prepared):
                with pytest.raises(MalformedInput, match=message):
                    run(collusion_market, spec, odd, settled, order)
            with pytest.raises(MalformedInput, match=message):
                check_pne(collusion_market, spec, truthful, odd, proposals, order)
            with pytest.raises(MalformedInput, match=message):
                broker_best_response("b1", collusion_market, spec, odd, proposals[1:], order)



def changed_profile(rng, instance, profile, count):
    """``profile`` with ``count`` distinct agents' reports redrawn."""
    tx_reports, node_reports = dict(profile.tx_reports), dict(profile.node_reports)
    for agent in rng.sample(instance.agent_ids, count):
        if agent in tx_reports:
            tx_reports[agent] = frac(rng)
        else:
            node_reports[agent] = random_cost(rng, list(instance.tx_ids))
    return ReportProfile(tx_reports, node_reports)


def memo_rounds(rng, count):
    """Random rounds, each prepared with a round derived from it by ``without``
    and one by ``with_proposal``: (instance, reports, rounds, order)."""
    while count:
        instance = random_instance(rng, max_txs=3, max_nodes=2)
        reports, _ = random_reports(rng, instance)
        valid = naive_enumerate(instance, instance.validity)
        proposals, order = random_proposals(rng, instance, reports, valid)
        if not proposals:
            continue
        prepared = prepare_round(instance, instance.validity, proposals, order)
        broker = rng.choice(order)
        new = Proposal(broker, random_routing(rng, instance, rng.choice(valid), reports))
        count -= 1
        swapped = prepared.with_proposal(settled_terms(instance, reports, new, order))
        yield instance, reports, [prepared, prepared.without(broker), swapped], order


def settles_as_reference(instance, reports, prepared, order):
    """``run`` on ``prepared`` gives the reference's outcome or error on a
    fresh list of its proposals; returns that outcome or error."""
    spec = instance.validity
    expected = outcome_or_error(run_reference, instance, spec, reports, list(prepared), order)
    assert outcome_or_error(run, instance, spec, reports, prepared, order) == expected
    return expected


def profile_at(instance, objects):
    """The report profile whose objects, in canonical agent order, are ``objects``."""
    n_txs = len(instance.tx_ids)
    return ReportProfile(
        dict(zip(instance.tx_ids, objects[:n_txs])), dict(zip(instance.node_ids, objects[n_txs:]))
    )


class TestSettlementMemo:
    def test_settlement_sequences_match_the_reference(self):
        # every node cost evaluation is logged: a run prices, for each
        # balanced term of its round, each bundle whose node's report object
        # changed since the term was last settled, once, and nothing else
        log = []
        rng = random.Random(7331)
        kinds = Counter()
        for instance, reports, rounds, order in memo_rounds(rng, 150):
            n_txs = len(instance.tx_ids)
            # each term's memo profile as this test tracks it: only the
            # swapped-in terms come settled, at ``reports``
            fresh = {id(t) for t in rounds[0].terms}
            memo = {
                id(t): None if id(t) in fresh else report_objects(instance, reports)
                for r in rounds
                for t in r.terms
            }
            profile = reports
            for _ in range(12):
                count = rng.choice([0, 1, 2, len(instance.agent_ids)])
                profile = changed_profile(rng, instance, profile, count)
                if rng.random() < 0.25:
                    profile = rebuilt_profile(profile)
                    count = "rebuilt"
                profile = counted_reports(profile, log)
                kinds[count] += 1
                prepared = rng.choice(rounds)
                now = report_objects(instance, profile)
                priced = Counter()
                for term in (t for t in prepared.terms if t.balanced):
                    at = memo[id(term)]
                    for j, node in enumerate(instance.node_ids):
                        bundle = term.proposal.routing.allocation.inverse(node)
                        if bundle and (at is None or at[n_txs + j] is not now[n_txs + j]):
                            priced[node, bundle] += 1
                    memo[id(term)] = now
                spec = instance.validity
                expected = outcome_or_error(run_reference, instance, spec, profile, list(prepared), order)
                log.clear()
                assert outcome_or_error(run, instance, spec, profile, prepared, order) == expected
                assert Counter(log) == priced
                kinds["priced"] += bool(priced)
        assert min(kinds[k] for k in (0, 1, 2, "rebuilt")) > 100
        assert kinds["priced"] > 300

    def test_every_memo_matches_a_fresh_evaluation_at_its_profile(self):
        # after every settle, by run or by surpluses, each term's memo holds
        # agent_utility and core.surplus at the profile of its report objects
        rng = random.Random(2718)
        kinds = Counter()
        for instance, reports, rounds, order in memo_rounds(rng, 120):
            terms = {id(t): t for r in rounds for t in r.terms}.values()
            profile = reports
            for _ in range(8):
                profile = changed_profile(rng, instance, profile, rng.choice([0, 1, 2]))
                prepared = rng.choice(rounds)
                if rng.random() < 0.25:
                    settled = mechanism.surpluses(instance, prepared, profile)
                    fresh = [surplus(instance, p.routing, profile) for p in prepared]
                    assert settled == fresh
                    assert mechanism.surpluses(instance, list(prepared), profile) == fresh
                    at_profile = prepared.terms
                else:
                    outcome_or_error(run, instance, instance.validity, profile, prepared, order)
                    at_profile = [t for t in prepared.terms if t.balanced]
                now = report_objects(instance, profile)
                for term in at_profile:
                    assert all(a is b for a, b in zip(term.at, now, strict=True))
                for term in terms:
                    if term.at is None:
                        kinds["unsettled"] += 1
                        continue
                    routing, at = term.proposal.routing, profile_at(instance, term.at)
                    utilities = [agent_utility(instance, a, routing, at) for a in instance.agent_ids]
                    assert [F(u, term.den) for u in term.utilities] == utilities
                    assert F(term.surplus, term.den) == surplus(instance, routing, at)
                    kinds["negative" if any(u < 0 for u in utilities) else "settled"] += 1
        assert min(kinds.values()) > 300

    def test_reports_are_checked_in_one_pass_and_only_changed_ones_scored(
        self, collusion_market, monkeypatch
    ):
        calls = Counter()

        def counted_validate(*args):
            calls["validate"] += 1
            return validate_reports(*args)

        # the rebate constructors check their reports too, so the proposals
        # are built before the checks are counted
        proposals = demo_proposals(collusion_market)
        validate_reports = MarketInstance.validate_reports
        monkeypatch.setattr(MarketInstance, "validate_reports", counted_validate)
        log = []
        spec = collusion_market.validity
        truthful = counted_reports(collusion_market.truthful_reports(), log)
        prepared = prepare_round(collusion_market, spec, proposals, ["b1", "b2"])
        # every run checks its profile once, and the first settle prices
        # each proposal's bundles once
        run(collusion_market, spec, truthful, prepared, ["b1", "b2"])
        t1, t2 = frozenset({"t1"}), frozenset({"t2"})
        assert Counter(log) == {("n1", t1): 1, ("n2", t1): 1, ("n1", t2): 1}
        assert calls == {"validate": 1}
        log.clear()
        for value in (F(7), F(1, 3), F(0)):
            run(collusion_market, spec, truthful.replace_tx("t1", value), prepared, ["b1", "b2"])
        run(collusion_market, spec, truthful, prepared.without("b2"), ["b1", "b2"])
        assert log == [] and calls == {"validate": 5}
        # a changed node report is priced once on each bundle it is given
        n1 = CountedCost(ConstantNonempty(F(1)), "n1", log)
        run(collusion_market, spec, truthful.replace_node("n1", n1), prepared, ["b1", "b2"])
        assert Counter(log) == {("n1", t1): 1, ("n1", t2): 1}
        # a malformed one is refused by that one check
        negative = ReportProfile({**truthful.tx_reports, "t2": F(-1)}, truthful.node_reports)
        with pytest.raises(MalformedInput, match="report of 't2' must be non-negative"):
            run(collusion_market, spec, negative, prepared, ["b1", "b2"])
        assert calls == {"validate": 7}

    def test_a_memo_settled_at_the_checked_tuple_is_not_diffed(self, collusion_market):
        # the report check returns its memoised tuple for an unchanged
        # profile, and a term settled at that tuple is not read again
        class Watched(tuple):
            reads = 0

            def __iter__(self):
                Watched.reads += 1
                return super().__iter__()

            def __getitem__(self, index):
                Watched.reads += 1
                return super().__getitem__(index)

        spec, order = collusion_market.validity, ["b1", "b2"]
        truthful = collusion_market.truthful_reports()
        prepared = prepare_round(collusion_market, spec, demo_proposals(collusion_market), order)
        watched = Watched(collusion_market.validate_reports(truthful))
        object.__setattr__(collusion_market, "_reports", watched)
        first = mechanism._Settlement(collusion_market, truthful)
        assert first.reports is watched
        for term in prepared.terms:
            first.settle(term)
        memos = [(t.den, t.utilities, t.surplus) for t in prepared.terms]
        again = mechanism._Settlement(collusion_market, truthful)
        assert again.reports is watched
        Watched.reads = 0
        for term in prepared.terms:
            again.settle(term)
        assert Watched.reads == 0
        assert [(t.den, t.utilities, t.surplus) for t in prepared.terms] == memos
        assert all(t.at is watched for t in prepared.terms)
        # the round settles as before
        assert run(collusion_market, spec, truthful, prepared, order) == run_reference(
            collusion_market, spec, truthful, list(prepared), order
        )

    def test_malformed_reports_give_the_reference_error(self):
        rng = random.Random(5150)
        errors = Counter()
        for instance, reports, rounds, order in memo_rounds(rng, 120):
            prepared = rng.choice(rounds)
            settles_as_reference(instance, reports, prepared, order)
            tx, node = rng.choice(instance.tx_ids), rng.choice(instance.node_ids)
            negative = ReportProfile({**reports.tx_reports, tx: F(-1)}, reports.node_reports)
            # a table over no transaction does not cover the market, whether or
            # not the node runs a bundle
            empty_table = SubsetTable(frozenset(), {frozenset(): F(0)})
            lacking = ReportProfile(reports.tx_reports, {**reports.node_reports, node: empty_table})
            for bad in (negative, lacking, changed_profile(rng, instance, reports, 1)):
                result = settles_as_reference(instance, bad, prepared, order)
                errors[result[1] if isinstance(result, tuple) else "settled"] += 1
            # an error leaves the memos as they were
            settles_as_reference(instance, reports, prepared, order)
        assert sum(n for message, n in errors.items() if "must be non-negative" in message) == 120
        uncovered = "SubsetTable must cover exactly the instance transactions"
        assert sum(n for message, n in errors.items() if uncovered in message) == 120
        # every changed profile settles
        assert errors["settled"] == 120

    def test_in_place_edits_are_seen_and_outcomes_do_not_share_the_memo(self):
        rng = random.Random(6021)
        edited = 0
        for instance, reports, rounds, order in memo_rounds(rng, 150):
            prepared = rng.choice(rounds)
            profile = ReportProfile(dict(reports.tx_reports), dict(reports.node_reports))
            first = run(instance, instance.validity, profile, prepared, order)
            for agent in first.agent_utilities:
                first.agent_utilities[agent] = F(-99)
            settles_as_reference(instance, profile, prepared, order)
            # the same profile object, one report replaced in its mapping
            agent = rng.choice(instance.agent_ids)
            if agent in profile.tx_reports:
                profile.tx_reports[agent] = profile.tx_reports[agent] + frac(rng, 1, 4)
            else:
                profile.node_reports[agent] = random_cost(rng, list(instance.tx_ids))
            outcome = settles_as_reference(instance, profile, prepared, order)
            edited += outcome != settles_as_reference(instance, reports, prepared, order)
        assert edited > 30


def ir_deviation(rng, instance, reports, profile, agent):
    """``profile`` with ``agent``'s report moved: back to its ``reports``
    one, or to one that tends to leave it a negative reported utility (a
    transaction reporting 0, a node a large constant cost), or redrawn."""
    tx_reports, node_reports = dict(profile.tx_reports), dict(profile.node_reports)
    move = rng.choice(["back", "negative", "redrawn"])
    if agent in tx_reports:
        tx_reports[agent] = {
            "back": reports.tx_reports[agent], "negative": F(0), "redrawn": frac(rng)
        }[move]
    else:
        node_reports[agent] = {
            "back": reports.node_reports[agent],
            "negative": ConstantNonempty(F(40)),
            "redrawn": random_cost(rng, list(instance.tx_ids)),
        }[move]
    return ReportProfile(tx_reports, node_reports)


class TestIRGate:
    def test_one_agent_deviations_in_and_out_of_violation_match_the_reference(self):
        # one prepared round per market settles a sequence of one-agent
        # deviations; the winner's first violator moves with the changed agent
        rng = random.Random(4099)
        kinds = Counter()
        for instance, reports, rounds, order in memo_rounds(rng, 150):
            prepared = rng.choice(rounds)
            profile, last = reports, None
            for _ in range(12):
                agent = rng.choice(instance.agent_ids)
                profile = ir_deviation(rng, instance, reports, profile, agent)
                result = settles_as_reference(instance, profile, prepared, order)
                if isinstance(result[0], type):
                    continue
                fields = dict(result[:-1])
                violator = fields["ir_violator"]
                if violator is not None:
                    kinds["transaction violates" if violator in instance.tx_ids else "node violates"] += 1
                    if last is not None and last != violator:
                        kinds["violator moved"] += 1
                elif fields["winner"] is not None:
                    kinds["cleared" if last is not None else "accepted"] += 1
                last = violator
        assert min(kinds[k] for k in ("transaction violates", "node violates", "accepted")) > 100
        assert min(kinds[k] for k in ("violator moved", "cleared")) > 30

    def test_the_violator_is_read_off_the_utilities(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        spec, order = collusion_market.validity, ["b1"]
        prepared = prepare_round(collusion_market, spec, demo_proposals(collusion_market)[:1], order)
        assert run(collusion_market, spec, truthful, prepared, order).winner == "b1"
        outcome = run(collusion_market, spec, truthful.replace_tx("t1", F(1)), prepared, order)
        # t1 pays 2 but reports 1
        assert prepared.terms[0].utilities[0] < 0
        assert outcome.ir_violator == "t1"



def assert_integer_memos(terms):
    """Every settled term's memo is ints over a positive int denominator
    that every payment's denominator divides, and its surplus the sum of
    its utilities.  Returns the number of settled terms."""
    settled = 0
    for term in terms:
        if term.at is None:
            continue
        settled += 1
        assert type(term.den) is int and term.den > 0
        assert all(type(x) is int for x in (*term.utilities, term.surplus))
        assert term.surplus == sum(term.utilities)
        assert payments_divide(term)
    return settled


def primes_from(start, count):
    """The first ``count`` primes at or above ``start``."""
    found, n = [], start
    while len(found) < count:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            found.append(n)
        n += 1
    return found


def prime_report(rng, instance, agent, prime):
    """A report for ``agent`` whose value, or every cost it gives, has the
    denominator ``prime``."""
    if agent in instance.tx_ids:
        return F(rng.randint(1, 12 * prime), prime)
    if rng.random() < 0.5:
        return ConstantNonempty(F(rng.randint(1, 6 * prime), prime))
    return PerTransaction({t: F(rng.randint(1, 4 * prime), prime) for t in instance.tx_ids})


class TestIntegerMemo:
    def test_the_prepared_round_corpus_settles_in_integers(self):
        # TestPreparedRound's corpus, every memo checked after each settle
        rng = random.Random(4242)
        settled = 0
        for _ in range(300):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            spec = instance.validity
            reports, _ = random_reports(rng, instance)
            pool = naive_enumerate(instance, spec if rng.random() < 0.8 else Constraints(()))
            proposals, order = random_proposals(rng, instance, reports, pool)
            try:
                prepared = prepare_round(instance, spec, proposals, order)
            except MarketError:
                continue
            for profile in [reports] + [random_reports(rng, instance)[0] for _ in range(3)]:
                settles_as_reference(instance, profile, prepared, order)
                settled += assert_integer_memos(prepared.terms)
        assert settled > 1000

    def test_the_deviation_rounds_of_the_pne_corpus_settle_in_integers(self, monkeypatch):
        # every round check_pne settles, deviations and best responses alike
        seen = Counter()

        def checked(instance, spec, reports, proposals, order):
            expected = outcome_or_error(run_reference, instance, spec, reports, list(proposals), order)
            assert outcome_or_error(run, instance, spec, reports, proposals, order) == expected
            seen[type(proposals).__name__] += 1
            seen["settled"] += assert_integer_memos(proposals.terms)
            return run(instance, spec, reports, proposals, order)

        monkeypatch.setattr(equilibrium, "run", checked)
        monkeypatch.setattr(strategy, "run", checked)
        for instance, reports, proposals, order in pne_profiles(2027, 60):
            check_pne(instance, instance.validity, instance.truthful_reports(), reports, proposals, order)
        assert seen["PreparedRound"] > 1500 and seen.keys() == {"PreparedRound", "settled"}
        assert seen["settled"] > 3500

    def test_a_memo_written_by_the_plan_settles_again_as_the_reference(self):
        # a best response writes its memo over the plan's P * md * TV; one
        # agent's report then moves to a fresh prime denominator, so the
        # memo rescales and rescores that agent from its payment
        rng = random.Random(65537)
        primes = primes_from(10007, 200) + [65537, 2**31 - 1]
        kinds = Counter()
        for instance, reports, proposals, order in pne_profiles(31337, 80):
            for broker in order:
                rivals = [p for p in proposals if p.broker != broker]
                response = broker_best_response(
                    broker, instance, instance.validity, reports, rivals, order, F(1, 8)
                )
                prepared = response.prepared
                written = next(t for t in prepared.terms if t.proposal.broker == broker)
                kinds["empty" if written.proposal.routing.allocation.is_empty() else "plan"] += 1
                agent = rng.choice(instance.agent_ids)
                report = prime_report(rng, instance, agent, rng.choice(primes))
                if agent in reports.tx_reports:
                    changed = reports.replace_tx(agent, report)
                else:
                    changed = reports.replace_node(agent, report)
                den = written.den
                settles_as_reference(instance, changed, prepared, order)
                assert_integer_memos(prepared.terms)
                routing = written.proposal.routing
                assert [F(u, written.den) for u in written.utilities] == [
                    agent_utility(instance, a, routing, changed) for a in instance.agent_ids
                ]
                kinds["rescaled" if written.den != den else "kept"] += 1
        assert kinds["plan"] > 50 and kinds["empty"] > 10
        assert kinds["rescaled"] > 50 and kinds["kept"] > 50

    def test_reports_off_the_lattice_rescale_the_memo_exactly(self):
        # each step gives one or two agents reports over a prime no earlier
        # report of the market used, so a memo settled at one denominator
        # must rescale mid-sequence; it must still equal a fresh evaluation
        rng = random.Random(10007)
        primes = primes_from(10007, 400) + [65537, 2**31 - 1]
        kinds = Counter()
        for instance, reports, rounds, order in memo_rounds(rng, 100):
            fresh = iter(rng.sample(primes, len(primes)))
            terms = {id(t): t for r in rounds for t in r.terms}.values()
            profile = reports
            for _ in range(8):
                tx_reports, node_reports = dict(profile.tx_reports), dict(profile.node_reports)
                for agent in rng.sample(instance.agent_ids, rng.choice([1, 2])):
                    report = prime_report(rng, instance, agent, next(fresh))
                    (tx_reports if agent in tx_reports else node_reports)[agent] = report
                profile = ReportProfile(tx_reports, node_reports)
                before = {id(t): (t.den, t.at is None) for t in terms}
                settles_as_reference(instance, profile, rng.choice(rounds), order)
                assert_integer_memos(terms)
                for term in terms:
                    den, unsettled = before[id(term)]
                    if term.at is None or unsettled:
                        continue
                    assert term.den % den == 0
                    kinds["rescaled" if term.den > den else "kept"] += 1
                    routing, at = term.proposal.routing, profile_at(instance, term.at)
                    utilities = [agent_utility(instance, a, routing, at) for a in instance.agent_ids]
                    assert [F(u, term.den) for u in term.utilities] == utilities
                    assert F(term.surplus, term.den) == surplus(instance, routing, at)
            kinds["twice"] += any(sum(term.den % p == 0 for p in primes) >= 2 for term in terms)
        assert kinds["rescaled"] > 400 and kinds["kept"] > 800
        assert kinds["twice"] > 50
