import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from brokerlab import mechanism
from brokerlab.core import (
    Allocation,
    ConstantNonempty,
    MarketInstance,
    ReportProfile,
    Routing,
    SubsetTable,
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
from brokerlab.strategy import max_extraction_routing, scaled_rebate_routing
from brokerlab.validity import Constraints, Extensional

from helpers import (
    frac,
    naive_enumerate,
    outcome_or_error,
    random_instance,
    random_cost,
    random_proposals,
    random_reports,
    random_routing,
    raw_space,
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

    def test_ir_violation_names_first_violator(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        overcharge = Proposal(
            "b1",
            Routing(
                Allocation.of({"t2": ["n1"]}),
                {"t1": F(0), "t2": F(5)},
                {"n1": F(1), "n2": F(0)},
            ),
        )
        outcome = run(collusion_market, collusion_market.validity, truthful, [overcharge], ["b1"])
        assert outcome.winner is None
        assert outcome.rejection_reason is RejectionReason.IR_VIOLATION
        assert outcome.ir_violator == "t2"
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



def changed_profile(rng, instance, profile, count):
    """``profile`` with ``count`` distinct agents' reports redrawn."""
    tx_reports, node_reports = dict(profile.tx_reports), dict(profile.node_reports)
    for agent in rng.sample(instance.agent_ids, count):
        if agent in tx_reports:
            tx_reports[agent] = frac(rng)
        else:
            node_reports[agent] = random_cost(rng, list(instance.tx_ids))
    return ReportProfile(tx_reports, node_reports)


def rebuilt_profile(profile):
    """A profile equal to ``profile`` whose every report is a new object."""
    rebuilt = ReportProfile(
        {t: F(v.numerator, v.denominator) for t, v in profile.tx_reports.items()},
        {n: replace(cost) for n, cost in profile.node_reports.items()},
    )
    assert rebuilt == profile
    assert all(rebuilt.tx_reports[t] is not v for t, v in profile.tx_reports.items())
    return rebuilt


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


class TestSettlementMemo:
    def test_settlement_sequences_match_the_reference(self, monkeypatch):
        scored = Counter()

        def counted_welfare(instance, allocation, reports):
            scored[allocation] += 1
            return welfare(instance, allocation, reports)

        welfare = mechanism.welfare
        monkeypatch.setattr(mechanism, "welfare", counted_welfare)
        rng = random.Random(7331)
        kinds = Counter()
        for instance, reports, rounds, order in memo_rounds(rng, 150):
            scored.clear()
            profile = reports
            for _ in range(12):
                count = rng.choice([0, 1, 2, len(instance.agent_ids)])
                profile = changed_profile(rng, instance, profile, count)
                if rng.random() < 0.25:
                    profile = rebuilt_profile(profile)
                    count = "rebuilt"
                kinds[count] += 1
                settles_as_reference(instance, profile, rng.choice(rounds), order)
            # every term is scored with welfare at most once, however the
            # rounds that share it are settled
            terms = {id(t): t for r in rounds for t in r.balanced}.values()
            assert sum(scored.values()) <= len(terms)
        assert min(kinds[k] for k in (0, 1, 2, "rebuilt")) > 100

    def test_reports_are_checked_in_one_pass_and_only_changed_ones_scored(
        self, collusion_market, monkeypatch
    ):
        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(mechanism, "welfare", counted("welfare", mechanism.welfare))
        monkeypatch.setattr(
            MarketInstance,
            "validate_reports",
            counted("validate", MarketInstance.validate_reports),
        )
        spec = collusion_market.validity
        truthful = collusion_market.truthful_reports()
        prepared = prepare_round(collusion_market, spec, demo_proposals(collusion_market), ["b1", "b2"])
        # well-formed profiles never reach validate_reports
        run(collusion_market, spec, truthful, prepared, ["b1", "b2"])
        assert calls == {"welfare": 2}
        for value in (F(7), F(1, 3), F(0)):
            run(collusion_market, spec, truthful.replace_tx("t1", value), prepared, ["b1", "b2"])
        run(collusion_market, spec, truthful, prepared.without("b2"), ["b1", "b2"])
        assert calls == {"welfare": 2}
        # a malformed one reaches it once, for its error
        negative = ReportProfile({**truthful.tx_reports, "t2": F(-1)}, truthful.node_reports)
        with pytest.raises(MalformedInput, match="report of 't2' must be non-negative"):
            run(collusion_market, spec, negative, prepared, ["b1", "b2"])
        assert calls == {"welfare": 2, "validate": 1}

    def test_malformed_reports_give_the_reference_error(self):
        rng = random.Random(5150)
        errors = Counter()
        for instance, reports, rounds, order in memo_rounds(rng, 120):
            prepared = rng.choice(rounds)
            settles_as_reference(instance, reports, prepared, order)
            tx, node = rng.choice(instance.tx_ids), rng.choice(instance.node_ids)
            negative = ReportProfile({**reports.tx_reports, tx: F(-1)}, reports.node_reports)
            # a table over no transaction has no entry for any bundle the node runs
            empty_table = SubsetTable(frozenset(), {frozenset(): F(0)})
            lacking = ReportProfile(reports.tx_reports, {**reports.node_reports, node: empty_table})
            for bad in (negative, lacking, changed_profile(rng, instance, reports, 1)):
                result = settles_as_reference(instance, bad, prepared, order)
                errors[result[1] if isinstance(result, tuple) else "settled"] += 1
            # an error leaves the memos as they were
            settles_as_reference(instance, reports, prepared, order)
        assert sum(n for message, n in errors.items() if "must be non-negative" in message) == 120
        assert sum(n for message, n in errors.items() if "has no entry for bundle" in message) > 30
        assert errors["settled"] > 150

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


class TestViolatorMask:
    def test_one_agent_deviations_in_and_out_of_violation_match_the_reference(self):
        # one prepared round per market settles a sequence of one-agent
        # deviations; the winner's violator mask moves with the changed agent
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

    def test_the_mask_is_read_off_the_utilities(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        proposal = demo_proposals(collusion_market)[0]
        terms = settled_terms(collusion_market, truthful, proposal, ["b1", "b2"])
        assert terms.negative == 0
        lying = truthful.replace_tx("t1", F(1))
        terms = settled_terms(collusion_market, lying, proposal, ["b1", "b2"])
        # t1 pays 2 but reports 1
        assert terms.utilities[0] < 0 and terms.negative == 1

