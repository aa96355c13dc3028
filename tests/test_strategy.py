import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerlab import mechanism, strategy, validity
from brokerlab.cli import _figure1_proposals
from brokerlab.core import (
    Allocation,
    ConstantNonempty,
    EMPTY_ALLOCATION,
    ReportProfile,
    Routing,
    agent_utility,
    margin,
    surplus,
    welfare,
)
from brokerlab.equilibrium import construct_consensus_equilibrium
from brokerlab.errors import InfeasibleTarget, InstanceTooLarge, MalformedInput, MarketError
from brokerlab.mdfm import collusion_example_instance, oracle_gap_market
from brokerlab.mechanism import Proposal, prepare_round, run
from brokerlab.scenario import dynamics_step_to_json, dynamics_summary_to_json
from brokerlab.strategy import (
    WelfareMax,
    _max_winning_margin,
    best_response_dynamics,
    broker_best_response,
    max_extraction_routing,
    scaled_rebate_routing,
    welfare_max_allocation,
)
from brokerlab.validity import Constraints, enumerate_valid

from helpers import (
    CountedCost,
    best_response_dynamics_reference,
    broker_best_response_reference,
    frac,
    max_winning_margin_by_division,
    naive_enumerate,
    payments_divide,
    random_instance,
    random_reports,
    random_routing,
    rebuilt_profile,
    run_reference,
    scaled_rebate_routing_reference,
)


@pytest.fixture
def collusion_market():
    return collusion_example_instance()


class TestMaxExtraction:
    def test_empty_allocation(self, collusion_market):
        routing = max_extraction_routing(collusion_market, EMPTY_ALLOCATION, collusion_market.truthful_reports())
        assert routing.allocation.is_empty()
        assert margin(routing) == 0

    def test_two_node_allocation(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        routing = max_extraction_routing(collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful)
        assert routing.tx_payments == {"t1": F(6), "t2": F(0)}
        assert routing.node_payments == {"n1": F(1), "n2": F(1)}
        assert margin(routing) == 4
        assert surplus(collusion_market, routing, truthful) == 0

    def test_single_node_allocation(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        routing = max_extraction_routing(collusion_market, Allocation.of({"t2": ["n1"]}), truthful)
        assert routing.tx_payments["t2"] == 4
        assert routing.node_payments["n1"] == 1
        assert margin(routing) == 3

    def test_margin_equals_welfare_on_random_corpus(self):
        rng = random.Random(2025)
        for _ in range(100):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            reports, _ = random_reports(rng, instance)
            for allocation in enumerate_valid(instance):
                routing = max_extraction_routing(instance, allocation, reports)
                assert margin(routing) == welfare(instance, allocation, reports)
                assert surplus(instance, routing, reports) == 0


class TestWelfareMax:
    def test_collusion_example(self, collusion_market):
        best = welfare_max_allocation(collusion_market, collusion_market.validity, collusion_market.truthful_reports())
        assert best.allocation == Allocation.of({"t1": ["n1", "n2"]})
        assert best.welfare == 4
        assert best.unique

    def test_all_zero_values_prefers_empty(self):
        rng = random.Random(5)
        instance = random_instance(rng, max_txs=2, max_nodes=2)
        zeroed = instance.truthful_reports()
        zeroed = type(zeroed)({t: F(0) for t in zeroed.tx_reports}, zeroed.node_reports)
        best = welfare_max_allocation(instance, instance.validity, zeroed)
        assert best.allocation == EMPTY_ALLOCATION

    def test_oracle_gap_pairing(self):
        market = oracle_gap_market(2, [F(1), F(2)])
        instance = market.instance()
        best = welfare_max_allocation(instance, instance.validity, instance.truthful_reports())
        assert best.allocation == Allocation.of({"t01": ["n01"], "t02": ["n02"]})
        assert best.welfare == 2


class TestScaledRebate:
    def test_zero_target_on_collusion_example(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        routing = scaled_rebate_routing(
            collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful, F(0)
        )
        assert routing.tx_payments["t1"] == 2  # scale (1+1+0)/6
        assert margin(routing) == 0
        assert surplus(collusion_market, routing, truthful) == 4

    def test_full_target_matches_max_extraction(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        assert scaled_rebate_routing(collusion_market, allocation, truthful, F(4)) == max_extraction_routing(
            collusion_market, allocation, truthful
        )

    def test_empty_allocation_zero_target(self, collusion_market):
        routing = scaled_rebate_routing(collusion_market, EMPTY_ALLOCATION, collusion_market.truthful_reports(), F(0))
        assert routing == collusion_market.empty_routing()

    def test_infeasible_targets_raise(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        with pytest.raises(InfeasibleTarget):
            scaled_rebate_routing(collusion_market, allocation, truthful, F(5))
        with pytest.raises(InfeasibleTarget):
            scaled_rebate_routing(collusion_market, allocation, truthful, F(-1))

    def test_exact_margin_and_nonnegative_utilities_on_corpus(self):
        rng = random.Random(404)
        for _ in range(100):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            reports, _ = random_reports(rng, instance)
            for allocation in enumerate_valid(instance):
                w = welfare(instance, allocation, reports)
                if w < 0:
                    continue
                target = w * F(rng.randint(0, 4), 4)
                routing = scaled_rebate_routing(instance, allocation, reports, target)
                assert margin(routing) == target
                outcome_utils = [
                    reports.tx_reports[tx] - routing.tx_payments[tx]
                    for tx in allocation.transactions
                ]
                assert all(u >= 0 for u in outcome_utils)


def routing_or_error(make, *args):
    """The routing and its margin, or the type and message of the error raised."""
    try:
        routing = make(*args)
    except MarketError as exc:
        return type(exc), str(exc)
    return routing, margin(routing)


class TestRebatePlan:
    """``scaled_rebate_routing`` and ``max_extraction_routing`` read one
    rebate plan; ``scaled_rebate_routing_reference`` is the from-scratch
    formula it replaced."""

    def test_plan_routings_match_the_reference(self):
        rng = random.Random(3167)
        kinds = Counter()
        for i in range(150):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            reports, _ = random_reports(rng, instance, liar_prob=0.5)
            if i % 5 == 0:
                # zero values: every allocation has total value 0
                reports = ReportProfile(dict.fromkeys(instance.tx_ids, F(0)), reports.node_reports)
            for allocation in enumerate_valid(instance):
                args = (instance, allocation, reports)
                w = welfare(*args)
                total_value = sum((reports.tx_reports[t] for t in allocation.transactions), F(0))
                kinds["total value 0" if total_value == 0 else "positive total value"] += 1
                kinds["negative welfare" if w < 0 else "non-negative welfare"] += 1
                targets = [F(0), w, w / 2, w + F(1, 3), F(-1), w * F(rng.randint(0, 4), 4)]
                for target in targets:
                    got = routing_or_error(scaled_rebate_routing, *args, target)
                    want = routing_or_error(scaled_rebate_routing_reference, *args, target)
                    assert got == want
                    kinds["refused" if isinstance(got[0], type) else "routed"] += 1
                # full value, nodes at cost: the plan at scale 1, also below welfare 0
                routing = max_extraction_routing(*args)
                included = allocation.transactions
                assert routing.tx_payments == {
                    t: (reports.tx_reports[t] if t in included else F(0)) for t in instance.tx_ids
                }
                assert margin(routing) == w
                if w >= 0:
                    assert routing == scaled_rebate_routing_reference(*args, w)
        assert min(kinds.values()) > 100

    def test_routings_of_one_plan_share_no_mapping(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        spec, order = collusion_market.validity, ["b1", "b2"]
        both = Allocation.of({"t1": ["n1", "n2"]})
        rival = Proposal("b2", scaled_rebate_routing(collusion_market, both, truthful, F(3)))
        first = broker_best_response("b1", collusion_market, spec, truthful, [rival], order)
        routing = first.proposal.routing
        want = (dict(routing.tx_payments), dict(routing.node_payments))
        routing.tx_payments["t1"] = F(99)
        routing.node_payments["n1"] = F(99)
        # the second response reads the remembered plan
        again = broker_best_response("b1", collusion_market, spec, truthful, [rival], order)
        other = again.proposal.routing
        assert (other.tx_payments, other.node_payments) == want
        assert other.tx_payments is not routing.tx_payments
        assert other.node_payments is not routing.node_payments


class TestBrokerBestResponse:
    def test_malformed_rivals_are_refused_as_the_reference_refuses_them(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        # figure 1 runs t1 on exactly two nodes
        invalid = Routing(
            Allocation.of({"t1": ["n1"]}), {"t1": F(0), "t2": F(0)}, {"n1": F(0), "n2": F(0)}
        )
        negative = Routing(EMPTY_ALLOCATION, {"t1": F(-1), "t2": F(0)}, {"n1": F(0), "n2": F(0)})
        lying = ReportProfile({**truthful.tx_reports, "t2": F(-1)}, truthful.node_reports)
        cases = [
            (truthful, [Proposal("b2", invalid)], ["b1", "b2"]),
            (truthful, [Proposal("b2", negative)], ["b1", "b2"]),
            # the first refused rival in broker order is named
            (truthful, [Proposal("b3", negative), Proposal("b2", invalid)], ["b1", "b2", "b3"]),
            # reports are refused before proposals
            (lying, [Proposal("b2", invalid)], ["b1", "b2"]),
        ]
        # rivals prepared for another spec are checked again, as a list is
        elsewhere = prepare_round(collusion_market, Constraints(()), [Proposal("b2", invalid)], ["b1", "b2"])
        cases += [(truthful, elsewhere, ["b1", "b2"]), (lying, elsewhere, ["b1", "b2"])]
        for reports, rivals, order in cases:
            refusals = []
            for respond in (broker_best_response, broker_best_response_reference):
                with pytest.raises(MarketError) as refused:
                    respond("b1", collusion_market, collusion_market.validity, reports, rivals, order)
                refusals.append((type(refused.value), str(refused.value)))
            assert refusals[0] == refusals[1]

    @pytest.mark.parametrize("missing", ["transaction", "node"])
    def test_reports_that_are_not_total_are_refused_with_a_typed_error(
        self, collusion_market, missing
    ):
        truthful = collusion_market.truthful_reports()
        if missing == "transaction":
            reports = ReportProfile({"t1": F(6)}, truthful.node_reports)
        else:
            reports = ReportProfile(truthful.tx_reports, {"n1": truthful.node_reports["n1"]})
        spec, order = collusion_market.validity, ["b1", "b2"]
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        rivals = [Proposal("b2", scaled_rebate_routing(collusion_market, allocation, truthful, F(0)))]
        prepared = prepare_round(collusion_market, spec, rivals, order)
        entry_points = [
            lambda: broker_best_response("b1", collusion_market, spec, reports, rivals, order),
            lambda: broker_best_response("b1", collusion_market, spec, reports, prepared, order),
            lambda: welfare_max_allocation(collusion_market, spec, reports),
            lambda: construct_consensus_equilibrium(collusion_market, spec, reports, order),
        ]
        for call in entry_points:
            with pytest.raises(MalformedInput, match=f"^{missing} reports must be total"):
                call()

    def test_monopolist_extracts_everything(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        response = broker_best_response("b1", collusion_market, collusion_market.validity, truthful, [], ["b1"])
        assert response.wins
        assert response.utility == 4
        assert response.proposal.routing.allocation == Allocation.of({"t1": ["n1", "n2"]})
        assert response.proposal.routing.tx_payments["t1"] == 6

    def test_no_profitable_win_returns_empty_routing(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        rival = Proposal(
            "b1",
            scaled_rebate_routing(collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful, F(0)),
        )
        response = broker_best_response(
            "b2", collusion_market, collusion_market.validity, truthful, [rival], ["b1", "b2"]
        )
        assert response.utility == 0
        assert response.proposal.routing.allocation.is_empty()

    def test_zero_values_yield_zero_utility(self):
        rng = random.Random(17)
        instance = random_instance(rng, max_txs=2, max_nodes=2)
        reports = instance.truthful_reports()
        reports = type(reports)({t: F(0) for t in reports.tx_reports}, reports.node_reports)
        response = broker_best_response(
            "b1", instance, instance.validity, reports, [], ["b1"]
        )
        assert response.utility == 0

    def test_undercuts_rival_on_margin_lattice(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        rival = Proposal("b1", max_extraction_routing(collusion_market, allocation, truthful))
        response = broker_best_response(
            "b2", collusion_market, collusion_market.validity, truthful, [rival], ["b1", "b2"], quantum=F(1, 4)
        )
        assert response.wins
        assert response.utility == F(15, 4)
        assert margin(response.proposal.routing) == F(15, 4)

    def test_tie_winner_matches_rival_surplus_exactly(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        rival = Proposal(
            "b2", scaled_rebate_routing(collusion_market, allocation, truthful, F(7, 2))
        )
        response = broker_best_response(
            "b1", collusion_market, collusion_market.validity, truthful, [rival], ["b1", "b2"], quantum=F(1, 4)
        )
        # b1 precedes b2, so matching the rival's surplus of 1/2 suffices
        assert response.utility == F(7, 2)
        assert surplus(collusion_market, response.proposal.routing, truthful) == F(1, 2)

    def test_best_response_never_negative_on_corpus(self):
        rng = random.Random(606)
        for _ in range(60):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            reports, _ = random_reports(rng, instance)
            allocations = enumerate_valid(instance)
            rival_alloc = rng.choice(allocations)
            rival = Proposal(
                "b1", max_extraction_routing(instance, rival_alloc, reports)
            )
            rivals = [rival] if margin(rival.routing) >= 0 else []
            response = broker_best_response(
                "b2", instance, instance.validity, reports, rivals, ["b1", "b2"]
            )
            assert response.utility >= 0
            if response.wins and not response.proposal.routing.allocation.is_empty():
                outcome = run(
                    instance,
                    instance.validity,
                    reports,
                    rivals + [response.proposal],
                    ["b1", "b2"],
                )
                assert outcome.winner == "b2"
                assert outcome.broker_payment == response.utility


# (quantum, lattice_margins) pairs the best-response oracle runs under
QUANTA = [(F(1, 1024), False), (F(1, 4), False), (F(1, 4), True), (F(1, 3), True), (F(5, 2), True)]


def best_response_cases(seed, count):
    """Figure 1's cases, then ``count`` random cases on up to 3 transactions
    x 2 nodes with 1-2 rivals: (broker, instance, reports, rivals, broker
    order).  Every fifth random case reports every transaction at zero and
    every node at a positive constant, so each non-empty allocation has
    negative welfare."""
    figure1 = collusion_example_instance()
    truthful = figure1.truthful_reports()
    both = Allocation.of({"t1": ["n1", "n2"]})
    yield "b1", figure1, truthful, [], ["b1"]
    for target in (F(0), F(7, 2), F(4)):
        rival = Proposal("b1", scaled_rebate_routing(figure1, both, truthful, target))
        yield "b2", figure1, truthful, [rival], ["b1", "b2"]
        yield "b2", figure1, truthful, [rival], ["b2", "b1"]
    rng = random.Random(seed)
    for i in range(count):
        instance = random_instance(rng, max_txs=3, max_nodes=2)
        reports, _ = random_reports(rng, instance, liar_prob=0.3)
        if i % 5 == 0:
            reports = ReportProfile(
                {tx: F(0) for tx in instance.tx_ids},
                {n: ConstantNonempty(frac(rng, 1, 4)) for n in instance.node_ids},
            )
        allocations = enumerate_valid(instance)
        brokers = [f"b{j + 1}" for j in range(rng.randint(2, 3))]
        order = list(brokers)
        rng.shuffle(order)
        rivals = [
            Proposal(b, random_routing(rng, instance, rng.choice(allocations), reports))
            for b in brokers[1:]
        ]
        yield "b1", instance, reports, rivals, order


def case_kinds(broker, instance, reports, rivals, order):
    """The rival and welfare configurations one case exercises."""
    kinds = set()
    top = [
        (surplus(instance, p.routing, reports), order.index(p.broker))
        for p in rivals
        if margin(p.routing) >= 0
    ]
    if not top:
        kinds.add("no budget-balanced rival")
    else:
        best = max(s for s, _ in top)
        if best < 0:
            kinds.add("negative rival surplus")
        wins = all(order.index(broker) < pos for s, pos in top if s == best)
        kinds.add("wins ties" if wins else "loses ties")
    welfares = [welfare(instance, a, reports) for a in enumerate_valid(instance) if not a.is_empty()]
    if welfares and max(welfares) < 0:
        kinds.add("all-negative welfare")
    maximum = welfare_max_allocation(instance, instance.validity, reports)
    if maximum.welfare > 0 and not maximum.unique:
        kinds.add("tied maximal welfare")
    return kinds


@given(
    w=st.fractions(min_value=-6, max_value=12, max_denominator=8),
    dw=st.fractions(min_value=0, max_value=12, max_denominator=8),
    rival_best=st.none() | st.fractions(min_value=-6, max_value=12, max_denominator=8),
    wins_ties=st.booleans(),
    quantum=st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8),
    lattice=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_max_winning_margin_is_monotone_in_welfare(w, dw, rival_best, wins_ties, quantum, lattice):
    # the lemma behind the one welfare pass; None ranks below every margin
    low = _max_winning_margin(w, rival_best, wins_ties, quantum, lattice)
    high = _max_winning_margin(w + dw, rival_best, wins_ties, quantum, lattice)
    assert low is None or (high is not None and low <= high)


@given(
    w=st.fractions(min_value=-6, max_value=12, max_denominator=16),
    rival_best=st.none() | st.fractions(min_value=-6, max_value=12, max_denominator=16),
    wins_ties=st.booleans(),
    quantum=st.fractions(min_value=F(1, 16), max_value=4, max_denominator=16),
    lattice=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_max_winning_margin_floors_match_the_fraction_divisions(w, rival_best, wins_ties, quantum, lattice):
    # integer floor divisions against the Fraction division and floor they replaced
    args = (w, rival_best, wins_ties, quantum, lattice)
    assert _max_winning_margin(*args) == max_winning_margin_by_division(*args)


@pytest.mark.parametrize(
    "w, rival_best, quantum, lattice, want",
    [
        # a gap on the lattice: the margin is one quantum below it
        (F(3), F(1), F(1, 2), False, F(3, 2)),
        # a gap off the lattice: the margin is the lattice point below it
        (F(3), F(3, 4), F(1, 2), False, F(2)),
        # a margin capped at w, then floored onto the lattice
        (F(5, 4), F(-1), F(1, 2), True, F(1)),
        (F(1, 8), F(0), F(1, 4), False, F(0)),
    ],
)
def test_max_winning_margin_floors_on_pinned_gaps(w, rival_best, quantum, lattice, want):
    assert _max_winning_margin(w, rival_best, False, quantum, lattice) == want


class TestBestResponseOracle:
    def test_matches_the_per_allocation_search(self):
        kinds = set()
        responses = set()
        for case in best_response_cases(8128, 220):
            broker, instance, reports, rivals, order = case
            kinds |= case_kinds(*case)
            for quantum, lattice in QUANTA:
                args = (broker, instance, instance.validity, reports, rivals, order, quantum, lattice)
                got = broker_best_response(*args)
                want = broker_best_response_reference(*args)
                assert (got.proposal, got.utility, got.wins, got.allocations_examined) == (
                    want.proposal,
                    want.utility,
                    want.wins,
                    want.allocations_examined,
                )
                ordered = sorted([*rivals, got.proposal], key=lambda p: order.index(p.broker))
                assert got.outcome == run_reference(instance, instance.validity, reports, ordered, order)
                responses.add("empty" if got.proposal.routing.allocation.is_empty() else "non-empty")
        assert kinds == {
            "no budget-balanced rival",
            "negative rival surplus",
            "wins ties",
            "loses ties",
            "all-negative welfare",
            "tied maximal welfare",
        }
        assert responses == {"empty", "non-empty"}

    @pytest.mark.parametrize(
        "order, wins_ties", [(["b2", "b1", "b3"], False), (["b1", "b2", "b3"], True)]
    )
    def test_rivals_tied_at_the_top_surplus(self, order, wins_ties):
        # b2 and b3 propose one routing of surplus 3: b1 must beat it
        # strictly when b2 precedes it, and may match it when b1 comes first
        instance = collusion_example_instance()
        reports, spec, quantum = instance.truthful_reports(), instance.validity, F(1, 4)
        routing = scaled_rebate_routing(instance, Allocation.of({"t1": ["n1", "n2"]}), reports, F(1))
        rivals = [Proposal("b2", routing), Proposal("b3", routing)]
        want = broker_best_response_reference("b1", instance, spec, reports, rivals, order, quantum)
        for given in (rivals, prepare_round(instance, spec, rivals, order)):
            got = broker_best_response("b1", instance, spec, reports, given, order, quantum)
            assert (got.proposal, got.utility, got.wins) == (want.proposal, want.utility, want.wins)
            assert got.wins and got.utility == (1 if wins_ties else F(3, 4))
            assert got.outcome == run_reference(instance, spec, reports, [*rivals, got.proposal], order)


def brute_force_argmax(instance, spec, reports):
    """First allocation of maximal reported welfare in canonical order, over
    the raw allocation space filtered by the validity test."""
    scored = [(welfare(instance, a, reports), a) for a in naive_enumerate(instance, spec)]
    top = max(w for w, _ in scored)
    winners = [a for w, a in scored if w == top]
    return WelfareMax(winners[0], top, len(winners) == 1)


class TestArgmaxMemo:
    def test_interleaved_profiles_match_the_reference(self, monkeypatch):
        # one instance under changing report profiles: every answer must be
        # the reference's, whatever the remembered argmax was computed for
        passes = []

        def counted_argmax(*args):
            passes.append(args)
            return argmax(*args)

        argmax = strategy._welfare_argmax
        monkeypatch.setattr(strategy, "_welfare_argmax", counted_argmax)
        rng = random.Random(6174)
        lookups = 0
        changed = set()

        def check(instance, spec, reports, rivals, quantum, lattice):
            nonlocal lookups
            args = (broker, instance, spec, reports, rivals, order, quantum, lattice)
            got = broker_best_response(*args)
            want = broker_best_response_reference(*args)
            assert (got.proposal, got.utility, got.wins, got.allocations_examined) == (
                want.proposal,
                want.utility,
                want.wins,
                want.allocations_examined,
            )
            ordered = sorted([*rivals, got.proposal], key=lambda p: order.index(p.broker))
            assert got.outcome == run_reference(instance, spec, reports, ordered, order)
            maximum = welfare_max_allocation(instance, spec, reports)
            assert maximum == brute_force_argmax(instance, spec, reports)
            lookups += 2
            return maximum

        for i, (broker, instance, reports, rivals, order) in enumerate(best_response_cases(6174, 80)):
            quantum, lattice = QUANTA[i % len(QUANTA)]
            spec = instance.validity
            mutable = ReportProfile(dict(reports.tx_reports), dict(reports.node_reports))
            other, _ = random_reports(rng, instance, liar_prob=0.8)
            first = check(instance, spec, mutable, rivals, quantum, lattice)
            check(instance, spec, other, rivals, quantum, lattice)
            check(instance, spec, mutable, rivals, quantum, lattice)
            # the same profile object, mutated in place between calls
            tx = rng.choice(instance.tx_ids)
            mutable.tx_reports[tx] = mutable.tx_reports[tx] + 8
            if check(instance, spec, mutable, rivals, quantum, lattice) != first:
                changed.add("tx report mutated")
            node = rng.choice(instance.node_ids)
            mutable.node_reports[node] = ConstantNonempty(F(9))
            if check(instance, spec, mutable, rivals, quantum, lattice) != first:
                changed.add("node report mutated")
            # an equal profile built anew, then another spec for the same instance
            rebuilt = ReportProfile(dict(mutable.tx_reports), dict(mutable.node_reports))
            constrained = check(instance, spec, rebuilt, rivals, quantum, lattice)
            if check(instance, Constraints(()), rebuilt, rivals, quantum, lattice) != constrained:
                changed.add("spec replaced")
            # replaced instances: an equal copy, then one without constraints
            # read through ``spec=None``, whose valid set is larger
            check(replace(instance), spec, rebuilt, rivals, quantum, lattice)
            constrained = check(instance, None, rebuilt, rivals, quantum, lattice)
            free = replace(instance, validity=Constraints(()))
            if check(free, None, rebuilt, rivals, quantum, lattice) != constrained:
                changed.add("instance replaced")
        assert changed == {
            "tx report mutated",
            "node report mutated",
            "spec replaced",
            "instance replaced",
        }
        # the memo answered some lookups and missed on every change above
        assert 0 < len(passes) < lookups

    def test_the_memo_answers_the_same_report_objects_only(self, collusion_market, monkeypatch):
        passes = []

        def counted_argmax(*args):
            passes.append(args)
            return argmax(*args)

        argmax = strategy._welfare_argmax
        monkeypatch.setattr(strategy, "_welfare_argmax", counted_argmax)
        spec, truthful = collusion_market.validity, collusion_market.truthful_reports()
        want = brute_force_argmax(collusion_market, spec, truthful)
        # the same profile object twice: one welfare pass
        for _ in range(2):
            assert welfare_max_allocation(collusion_market, spec, truthful) == want
        assert len(passes) == 1
        # an equal profile whose every report is a new object: a fresh pass
        assert welfare_max_allocation(collusion_market, spec, rebuilt_profile(truthful)) == want
        assert len(passes) == 2


class TestMarketMemos:
    """The valid set and the argmax are memoised on the market they
    describe, and freed with it."""

    def test_two_markets_used_in_turn_search_and_score_once_each(self, monkeypatch):
        searches, passes = [], []

        def counted_search(*args):
            searches.append(args)
            return search(*args)

        def counted_argmax(*args):
            passes.append(args)
            return argmax(*args)

        search, argmax = validity._search_valid, strategy._welfare_argmax
        monkeypatch.setattr(validity, "_search_valid", counted_search)
        monkeypatch.setattr(strategy, "_welfare_argmax", counted_argmax)
        rng = random.Random(8128)
        figure1 = collusion_example_instance()
        other = random_instance(rng, max_txs=3, max_nodes=2)
        markets = [
            (figure1, figure1.truthful_reports()),
            (other, random_reports(rng, other, liar_prob=0.5)[0]),
        ]
        for market, reports in markets * 2:
            spec = market.validity
            assert enumerate_valid(market, spec) == naive_enumerate(market, spec)
            maximum = welfare_max_allocation(market, spec, reports)
            assert maximum == brute_force_argmax(market, spec, reports)
        assert [s[0] for s in searches] == [figure1, other]
        assert len(passes) == 2

    def test_a_market_is_freed_with_its_last_reference(self):
        def enumerated():
            market = collusion_example_instance()
            enumerate_valid(market)
            return weakref.ref(market)

        def dynamics():
            market, truthful, start, order, quantum, max_rounds = figure1_generated()
            trace = best_response_dynamics(
                market, market.validity, truthful, start, order, quantum, max_rounds
            )
            assert trace.converged
            return weakref.ref(market)

        # with no cyclic collection, only reference counting can free it
        gc.disable()
        try:
            assert enumerated()() is None
            assert dynamics()() is None
        finally:
            gc.enable()
        # the memos stay out of ==, hash and repr
        memoised, truthful, start, order, quantum, max_rounds = figure1_generated()
        best_response_dynamics(
            memoised, memoised.validity, truthful, start, order, quantum, max_rounds
        )
        assert memoised._valid is not None and memoised._argmax is not None
        fresh = collusion_example_instance()
        assert memoised == fresh
        assert hash(memoised) == hash(fresh)
        assert repr(memoised) == repr(fresh)


def dynamics_runs(seed, count):
    """Figure 1 with two and three brokers, and cut off after three rounds,
    then ``count`` random 2-3 broker dynamics on up to 3 transactions x 2
    nodes from random routings: (instance, reports, initial proposals,
    broker order, quantum, max_rounds)."""
    figure1 = collusion_example_instance()
    truthful = figure1.truthful_reports()
    both = Allocation.of({"t1": ["n1", "n2"]})
    for brokers, quantum, max_rounds in (
        (["b1", "b2"], F(1, 4), 100),
        (["b1", "b2", "b3"], F(1, 4), 100),
        (["b1", "b2"], F(1, 16), 3),
    ):
        start = [Proposal(b, max_extraction_routing(figure1, both, truthful)) for b in brokers]
        yield figure1, truthful, start, brokers, quantum, max_rounds
    rng = random.Random(seed)
    for _ in range(count):
        instance = random_instance(rng, max_txs=3, max_nodes=2)
        reports, _ = random_reports(rng, instance, liar_prob=0.3)
        allocations = enumerate_valid(instance)
        brokers = [f"b{j + 1}" for j in range(rng.randint(2, 3))]
        start = [
            Proposal(b, random_routing(rng, instance, rng.choice(allocations), reports))
            for b in brokers
        ]
        order = list(brokers)
        rng.shuffle(order)
        best = welfare_max_allocation(instance, instance.validity, reports).welfare
        quantum = best / 8 if best > 0 else F(1, 4)
        yield instance, reports, start, order, quantum, 12


def dynamics_trace(instance, reports, start, order, quantum, max_rounds):
    return best_response_dynamics(
        instance, instance.validity, reports, start, order, quantum, max_rounds
    )


class TestDynamicsTraces:
    def test_golden_traces(self):
        # whole traces: every step's proposal and utility, then the summary
        # with the terminal profile, rounds and convergence
        traces = []
        for run_args in dynamics_runs(2718, 24):
            trace = dynamics_trace(*run_args)
            steps = [dynamics_step_to_json(s.broker, s.proposal, s.utility) for s in trace.steps]
            traces.append([steps, dynamics_summary_to_json(trace)])
        assert {t[1]["converged"] for t in traces} == {True, False}
        assert sum(t[1]["steps"] for t in traces) > 100
        digest = hashlib.sha256(json.dumps(traces, sort_keys=True).encode()).hexdigest()
        assert digest == "fa563e9853732fca8d3a03611b1b2282b800aa2836172a338fe7ca49442db4ed"

    def test_one_round_per_turn_and_one_search_per_market(self, monkeypatch):
        # Counted over the whole loop, generation included: ``dynamics_runs``
        # reuses figure 1's instance and reads each random instance's valid
        # set and argmax before yielding it.  Keys are ids, and the objects
        # behind them are kept, so no id is reused.
        runs, checks, searches, passes = [], [], [], []
        searched, scored = {}, {}

        def counted_run(*args):
            runs.append(args)
            return mechanism.run(*args)

        def counted_search(instance, spec, cap):
            searches.append((instance, spec, cap))
            return search(instance, spec, cap)

        def counted_argmax(*args):
            passes.append(args)
            return argmax(*args)

        def counted_is_valid(*args):
            checks.append(args)
            return is_valid(*args)

        def counted_enumerate(instance, spec=None, cap=validity.DEFAULT_ENUM_CAP):
            before = len(searches)
            found = validity.enumerate_valid(instance, spec, cap)
            # one search for a new (instance, spec) key, none for a seen one;
            # ``None`` and the instance's own spec are one key
            resolved = instance.validity if spec is None else spec
            key = (id(instance), id(resolved))
            assert len(searches) - before == (key not in searched)
            searched[key] = (instance, resolved)
            return found

        def counted_welfare_max(instance, spec, reports, objects, allocations):
            before = len(passes)
            found = welfare_max(instance, spec, reports, objects, allocations)
            # one pass for a new (instance, spec, report objects) key, none
            # for a seen one, the spec resolved as for a search
            resolved = instance.validity if spec is None else spec
            key = (id(instance), id(resolved), *map(id, objects))
            assert len(passes) - before == (key not in scored)
            scored[key] = (instance, resolved, objects)
            return found

        search = validity._search_valid
        argmax = strategy._welfare_argmax
        welfare_max = strategy._welfare_max
        is_valid = mechanism.is_valid
        monkeypatch.setattr(strategy, "run", counted_run)
        monkeypatch.setattr(validity, "_search_valid", counted_search)
        monkeypatch.setattr(strategy, "_welfare_argmax", counted_argmax)
        monkeypatch.setattr(mechanism, "is_valid", counted_is_valid)
        monkeypatch.setattr(strategy, "enumerate_valid", counted_enumerate)
        monkeypatch.setitem(globals(), "enumerate_valid", counted_enumerate)
        monkeypatch.setattr(strategy, "_welfare_max", counted_welfare_max)
        for run_args in dynamics_runs(2718, 24):
            order = run_args[3]
            for calls in (runs, checks):
                calls.clear()
            trace = dynamics_trace(*run_args)
            assert len(runs) == 1 + trace.rounds * len(order)
            # the starting profile, then one response per broker turn
            assert len(checks) == len(order) + trace.rounds * len(order)
        # every search and pass went through a counted lookup
        assert len(searches) == len(searched) and len(passes) == len(scored)
        assert {cap for _, _, cap in searches} == {validity.DEFAULT_ENUM_CAP}
        # one search per market, though generation reads each random
        # market's valid set through ``spec=None`` and then through its own
        # spec, and one report profile per market: figure 1's three runs
        # share one search and one pass
        assert len(searches) == 1 + 24
        assert len(passes) == 1 + 24


class TestDynamics:
    def test_figure_one_undercutting(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        start = [
            Proposal("b1", max_extraction_routing(collusion_market, allocation, truthful)),
            Proposal("b2", max_extraction_routing(collusion_market, allocation, truthful)),
        ]
        trace = best_response_dynamics(
            collusion_market, collusion_market.validity, truthful, start, ["b1", "b2"], F(1, 4), 100
        )
        assert trace.converged
        outcome = run(collusion_market, collusion_market.validity, truthful, list(trace.terminal), ["b1", "b2"])
        assert outcome.winner is not None
        assert outcome.routing.allocation == allocation
        assert outcome.broker_payment <= F(1, 4)

    def test_single_broker_rejected(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        start = [Proposal("b1", collusion_market.empty_routing())]
        with pytest.raises(MalformedInput):
            best_response_dynamics(
                collusion_market, collusion_market.validity, truthful, start, ["b1"], F(1, 4), 10
            )

    def test_zero_margin_start_converges_immediately(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        routing = scaled_rebate_routing(collusion_market, allocation, truthful, F(0))
        start = [Proposal("b1", routing), Proposal("b2", routing)]
        trace = best_response_dynamics(
            collusion_market, collusion_market.validity, truthful, start, ["b1", "b2"], F(1, 4), 10
        )
        assert trace.converged
        assert trace.steps == ()
        assert trace.rounds == 1

    def test_bad_quantum_rejected(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        start = [
            Proposal("b1", collusion_market.empty_routing()),
            Proposal("b2", collusion_market.empty_routing()),
        ]
        with pytest.raises(MalformedInput):
            best_response_dynamics(
                collusion_market, collusion_market.validity, truthful, start, ["b1", "b2"], F(0), 10
            )

    @pytest.mark.parametrize("max_rounds", [0, -2])
    def test_max_rounds_below_one_rejected(self, collusion_market, max_rounds):
        truthful = collusion_market.truthful_reports()
        start = [
            Proposal("b1", collusion_market.empty_routing()),
            Proposal("b2", collusion_market.empty_routing()),
        ]
        with pytest.raises(MalformedInput, match="max_rounds"):
            best_response_dynamics(
                collusion_market, collusion_market.validity, truthful, start, ["b1", "b2"], F(1, 4), max_rounds
            )

    def test_turns_past_the_budget_are_refused(self, collusion_market, monkeypatch):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        zero = scaled_rebate_routing(collusion_market, allocation, truthful, F(0))
        extracting = max_extraction_routing(collusion_market, allocation, truthful)
        monkeypatch.setattr(strategy, "MAX_DYNAMICS_TURNS", 2)
        # one round of two turns converges exactly at the budget
        trace = best_response_dynamics(
            collusion_market, collusion_market.validity, truthful,
            [Proposal("b1", zero), Proposal("b2", zero)], ["b1", "b2"], F(1, 4), 10,
        )
        assert trace.converged and trace.rounds == 1
        with pytest.raises(InstanceTooLarge, match=r"best_response_dynamics: 2 broker turns .* cap is 2"):
            best_response_dynamics(
                collusion_market, collusion_market.validity, truthful,
                [Proposal("b1", extracting), Proposal("b2", extracting)], ["b1", "b2"], F(1, 4), 10,
            )

    def test_three_brokers_converge(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        start = [
            Proposal(b, max_extraction_routing(collusion_market, allocation, truthful))
            for b in ("b1", "b2", "b3")
        ]
        trace = best_response_dynamics(
            collusion_market,
            collusion_market.validity,
            truthful,
            start,
            ["b1", "b2", "b3"],
            F(1, 4),
            100,
        )
        assert trace.converged
        outcome = run(
            collusion_market,
            collusion_market.validity,
            truthful,
            list(trace.terminal),
            ["b1", "b2", "b3"],
        )
        assert outcome.routing.allocation == allocation
        assert outcome.broker_payment <= F(1, 4)

    def test_each_step_strictly_improves(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        start = [
            Proposal("b1", max_extraction_routing(collusion_market, allocation, truthful)),
            Proposal("b2", max_extraction_routing(collusion_market, allocation, truthful)),
        ]
        trace = best_response_dynamics(
            collusion_market, collusion_market.validity, truthful, start, ["b1", "b2"], F(1, 4), 100
        )
        assert all(step.utility > 0 for step in trace.steps)


def figure1_generated():
    """Figure 1 with the proposals ``brokerlab gen figure1`` writes, run at
    quantum 1/4: (instance, reports, initial proposals, broker order,
    quantum, max_rounds)."""
    figure1 = collusion_example_instance()
    start = _figure1_proposals(figure1)
    return figure1, figure1.truthful_reports(), start, ["b1", "b2"], F(1, 4), 100


class TestDynamicsOracle:
    def test_traces_match_the_fresh_round_loop(self, monkeypatch):
        settled_terms = []
        with_proposal = mechanism.PreparedRound.with_proposal

        def checked_with_proposal(prepared, settled):
            # the response's terms as its best response settled them, against
            # core recomputed at the profile of the dynamics run
            instance, routing = prepared.instance, settled.proposal.routing
            assert settled.margin == margin(routing)
            # the memo is ints over its denominator
            den = settled.den
            assert F(settled.surplus, den) == surplus(instance, routing, reports)
            assert [F(u, den) for u in settled.utilities] == [
                agent_utility(instance, a, routing, reports) for a in instance.agent_ids
            ]
            assert payments_divide(settled)
            objects = [reports.tx_reports[t] for t in instance.tx_ids]
            objects += [reports.node_reports[n] for n in instance.node_ids]
            assert all(a is b for a, b in zip(settled.at, objects, strict=True))
            assert settled.position == prepared.broker_order.index(settled.proposal.broker)
            settled_terms.append(settled)
            return with_proposal(prepared, settled)

        monkeypatch.setattr(mechanism.PreparedRound, "with_proposal", checked_with_proposal)
        traces = []
        for run_args in [figure1_generated(), *dynamics_runs(1618, 60)]:
            instance, reports = run_args[0], run_args[1]
            got = dynamics_trace(*run_args)
            want = best_response_dynamics_reference(instance, instance.validity, *run_args[1:])
            assert (got.steps, got.terminal, got.converged, got.rounds) == (
                want.steps,
                want.terminal,
                want.converged,
                want.rounds,
            )
            traces.append(got)
        assert traces[0].converged and traces[0].rounds == 17
        assert {t.converged for t in traces} == {True, False}
        assert sum(len(t.steps) for t in traces) > 150
        # one settled term per broker turn, empty and not
        assert len(settled_terms) == sum(t.rounds * len(t.terminal) for t in traces)
        assert {s.proposal.routing.allocation.is_empty() for s in settled_terms} == {True, False}

    def test_no_welfare_after_the_starting_profile_is_settled(self, monkeypatch):
        # every node cost evaluation is logged; the spans of the run calls
        # and of the welfare passes are marked in that log
        log, runs, passes = [], [], []

        def counted(original, spans):
            def wrapper(*args):
                before = len(log)
                result = original(*args)
                spans.append((before, len(log)))
                return result

            return wrapper

        monkeypatch.setattr(strategy, "run", counted(strategy.run, runs))
        monkeypatch.setattr(strategy, "_welfare_max", counted(strategy._welfare_max, passes))
        instance, truthful, start, order, quantum, max_rounds = figure1_generated()
        nodes = {n: CountedCost(c, n, log) for n, c in truthful.node_reports.items()}
        reports = ReportProfile(truthful.tx_reports, nodes)
        trace = best_response_dynamics(
            instance, instance.validity, reports, start, order, quantum, max_rounds
        )
        assert trace.converged and len(trace.steps) > 10
        assert len(runs) == 1 + trace.rounds * len(order)
        # the starting round prices each starting proposal's bundles once,
        # and its winner's utilities are read off the memo
        first_start, first_end = runs[0]
        priced = Counter(log[first_start:first_end])
        assert priced == Counter(pair for p in start for pair in p.routing.allocation.bundles)
        assert len(priced) > 1
        # after it, only the welfare passes price anything: no turn settles a
        # proposal by its costs, inside a run or out of one
        assert all(before == after for before, after in runs[1:])
        assert len(log) - first_end == sum(after - before for before, after in passes)

    def test_node_costs_on_the_argmax_bundle_are_evaluated_once_per_run(self, monkeypatch):
        log = []
        settled = []

        def counted_run(*args):
            outcome = run_round(*args)
            settled.append(len(log))
            return outcome

        run_round = strategy.run
        monkeypatch.setattr(strategy, "run", counted_run)
        instance, truthful, start, order, quantum, max_rounds = figure1_generated()
        nodes = {n: CountedCost(c, n, log) for n, c in truthful.node_reports.items()}
        reports = ReportProfile(truthful.tx_reports, nodes)
        trace = best_response_dynamics(
            instance, instance.validity, reports, start, order, quantum, max_rounds
        )
        assert trace.converged and len(trace.steps) > 10
        assert len(settled) == 1 + trace.rounds * len(order)
        # the first turn prices every valid allocation's bundles in the
        # welfare pass, then each node's argmax bundle once more for the plan
        argmax = welfare_max_allocation(instance, instance.validity, reports).allocation
        first_turn = Counter(log[settled[0] : settled[1]])
        valid = enumerate_valid(instance, instance.validity)
        for node in instance.node_ids:
            pair = (node, argmax.inverse(node))
            in_pass = sum(pair in allocation.bundles for allocation in valid)
            assert first_turn[pair] == in_pass + 1
        # and no later turn evaluates any cost, on the argmax bundle or another
        assert settled[1] == settled[-1] == len(log)
