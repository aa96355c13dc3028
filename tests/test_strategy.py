import random
from fractions import Fraction as F

import pytest

from brokerlab.core import (
    Allocation,
    EMPTY_ALLOCATION,
    margin,
    surplus,
    welfare,
)
from brokerlab.errors import InfeasibleTarget, MalformedInput
from brokerlab.mdfm import collusion_example_instance, oracle_gap_market
from brokerlab.mechanism import Proposal, run
from brokerlab.strategy import (
    best_response_dynamics,
    broker_best_response,
    max_extraction_routing,
    scaled_rebate_routing,
    welfare_max_allocation,
)
from brokerlab.validity import enumerate_valid

from helpers import random_instance, random_reports


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


class TestBrokerBestResponse:
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
