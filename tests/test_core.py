import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerlab.core import (
    Allocation,
    ConstantNonempty,
    CostFunction,
    EMPTY_ALLOCATION,
    LinearResources,
    MarketInstance,
    NodeSpec,
    PerTransaction,
    ReportProfile,
    Routing,
    SubsetTable,
    TransactionSpec,
    Zero,
    is_budget_balanced,
    margin,
    node_utility,
    surplus,
    tx_utility,
    welfare,
)
from brokerlab.equilibrium import check_pne
from brokerlab.errors import MalformedInput
from brokerlab.mdfm import collusion_example_instance
from brokerlab.mechanism import Proposal, run
from brokerlab.scenario import parse_reports, reports_to_json
from brokerlab.strategy import best_response_dynamics, broker_best_response, welfare_max_allocation

from helpers import (
    FAULT_KINDS,
    faulty_profile,
    naive_enumerate,
    random_instance,
    random_reports,
    random_routing,
    report_error,
    report_objects,
    surplus_by_utilities,
    validate_reports_reference,
)


@dataclass(frozen=True)
class Raising(CostFunction):
    """A cost that raises on every bundle, naming its node."""

    node: str

    def cost(self, bundle, resources=None):
        raise MalformedInput(f"cost of {self.node!r}")


@pytest.fixture
def collusion_market():
    return collusion_example_instance()


def both_nodes_routing(instance, pi_t1):
    allocation = Allocation.of({"t1": ["n1", "n2"]})
    return Routing(
        allocation,
        {"t1": pi_t1, "t2": F(0)},
        {"n1": F(1), "n2": F(1)},
    )


class TestMargin:
    def test_empty_routing_has_zero_margin(self, collusion_market):
        assert margin(collusion_market.empty_routing()) == 0

    def test_two_node_routing(self, collusion_market):
        assert margin(both_nodes_routing(collusion_market, F(6))) == 4

    def test_single_node_routing(self, collusion_market):
        routing = Routing(
            Allocation.of({"t2": ["n1"]}),
            {"t1": F(0), "t2": F(4)},
            {"n1": F(1), "n2": F(0)},
        )
        assert margin(routing) == 3

    def test_budget_balance_flags(self, collusion_market):
        assert is_budget_balanced(collusion_market.empty_routing())
        assert is_budget_balanced(both_nodes_routing(collusion_market, F(6)))
        bad = Routing(
            Allocation.of({"t1": ["n1", "n2"]}),
            {"t1": F(1), "t2": F(0)},
            {"n1": F(2), "n2": F(0)},
        )
        assert not is_budget_balanced(bad)


class TestUtilities:
    def test_unallocated_tx_with_zero_payment(self, collusion_market):
        assert tx_utility("t2", both_nodes_routing(collusion_market, F(2)), F(6)) == 0

    def test_allocated_tx(self, collusion_market):
        assert tx_utility("t1", both_nodes_routing(collusion_market, F(2)), F(6)) == 4

    def test_overcharged_tx_goes_negative(self, collusion_market):
        routing = Routing(
            Allocation.of({"t2": ["n1"]}),
            {"t1": F(0), "t2": F(5)},
            {"n1": F(1), "n2": F(0)},
        )
        assert tx_utility("t2", routing, F(4)) == -1

    def test_unknown_tx_raises(self, collusion_market):
        with pytest.raises(MalformedInput):
            tx_utility("tx-missing", collusion_market.empty_routing(), F(1))

    def test_node_with_empty_bundle(self, collusion_market):
        assert node_utility("n1", collusion_market.empty_routing(), ConstantNonempty(F(1))) == 0

    def test_node_exactly_compensated(self, collusion_market):
        routing = both_nodes_routing(collusion_market, F(2))
        assert node_utility("n1", routing, ConstantNonempty(F(1))) == 0

    def test_per_transaction_cost_profit(self, collusion_market):
        routing = Routing(
            Allocation.of({"t1": ["n1", "n2"]}),
            {"t1": F(6), "t2": F(0)},
            {"n1": F(3), "n2": F(1)},
        )
        assert node_utility("n1", routing, PerTransaction({"t1": F(1)})) == 2

    def test_unknown_node_raises(self, collusion_market):
        with pytest.raises(MalformedInput):
            node_utility("nope", collusion_market.empty_routing(), Zero())


class TestSurplusAndWelfare:
    def test_empty_routing_surplus_zero(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        assert surplus(collusion_market, collusion_market.empty_routing(), truthful) == 0

    def test_rebated_routing_surplus(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        assert surplus(collusion_market, both_nodes_routing(collusion_market, F(2)), truthful) == 4

    def test_max_extraction_surplus_zero(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        assert surplus(collusion_market, both_nodes_routing(collusion_market, F(6)), truthful) == 0

    def test_welfare_of_best_allocation(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        assert welfare(collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful) == 4
        assert welfare(collusion_market, Allocation.of({"t2": ["n1"]}), truthful) == 3
        assert welfare(collusion_market, EMPTY_ALLOCATION, truthful) == 0

    def test_nodes_are_charged_in_id_order(self):
        # both reported costs raise; the lower node id must raise first
        instance = MarketInstance(
            (TransactionSpec("t1", F(1)), TransactionSpec("t2", F(1))),
            (NodeSpec("n1", Raising("n1")), NodeSpec("n2", Raising("n2"))),
        )
        allocation = Allocation.of({"t1": ["n2"], "t2": ["n1"]})
        assert list(allocation.bundles) == [("n1", frozenset({"t2"})), ("n2", frozenset({"t1"}))]
        with pytest.raises(MalformedInput, match="^cost of 'n1'$"):
            welfare(instance, allocation, instance.truthful_reports())


def test_surplus_plus_margin_equals_welfare_on_random_corpus():
    rng = random.Random(20240817)
    for _ in range(300):
        instance = random_instance(rng)
        reports, _ = random_reports(rng, instance)
        allocations = naive_enumerate(instance, instance.validity)
        routing = random_routing(rng, instance, rng.choice(allocations), reports)
        assert surplus(instance, routing, reports) + margin(routing) == welfare(
            instance, routing.allocation, reports
        )
        assert surplus(instance, routing, reports) == surplus_by_utilities(instance, routing, reports)


costs = st.one_of(
    st.builds(Zero),
    st.builds(ConstantNonempty, st.fractions(min_value=0, max_value=10)),
    st.builds(
        PerTransaction,
        st.dictionaries(
            st.sampled_from(["t1", "t2", "t3"]),
            st.fractions(min_value=0, max_value=10),
            max_size=3,
        ),
    ),
)


@given(costs, st.sets(st.sampled_from(["t1", "t2", "t3"])))
@settings(max_examples=200)
def test_every_cost_function_charges_zero_on_empty(fn, bundle):
    assert fn.cost(frozenset()) == 0
    assert fn.cost(bundle) >= 0


def test_subset_table_must_be_total_and_zero_on_empty():
    txs = frozenset({"t1", "t2"})
    good = {
        frozenset(): F(0),
        frozenset({"t1"}): F(1),
        frozenset({"t2"}): F(2),
        frozenset({"t1", "t2"}): F(2),
    }
    table = SubsetTable(txs, good)
    assert table.cost({"t1", "t2"}) == 2
    with pytest.raises(MalformedInput):
        SubsetTable(txs, {k: v for k, v in good.items() if k})
    bad_empty = dict(good)
    bad_empty[frozenset()] = F(1)
    with pytest.raises(MalformedInput):
        SubsetTable(txs, bad_empty)
    with pytest.raises(MalformedInput):
        table.cost({"t1", "t3"})


def test_linear_resources_needs_vectors():
    fn = LinearResources((F(2),))
    assert fn.cost(frozenset()) == 0
    assert fn.cost({"t1"}, {"t1": (F(3),)}) == 6
    with pytest.raises(MalformedInput):
        fn.cost({"t1"})
    with pytest.raises(MalformedInput):
        fn.cost({"t1"}, {"t1": (F(1), F(2))})


class TestAllocation:
    def test_normalization_drops_empty_sets(self):
        a = Allocation.of({"t1": ["n2", "n1", "n1"], "t2": []})
        assert a.pairs == (("t1", ("n1", "n2")),)
        assert a.transactions == {"t1"}
        assert a.nodes == {"n1", "n2"}
        assert a.inverse("n1") == {"t1"}
        assert a.inverse("n3") == frozenset()

    def test_canonical_order_puts_empty_first(self):
        empty = EMPTY_ALLOCATION
        one = Allocation.of({"t1": ["n1"]})
        two = Allocation.of({"t2": ["n1"]})
        assert sorted([two, one, empty]) == [empty, one, two]

    def test_structural_equality(self):
        assert Allocation.of({"t1": ["n1", "n2"]}) == Allocation.of({"t1": ["n2", "n1"]})


class TestInstanceValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(MalformedInput):
            MarketInstance(
                (TransactionSpec("x", F(1)),),
                (NodeSpec("x", Zero()),),
            )

    @pytest.mark.parametrize("tx_id", ["", "a,b", ","])
    def test_an_id_a_cost_table_key_cannot_carry_is_refused(self, tx_id):
        # a table's bundle is written as comma-joined ids, "" as the empty one
        with pytest.raises(MalformedInput, match=f"^transaction id {re.escape(repr(tx_id))} "):
            TransactionSpec(tx_id, F(1))

    def test_negative_value_rejected(self):
        with pytest.raises(MalformedInput):
            TransactionSpec("t1", F(-1))

    def test_truthful_reports_cover_everyone(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        assert set(truthful.tx_reports) == {"t1", "t2"}
        assert set(truthful.node_reports) == {"n1", "n2"}

    # a bool is an int to isinstance, but not a number here, as in JSON
    @pytest.mark.parametrize("odd", [0.5, "1", None, True, False])
    def test_a_payment_or_spec_number_that_is_not_an_int_or_a_fraction_is_refused(
        self, collusion_market, odd
    ):
        def refused(what, build):
            message = f"^{re.escape(what)} must be an int or a Fraction, got {re.escape(repr(odd))}$"
            with pytest.raises(MalformedInput, match=message):
                build()

        truthful = collusion_market.truthful_reports()
        for tx_payments, node_payments, what in (
            ({"t1": F(2), "t2": odd}, {"n1": F(1), "n2": F(1)}, "payment of 't2'"),
            ({"t1": F(2), "t2": F(0)}, {"n1": F(1), "n2": odd}, "payment to 'n2'"),
        ):
            routing = Routing(Allocation.of({"t1": ["n1", "n2"]}), tx_payments, node_payments)
            refused(what, lambda: collusion_market.validate_routing(routing))
            refused(what, lambda: run(collusion_market, None, truthful, [Proposal("b1", routing)], ["b1"]))
        refused("value of 't1'", lambda: TransactionSpec("t1", odd))
        refused("resource usage of 't1'", lambda: TransactionSpec("t1", F(1), (F(1), odd)))
        if odd is None:  # an unconstrained dimension
            assert NodeSpec("n1", Zero(), (F(1), odd)).capacity == (F(1), None)
        else:
            refused("capacity of 'n1'", lambda: NodeSpec("n1", Zero(), (F(1), odd)))
        refused("ConstantNonempty amount", lambda: ConstantNonempty(odd))
        refused("PerTransaction rate for 't1'", lambda: PerTransaction({"t1": odd}))
        refused("LinearResources unit cost", lambda: LinearResources((F(1), odd)))
        table = {frozenset(): F(0), frozenset({"t1"}): odd}
        refused("SubsetTable cost of ['t1']", lambda: SubsetTable(frozenset({"t1"}), table))
        refused("report of 't1'", lambda: truthful.replace_tx("t1", odd))
        # nor is any of them a node's cost report
        message = f"^report of 'n1' must be a cost function, got {re.escape(repr(odd))}$"
        with pytest.raises(MalformedInput, match=message):
            truthful.replace_node("n1", odd)
        odd_node = ReportProfile(truthful.tx_reports, {**truthful.node_reports, "n1": odd})
        with pytest.raises(MalformedInput, match=message):
            collusion_market.validate_reports(odd_node)

    def test_routing_validation(self, collusion_market):
        with pytest.raises(MalformedInput):
            collusion_market.validate_routing(Routing(EMPTY_ALLOCATION, {"t1": F(0)}, {}))

    def test_subset_table_domain_must_match_instance(self):
        table = SubsetTable(frozenset({"t9"}), {frozenset(): F(0), frozenset({"t9"}): F(1)})
        with pytest.raises(MalformedInput):
            MarketInstance(
                (TransactionSpec("t1", F(1)),),
                (NodeSpec("n1", table),),
            )

    def test_a_rate_for_an_unknown_transaction_is_refused(self):
        txs = (TransactionSpec("t1", F(1)), TransactionSpec("t2", F(1)))
        # a rate map may leave a known transaction out: it costs 0
        partial = MarketInstance(txs, (NodeSpec("n1", PerTransaction({"t2": F(1)})),))
        assert partial.node("n1").cost.cost(["t1", "t2"]) == 1
        misspelt = PerTransaction({"t_1": F(3), "t2": F(1), "t9": F(2)})
        with pytest.raises(
            MalformedInput,
            match=r"^node 'n1': PerTransaction rates for unknown transactions \['t9', 't_1'\]$",
        ):
            MarketInstance(txs, (NodeSpec("n1", misspelt),))

    @pytest.mark.parametrize(
        "report, message, vectors",
        [
            (
                PerTransaction({"t_1": F(100)}),
                r"PerTransaction rates for unknown transactions \['t_1'\]",
                None,
            ),
            (
                SubsetTable(frozenset({"t9"}), {frozenset(): F(0), frozenset({"t9"}): F(1)}),
                "SubsetTable must cover exactly the instance transactions",
                None,
            ),
            (
                LinearResources((F(1),)),
                "LinearResources cost needs a resource vector of length 1 for 't1'",
                None,
            ),
            (
                LinearResources((F(1), F(1))),
                "LinearResources cost needs a resource vector of length 2 for 't1'",
                (F(1),),
            ),
        ],
        ids=["misspelt-rate", "foreign-table", "linear-without-vectors", "linear-of-another-length"],
    )
    def test_a_node_report_over_unknown_transactions_is_refused(
        self, collusion_market, report, message, vectors
    ):
        # wherever the report enters, whether or not n1 is given a bundle;
        # ``vectors`` is every transaction's resource vector
        market = replace(
            collusion_market,
            transactions=tuple(replace(t, resources=vectors) for t in collusion_market.transactions),
        )
        truthful = market.truthful_reports()
        lying = ReportProfile(truthful.tx_reports, {**truthful.node_reports, "n1": report})
        spec, order = market.validity, ["b1", "b2"]
        elsewhere = Routing(
            Allocation.of({"t2": ["n2"]}), {"t1": F(0), "t2": F(2)}, {"n1": F(0), "n2": F(1)}
        )
        proposals = [Proposal("b1", market.empty_routing()), Proposal("b2", elsewhere)]
        calls = [
            lambda: market.validate_reports(lying),
            lambda: run(market, spec, lying, proposals, order),
            lambda: check_pne(market, spec, truthful, lying, proposals, order, F(1, 4)),
            lambda: best_response_dynamics(market, spec, lying, proposals, order, F(1, 4), 8),
        ]
        if isinstance(report, LinearResources):
            # a profile holds no resource vectors, so it takes the report
            assert truthful.replace_node("n1", report) == lying
        else:
            calls.append(lambda: truthful.replace_node("n1", report))
        for call in calls:
            with pytest.raises(MalformedInput, match=f"^report of 'n1': {message}$"):
                call()
        with pytest.raises(MalformedInput, match=rf"^reports\.nodes\[n1\]: {message}$"):
            parse_reports(reports_to_json(lying), market, "reports")
        with pytest.raises(MalformedInput, match=f"^node 'n1': {message}$"):
            MarketInstance(market.transactions, (NodeSpec("n1", report), market.node("n2")))
        # the truthful profile settles the same round
        assert run(market, spec, truthful, proposals, order).winner == "b2"

    @pytest.mark.parametrize(
        "tx_reports, node_reports, message",
        [
            (
                {"t2": F(-1), "t1": F(-2)},
                {"n2": ConstantNonempty(F(1)), "n1": ConstantNonempty(F(1))},
                "report of 't1' must be non-negative, got -2",
            ),
            (
                {"t2": F(4), "t1": F(6)},
                {"n2": "cheap", "n1": PerTransaction({"t9": F(1)})},
                r"report of 'n1': PerTransaction rates for unknown transactions \['t9'\]",
            ),
            (
                {"t2": 0.5, "t1": True},
                {"n2": ConstantNonempty(F(1)), "n1": "cheap"},
                "report of 't1' must be an int or a Fraction, got True",
            ),
        ],
        ids=["two-values", "two-costs", "values-before-costs"],
    )
    def test_the_first_faulty_report_in_canonical_agent_order_is_named(
        self, collusion_market, tx_reports, node_reports, message
    ):
        # the mappings are built in reverse id order, so their first fault in
        # insertion order is not the first in canonical order
        market, spec, order = collusion_market, collusion_market.validity, ["b1", "b2"]
        faulty = ReportProfile(tx_reports, node_reports)
        truthful = market.truthful_reports()
        elsewhere = Routing(
            Allocation.of({"t2": ["n2"]}), {"t1": F(0), "t2": F(2)}, {"n1": F(0), "n2": F(1)}
        )
        proposals = [Proposal("b1", market.empty_routing()), Proposal("b2", elsewhere)]
        calls = [
            lambda: market.validate_reports(faulty),
            lambda: run(market, spec, faulty, proposals, order),
            lambda: check_pne(market, spec, truthful, faulty, proposals, order, F(1, 4)),
            lambda: broker_best_response("b1", market, spec, faulty, proposals[1:], order),
            lambda: welfare_max_allocation(market, spec, faulty),
            lambda: best_response_dynamics(market, spec, faulty, proposals, order, F(1, 4), 8),
        ]
        for call in calls:
            with pytest.raises(MalformedInput, match=f"^{message}$"):
                call()

    def test_validate_reports_agrees_with_the_reference_on_a_seeded_corpus(self):
        # the same verdict as the rule that named faults in insertion order,
        # and on a profile with one fault the same message
        rng = random.Random(3838)
        kinds = Counter()
        for _ in range(400):
            instance = random_instance(rng)
            reports, _ = random_reports(rng, instance)
            faults = rng.choice((0, 1, 1, 1, 2, 3))
            profile, drawn = faulty_profile(rng, instance, reports, faults)
            kinds.update(drawn)
            expected = report_error(validate_reports_reference, instance, profile)
            got = report_error(instance.validate_reports, profile)
            if faults <= 1:
                assert got == expected
            else:
                assert (got is None) == (expected is None)
            if got is None:
                objects = instance.validate_reports(profile)
                assert all(a is b for a, b in zip(objects, report_objects(instance, profile), strict=True))
        assert min(kinds.values()) >= 30 and len(kinds) == len(FAULT_KINDS)
