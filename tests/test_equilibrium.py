import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from brokerlab import equilibrium, mechanism, strategy
from brokerlab.core import (
    Allocation,
    CostFunction,
    MarketInstance,
    NodeSpec,
    PerTransaction,
    ReportProfile,
    Routing,
    SubsetTable,
    TransactionSpec,
    Zero,
    agent_utility,
)
from brokerlab.equilibrium import (
    check_dsic_barring_b,
    check_pne,
    construct_consensus_equilibrium,
    node_deviation_candidates,
    tx_deviation_candidates,
)
from brokerlab.errors import InstanceTooLarge, MalformedInput
from brokerlab.mdfm import collusion_example_instance, oracle_gap_market
from brokerlab.mechanism import PreparedRound, Proposal, prepare_round, run
from brokerlab.scenario import equilibrium_report_to_json, truthfulness_report_to_json
from brokerlab.strategy import (
    max_extraction_routing,
    scaled_rebate_routing,
)
from brokerlab.validity import enumerate_valid

from helpers import (
    _candidates,
    _with_report,
    check_dsic_reference,
    dsic_product_oracle,
    node_candidate_tables_reference,
    outcome_or_error,
    pne_profiles,
    random_instance,
    random_proposals,
    random_reports,
    random_routing,
    run_reference,
    tx_candidates_reference,
)


@pytest.fixture
def collusion_market():
    return collusion_example_instance()


def consensus(instance, brokers=("b1", "b2")):
    return construct_consensus_equilibrium(
        instance, instance.validity, instance.truthful_reports(), list(brokers)
    )


class TestTxCandidates:
    def test_single_proposal_breakpoints(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        proposal = Proposal("b1", scaled_rebate_routing(collusion_market, allocation, truthful, F(0)))
        candidates = tx_deviation_candidates(collusion_market, "t1", [proposal], truthful)
        assert F(0) in candidates
        assert F(2) in candidates  # the quoted payment
        assert F(1) in candidates  # midpoint of [0, 2]
        assert F(3) in candidates  # beyond the largest breakpoint

    def test_unallocated_everywhere_keeps_small_set(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        proposal = Proposal("b1", collusion_market.empty_routing())
        candidates = tx_deviation_candidates(collusion_market, "t2", [proposal], truthful)
        assert candidates == [F(0), F(1)]

    def test_surplus_crossing_is_included(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        both = Proposal(
            "b1",
            scaled_rebate_routing(collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful, F(0)),
        )
        single = Proposal(
            "b2", max_extraction_routing(collusion_market, Allocation.of({"t2": ["n1"]}), truthful)
        )
        # surplus of b1's proposal is x - 2 in t1's report x, b2's is 0
        candidates = tx_deviation_candidates(collusion_market, "t1", [both, single], truthful)
        assert F(2) in candidates

    def test_unknown_tx(self, collusion_market):
        with pytest.raises(MalformedInput):
            tx_deviation_candidates(collusion_market, "ghost", [], collusion_market.truthful_reports())

    def test_a_payment_rule_missing_the_transaction_is_refused(self, collusion_market):
        # a plain list is held to the one proposal rule, validate_routing, as
        # a round is, so a payment rule that leaves t1 out is refused
        truthful = collusion_market.truthful_reports()
        nodes = {"n1": F(0), "n2": F(0)}
        for allocation in (Allocation.of({"t1": ["n1"]}), Allocation.of({"t2": ["n1"]})):
            lacking = Proposal("b1", Routing(allocation, {"t2": F(1)}, nodes))
            with pytest.raises(MalformedInput, match="^transaction payment rule must be total over the instance$"):
                tx_deviation_candidates(collusion_market, "t1", [lacking], truthful)

    def test_midpoints_between_integer_payments_are_fractions(self, collusion_market):
        # int payments are valid, so a midpoint between two of them must not
        # become a float that the round then refuses as a report
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        proposals = [
            Proposal(b, Routing(allocation, {"t1": pay, "t2": 0}, {"n1": 1, "n2": pay - 1}))
            for b, pay in (("b1", 2), ("b2", 3))
        ]
        candidates = tx_deviation_candidates(collusion_market, "t1", proposals, truthful)
        assert candidates == [0, 1, 2, F(5, 2), 3, 4]
        assert all(isinstance(c, (int, F)) for c in candidates)
        report = check_pne(collusion_market, None, truthful, truthful, proposals, ["b1", "b2"])
        assert report.checked_agent_deviations > 0


def test_a_payment_rule_missing_the_node_is_refused(collusion_market):
    # b1's zero-margin rebate on t1 assigns n1 a bundle, yet pays only n2
    truthful = collusion_market.truthful_reports()
    allocation = Allocation.of({"t1": ["n1", "n2"]})
    rebate = scaled_rebate_routing(collusion_market, allocation, truthful, F(0))
    lacking = Routing(allocation, rebate.tx_payments, {"n2": rebate.node_payments["n2"]})
    with pytest.raises(MalformedInput, match="^node payment rule must be total over the instance$"):
        node_deviation_candidates(collusion_market, "n1", [Proposal("b1", lacking)], truthful)


def test_reports_that_are_not_total_are_refused_with_a_typed_error(collusion_market):
    # t2 and both nodes have reports, t1 has none: a surplus would read it
    truthful = collusion_market.truthful_reports()
    reports = ReportProfile({"t2": F(4)}, truthful.node_reports)
    proposals = consensus(collusion_market)
    prepared = prepare_round(collusion_market, collusion_market.validity, proposals, ["b1", "b2"])
    for rivals in (proposals, prepared):
        for candidates, agent in ((tx_deviation_candidates, "t2"), (node_deviation_candidates, "n1")):
            with pytest.raises(MalformedInput, match="^transaction reports must be total"):
                candidates(collusion_market, agent, rivals, reports)


class TestNodeCandidates:
    def test_unassigned_node_gets_zero_only(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        proposal = Proposal("b1", collusion_market.empty_routing())
        assert node_deviation_candidates(collusion_market, "n1", [proposal], truthful) == [Zero()]

    def test_single_bundle_scalars(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        proposal = Proposal("b1", scaled_rebate_routing(collusion_market, allocation, truthful, F(0)))
        candidates = node_deviation_candidates(collusion_market, "n1", [proposal], truthful)
        # the current report with the bundle's cost replaced, not a table
        assert all(isinstance(c, CostFunction) for c in candidates)
        assert not any(isinstance(c, SubsetTable) for c in candidates)
        quoted = {c.cost(frozenset({"t1"}), collusion_market.resources) for c in candidates}
        assert F(0) in quoted and F(1) in quoted and F(2) in quoted

    def test_two_distinct_bundles_product(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        p1 = Proposal(
            "b1", max_extraction_routing(collusion_market, Allocation.of({"t2": ["n1"]}), truthful)
        )
        p2 = Proposal(
            "b2",
            max_extraction_routing(collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful),
        )
        candidates = node_deviation_candidates(collusion_market, "n1", [p1, p2], truthful)
        bundles = {frozenset({"t1"}), frozenset({"t2"})}
        seen = {
            (c.cost(frozenset({"t1"}), collusion_market.resources), c.cost(frozenset({"t2"}), collusion_market.resources))
            for c in candidates
        }
        assert len(seen) == len(candidates)  # a full grid over both scalars
        assert len({a for a, _ in seen}) > 1 and len({b for _, b in seen}) > 1


def one_node_market(n_txs, bundles):
    """Transactions t1.. and one node n1; proposal k runs bundle k on n1, each
    at its own payments: (instance, proposals, truthful reports)."""
    txs = tuple(TransactionSpec(f"t{i}", F(10 + i)) for i in range(1, n_txs + 1))
    rates = {t.id: F(i + 1) for i, t in enumerate(txs)}
    instance = MarketInstance(txs, (NodeSpec("n1", PerTransaction(rates)),))
    proposals = []
    for k, bundle in enumerate(bundles):
        tx_payments = {t: F(k + 1) if t in bundle else F(0) for t in instance.tx_ids}
        allocation = Allocation.of({t: ["n1"] for t in bundle})
        proposals.append(Proposal(f"b{k}", Routing(allocation, tx_payments, {"n1": F(k, 2)})))
    return instance, proposals, instance.truthful_reports()


class TestNodeCandidateBudgets:
    def test_distinct_bundles_are_bounded_only_by_the_candidate_product(self):
        txs = ("t1", "t2", "t3")
        seven = [list(c) for k in (1, 2, 3) for c in itertools.combinations(txs, k)]
        # a costless node paid nothing, each proposal at zero surplus: only the
        # breakpoint 0 on every bundle, so 2 ** 7 candidates
        instance = MarketInstance(
            tuple(TransactionSpec(t, F(2)) for t in txs), (NodeSpec("n1", Zero()),)
        )
        truthful = instance.truthful_reports()
        proposals = []
        for k, bundle in enumerate(seven):
            allocation = Allocation.of({t: ["n1"] for t in bundle})
            routing = max_extraction_routing(instance, allocation, truthful)
            proposals.append(Proposal(f"b{k}", routing))
        assert len(node_deviation_candidates(instance, "n1", proposals, truthful)) == 2**7
        order = [p.broker for p in proposals]
        report = check_pne(instance, None, truthful, truthful, proposals, order)
        assert report.checked_agent_deviations > 2**7
        # the same seven bundles at distinct payments and costs
        instance, proposals, truthful = one_node_market(3, seven)
        message = r"node_deviation_candidates: node 'n1' has \d+ candidate cost tables, cap is 4096"
        with pytest.raises(InstanceTooLarge, match=message):
            node_deviation_candidates(instance, "n1", proposals, truthful)

    def test_cost_tables_over_sixteen_transactions_are_refused(self):
        instance, proposals, truthful = one_node_market(17, [["t1"]])
        message = "node_deviation_candidates: cost tables support at most 16 transactions, got 17"
        with pytest.raises(InstanceTooLarge, match=message):
            node_deviation_candidates(instance, "n1", proposals, truthful)

    def test_candidate_products_over_the_cap_are_refused_before_any_table(self, monkeypatch):
        bundles = [["t1"], ["t2"], ["t3"], ["t4"], ["t1", "t2"], ["t3", "t4"]]
        instance, proposals, truthful = one_node_market(4, bundles)
        built = []
        monkeypatch.setattr(equilibrium, "SubsetTable", lambda *args: built.append(args))
        message = r"node_deviation_candidates: node 'n1' has \d+ candidate cost tables, cap is 4096"
        with pytest.raises(InstanceTooLarge, match=message):
            node_deviation_candidates(instance, "n1", proposals, truthful)
        assert not built

    def test_the_named_product_is_the_candidate_count(self, monkeypatch):
        instance, proposals, truthful = one_node_market(2, [["t1"], ["t2"], ["t1", "t2"]])
        count = len(node_deviation_candidates(instance, "n1", proposals, truthful))
        monkeypatch.setattr(equilibrium, "MAX_NODE_CANDIDATES", count - 1)
        with pytest.raises(InstanceTooLarge, match=f"has {count} candidate cost tables, cap is {count - 1}"):
            node_deviation_candidates(instance, "n1", proposals, truthful)
        monkeypatch.setattr(equilibrium, "MAX_NODE_CANDIDATES", count)
        assert len(node_deviation_candidates(instance, "n1", proposals, truthful)) == count


class TestCheckPne:
    def test_no_table_is_built_without_a_node_witness(self, collusion_market, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return SubsetTable(*args)

        monkeypatch.setattr(equilibrium, "SubsetTable", counted)
        truthful = collusion_market.truthful_reports()
        report = check_pne(
            collusion_market,
            collusion_market.validity,
            truthful,
            truthful,
            consensus(collusion_market),
            ["b1", "b2"],
        )
        assert report.is_pne and report.checked_agent_deviations > 0
        assert not built

    @pytest.mark.parametrize("quantum", [F(0), F(-1), F(-1, 4)])
    def test_a_quantum_that_is_not_positive_is_refused_without_brokers(
        self, collusion_market, quantum
    ):
        # no broker proposes, so no best response would read the quantum
        truthful = collusion_market.truthful_reports()
        with pytest.raises(MalformedInput, match=f"^quantum must be positive, got {quantum}$"):
            check_pne(collusion_market, None, truthful, truthful, [], [], quantum)

    def test_consensus_profile_is_equilibrium(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        report = check_pne(
            collusion_market, collusion_market.validity, truthful, truthful, consensus(collusion_market), ["b1", "b2"], F(1, 4)
        )
        assert report.is_pne
        assert report.witnesses == ()
        assert report.checked_agent_deviations > 0
        assert report.checked_broker_allocations > 0

    def test_positive_margin_winner_is_undercut(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        holding = [
            Proposal("b1", max_extraction_routing(collusion_market, allocation, truthful)),
            Proposal("b2", max_extraction_routing(collusion_market, allocation, truthful)),
        ]
        report = check_pne(
            collusion_market, collusion_market.validity, truthful, truthful, holding, ["b1", "b2"], F(1, 4)
        )
        assert not report.is_pne
        kinds = {w.kind for w in report.witnesses}
        assert "broker_proposal" in kinds

    def test_monopolist_extraction_is_equilibrium(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        profile = [Proposal("b1", max_extraction_routing(collusion_market, allocation, truthful))]
        report = check_pne(collusion_market, collusion_market.validity, truthful, truthful, profile, ["b1"], F(1, 4))
        assert report.is_pne

    def test_detects_profitable_tx_lie(self, collusion_market):
        # t1 undertruths: reporting below value keeps the same winning routing
        # cheap, but reporting honestly would too; instead make the profile
        # where t1's lie lets a worse-for-t1 proposal win and honesty fixes it.
        truthful = collusion_market.truthful_reports()
        lying = truthful.replace_tx("t1", F(0))
        both = Proposal(
            "b1",
            scaled_rebate_routing(collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful, F(0)),
        )
        single = Proposal(
            "b2", max_extraction_routing(collusion_market, Allocation.of({"t2": ["n1"]}), truthful)
        )
        report = check_pne(
            collusion_market, collusion_market.validity, truthful, lying, [both, single], ["b1", "b2"], F(1, 4)
        )
        # under the lie the winner is b2 (surplus 0 beats -2); t1 gains 4 by honesty
        assert not report.is_pne
        tx_witnesses = [w for w in report.witnesses if w.agent == "t1"]
        assert tx_witnesses and max(w.utility_after for w in tx_witnesses) == 4


class TestNodeCandidateOracle:
    def test_candidates_and_witnesses_match_the_table_construction(self):
        node_witnesses = 0
        for instance, reports, proposals, order in pne_profiles(4099, 200):
            truthful = instance.truthful_reports()
            txs = instance.tx_ids
            subsets = [
                frozenset(c) for k in range(len(txs) + 1) for c in itertools.combinations(txs, k)
            ]
            report = check_pne(instance, instance.validity, truthful, reports, proposals, order)
            base = run(instance, instance.validity, reports, proposals, order)
            for node in instance.node_ids:
                candidates = node_deviation_candidates(instance, node, proposals, reports)
                tables = node_candidate_tables_reference(instance, node, proposals, reports)
                assert len(candidates) == len(tables)
                for candidate, table in zip(candidates, tables):
                    for subset in subsets:
                        assert candidate.cost(subset, instance.resources) == table.cost(subset)
                # the reference's profitable tables, in candidate order
                before = agent_utility(instance, node, base.routing, truthful)
                profitable = []
                for table in tables:
                    deviated = reports.replace_node(node, table)
                    outcome = run(instance, instance.validity, deviated, proposals, order)
                    if agent_utility(instance, node, outcome.routing, truthful) > before:
                        profitable.append(table)
                found = [w.deviation for w in report.witnesses if w.agent == node]
                assert all(type(d) is SubsetTable for d in found)
                assert found == profitable
                node_witnesses += len(found)
        assert node_witnesses > 20, node_witnesses


class TestTxCandidateOracle:
    def test_candidates_match_the_pairwise_crossing_construction(self):
        figure1 = collusion_example_instance()
        truthful = figure1.truthful_reports()
        both = Proposal(
            "b1", scaled_rebate_routing(figure1, Allocation.of({"t1": ["n1", "n2"]}), truthful, F(0))
        )
        single = Proposal("b2", max_extraction_routing(figure1, Allocation.of({"t2": ["n1"]}), truthful))
        cases = [(instance, reports, proposals) for instance, reports, proposals, _ in pne_profiles(8191, 200)]
        cases.append((figure1, truthful, [both, single]))
        cases += [
            (instance, instance.truthful_reports(), sigma)
            for instance, sigma, _ in shared_allocation_sigmas(8191, 200)
        ]
        lengths = set()
        for instance, reports, proposals in cases:
            # the plain list and its prepared round give the same candidates
            prepared = prepare_round(instance, None, proposals, [p.broker for p in proposals])
            for tx in instance.tx_ids:
                candidates = tx_deviation_candidates(instance, tx, proposals, reports)
                reference = tx_candidates_reference(instance, tx, proposals, reports)
                # equal values of equal types, in the same order
                assert list(map(repr, candidates)) == list(map(repr, reference))
                assert tx_deviation_candidates(instance, tx, prepared, reports) == candidates
                lengths.add(len(candidates))
        assert len(lengths) > 4, lengths


ROUTING_FAULTS = (
    "float", "str", "none", "negative", "unknown-payee", "unknown-tx", "unknown-node", "missing"
)
BAD_PAYMENTS = {"float": 0.5, "str": "1", "none": None, "negative": F(-1)}


def faulty_routing(rng, instance, routing, fault, keep):
    """``routing`` with one ``fault`` of ``ROUTING_FAULTS`` and the message
    ``validate_routing`` refuses it with.  A bad payment goes to any agent,
    a missing one is an agent's other than ``keep``, whose payment the
    candidate search reads."""
    txs, nodes = dict(routing.tx_payments), dict(routing.node_payments)
    assignment = dict(routing.allocation.pairs)
    if fault in BAD_PAYMENTS:
        agent, x = rng.choice(instance.agent_ids), BAD_PAYMENTS[fault]
        is_tx = agent in txs
        (txs if is_tx else nodes)[agent] = x
        rest = " must be non-negative, got -1" if fault == "negative" else (
            f" must be an int or a Fraction, got {x!r}"
        )
        message = f"payment {'of' if is_tx else 'to'} {agent!r}{rest}"
    elif fault in ("unknown-payee", "missing"):
        if fault == "unknown-payee":
            is_tx = rng.random() < 0.5
            (txs if is_tx else nodes)["ghost"] = F(1)
        else:
            agent = rng.choice([a for a in instance.agent_ids if a != keep])
            is_tx = agent in txs
            del (txs if is_tx else nodes)[agent]
        message = f"{'transaction' if is_tx else 'node'} payment rule must be total over the instance"
    elif fault == "unknown-tx":
        assignment["t9"] = [rng.choice(instance.node_ids)]
        message = "allocation references unknown ids ['t9']"
    else:
        tx = rng.choice(instance.tx_ids)
        assignment[tx] = [*assignment.get(tx, ()), "n9"]
        message = "allocation references unknown ids ['n9']"
    return Routing(Allocation.of(assignment), txs, nodes), message


def test_malformed_plain_lists_are_refused_by_the_one_proposal_rule():
    # surpluses and both candidate searches hold a plain list to
    # validate_routing, as a prepared round is, even for a node the list
    # leaves idle; the oracle tests above take the well-formed lists
    rng = random.Random(3907)
    seen, idle = Counter(), 0
    for k, (instance, reports, proposals, _) in enumerate(pne_profiles(3907, 120)):
        tx, node = rng.choice(instance.tx_ids), rng.choice(instance.node_ids)
        calls = {
            "surpluses": (lambda plain: mechanism.surpluses(instance, plain, reports), None),
            "tx": (lambda plain: tx_deviation_candidates(instance, tx, plain, reports), tx),
            "node": (lambda plain: node_deviation_candidates(instance, node, plain, reports), node),
        }
        for j, (name, (call, keep)) in enumerate(calls.items()):
            fault = ROUTING_FAULTS[(3 * k + j) % len(ROUTING_FAULTS)]
            i = rng.randrange(len(proposals))
            routing, message = faulty_routing(rng, instance, proposals[i].routing, fault, keep)
            plain = [*proposals[:i], Proposal(proposals[i].broker, routing), *proposals[i + 1:]]
            if name == "node" and not any(node in p.routing.allocation.nodes for p in plain):
                idle += 1
            with pytest.raises(MalformedInput, match="^" + re.escape(message) + "$"):
                call(plain)
            seen[name, fault] += 1
    assert len(seen) == 3 * len(ROUTING_FAULTS), seen
    assert idle > 10, idle


class TestConsensusProfile:
    def test_builds_identical_zero_margin_proposals(self, collusion_market):
        profile = consensus(collusion_market)
        assert len(profile) == 2
        assert profile[0].routing == profile[1].routing
        routing = profile[0].routing
        assert routing.allocation == Allocation.of({"t1": ["n1", "n2"]})
        assert routing.tx_payments["t1"] == 2
        assert routing.node_payments == {"n1": F(1), "n2": F(1)}

    def test_zero_value_instance_proposes_empty(self):
        rng = random.Random(8)
        instance = random_instance(rng, max_txs=2, max_nodes=2)
        zeroed = instance.truthful_reports()
        zeroed = type(zeroed)({t: F(0) for t in zeroed.tx_reports}, zeroed.node_reports)
        profile = construct_consensus_equilibrium(
            instance, instance.validity, zeroed, ["b1", "b2"]
        )
        assert all(p.routing.allocation.is_empty() for p in profile)

    def test_oracle_gap_consensus(self):
        market = oracle_gap_market(2, [F(1), F(2)])
        instance = market.instance()
        profile = construct_consensus_equilibrium(
            instance, instance.validity, instance.truthful_reports(), ["b1", "b2"]
        )
        assert profile[0].routing.allocation == Allocation.of(
            {"t01": ["n01"], "t02": ["n02"]}
        )

    def test_duplicate_broker_ids_are_refused(self, collusion_market):
        # the profile would hold two proposals from b1, which every check refuses
        truthful = collusion_market.truthful_reports()
        for brokers in (["b1", "b1", "b2"], ["b1", "b1"]):
            with pytest.raises(MalformedInput, match="^each broker may submit at most one proposal$"):
                construct_consensus_equilibrium(collusion_market, collusion_market.validity, truthful, brokers)

    def test_needs_two_brokers(self, collusion_market):
        with pytest.raises(MalformedInput):
            construct_consensus_equilibrium(
                collusion_market, collusion_market.validity, collusion_market.truthful_reports(), ["b1"]
            )


class TestDsicBarringB:
    def test_consensus_profile_passes(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        report = check_dsic_barring_b(
            collusion_market, collusion_market.validity, truthful, consensus(collusion_market), ["b1", "b2"], others_cap=8192
        )
        assert report.holds
        assert report.exhaustive
        assert report.coverage == "exhaustive"
        assert report.pne.is_pne

    def test_single_broker_take_it_or_leave_it(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        sigma = [Proposal("b1", max_extraction_routing(collusion_market, allocation, truthful))]
        report = check_dsic_barring_b(
            collusion_market, collusion_market.validity, truthful, sigma, ["b1"], others_cap=8192
        )
        assert not report.witnesses  # truthfulness holds for every agent

    def test_mismatched_allocations_rejected(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        sigma = [
            Proposal(
                "b1",
                scaled_rebate_routing(
                    collusion_market, Allocation.of({"t1": ["n1", "n2"]}), truthful, F(0)
                ),
            ),
            Proposal(
                "b2", max_extraction_routing(collusion_market, Allocation.of({"t2": ["n1"]}), truthful)
            ),
        ]
        with pytest.raises(MalformedInput):
            check_dsic_barring_b(collusion_market, collusion_market.validity, truthful, sigma, ["b1", "b2"])

    def test_small_others_cap_without_seed_changes_no_answer(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        sigma = consensus(collusion_market)
        small = check_dsic_barring_b(
            collusion_market, collusion_market.validity, truthful, sigma, ["b1", "b2"], others_cap=2
        )
        default = check_dsic_barring_b(
            collusion_market, collusion_market.validity, truthful, sigma, ["b1", "b2"]
        )
        assert small == default
        assert small.coverage == "exhaustive"

    @pytest.mark.parametrize("others_cap", [0, -1])
    def test_others_cap_below_one_is_refused(self, collusion_market, others_cap):
        truthful = collusion_market.truthful_reports()
        with pytest.raises(MalformedInput, match="others_cap"):
            check_dsic_barring_b(
                collusion_market,
                collusion_market.validity,
                truthful,
                consensus(collusion_market),
                ["b1", "b2"],
                others_cap=others_cap,
                seed=3,
            )

    def test_seed_changes_no_answer(self, collusion_market):
        truthful = collusion_market.truthful_reports()
        first = check_dsic_barring_b(
            collusion_market,
            collusion_market.validity,
            truthful,
            consensus(collusion_market),
            ["b1", "b2"],
            others_cap=10,
            seed=42,
        )
        second = check_dsic_barring_b(
            collusion_market,
            collusion_market.validity,
            truthful,
            consensus(collusion_market),
            ["b1", "b2"],
            others_cap=10,
            seed=42,
        )
        unseeded = check_dsic_barring_b(
            collusion_market,
            collusion_market.validity,
            truthful,
            consensus(collusion_market),
            ["b1", "b2"],
            others_cap=10,
        )
        assert first == second == unseeded
        assert first.coverage == "exhaustive"
        assert first.holds


class TestSharedAllocationTruthfulness:
    def test_any_shared_allocation_profile_makes_honesty_dominant(self):
        # with every broker quoting the same allocation the subgame is a
        # take-it-or-leave-it offer, so truthful reporting stays optimal for
        # agents even when the broker profile itself is not an equilibrium
        from helpers import random_routing

        rng = random.Random(2718)
        checked = 0
        while checked < 25:
            instance = random_instance(rng, max_txs=2, max_nodes=2)
            truthful = instance.truthful_reports()
            from brokerlab.validity import enumerate_valid

            allocation = rng.choice(enumerate_valid(instance))
            sigma = [
                Proposal("b1", random_routing(rng, instance, allocation, truthful)),
                Proposal("b2", random_routing(rng, instance, allocation, truthful)),
            ]
            checked += 1
            report = check_dsic_barring_b(
                instance, instance.validity, truthful, sigma, ["b1", "b2"], others_cap=8192
            )
            assert report.exhaustive
            assert not report.witnesses  # bullet one never fails here


def shared_allocation_sigmas(seed, count, max_profiles=None):
    """Random sigmas on one shared allocation, 2-3 transactions x 1-2 nodes,
    1-3 brokers quoting ``random_routing`` payments (above value, and on
    excluded transactions) in a shuffled broker order: (instance, sigma,
    order).  With ``max_profiles``, a sigma whose rival products hold more
    profiles in all is skipped, which bounds the product oracle's time."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        instance = random_instance(rng, max_txs=3, max_nodes=2)
        if len(instance.tx_ids) < 2:
            continue
        truthful = instance.truthful_reports()
        allocation = rng.choice(enumerate_valid(instance))
        brokers = [f"b{i + 1}" for i in range(rng.randint(1, 3))]
        sigma = [Proposal(b, random_routing(rng, instance, allocation, truthful)) for b in brokers]
        order = rng.sample(brokers, len(brokers))
        if max_profiles is not None:
            sizes = {a: len(_candidates(instance, a, sigma, truthful)) for a in instance.agent_ids}
            profiles = sum(math.prod(n for b, n in sizes.items() if b != a) for a in sizes)
            if profiles > max_profiles:
                continue
        made += 1
        yield instance, sigma, order


def first_occurrences(witnesses):
    """``witnesses`` with each repeat dropped, kept where it first appears."""
    kept = []
    for w in witnesses:
        if w not in kept:
            kept.append(w)
    return kept


class TestDsicMatchesProductOracle:
    """One rival profile per agent answers as the product over every rival
    profile does; the product repeats each witness once per profile."""

    def assert_matches(self, instance, sigma, order):
        truthful = instance.truthful_reports()
        report = check_dsic_barring_b(instance, instance.validity, truthful, sigma, order)
        oracle = dsic_product_oracle(instance, instance.validity, truthful, sigma, order)
        assert (report.holds, report.pne, report.exhaustive) == (oracle.holds, oracle.pne, oracle.exhaustive)
        assert list(report.witnesses) == first_occurrences(oracle.witnesses)
        assert report == check_dsic_reference(instance, instance.validity, truthful, sigma, order)
        return report

    def test_random_shared_allocation_sigmas(self):
        partial = 0
        for instance, sigma, order in shared_allocation_sigmas(4242, 300, max_profiles=1000):
            report = self.assert_matches(instance, sigma, order)
            partial += report.profiles_checked < len(instance.agent_ids)
        assert partial  # some sigma has a rival with no passing candidate

    def test_all_margins_negative(self, collusion_market):
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        nodes_paid = {"n1": F(1), "n2": F(1)}
        sigma = [
            Proposal("b1", Routing(allocation, {"t1": F(1), "t2": F(0)}, nodes_paid)),
            Proposal("b2", Routing(allocation, {"t1": F(0), "t2": F(0)}, nodes_paid)),
        ]
        report = self.assert_matches(collusion_market, sigma, ["b1", "b2"])
        assert report.profiles_checked == 0  # every round rejects

    def test_a_rival_with_no_passing_candidate(self, collusion_market):
        # t2 is charged while excluded, so it fails the IR gate at every report
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        nodes_paid = {"n1": F(1), "n2": F(1)}
        sigma = [
            Proposal("b1", Routing(allocation, {"t1": F(4), "t2": F(1)}, nodes_paid)),
            Proposal("b2", Routing(allocation, {"t1": F(2), "t2": F(1)}, nodes_paid)),
        ]
        report = self.assert_matches(collusion_market, sigma, ["b2", "b1"])
        assert report.profiles_checked == 1  # only t2's rivals all pass


class TestDsicMatchesReference:
    """Deciding the rival-profile half from the shared allocation gives the
    whole report the search over one rival profile per agent gave."""

    def assert_matches(self, instance, sigma, order):
        truthful = instance.truthful_reports()
        report = check_dsic_barring_b(instance, instance.validity, truthful, sigma, order)
        assert report == check_dsic_reference(instance, instance.validity, truthful, sigma, order)
        assert report.witnesses == ()
        return report

    def test_figure1_consensus(self):
        figure1 = collusion_example_instance()
        report = self.assert_matches(figure1, consensus(figure1), ["b1", "b2"])
        assert report.holds and report.profiles_checked == 4

    @pytest.mark.parametrize("seed, count", [(4242, 300), (2024, 40)])
    def test_random_shared_allocation_sigmas(self, seed, count):
        seen = set()
        for instance, sigma, order in shared_allocation_sigmas(seed, count):
            report = self.assert_matches(instance, sigma, order)
            checked = report.profiles_checked
            seen.add(checked if checked < 2 else "all")
            assert checked in (0, 1, len(instance.agent_ids))
        assert seen == {0, 1, "all"}

    def test_two_charged_excluded_transactions(self):
        # t2 and t3 fail the IR gate at every report, so every agent has a
        # rival that does
        instance = MarketInstance(
            tuple(TransactionSpec(t, F(5)) for t in ("t1", "t2", "t3")), (NodeSpec("n1", Zero()),)
        )
        routing = Routing(Allocation.of({"t1": ["n1"]}), {"t1": F(2), "t2": F(1), "t3": F(1)}, {"n1": F(1)})
        sigma = [Proposal("b1", routing), Proposal("b2", routing)]
        report = self.assert_matches(instance, sigma, ["b1", "b2"])
        assert report.profiles_checked == 0

    def test_a_paid_unassigned_node(self, collusion_market):
        # n2 runs nothing but is paid, so it passes at every report
        allocation = Allocation.of({"t2": ["n1"]})
        routing = Routing(allocation, {"t1": F(0), "t2": F(3)}, {"n1": F(1), "n2": F(1)})
        report = self.assert_matches(collusion_market, [Proposal("b1", routing)], ["b1"])
        assert report.profiles_checked == 4


class TestDsicCandidatesAtTrueTypes:
    def test_one_dsic_check_builds_each_agents_candidates_once(self, monkeypatch):
        # the equilibrium check builds them at the true types, and deciding
        # the rival-profile half builds none
        built = []
        for name in ("tx_deviation_candidates", "node_deviation_candidates"):
            def counted(instance, agent, proposals, reports, _generator=getattr(equilibrium, name)):
                built.append(agent)
                return _generator(instance, agent, proposals, reports)

            monkeypatch.setattr(equilibrium, name, counted)
        figure1 = collusion_example_instance()
        cases = [(figure1, consensus(figure1), ["b1", "b2"])]
        cases += shared_allocation_sigmas(2024, 40)
        searched = 0
        for instance, sigma, order in cases:
            built.clear()
            report = check_dsic_barring_b(
                instance, instance.validity, instance.truthful_reports(), sigma, order
            )
            assert sorted(built) == sorted(instance.agent_ids)
            searched += report.profiles_checked > 0
        assert searched > 20

    def test_rival_reports_leave_every_candidate_list_unchanged(self):
        # with one shared allocation an agent's candidates are the same at
        # every rival profile, so check_dsic_reference builds them once
        def comparable(candidates):
            return [
                (c.report, c.costs) if isinstance(c, equilibrium._BundleCosts) else c
                for c in candidates
            ]

        profiles = 0
        for instance, sigma, order in shared_allocation_sigmas(2024, 150, max_profiles=1000):
            truthful = instance.truthful_reports()
            sigma = prepare_round(instance, instance.validity, sigma, order)
            agents = instance.agent_ids
            lists = {a: _candidates(instance, a, sigma, truthful) for a in agents}
            for agent in agents:
                others = [a for a in agents if a != agent]
                for profile in itertools.product(*(lists[other] for other in others)):
                    shifted = truthful
                    for other, report in zip(others, profile):
                        shifted = _with_report(shifted, other, report)
                    at_rivals = _candidates(instance, agent, sigma, shifted)
                    assert comparable(at_rivals) == comparable(lists[agent])
                    profiles += 1
        assert profiles > 5000


class TestMonopolistEfficiency:
    def test_monopolist_best_response_maximizes_welfare_with_zero_surplus(self):
        from brokerlab.core import surplus, welfare
        from brokerlab.strategy import broker_best_response
        from brokerlab.validity import enumerate_valid

        rng = random.Random(314)
        for _ in range(30):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            truthful = instance.truthful_reports()
            response = broker_best_response(
                "b1", instance, instance.validity, truthful, [], ["b1"]
            )
            outcome = run(
                instance, instance.validity, truthful, [response.proposal], ["b1"]
            )
            best = max(
                welfare(instance, a, truthful) for a in enumerate_valid(instance)
            )
            assert welfare(instance, outcome.routing.allocation, truthful) == best
            assert surplus(instance, outcome.routing, truthful) == 0


def patch_run(monkeypatch, on_call):
    """Show every ``run`` call the equilibrium and strategy modules make to
    ``on_call(module name, args)`` before it runs."""
    for module in (equilibrium, strategy):
        def wrapper(*args, _name=module.__name__):
            on_call(_name, args)
            return mechanism.run(*args)

        monkeypatch.setattr(module, "run", wrapper)


class TestPreparedDeviationSearch:
    def test_every_deviation_round_matches_the_reference(self, monkeypatch):
        seen = {"brokerlab.equilibrium": 0, "brokerlab.strategy": 0}

        def compare(name, args):
            instance, spec, reports, proposals, order = args
            seen[name] += 1
            if name == "brokerlab.equilibrium":
                # check_pne and check_dsic_barring_b settle against one preparation
                assert isinstance(proposals, PreparedRound)
            raw = list(proposals)
            expected = outcome_or_error(run_reference, instance, spec, reports, raw, order)
            assert outcome_or_error(mechanism.run, *args) == expected
            assert outcome_or_error(mechanism.run, instance, spec, reports, raw, order) == expected

        patch_run(monkeypatch, compare)
        for instance, reports, proposals, order in pne_profiles(1618, 60):
            check_pne(instance, instance.validity, instance.truthful_reports(), reports, proposals, order)
        rng = random.Random(1618)
        for _ in range(5):
            instance = random_instance(rng, max_txs=2, max_nodes=2)
            truthful = instance.truthful_reports()
            sigma = construct_consensus_equilibrium(instance, instance.validity, truthful, ["b1", "b2"])
            check_dsic_barring_b(instance, instance.validity, truthful, sigma, ["b1", "b2"])
        for instance, sigma, order in shared_allocation_sigmas(1618, 40):
            check_dsic_barring_b(instance, instance.validity, instance.truthful_reports(), sigma, order)
        assert seen["brokerlab.equilibrium"] > 2000 and seen["brokerlab.strategy"] > 120

    def test_run_calls_are_one_per_round_checked(self, monkeypatch):
        # the identity the benchmark's traced run checks for every check_pne:
        # run calls = 1 (base) + checked agent deviations + proposing brokers
        calls = {"brokerlab.equilibrium": 0, "brokerlab.strategy": 0}
        patch_run(monkeypatch, lambda name, args: calls.__setitem__(name, calls[name] + 1))
        for instance, reports, proposals, order in pne_profiles(2719, 50):
            calls.update(dict.fromkeys(calls, 0))
            report = check_pne(
                instance, instance.validity, instance.truthful_reports(), reports, proposals, order
            )
            proposers = sum(1 for b in order if b in {p.broker for p in proposals})
            assert calls["brokerlab.equilibrium"] == 1 + report.checked_agent_deviations
            assert calls["brokerlab.strategy"] == proposers

    def test_a_dsic_check_makes_only_its_equilibrium_checks_run_calls(self, monkeypatch):
        # the rival-profile half settles no round of its own
        calls = {"brokerlab.equilibrium": 0, "brokerlab.strategy": 0}
        patch_run(monkeypatch, lambda name, args: calls.__setitem__(name, calls[name] + 1))
        figure1 = collusion_example_instance()
        cases = [(figure1, consensus(figure1), ["b1", "b2"])]
        cases += shared_allocation_sigmas(2024, 40)
        settled = 0
        for instance, sigma, order in cases:
            calls.update(dict.fromkeys(calls, 0))
            report = check_dsic_barring_b(
                instance, instance.validity, instance.truthful_reports(), sigma, order
            )
            proposers = sum(1 for b in order if b in {p.broker for p in sigma})
            assert calls["brokerlab.equilibrium"] == 1 + report.pne.checked_agent_deviations
            assert calls["brokerlab.strategy"] == proposers
            settled += report.profiles_checked
        assert settled


def _digest(reports) -> str:
    """sha256 of the reports' canonical JSON."""
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def dsic_profiles(seed, count):
    """Figure 1's consensus profile, with the default ``others_cap`` and with
    a small one and a seed (neither changes the answer), a shared allocation
    at a positive margin (a broker can undercut it), then consensus profiles
    on random markets: (instance, sigma, keyword arguments)."""
    figure1 = collusion_example_instance()
    yield figure1, consensus(figure1), {}
    yield figure1, consensus(figure1), {"others_cap": 10, "seed": 42}
    shared = scaled_rebate_routing(
        figure1, Allocation.of({"t1": ["n1", "n2"]}), figure1.truthful_reports(), F(1)
    )
    yield figure1, [Proposal("b1", shared), Proposal("b2", shared)], {}
    rng = random.Random(seed)
    for _ in range(count):
        instance = random_instance(rng, max_txs=2, max_nodes=2)
        yield instance, consensus(instance), {}


class TestGoldenReports:
    # Each digest covers whole reports in order: witnesses (their order
    # included), checked_agent_deviations, checked_broker_allocations,
    # profiles_checked and coverage.  A change to the deviation search that
    # alters any of them fails here.
    def test_check_pne_reports(self):
        reports = [
            equilibrium_report_to_json(
                check_pne(
                    instance, instance.validity, instance.truthful_reports(), profile, proposals, order
                )
            )
            for instance, profile, proposals, order in pne_profiles(3141, 60)
        ]
        kinds = {w["kind"] for report in reports for w in report["witnesses"]}
        assert kinds == {"tx_report", "node_report", "broker_proposal"}
        assert _digest(reports) == "7b9df134aec9931e7e70caa994be16abd41259c2220011be501e710bc5ef768d"

    def test_check_dsic_barring_b_reports(self):
        reports = []
        for instance, sigma, kwargs in dsic_profiles(5772, 10):
            truthful = instance.truthful_reports()
            report = check_dsic_barring_b(
                instance, instance.validity, truthful, sigma, ["b1", "b2"], **kwargs
            )
            oracle = dsic_product_oracle(instance, instance.validity, truthful, sigma, ["b1", "b2"])
            assert (report.holds, report.pne) == (oracle.holds, oracle.pne)
            assert list(report.witnesses) == first_occurrences(oracle.witnesses)
            reports.append(truthfulness_report_to_json(report))
        assert {r["coverage"] for r in reports} == {"exhaustive"}
        assert any(r["pne"]["witnesses"] for r in reports)
        assert _digest(reports) == "306b721b5cfcd4f8d7b1f36b8db249caf877385c3e906d938da934d86af39a43"
