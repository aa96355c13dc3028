"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 runs the inclusion-gap construction: d-1 cheap transactions worth
2/d on private dimensions, pairwise mutually exclusive through state, and one
transaction worth 1 using every dimension.  A price keeping the valuable
transaction willing sums to at most 1, so some private price is at most 2/d
and a cheap transaction stays willing; the worst inclusion-maximal
allocation is then a lone cheap transaction and INC = 2/d.  test_mdfm
contrasts it with cheap transactions sharing a priced dimension, where the
price (0, ..., 0, 1) isolates the valuable one and INC = OPT.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from brokerlab.core import (
    Allocation,
    SubsetTable,
    node_utility,
    surplus,
    tx_utility,
    welfare,
)
from brokerlab.equilibrium import (
    check_dsic_barring_b,
    check_pne,
    construct_consensus_equilibrium,
)
from brokerlab.mdfm import (
    collusion_certificate,
    collusion_example_instance,
    fee_gap_market,
    inclusion_gap_market,
    oracle_gap_market,
    run_benchmarks,
)
from brokerlab.mechanism import Proposal, broker_utility, run
from brokerlab.strategy import (
    best_response_dynamics,
    broker_best_response,
    max_extraction_routing,
    welfare_max_allocation,
)
from brokerlab.validity import enumerate_valid

from conftest import record_acceptance
from helpers import (
    fee_maximal_allocations,
    inc_benchmark,
    inclusion_maximal_allocations,
    opt_benchmark,
    pools_at_price,
    random_instance,
    random_proposals,
    random_reports,
    random_resource_market,
    willingness_patterns,
)

ZERO = F(0)


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded random rounds shared by criteria 1 and 2."""
    rng = random.Random(0xBB01)
    rounds = []
    for _ in range(1000):
        instance = random_instance(rng, max_txs=4, max_nodes=3)
        reports, honest = random_reports(rng, instance)
        allocations = enumerate_valid(instance)
        proposals, order = random_proposals(rng, instance, reports, allocations)
        outcome = run(instance, instance.validity, reports, proposals, order)
        rounds.append((instance, reports, honest, proposals, order, outcome))
    return rounds


def test_criterion_1_budget_balance(corpus):
    failures = 0
    for _, _, _, _, _, outcome in corpus:
        inflow = sum(outcome.routing.tx_payments.values(), ZERO)
        outflow = sum(outcome.routing.node_payments.values(), ZERO)
        if inflow != outflow + outcome.broker_payment:
            failures += 1
    record_acceptance(
        1,
        "strong budget balance on 1000 random rounds",
        failures == 0,
        f"{len(corpus)} rounds",
    )


def test_criterion_2_individual_rationality(corpus):
    agent_failures = broker_failures = 0
    for instance, _, honest, proposals, _, outcome in corpus:
        truthful = instance.truthful_reports()
        for tx in instance.tx_ids:
            if tx in honest and tx_utility(tx, outcome.routing, truthful.tx_reports[tx]) < 0:
                agent_failures += 1
        for node in instance.node_ids:
            if node in honest:
                utility = node_utility(
                    node, outcome.routing, truthful.node_reports[node], instance.resources
                )
                if utility < 0:
                    agent_failures += 1
        for proposal in proposals:
            if proposal.routing == instance.empty_routing():
                if broker_utility(outcome, proposal.broker) != 0:
                    broker_failures += 1
    record_acceptance(
        2,
        "truthful-agent and empty-routing-broker rationality",
        agent_failures == 0 and broker_failures == 0,
        f"agent violations={agent_failures}, broker violations={broker_failures}",
    )


def test_criterion_3_monopolist_efficiency():
    rng = random.Random(0xBB03)
    checked = failures = 0
    for _ in range(100):
        instance = random_instance(rng, max_txs=4, max_nodes=3)
        truthful = instance.truthful_reports()
        response = broker_best_response(
            "b1", instance, instance.validity, truthful, [], ["b1"]
        )
        outcome = run(instance, instance.validity, truthful, [response.proposal], ["b1"])
        best = max(welfare(instance, a, truthful) for a in enumerate_valid(instance))
        checked += 1
        if (
            welfare(instance, outcome.routing.allocation, truthful) != best
            or surplus(instance, outcome.routing, truthful) != 0
        ):
            failures += 1
    record_acceptance(
        3,
        "one broker: best response is welfare-maximizing with zero surplus",
        failures == 0,
        f"{checked} instances",
    )


def test_criterion_4_consensus_equilibrium():
    rng = random.Random(0xBB04)
    checked = dsic_checked = failures = 0
    while checked < 100:
        small = checked % 2 == 0
        instance = random_instance(
            rng, max_txs=2 if small else 3, max_nodes=2
        )
        truthful = instance.truthful_reports()
        best = welfare_max_allocation(instance, instance.validity, truthful)
        if not best.unique:
            continue
        checked += 1
        sigma = construct_consensus_equilibrium(
            instance, instance.validity, truthful, ["b1", "b2"]
        )
        outcome = run(instance, instance.validity, truthful, sigma, ["b1", "b2"])
        ok = (
            surplus(instance, outcome.routing, truthful) == best.welfare
            and best.welfare >= 0
        )
        pne = check_pne(
            instance, instance.validity, truthful, truthful, sigma, ["b1", "b2"]
        )
        ok = ok and pne.is_pne
        if len(instance.agent_ids) <= 4:
            report = check_dsic_barring_b(
                instance,
                instance.validity,
                truthful,
                sigma,
                ["b1", "b2"],
                others_cap=4096,
            )
            ok = ok and report.holds and report.exhaustive
            dsic_checked += 1
        if not ok:
            failures += 1
    record_acceptance(
        4,
        "multi-broker consensus profile: equilibrium, truthfulness, max surplus",
        failures == 0 and dsic_checked >= 30,
        f"{checked} instances, {dsic_checked} exhaustively quantified",
    )


def _dynamics_case(instance, quantum, bound):
    truthful = instance.truthful_reports()
    best = welfare_max_allocation(instance, instance.validity, truthful)
    start = [
        Proposal("b1", max_extraction_routing(instance, best.allocation, truthful)),
        Proposal("b2", max_extraction_routing(instance, best.allocation, truthful)),
    ]
    trace = best_response_dynamics(
        instance, instance.validity, truthful, start, ["b1", "b2"], quantum, bound
    )
    outcome = run(instance, instance.validity, truthful, list(trace.terminal), ["b1", "b2"])
    return (
        trace.converged
        and outcome.winner is not None
        and outcome.routing.allocation == best.allocation
        and outcome.broker_payment <= quantum
    )


def test_criterion_5_dynamics_convergence():
    fig1 = collusion_example_instance()
    ok = _dynamics_case(fig1, F(1, 4), 16 + 4)

    rng = random.Random(0xBB05)
    checked = 0
    while checked < 20:
        instance = random_instance(rng, max_txs=3, max_nodes=2)
        truthful = instance.truthful_reports()
        best = welfare_max_allocation(instance, instance.validity, truthful)
        if not best.unique or best.welfare <= 0:
            continue
        checked += 1
        quantum = best.welfare / 8
        ok = ok and _dynamics_case(instance, quantum, 8 + 4)
    record_acceptance(
        5,
        "two-broker undercutting reaches the welfare maximizer at margin <= quantum",
        ok,
        "figure-1 plus 20 random instances",
    )


def test_criterion_6_benchmark_hierarchy():
    rng = random.Random(0xBB06)
    hierarchy_failures = subset_failures = subset_checked = 0
    for _ in range(200):
        market = random_resource_market(rng, positive_only=True)
        result = run_benchmarks(market)
        if not (result.inc <= result.fee <= result.ora <= result.opt):
            hierarchy_failures += 1
        for willing, price in willingness_patterns(market):
            if any(p <= 0 for p in price):
                bumped = _positive_price_in_pattern(market, willing)
                if bumped is None:
                    continue
                price = bumped
            _, pool = pools_at_price(market, price)
            fee_max = set(fee_maximal_allocations(market, pool, price))
            inc_max = set(inclusion_maximal_allocations(pool))
            subset_checked += 1
            if not fee_max <= inc_max:
                subset_failures += 1
    record_acceptance(
        6,
        "INC <= FEE <= ORA <= OPT and fee-maximal within inclusion-maximal",
        hierarchy_failures == 0 and subset_failures == 0 and subset_checked >= 200,
        f"200 markets, {subset_checked} positive-price pattern checks",
    )


def _positive_price_in_pattern(market, pattern_willing):
    """A strictly positive price certifying the same willing set, if one exists."""
    thresholds = [
        t.value / t.resources[0]
        for t in market.transactions
        if t.resources[0] > 0 and t.value > 0
    ]
    if not thresholds:
        return None
    candidate = (min(thresholds) / 2,)
    willing, _ = pools_at_price(market, candidate)
    if willing == pattern_willing and all(p > 0 for p in candidate):
        return candidate
    return None


def test_criterion_7_inclusion_gap_instances():
    details = []
    ok = True
    for d in (3, 4, 6, 8):
        market = inclusion_gap_market(d)
        opt = opt_benchmark(market)
        inc = inc_benchmark(market)
        details.append(f"d={d}: opt={opt}, inc={inc}, required 2/d={F(2, d)}")
        if opt != 1 or inc != F(2, d):
            ok = False
    record_acceptance(
        7,
        "inclusion-maximal gap instances: OPT = 1 and INC = 2/d",
        ok,
        "; ".join(details),
    )


def test_criterion_8_fee_gap_instances():
    ok = True
    details = []
    for k in (2, 3, 5, 11):
        market = fee_gap_market(k)
        result = run_benchmarks(market)
        opt, fee, exact = result.opt, result.fee, result.fee_exact
        expected = F(k, 2 * (k - 1))
        details.append(f"k={k}: fee={fee}")
        if opt != 1 or fee != expected or not exact:
            ok = False
    record_acceptance(
        8,
        "fee-maximal gap instances: OPT = 1 and FEE = k/(2(k-1)) exactly",
        ok,
        "; ".join(details),
    )


def test_criterion_9_oracle_gap_instances():
    ok = True
    details = []
    for k in (2, 3, 4):
        market = oracle_gap_market(k, [F(i + 1) for i in range(k)], F(1, 2))
        result = run_benchmarks(market)
        opt, ora = result.opt, result.ora
        details.append(f"k={k}: opt={opt}, ora={ora}")
        if opt != k or ora != 1:
            ok = False
    record_acceptance(
        9,
        "oracle-maximal gap instances: OPT = k and ORA = 1",
        ok,
        "; ".join(details),
    )


def test_criterion_10_collusion_example():
    cert = collusion_certificate()
    ok = (
        cert.valid_allocations == 4
        and cert.best_allocation == Allocation.of({"t1": ["n1", "n2"]})
        and cert.best_welfare == 4
        and not cert.resistant
        and cert.required_total_node_payment > cert.max_total_node_payment
    )
    record_acceptance(
        10,
        "collusion example: 4 allocations, best surplus 4, no resistant routing",
        ok,
        f"needs {cert.required_total_node_payment} > {cert.max_total_node_payment} available",
    )


# --- criterion 11: breakpoint search vs a dense naive grid --------------------


def _grid_values(limit: F, step: F) -> list[F]:
    out = []
    value = ZERO
    while value <= limit:
        out.append(value)
        value += step
    return out


def _grid_agent_deviation_exists(instance, reports, proposals, order, step) -> bool:
    """Dense-grid search for any profitable agent deviation."""
    truthful = instance.truthful_reports()
    base = run(instance, instance.validity, reports, proposals, order)
    span = sum(truthful.tx_reports.values(), ZERO) + F(1)
    for proposal in proposals:
        span += sum(proposal.routing.tx_payments.values(), ZERO)
        span += sum(proposal.routing.node_payments.values(), ZERO)

    for tx in instance.tx_ids:
        before = tx_utility(tx, base.routing, truthful.tx_reports[tx])
        for value in _grid_values(span, step):
            outcome = run(
                instance, instance.validity, reports.replace_tx(tx, value), proposals, order
            )
            if tx_utility(tx, outcome.routing, truthful.tx_reports[tx]) > before:
                return True

    all_txs = frozenset(instance.tx_ids)
    subsets = [
        frozenset(s)
        for size in range(len(all_txs) + 1)
        for s in _combos(sorted(all_txs), size)
    ]
    for node in instance.node_ids:
        bundles = []
        for proposal in proposals:
            bundle = proposal.routing.allocation.inverse(node)
            if bundle and bundle not in bundles:
                bundles.append(bundle)
        if not bundles:
            continue
        before = node_utility(
            node, base.routing, truthful.node_reports[node], instance.resources
        )
        current = reports.node_reports[node]
        grids = [_grid_values(span, step) for _ in bundles]
        for combo in product(*grids):
            table = {}
            for subset in subsets:
                if subset in bundles:
                    table[subset] = combo[bundles.index(subset)]
                else:
                    table[subset] = current.cost(subset, instance.resources)
            deviated = reports.replace_node(node, SubsetTable(all_txs, table))
            outcome = run(instance, instance.validity, deviated, proposals, order)
            after = node_utility(
                node, outcome.routing, truthful.node_reports[node], instance.resources
            )
            if after > before:
                return True
    return False


def _combos(items, size):
    from itertools import combinations

    return combinations(items, size)


def _grid_broker_deviation_exists(instance, reports, proposals, order, quantum) -> bool:
    base = run(instance, instance.validity, reports, proposals, order)
    for broker in order:
        mine = [p for p in proposals if p.broker == broker]
        if not mine:
            continue
        rivals = [p for p in proposals if p.broker != broker]
        response = broker_best_response(
            broker, instance, instance.validity, reports, rivals, order, quantum
        )
        if response.utility > broker_utility(base, broker):
            return True
    return False


def test_criterion_11_checker_matches_dense_grid():
    rng = random.Random(0xBB11)
    disagreements = 0
    cases = 0
    quantum = F(1, 2)
    step = quantum / 4
    while cases < 50:
        instance = _small_instance(rng)
        truthful = instance.truthful_reports()
        allocations = enumerate_valid(instance)
        proposals, order = random_proposals(
            rng, instance, truthful, allocations, max_brokers=2
        )
        if not proposals:
            continue
        distinct_bundles = max(
            (
                len({p.routing.allocation.inverse(n) for p in proposals} - {frozenset()})
                for n in instance.node_ids
            ),
            default=0,
        )
        if distinct_bundles > 1 and len(instance.tx_ids) > 2:
            continue  # keep the naive product grid affordable
        cases += 1
        report = check_pne(
            instance, instance.validity, truthful, truthful, proposals, order, quantum
        )
        grid_deviation = _grid_agent_deviation_exists(
            instance, truthful, proposals, order, step
        ) or _grid_broker_deviation_exists(instance, truthful, proposals, order, quantum)
        if report.is_pne == grid_deviation:  # is_pne should equal *no* deviation
            disagreements += 1
    record_acceptance(
        11,
        "breakpoint deviation search agrees with dense-grid naive search",
        disagreements == 0,
        f"{cases} cases, {disagreements} disagreements",
    )


def _small_instance(rng):
    from brokerlab.core import ConstantNonempty, MarketInstance, NodeSpec, TransactionSpec, Zero
    from brokerlab.validity import Constraints, SingleAssignment

    n_txs = rng.randint(1, 3)
    n_nodes = rng.randint(1, 2)
    txs = tuple(
        TransactionSpec(f"t{i + 1}", F(rng.randint(0, 4), rng.choice((1, 2))))
        for i in range(n_txs)
    )
    nodes = tuple(
        NodeSpec(
            f"n{j + 1}",
            Zero() if rng.random() < 0.5 else ConstantNonempty(F(rng.randint(0, 2))),
        )
        for j in range(n_nodes)
    )
    constraints = (SingleAssignment(),) if rng.random() < 0.8 else ()
    return MarketInstance(txs, nodes, Constraints(constraints))
