import importlib.util
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from brokerlab.core import (
    EMPTY_ALLOCATION,
    Allocation,
    LinearResources,
    NodeSpec,
    TransactionSpec,
    Zero,
    welfare,
)
from brokerlab import linineq, mdfm, validity
from brokerlab.errors import InstanceTooLarge, MalformedInput
from brokerlab.linineq import enumerate_cells, find_point, nonneg_orthant
from brokerlab.scenario import allocation_to_json, parse_scenario
from brokerlab.mdfm import (
    ResourceMarket,
    collusion_certificate,
    collusion_example_instance,
    fee_gap_market,
    inclusion_gap_market,
    oracle_gap_market,
    run_benchmarks,
)
from brokerlab.validity import MutualExclusion, enumerate_valid

from helpers import (
    attainability_system,
    base_fee,
    base_fee_payments,
    fee_maximal_allocations,
    holds,
    inclusion_maximal_allocations,
    opt_benchmark,
    ora_by_allocation,
    pools_at_price,
    prepare_reference,
    random_resource_market,
    run_benchmarks_reference,
    sweep_benchmarks,
    willingness_patterns,
)

X4720 = """{"kind": "resource_market", "dimensions": 4, "single_assignment": true,
 "transactions": [
  {"id": "t1", "value": 6, "resources": ["3/2", 2, 1, 2]},
  {"id": "t2", "value": 2, "resources": [3, "3/2", 3, 3]},
  {"id": "t3", "value": 4, "resources": [3, 2, "3/2", "1/2"]},
  {"id": "t4", "value": 2, "resources": ["5/2", 2, "3/2", "5/2"]},
  {"id": "t5", "value": 5, "resources": [3, "3/2", 3, "3/2"]},
  {"id": "t6", "value": 2, "resources": ["3/2", "1/2", 1, 2]},
  {"id": "t7", "value": 6, "resources": [2, "3/2", "1/2", "5/2"]}],
 "nodes": [
  {"id": "n1", "capacity": [2, 4, 2, 5], "unit_costs": ["1/2", 1, 0, 0]},
  {"id": "n2", "capacity": [6, 7, 4, 7], "unit_costs": [0, 0, 0, 1]}]}"""

X3521 = """{"kind": "resource_market", "dimensions": 3, "single_assignment": true,
 "transactions": [
  {"id": "t1", "value": "1/2", "resources": ["5/2", "3/2", "5/2"]},
  {"id": "t2", "value": 6, "resources": [1, 2, "3/2"]},
  {"id": "t3", "value": 2, "resources": ["3/2", "3/2", 2]},
  {"id": "t4", "value": "5/2", "resources": [1, 2, "5/2"]},
  {"id": "t5", "value": 1, "resources": ["1/2", 1, "5/2"]}],
 "nodes": [
  {"id": "n1", "capacity": [4, 3, 8], "unit_costs": ["1/2", 0, 1]},
  {"id": "n2", "capacity": [4, 7, 7], "unit_costs": ["1/2", 2, 1]}]}"""

# perfbench's seeded scenario generators, read as a module of plain functions
_GEN_SPEC = importlib.util.spec_from_file_location(
    "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
)
perfbench_gen = importlib.util.module_from_spec(_GEN_SPEC)
_GEN_SPEC.loader.exec_module(perfbench_gen)


class TestBaseFee:
    def test_zero_price(self):
        assert base_fee((F(1), F(1)), (F(0), F(0))) == 0

    def test_all_dimensions(self):
        assert base_fee((F(1),) * 4, (F(1, 4),) * 4) == 1

    def test_scalar(self):
        assert base_fee((F(2),), (F(3),)) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(MalformedInput):
            base_fee((F(1),), (F(1), F(2)))


class TestPayments:
    def market(self):
        txs = (
            TransactionSpec("t1", F(5), (F(1),)),
            TransactionSpec("t2", F(5), (F(2),)),
        )
        return ResourceMarket(1, txs, (NodeSpec("n", Zero(), (F(4),)),))

    def test_empty_allocation(self):
        market = self.market()
        pi, phi = base_fee_payments(market, Allocation(), (F(1),))
        assert all(v == 0 for v in pi.values())
        assert all(v == 0 for v in phi.values())

    def test_single_node_collects_fees(self):
        market = self.market()
        pi, phi = base_fee_payments(
            market, Allocation.of({"t1": ["n"], "t2": ["n"]}), (F(1),)
        )
        assert pi == {"t1": F(1), "t2": F(2)}
        assert phi == {"n": F(3)}

    def test_multi_assignment_double_pays_nodes(self):
        txs = (TransactionSpec("t1", F(5), (F(1),)),)
        nodes = (NodeSpec("a", Zero(), (F(2),)), NodeSpec("b", Zero(), (F(2),)))
        market = ResourceMarket(1, txs, nodes)
        pi, phi = base_fee_payments(market, Allocation.of({"t1": ["a", "b"]}), (F(1),))
        assert pi["t1"] == 1
        assert phi == {"a": F(1), "b": F(1)}
        assert sum(pi.values()) - sum(phi.values()) == -1  # outside the posted-price model


class TestFeasiblePatterns:
    def test_all_willing_at_zero_price(self):
        market = fee_gap_market(2)
        patterns = dict(willingness_patterns(market))
        assert frozenset(t.id for t in market.transactions) in patterns
        full = next(price for willing, price in patterns.items() if len(willing) == 3)
        assert all(x == 0 for x in full)

    def test_oracle_gap_pattern_map(self):
        market = oracle_gap_market(2, [F(1), F(2)])
        patterns = {tuple(sorted(willing)) for willing, _ in willingness_patterns(market)}
        # thresholds: t01 willing iff p <= 2, t02 willing iff p <= 3
        assert set(patterns) == {(), ("t02",), ("t01", "t02")}

    def test_zero_resource_transaction_always_willing(self):
        txs = (
            TransactionSpec("t1", F(0), (F(0),)),
            TransactionSpec("t2", F(2), (F(1),)),
        )
        market = ResourceMarket(1, txs, (NodeSpec("n", Zero(), (F(1),)),))
        patterns = {tuple(sorted(willing)) for willing, _ in willingness_patterns(market)}
        assert all("t1" in p for p in patterns)

    def test_witness_prices_certify_their_patterns(self):
        rng = random.Random(3)
        for _ in range(40):
            market = random_resource_market(rng)
            for willing, price in willingness_patterns(market):
                assert pools_at_price(market, price)[0] == willing

    @pytest.mark.parametrize(
        "market, message",
        [
            (fee_gap_market(16), "run_benchmarks: 17 transactions, cap is 16"),
            (inclusion_gap_market(9), "run_benchmarks: 9 dimensions, cap is 8"),
        ],
        ids=["17-transactions", "9-dimensions"],
    )
    def test_caps_refuse_before_the_valid_set_is_enumerated(self, monkeypatch, market, message):
        def enumerate_valid(*args, **kwargs):
            raise AssertionError("enumerate_valid called on an oversized market")

        monkeypatch.setattr(mdfm, "enumerate_valid", enumerate_valid)
        with pytest.raises(InstanceTooLarge, match=message):
            run_benchmarks(market)

    def test_fm_row_budget_refuses_a_runaway_elimination(self):
        # perfbench/gen.py's random_resource_market(Random("x4720"), d=4,
        # 7 txs, 2 nodes, slot 0): unbudgeted, its cell walk runs for over a
        # minute; the budget stops it at the first level past MAX_FM_ROWS
        scenario = parse_scenario(json.loads(X4720))
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match=r"find_point: elimination reached \d+ rows, cap is 16384"):
            run_benchmarks(scenario.market)
        assert time.perf_counter() - start < 2


class TestPrunedWalk:
    """``run_benchmarks`` skips each subtree of the cell walk that cannot
    move INC, FEE or ORA; the unpruned pass it replaced is the oracle."""

    def test_pruned_pass_matches_the_unpruned_reference(self):
        markets = [
            parse_scenario(scenario).market
            for seed in (1, 2, 3)
            for _, scenario, _ in perfbench_gen.price_benchmarks(seed, 2000)
        ]
        markets += [inclusion_gap_market(d) for d in range(3, 9)]
        markets += [fee_gap_market(k) for k in range(2, 13)]
        markets += [oracle_gap_market(k, [F(v) for v in range(1, k + 1)]) for k in (2, 3, 4)]
        # d = 3 tail markets whose unpruned walk stays under a second
        # (tail1 takes seconds); 19, 23 and 24 have a benchmark below OPT
        markets += [
            parse_scenario(
                perfbench_gen.random_resource_market(random.Random(f"tail{i}"), 3, 5, 2, i)
            ).market
            for i in (0, *range(2, 12), 19, 23, 24)
        ]
        below_opt = 0
        for market in markets:
            result = run_benchmarks(market)
            assert result == run_benchmarks_reference(market)
            below_opt += min(result.inc, result.fee, result.ora) < result.opt
        assert below_opt > 1000

    def test_x3521_is_answered_in_a_few_dozen_eliminations(self, monkeypatch):
        # perfbench/gen.py's random_resource_market(Random("x3521"), d=3,
        # 5 txs, 2 nodes, slot 1): unpruned, its walk makes 4,391
        # find_point calls and takes tens of seconds, though all four
        # benchmarks are 4
        calls = []
        real = linineq.find_point

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linineq, "find_point", counted)
        monkeypatch.setattr(mdfm, "find_point", counted)
        market = parse_scenario(json.loads(X3521)).market
        start = time.perf_counter()
        result = run_benchmarks(market)
        assert time.perf_counter() - start < 2
        assert (result.opt, result.inc, result.fee, result.ora) == (4, 4, 4, 4)
        assert len(calls) <= 100

    def test_a_market_the_unpruned_walk_refuses_is_answered(self):
        # perfbench/gen.py's random_resource_market(Random("tail22"), d=4,
        # 5 txs, 2 nodes, slot 22): the unpruned walk reaches a level past
        # MAX_FM_ROWS; pruned, it never builds that system
        scenario = perfbench_gen.random_resource_market(random.Random("tail22"), 4, 5, 2, 22)
        market = parse_scenario(scenario).market
        with pytest.raises(InstanceTooLarge, match="cap is 16384"):
            run_benchmarks_reference(market)
        result = run_benchmarks(market)
        assert (result.opt, result.inc, result.fee, result.ora) == (8, 8, 8, 8)
        ora = result.witnesses["ora"]
        instance = market.instance()
        assert validity.is_valid(ora.allocation, instance.validity, instance)
        assert all(holds(c, ora.price) for c in attainability_system(market, ora.allocation))


class TestConstructions:
    def test_inclusion_gap_shape(self):
        market = inclusion_gap_market(4)
        assert len(market.transactions) == 4
        assert market.transactions[0].resources == (F(1), F(0), F(0), F(0))
        assert market.transactions[-1].resources == (F(1),) * 4
        assert market.transactions[-1].value == 1
        assert market.exclusions == (
            MutualExclusion("t01", "t02"),
            MutualExclusion("t01", "t03"),
            MutualExclusion("t02", "t03"),
        )
        with pytest.raises(MalformedInput):
            inclusion_gap_market(2)

    def test_fee_gap_shape(self):
        market = fee_gap_market(3)
        values = [t.value for t in market.transactions]
        assert values == [F(1, 4), F(1, 4), F(1, 4), F(1, 2)]
        with pytest.raises(MalformedInput):
            fee_gap_market(1)

    def test_oracle_gap_values_and_costs(self):
        market = oracle_gap_market(2, [F(1), F(2)], F(1, 2))
        assert [t.value for t in market.transactions] == [F(2), F(6)]
        costs = [n.cost.unit_costs[0] for n in market.nodes]
        assert costs == [F(1), F(5, 2)]
        with pytest.raises(MalformedInput):
            oracle_gap_market(2, [F(1), F(1)])
        with pytest.raises(MalformedInput):
            oracle_gap_market(2, [F(2), F(1)])

    def test_opt_values(self):
        assert run_benchmarks(inclusion_gap_market(4)).opt == 1
        assert run_benchmarks(fee_gap_market(3)).opt == 1
        assert run_benchmarks(oracle_gap_market(2, [F(1), F(2)])).opt == 2
        assert run_benchmarks(oracle_gap_market(3, [F(1), F(2), F(3)])).opt == 3

    def test_fee_values(self):
        for k, fee in ((3, F(3, 4)), (5, F(5, 8)), (2, F(1))):
            result = run_benchmarks(fee_gap_market(k))
            assert (result.fee, result.fee_exact) == (fee, True)

    def test_oracle_values(self):
        assert run_benchmarks(oracle_gap_market(2, [F(1), F(2)])).ora == 1
        assert run_benchmarks(oracle_gap_market(3, [F(1), F(2), F(3)])).ora == 1

    def test_oracle_gap_k5_fits_the_enumeration_cap(self):
        # single assignment leaves 6 choices per transaction: 6^5 leaves
        market = oracle_gap_market(5, [F(1), F(2), F(3), F(4), F(5)])
        assert len(enumerate_valid(market.instance())) == 261
        result = run_benchmarks(market)
        assert (result.opt, result.ora) == (5, 1)

    def test_inclusion_gap_price_isolating_the_big_transaction(self):
        # If the cheap transactions conflict through a priced shared
        # dimension, a price concentrated on it keeps only the
        # all-dimensions transaction willing, so the worst inclusion-maximal
        # allocation there is the optimum itself and INC = OPT = 1.
        shared = (
            TransactionSpec("t01", F(1, 2), (F(1), F(0), F(0), F(1))),
            TransactionSpec("t02", F(1, 2), (F(0), F(1), F(0), F(1))),
            TransactionSpec("t03", F(1, 2), (F(0), F(0), F(1), F(1))),
            TransactionSpec("t04", F(1), (F(1),) * 4),
        )
        priced = ResourceMarket(4, shared, (NodeSpec("n", Zero(), (F(1),) * 4),))
        isolating = (F(0), F(0), F(0), F(1))
        willing, pool = pools_at_price(priced, isolating)
        assert willing == {"t04"}
        maximal = inclusion_maximal_allocations(pool)
        assert [allocation_to_json(a) for a in maximal] == [{"t04": ["n"]}]
        assert run_benchmarks(priced).inc == 1

        # The construction makes them conflict through state instead, so the
        # same price leaves them willing and the worst maximal allocation is
        # a single cheap transaction worth 2/d.
        market = inclusion_gap_market(4)
        instance = market.instance()
        willing, pool = pools_at_price(market, isolating)
        assert willing == {"t01", "t02", "t03", "t04"}
        maximal = inclusion_maximal_allocations(pool)
        worst = min(welfare(instance, a, instance.truthful_reports()) for a in maximal)
        assert worst == F(1, 2)

    def test_single_tx_market_inc_equals_opt(self):
        txs = (TransactionSpec("t1", F(5), (F(1),)),)
        market = ResourceMarket(1, txs, (NodeSpec("n", Zero(), (F(2),)),))
        result = run_benchmarks(market)
        assert (result.inc, result.opt) == (5, 5)

    def test_empty_market(self):
        market = ResourceMarket(1, (), (NodeSpec("n", Zero(), (F(1),)),))
        result = run_benchmarks(market)
        assert (result.opt, result.inc, result.fee, result.fee_exact, result.ora) == (0, 0, 0, True, 0)


def test_posted_price_surplus_equals_welfare_under_single_assignment():
    from brokerlab.core import Routing, surplus, welfare

    rng = random.Random(64)
    for _ in range(60):
        market = random_resource_market(rng)
        instance = market.instance()
        truthful = instance.truthful_reports()
        price = (F(rng.randint(0, 6), rng.choice((1, 2))),)
        for allocation in enumerate_valid(instance):
            if any(len(nodes) > 1 for _, nodes in allocation.pairs):
                continue
            pi, phi = base_fee_payments(market, allocation, price)
            routing = Routing(allocation, pi, phi)
            assert surplus(instance, routing, truthful) == welfare(
                instance, allocation, truthful
            )


class TestHierarchyAndSweep:
    def test_benchmarks_match_dense_price_sweep(self):
        rng = random.Random(61)
        markets = [random_resource_market(rng, max_txs=4) for _ in range(60)]
        # a costed node that fits no transaction: no valid allocation has a
        # costly bundle, so the pools are subset-closed despite the cost
        txs = tuple(TransactionSpec(f"t{i}", F(i), (F(1),)) for i in (1, 2, 3))
        idle = NodeSpec("a", LinearResources((F(5),)), (F(1, 2),))
        nodes = (idle, NodeSpec("b", Zero(), (F(2),)))
        markets.append(ResourceMarket(1, txs, nodes, single_assignment=True))
        for market in markets:
            result = run_benchmarks(market)
            swept = sweep_benchmarks(market)
            assert result.inc == swept["inc"]
            assert result.fee == swept["fee"]
            assert result.ora == swept["ora"]
            # ORA's rows read off the arrangement give the system built from market data
            ora = result.witnesses["ora"]
            system = attainability_system(market, ora.allocation)
            assert ora.price == find_point(system, market.dimensions)

    def test_maximality_needs_the_general_rule_once_bundles_cost(self):
        # at p = (2, 3/2) the pool holds {t0,t2} and {t0,t1,t2,t3} but no
        # three-transaction set between them, so a rule that looks for
        # one-transaction extensions only would call {t0,t2} maximal
        usage = [(2, 1), (1, 2), (1, 3), (1, 1)]
        txs = tuple(
            TransactionSpec(f"t{i}", F(100), tuple(map(F, g))) for i, g in enumerate(usage)
        )
        nodes = (
            NodeSpec("n0", LinearResources((F(3), F(0))), (F(6), F(3))),
            NodeSpec("n1", LinearResources((F(0), F(5, 2))), (F(2), F(6))),
        )
        market = ResourceMarket(2, txs, nodes, single_assignment=True)
        price = (F(2), F(3, 2))
        infos, hyperplanes, *_ = mdfm._prepare(market)
        true = sum(1 << i for i, h in enumerate(hyperplanes) if holds(h, price))
        pool = [info for info in infos if info.mask & true == info.mask]
        direct = pools_at_price(market, price)[1]
        assert {info.allocation for info in pool} == set(direct)
        tsets = {info.allocation.transactions for info in pool}
        assert {frozenset({"t0", "t2"}), frozenset({"t0", "t1", "t2", "t3"})} <= tsets
        assert not {frozenset({"t0", "t1", "t2"}), frozenset({"t0", "t2", "t3"})} & tsets
        expected = inclusion_maximal_allocations(direct)
        assert [info.allocation for info in mdfm._maximal_infos(pool)] == expected
        assert frozenset({"t0", "t2"}) not in {a.transactions for a in expected}

    def test_maximal_infos_match_the_reference_on_every_cell_pool(self):
        # two-node d = 2 markets whose capacities and costly bundles leave
        # gaps in some pools, as in the pinned market, then random markets
        rng = random.Random(1)

        def half(lo, hi):
            return F(rng.randint(2 * lo, 2 * hi), 2)

        markets = []
        for _ in range(250):
            txs = tuple(
                TransactionSpec(f"t{i}", F(100), (F(rng.randint(1, 3)), F(rng.randint(1, 3))))
                for i in range(4)
            )
            nodes = tuple(
                NodeSpec(
                    f"n{j}",
                    LinearResources((half(0, 3), half(0, 3))),
                    (F(rng.randint(1, 6)), F(rng.randint(1, 6))),
                )
                for j in range(2)
            )
            markets.append(ResourceMarket(2, txs, nodes, single_assignment=True))
        for k in range(90):
            markets.append(
                random_resource_market(rng, max_txs=4, dimensions=1 + k % 3, n_nodes=1 + k % 2)
            )
        pools = costly = gapped = 0
        for market in markets:
            d = market.dimensions
            infos, hyperplanes, *_ = mdfm._prepare(market)
            for signs, _ in enumerate_cells(nonneg_orthant(d), hyperplanes, d):
                true = sum(1 << i for i, sign in enumerate(signs) if sign)
                pool = [info for info in infos if info.mask & true == info.mask]
                allocations = [info.allocation for info in pool]
                maximal = mdfm._maximal_infos(pool)
                assert [info.allocation for info in maximal] == inclusion_maximal_allocations(
                    allocations
                )
                pools += 1
                costly += any(len(info.rows) > len(info.allocation.transactions) for info in pool)
                # a set with a strict superset in the pool but none one larger
                tsets = {a.transactions for a in allocations}
                gapped += any(
                    any(o > t for o in tsets) and not any(o > t and len(o - t) == 1 for o in tsets)
                    for t in tsets
                )
        assert pools > 4000 and costly > 3000 and gapped >= 2

    def test_hierarchy_on_positive_markets(self):
        rng = random.Random(62)
        for _ in range(80):
            market = random_resource_market(rng, positive_only=True)
            result = run_benchmarks(market)
            assert result.inc <= result.fee <= result.ora <= result.opt
            assert result.hierarchy_ok

    def test_fee_maximal_sets_are_inclusion_maximal_at_positive_prices(self):
        rng = random.Random(63)
        checked = 0
        for _ in range(60):
            market = random_resource_market(rng, positive_only=True)
            for _, price in willingness_patterns(market):
                if any(p <= 0 for p in price):
                    continue
                _, pool = pools_at_price(market, price)
                fee_max = fee_maximal_allocations(market, pool, price)
                inc_max = inclusion_maximal_allocations(pool)
                assert set(fee_max) <= set(inc_max)
                checked += 1
        assert checked > 50


def mixed_denominator_market(rng: random.Random, d: int) -> ResourceMarket:
    """A single-assignment market whose values, usage, unit costs and
    capacities (some unbounded) sit over denominators 1, 2, 3, 5 and 6."""

    def q(lo, hi):
        den = rng.choice((1, 2, 3, 5, 6))
        return F(rng.randint(lo * den, hi * den), den)

    txs = tuple(
        TransactionSpec(f"t{i + 1}", q(0, 8), tuple(q(0, 3) for _ in range(d)))
        for i in range(rng.randint(1, 4))
    )
    nodes = []
    for j in range(rng.randint(1, 2)):
        cost = LinearResources(tuple(q(0, 2) for _ in range(d))) if rng.random() < 0.7 else Zero()
        capacity = tuple(None if rng.random() < 0.2 else q(1, 6) for _ in range(d))
        nodes.append(NodeSpec(f"n{j + 1}", cost, capacity))
    return ResourceMarket(d, txs, tuple(nodes), single_assignment=True)


class TestIntegerImage:
    """``_prepare`` and ``_fee_at_price`` work in the resource image's
    integers; ``core.welfare``, ``pools_at_price`` and
    ``fee_maximal_allocations`` stay on ``Fraction`` as their oracles."""

    def markets(self, seed, count):
        rng = random.Random(seed)
        return [mixed_denominator_market(rng, d) for d in (2, 3) for _ in range(count)]

    def test_welfare_matches_core_welfare(self):
        checked = 0
        for market in self.markets(71, 100):
            instance = market.instance()
            truthful = instance.truthful_reports()
            infos, *_, den = mdfm._prepare(market)
            assert [info.allocation for info in infos] == enumerate_valid(instance)
            for info in infos:
                assert F(info.welfare_num, den) == welfare(instance, info.allocation, truthful)
                checked += 1
        assert checked > 1500

    def test_fee_at_every_cell_witness_matches_the_direct_evaluation(self):
        cells = 0
        for market in self.markets(72, 25):
            instance = market.instance()
            truthful = instance.truthful_reports()
            d = market.dimensions
            infos, hyperplanes, _, scales, den = mdfm._prepare(market)
            for signs, witness in enumerate_cells(nonneg_orthant(d), hyperplanes, d):
                true = sum(1 << i for i, sign in enumerate(signs) if sign)
                pool = [info for info in infos if info.mask & true == info.mask]
                direct = pools_at_price(market, witness)[1]
                assert [info.allocation for info in pool] == direct
                fee_max = fee_maximal_allocations(market, direct, witness)
                expected = min(welfare(instance, a, truthful) for a in fee_max)
                worst = mdfm._fee_at_price(pool, witness, scales)
                assert F(worst.welfare_num, den) == expected
                cells += 1
        assert cells > 600

    def test_pools_at_price_search_the_valid_set_once_per_market(self, monkeypatch):
        # the market builds its instance once, so every call on one market
        # reads the valid-set memo that _prepare filled
        searched = []
        search = validity._search_valid

        def counting(instance, spec, cap):
            searched.append(instance)
            return search(instance, spec, cap)

        monkeypatch.setattr(validity, "_search_valid", counting)
        markets = self.markets(72, 5)
        cells = 0
        for market in markets:
            d = market.dimensions
            hyperplanes = mdfm._prepare(market)[1]
            for _, witness in enumerate_cells(nonneg_orthant(d), hyperplanes, d):
                pools_at_price(market, witness)
                cells += 1
        assert cells > 100
        assert len(searched) == len(markets)
        assert all(i is m.instance() for i, m in zip(searched, markets))


class TestPrepareFromPairs:
    """``_prepare`` reads each valid allocation from its canonical pairs in
    one scan; the version that read ``Allocation.bundles`` is the oracle."""

    def test_prepare_matches_the_bundle_view_reference(self):
        markets = [
            parse_scenario(scenario).market
            for _, scenario, _ in perfbench_gen.price_benchmarks(1, 2000)
        ]
        markets += [inclusion_gap_market(d) for d in range(3, 9)]
        markets += [fee_gap_market(k) for k in range(2, 13)]
        markets += [oracle_gap_market(k, [F(v) for v in range(1, k + 1)]) for k in (2, 3, 4)]
        rng = random.Random(71)
        markets += [mixed_denominator_market(rng, d) for d in (2, 3) for _ in range(100)]
        costly = 0
        for market in markets:
            infos, hyperplanes, index, scales, den = mdfm._prepare(market)
            ref_infos, ref_hyperplanes, ref_index, ref_scales, ref_den = prepare_reference(market)
            assert infos == ref_infos
            assert (hyperplanes, scales, den) == (ref_hyperplanes, ref_scales, ref_den)
            assert index == {
                key if isinstance(key, str) else (key[0], tuple(sorted(key[1]))): i
                for key, i in ref_index.items()
            }
            costly += any(not isinstance(key, str) for key in index)
        assert costly > 500

    def test_a_benchmark_run_caches_no_bundle_view(self):
        markets = [inclusion_gap_market(4), fee_gap_market(6)]
        markets.append(oracle_gap_market(3, [F(1), F(2), F(3)]))
        markets += [
            parse_scenario(
                perfbench_gen.random_resource_market(random.Random(f"x{i}"), 2, 4, 2, i)
            ).market
            for i in range(3)
        ]
        for market in markets:
            run_benchmarks(market)
            # every search starts from the shared EMPTY_ALLOCATION, whose
            # view any earlier caller may have cached
            allocations = enumerate_valid(market.instance())[1:]
            assert allocations and allocations[0] is not EMPTY_ALLOCATION
            assert not any("_inverse" in vars(a) for a in allocations)


class TestAssignment:
    def nodes(self):
        return (NodeSpec("a", Zero(), (F(2),)), NodeSpec("b", Zero(), (F(2),)))

    def test_multi_node_market_is_refused(self):
        txs = (TransactionSpec("t1", F(5), (F(1),)),)
        with pytest.raises(MalformedInput, match="'t1'"):
            run_benchmarks(ResourceMarket(1, txs, self.nodes()))

    def test_single_assignment_market_runs(self):
        txs = (TransactionSpec("t1", F(5), (F(1),)),)
        result = run_benchmarks(ResourceMarket(1, txs, self.nodes(), single_assignment=True))
        assert (result.opt, result.inc, result.fee, result.ora) == (5, 5, 5, 5)

    def test_ora_matches_allocation_by_allocation_oracle(self):
        rng = random.Random(67)
        markets = [
            oracle_gap_market(3, [F(1), F(2), F(3)]),
            fee_gap_market(4),
            inclusion_gap_market(3),
        ]
        # t2's and t3's willingness rows are one hyperplane, and ORA's system
        # needs a row for each: with sparse usage the copy moves the point
        usage = [(2, 1), (0, 2), (1, 0), (2, 0)]
        txs = tuple(
            TransactionSpec(f"t{i}", F(v), tuple(map(F, g)))
            for i, (v, g) in enumerate(zip((2, 4, 2, 4), usage))
        )
        node = NodeSpec("n0", LinearResources((F(1), F(2))), (F(4), F(5)))
        markets.append(ResourceMarket(2, txs, (node,)))
        for dimensions in (1, 2, 3):
            for n_nodes in (1, 2):
                markets.extend(
                    random_resource_market(
                        rng, max_txs=3, dimensions=dimensions, n_nodes=n_nodes
                    )
                    for _ in range(8)
                )
        for market in markets:
            result = run_benchmarks(market)
            witness = result.witnesses["ora"]
            assert (result.ora, witness.allocation, witness.price) == ora_by_allocation(market)
            assert result.opt == opt_benchmark(market)


class TestTwoDimensionalConsistency:
    """The exact cell machinery against direct evaluation at concrete prices."""

    def two_dim_market(self, rng):
        n_txs = rng.randint(1, 4)
        txs = tuple(
            TransactionSpec(
                f"t{i + 1}",
                F(rng.randint(0, 6), rng.choice((1, 2))),
                (F(rng.randint(0, 3)), F(rng.randint(0, 3))),
            )
            for i in range(n_txs)
        )
        node = NodeSpec("n", Zero(), (F(rng.randint(1, 4)), F(rng.randint(1, 4))))
        return ResourceMarket(2, txs, (node,))

    def grid(self):
        values = [F(0), F(1, 2), F(1), F(2), F(5)]
        return [(a, b) for a in values for b in values]

    def test_exact_values_dominate_every_grid_price(self):
        from brokerlab.core import welfare

        rng = random.Random(65)
        for _ in range(40):
            market = self.two_dim_market(rng)
            instance = market.instance()
            truthful = instance.truthful_reports()
            result = run_benchmarks(market)
            for price in self.grid():
                _, pool = pools_at_price(market, price)
                if not pool:
                    continue
                inc_here = min(
                    welfare(instance, a, truthful)
                    for a in inclusion_maximal_allocations(pool)
                )
                ora_here = max(welfare(instance, a, truthful) for a in pool)
                assert result.inc >= inc_here
                assert result.ora >= ora_here

    def test_witness_prices_reproduce_the_values(self):
        from brokerlab.core import welfare

        rng = random.Random(66)
        markets = [self.two_dim_market(rng) for _ in range(40)]
        # costly nodes add participation hyperplanes to the arrangement
        markets.extend(
            random_resource_market(rng, dimensions=d, n_nodes=2) for d in (1, 2) for _ in range(40)
        )
        for market in markets:
            instance = market.instance()
            truthful = instance.truthful_reports()
            result = run_benchmarks(market)
            inc_witness = result.witnesses["inc"]
            if inc_witness.price is not None:
                willing, pool = pools_at_price(market, inc_witness.price)
                assert inc_witness.willing == willing
                value = min(
                    welfare(instance, a, truthful)
                    for a in inclusion_maximal_allocations(pool)
                )
                assert value == result.inc
            fee_witness = result.witnesses["fee"]
            willing, pool = pools_at_price(market, fee_witness.price)
            assert fee_witness.willing == willing
            value = min(
                welfare(instance, a, truthful)
                for a in fee_maximal_allocations(market, pool, fee_witness.price)
            )
            assert value == result.fee
            ora_witness = result.witnesses["ora"]
            if ora_witness.price is not None and ora_witness.allocation is not None:
                _, pool = pools_at_price(market, ora_witness.price)
                assert ora_witness.allocation in pool
                assert welfare(instance, ora_witness.allocation, truthful) == result.ora


class TestCollusionExample:
    def test_certificate(self):
        cert = collusion_certificate()
        assert cert.valid_allocations == 4
        assert cert.best_allocation == Allocation.of({"t1": ["n1", "n2"]})
        assert cert.best_welfare == 4
        assert cert.max_total_node_payment == 6
        assert cert.required_total_node_payment == 8
        assert not cert.resistant

    def test_instance_shape(self):
        instance = collusion_example_instance()
        assert len(enumerate_valid(instance)) == 4
        assert instance.transaction("t1").value == 6
        assert instance.transaction("t2").value == 4


class TestResourceMarketValidation:
    def test_requires_resource_vectors(self):
        with pytest.raises(MalformedInput):
            ResourceMarket(1, (TransactionSpec("t1", F(1)),), (NodeSpec("n", Zero()),))

    def test_requires_linear_or_zero_costs(self):
        from brokerlab.core import ConstantNonempty

        txs = (TransactionSpec("t1", F(1), (F(1),)),)
        with pytest.raises(MalformedInput):
            ResourceMarket(1, txs, (NodeSpec("n", ConstantNonempty(F(1))),))

    def test_single_assignment_flag_restricts(self):
        txs = (TransactionSpec("t1", F(1), (F(1),)),)
        nodes = (NodeSpec("a", Zero(), (F(2),)), NodeSpec("b", Zero(), (F(2),)))
        free = ResourceMarket(1, txs, nodes)
        locked = ResourceMarket(1, txs, nodes, single_assignment=True)
        assert Allocation.of({"t1": ["a", "b"]}) in enumerate_valid(free.instance())
        assert Allocation.of({"t1": ["a", "b"]}) not in enumerate_valid(locked.instance())
