import json
import random
import time
from fractions import Fraction as F

import pytest

from brokerlab.core import Allocation, LinearResources, NodeSpec, TransactionSpec, Zero, welfare
from brokerlab import mdfm, validity
from brokerlab.errors import InstanceTooLarge, MalformedInput
from brokerlab.linineq import enumerate_cells, find_point, nonneg_orthant
from brokerlab.scenario import allocation_to_json, parse_scenario
from brokerlab.mdfm import (
    ResourceMarket,
    base_fee,
    base_fee_payments,
    collusion_certificate,
    collusion_example_instance,
    fee_benchmark,
    fee_gap_market,
    fee_maximal_allocations,
    feasible_patterns,
    inc_benchmark,
    inclusion_gap_market,
    inclusion_maximal_allocations,
    opt_benchmark,
    ora_benchmark,
    oracle_gap_market,
    pools_at_price,
    run_benchmarks,
)
from brokerlab.validity import MutualExclusion, enumerate_valid

from helpers import (
    attainability_system,
    ora_by_allocation,
    random_resource_market,
    sweep_benchmarks,
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
        patterns = feasible_patterns(market)
        willing_sets = {p.willing for p in patterns}
        assert frozenset(t.id for t in market.transactions) in willing_sets
        full = next(p for p in patterns if len(p.willing) == 3)
        assert all(x == 0 for x in full.witness_price)

    def test_oracle_gap_pattern_map(self):
        market = oracle_gap_market(2, [F(1), F(2)])
        patterns = {tuple(sorted(p.willing)): p.witness_price for p in feasible_patterns(market)}
        # thresholds: t01 willing iff p <= 2, t02 willing iff p <= 3
        assert set(patterns) == {(), ("t02",), ("t01", "t02")}

    def test_zero_resource_transaction_always_willing(self):
        txs = (
            TransactionSpec("t1", F(0), (F(0),)),
            TransactionSpec("t2", F(2), (F(1),)),
        )
        market = ResourceMarket(1, txs, (NodeSpec("n", Zero(), (F(1),)),))
        patterns = {tuple(sorted(p.willing)) for p in feasible_patterns(market)}
        assert all("t1" in p for p in patterns)

    def test_witness_prices_certify_their_patterns(self):
        rng = random.Random(3)
        for _ in range(40):
            market = random_resource_market(rng)
            for pattern in feasible_patterns(market):
                willing, _ = pools_at_price(market, pattern.witness_price)
                assert willing == pattern.willing

    def test_caps(self):
        txs = tuple(
            TransactionSpec(f"t{i:02d}", F(1), (F(1),)) for i in range(17)
        )
        market = ResourceMarket(1, txs, (NodeSpec("n", Zero(), (F(1),)),))
        with pytest.raises(InstanceTooLarge):
            feasible_patterns(market)

    @pytest.mark.parametrize(
        "market, message",
        [
            (fee_gap_market(16), "at most 16 transactions, got 17"),
            (inclusion_gap_market(9), "at most 8 dimensions, got 9"),
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
        assert opt_benchmark(inclusion_gap_market(4)) == 1
        assert opt_benchmark(fee_gap_market(3)) == 1
        assert opt_benchmark(oracle_gap_market(2, [F(1), F(2)])) == 2
        assert opt_benchmark(oracle_gap_market(3, [F(1), F(2), F(3)])) == 3

    def test_fee_values(self):
        assert fee_benchmark(fee_gap_market(3)) == (F(3, 4), True)
        assert fee_benchmark(fee_gap_market(5)) == (F(5, 8), True)
        assert fee_benchmark(fee_gap_market(2)) == (F(1), True)

    def test_oracle_values(self):
        assert ora_benchmark(oracle_gap_market(2, [F(1), F(2)])) == 1
        assert ora_benchmark(oracle_gap_market(3, [F(1), F(2), F(3)])) == 1

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
        assert inc_benchmark(priced) == 1

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
        assert inc_benchmark(market) == 5
        assert opt_benchmark(market) == 5

    def test_empty_market(self):
        market = ResourceMarket(1, (), (NodeSpec("n", Zero(), (F(1),)),))
        assert opt_benchmark(market) == 0
        assert inc_benchmark(market) == 0
        assert fee_benchmark(market) == (F(0), True)
        assert ora_benchmark(market) == 0


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
        # three-transaction set between them, so the one-extension rule calls
        # {t0,t2} maximal; value sweeps leave INC unchanged on this market
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
        infos, hyperplanes, _, _ = mdfm._prepare(market)
        true = sum(1 << i for i, h in enumerate(hyperplanes) if h.admits(price))
        pool = [info for info in infos if info.mask & true == info.mask]
        direct = pools_at_price(market, price)[1]
        assert {info.allocation for info in pool} == set(direct)
        tsets = {info.allocation.transactions for info in pool}
        assert {frozenset({"t0", "t2"}), frozenset({"t0", "t1", "t2", "t3"})} <= tsets
        assert not {frozenset({"t0", "t1", "t2"}), frozenset({"t0", "t2", "t3"})} & tsets
        expected = inclusion_maximal_allocations(direct)
        assert [info.allocation for info in mdfm._maximal_infos(pool, False)] == expected
        assert [info.allocation for info in mdfm._maximal_infos(pool, True)] != expected

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
            for pattern in feasible_patterns(market):
                price = pattern.witness_price
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
            infos = mdfm._prepare(market)[0]
            assert [info.allocation for info in infos] == enumerate_valid(instance)
            for info in infos:
                assert info.welfare == welfare(instance, info.allocation, truthful)
                checked += 1
        assert checked > 1500

    def test_fee_at_every_cell_witness_matches_the_direct_evaluation(self):
        cells = 0
        for market in self.markets(72, 25):
            instance = market.instance()
            truthful = instance.truthful_reports()
            d = market.dimensions
            infos, hyperplanes, _, scales = mdfm._prepare(market)
            for signs, witness in enumerate_cells(nonneg_orthant(d), hyperplanes, d):
                true = sum(1 << i for i, sign in enumerate(signs) if sign)
                pool = [info for info in infos if info.mask & true == info.mask]
                direct = pools_at_price(market, witness)[1]
                assert [info.allocation for info in pool] == direct
                fee_max = fee_maximal_allocations(market, direct, witness)
                expected = min(welfare(instance, a, truthful) for a in fee_max)
                assert mdfm._fee_at_price(pool, witness, scales).welfare == expected
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
