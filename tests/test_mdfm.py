import random
from fractions import Fraction as F

import pytest

from brokerlab.core import Allocation, NodeSpec, TransactionSpec, Zero, welfare
from brokerlab.errors import InstanceTooLarge, MalformedInput
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

from helpers import ora_by_allocation, random_resource_market, sweep_benchmarks


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
        assert [a.as_dict() for a in maximal] == [{"t04": ["n"]}]
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
        for _ in range(60):
            market = random_resource_market(rng, max_txs=4)
            result = run_benchmarks(market)
            swept = sweep_benchmarks(market)
            assert result.inc == swept["inc"]
            assert result.fee == swept["fee"]
            assert result.ora == swept["ora"]

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
        for _ in range(40):
            market = self.two_dim_market(rng)
            instance = market.instance()
            truthful = instance.truthful_reports()
            result = run_benchmarks(market)
            inc_witness = result.witnesses["inc"]
            if inc_witness.price is not None:
                _, pool = pools_at_price(market, inc_witness.price)
                value = min(
                    welfare(instance, a, truthful)
                    for a in inclusion_maximal_allocations(pool)
                )
                assert value == result.inc
            fee_witness = result.witnesses["fee"]
            _, pool = pools_at_price(market, fee_witness.price)
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
