import random
from fractions import Fraction as F

import pytest

from brokerlab.core import (
    Allocation,
    EMPTY_ALLOCATION,
    MarketInstance,
    NodeSpec,
    TransactionSpec,
    Zero,
)
from brokerlab.errors import InstanceTooLarge, MalformedInput
from brokerlab.mdfm import collusion_example_instance
from brokerlab.validity import (
    Constraints,
    Extensional,
    MaxTxPerNode,
    MustShareNode,
    MutualExclusion,
    NodeCapacity,
    RequiredNodeCount,
    SingleAssignment,
    enumerate_valid,
    is_valid,
)

from helpers import naive_enumerate, random_instance


def simple_instance(n_txs=2, n_nodes=2, validity=None):
    txs = tuple(TransactionSpec(f"t{i + 1}", F(1)) for i in range(n_txs))
    nodes = tuple(NodeSpec(f"n{j + 1}", Zero()) for j in range(n_nodes))
    return MarketInstance(txs, nodes, validity)


class TestIsValid:
    def test_empty_allocation_always_valid(self):
        instance = collusion_example_instance()
        assert is_valid(EMPTY_ALLOCATION, instance.validity, instance)

    def test_two_node_requirement(self):
        instance = collusion_example_instance()
        assert is_valid(Allocation.of({"t1": ["n1", "n2"]}), instance.validity, instance)
        assert not is_valid(
            Allocation.of({"t1": ["n1", "n2"], "t2": ["n2"]}), instance.validity, instance
        )
        assert not is_valid(Allocation.of({"t1": ["n1"]}), instance.validity, instance)

    def test_node_capacity(self):
        txs = (
            TransactionSpec("t1", F(1), (F(1),)),
            TransactionSpec("t2", F(1), (F(1),)),
        )
        node = NodeSpec("n1", Zero(), (F(1),))
        instance = MarketInstance(txs, (node,), Constraints((NodeCapacity(),)))
        assert is_valid(Allocation.of({"t1": ["n1"]}), instance.validity, instance)
        assert not is_valid(
            Allocation.of({"t1": ["n1"], "t2": ["n1"]}), instance.validity, instance
        )

    def test_mutual_exclusion_and_sharing(self):
        spec = Constraints((MutualExclusion("t1", "t2"),))
        instance = simple_instance(validity=spec)
        assert is_valid(Allocation.of({"t1": ["n1"]}), spec, instance)
        assert not is_valid(Allocation.of({"t1": ["n1"], "t2": ["n2"]}), spec, instance)

        share = Constraints((MustShareNode(("t1", "t2")),))
        assert is_valid(Allocation.of({"t1": ["n1"], "t2": ["n1"]}), share, instance)
        assert is_valid(Allocation.of({"t1": ["n1"]}), share, instance)
        assert not is_valid(Allocation.of({"t1": ["n1"], "t2": ["n2"]}), share, instance)

    def test_single_assignment(self):
        spec = Constraints((SingleAssignment(),))
        instance = simple_instance(validity=spec)
        assert is_valid(Allocation.of({"t1": ["n1"]}), spec, instance)
        assert not is_valid(Allocation.of({"t1": ["n1", "n2"]}), spec, instance)

    def test_unknown_constraint_id_raises(self):
        spec = Constraints((MaxTxPerNode("ghost", 1),))
        instance = simple_instance()
        with pytest.raises(MalformedInput):
            is_valid(EMPTY_ALLOCATION, spec, instance)

    def test_unknown_allocation_id_raises(self):
        instance = simple_instance()
        with pytest.raises(MalformedInput):
            is_valid(Allocation.of({"ghost": ["n1"]}), None, instance)

    def test_extensional_membership(self):
        member = Allocation.of({"t1": ["n1"]})
        spec = Extensional.of([member])
        instance = simple_instance(validity=spec)
        assert is_valid(member, spec, instance)
        assert is_valid(EMPTY_ALLOCATION, spec, instance)
        assert not is_valid(Allocation.of({"t2": ["n1"]}), spec, instance)


class TestEnumerateValid:
    def test_one_tx_one_node(self):
        instance = simple_instance(n_txs=1, n_nodes=1)
        assert enumerate_valid(instance) == [
            EMPTY_ALLOCATION,
            Allocation.of({"t1": ["n1"]}),
        ]

    def test_collusion_example_has_four(self):
        instance = collusion_example_instance()
        allocations = enumerate_valid(instance)
        assert len(allocations) == 4
        assert EMPTY_ALLOCATION in allocations
        assert Allocation.of({"t1": ["n1", "n2"]}) in allocations
        assert Allocation.of({"t2": ["n1"]}) in allocations
        assert Allocation.of({"t2": ["n2"]}) in allocations

    def test_two_txs_one_node_single_assignment(self):
        spec = Constraints((SingleAssignment(),))
        instance = simple_instance(n_txs=2, n_nodes=1, validity=spec)
        assert len(enumerate_valid(instance)) == 4

    def test_extensional_is_deduplicated_and_augmented(self):
        member = Allocation.of({"t1": ["n1"]})
        spec = Extensional((member, member))
        instance = simple_instance(validity=spec)
        assert enumerate_valid(instance, spec) == [EMPTY_ALLOCATION, member]

    def test_cap_enforced(self):
        instance = simple_instance(n_txs=3, n_nodes=2)
        with pytest.raises(InstanceTooLarge):
            enumerate_valid(instance, cap=10)

    def test_cap_counts_the_effective_space(self):
        # single assignment: 1 + 4 node choices per transaction, not 2^4
        instance = simple_instance(
            n_txs=4, n_nodes=4, validity=Constraints((SingleAssignment(),))
        )
        assert len(enumerate_valid(instance, cap=5**4)) == 5**4
        with pytest.raises(InstanceTooLarge, match="4 transactions x 4 nodes.*exceeds cap"):
            enumerate_valid(instance, cap=5**4 - 1)
        # an exact node count of 2 leaves 1 + C(4, 2) choices
        pinned = Constraints(tuple(RequiredNodeCount.exactly(f"t{i}", 2) for i in range(1, 5)))
        instance = simple_instance(n_txs=4, n_nodes=4, validity=pinned)
        assert len(enumerate_valid(instance, cap=7**4)) == 7**4

    def test_matches_naive_enumeration_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(150):
            instance = random_instance(rng, max_txs=3, max_nodes=2)
            assert enumerate_valid(instance) == naive_enumerate(instance, instance.validity)

    def test_deterministic_and_canonically_ordered(self):
        rng = random.Random(11)
        for _ in range(30):
            instance = random_instance(rng)
            first = enumerate_valid(instance)
            second = enumerate_valid(instance)
            assert first == second
            assert first == sorted(first)
            assert first[0] == EMPTY_ALLOCATION

    def test_everything_enumerated_is_valid(self):
        rng = random.Random(13)
        for _ in range(50):
            instance = random_instance(rng)
            for allocation in enumerate_valid(instance):
                assert is_valid(allocation, instance.validity, instance)
