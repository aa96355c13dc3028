import random
from dataclasses import dataclass, fields
from fractions import Fraction as F
from math import inf
from typing import get_type_hints

import pytest

from brokerlab import validity
from brokerlab.core import (
    Allocation,
    EMPTY_ALLOCATION,
    MarketInstance,
    NodeSpec,
    Routing,
    TransactionSpec,
    Zero,
)
from brokerlab.errors import InstanceTooLarge, MalformedInput
from brokerlab.mdfm import collusion_example_instance
from brokerlab.mechanism import Proposal, run
from brokerlab.scenario import parse_scenario
from brokerlab.validity import (
    Constraint,
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

from helpers import (
    ladder_enumerate,
    naive_enumerate,
    random_constrained_instance,
    random_instance,
    raw_space,
    satisfies_by_ladder,
    valid_by_ladder,
)


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

    def test_negative_tx_limit_raises(self):
        with pytest.raises(MalformedInput, match="'n1'"):
            MaxTxPerNode("n1", -3).check(simple_instance(n_txs=1, n_nodes=1))
        spec = Constraints((MaxTxPerNode("n1", -3),))
        with pytest.raises(MalformedInput, match="'n1'"):
            is_valid(EMPTY_ALLOCATION, spec, simple_instance(validity=spec))

    def test_a_missing_vector_is_refused_in_either_order(self):
        # t1 has no resource vector and n1 declares a capacity: the spec is
        # refused up front, whatever the allocation and the constraint
        # order, although the node-count bound alone would reject {t1: [n1]}
        instance = MarketInstance(
            (TransactionSpec("t1", F(1)),), (NodeSpec("n1", Zero(), (F(1),)),)
        )
        allocation = Allocation.of({"t1": ["n1"]})
        routing = Routing(allocation, {"t1": F(0)}, {"n1": F(0)})
        for constraints in [
            (NodeCapacity(), RequiredNodeCount("t1", 0, 0)),
            (RequiredNodeCount("t1", 0, 0), NodeCapacity()),
        ]:
            spec = Constraints(constraints)
            for checked in (allocation, EMPTY_ALLOCATION):
                with pytest.raises(MalformedInput, match="'t1' has no resource vector"):
                    is_valid(checked, spec, instance)
            with pytest.raises(MalformedInput, match="'t1' has no resource vector"):
                run(instance, spec, instance.truthful_reports(), [Proposal("b1", routing)], ["b1"])
            with pytest.raises(MalformedInput, match="'t1' has no resource vector"):
                enumerate_valid(instance, spec)

    def test_matches_the_ladder_over_the_raw_space(self):
        # the prefix fold against whole-allocation tests, on the corpus of
        # the enumeration test below; every instance is new, so no memoised
        # enumeration answers for the fold
        def verdict(decide, *args):
            try:
                return decide(*args)
            except MalformedInput:
                return None

        rng = random.Random(29)
        checked = refused = 0
        for _ in range(400):
            instance = random_constrained_instance(rng)
            for allocation in raw_space(instance):
                checked += 1
                fold = verdict(is_valid, allocation, instance.validity, instance)
                # a refusal is a verdict too: inputs are checked before any
                # step, so the constraint order cannot turn one into False
                assert fold == verdict(valid_by_ladder, instance, allocation)
                refused += fold is None
        assert checked == 152_340
        assert refused > 0

    def test_a_transaction_excluded_from_itself_is_never_allocated(self):
        spec = Constraints((MutualExclusion("t1", "t1"),))
        instance = simple_instance(validity=spec)
        assert enumerate_valid(instance) == [
            EMPTY_ALLOCATION,
            Allocation.of({"t2": ["n1"]}),
            Allocation.of({"t2": ["n1", "n2"]}),
            Allocation.of({"t2": ["n2"]}),
        ]
        assert not is_valid(Allocation.of({"t1": ["n1"]}), spec, instance)

    def test_unknown_allocation_id_raises(self):
        instance = simple_instance()
        with pytest.raises(MalformedInput):
            is_valid(Allocation.of({"ghost": ["n1"]}), None, instance)

    def test_extensional_set_naming_unknown_ids_is_refused(self):
        spec = Extensional((Allocation.of({"t1": ["n1"]}), Allocation.of({"t1": ["n9"]})))
        instance = simple_instance(n_txs=1, n_nodes=1, validity=spec)
        for call in (
            lambda: is_valid(EMPTY_ALLOCATION, spec, instance),
            lambda: is_valid(Allocation.of({"t1": ["n1"]}), None, instance),
            lambda: enumerate_valid(instance),
        ):
            with pytest.raises(MalformedInput, match=r"unknown ids \['n9'\]"):
                call()

    def test_extensional_membership(self):
        member = Allocation.of({"t1": ["n1"]})
        spec = Extensional((member,))
        instance = simple_instance(validity=spec)
        assert is_valid(member, spec, instance)
        assert is_valid(EMPTY_ALLOCATION, spec, instance)
        assert not is_valid(Allocation.of({"t2": ["n1"]}), spec, instance)


# a value of each constraint field type, to build any constraint class
SAMPLE_FIELDS = {str: "t1", int: 1, tuple[str, ...]: ("t1",)}


@pytest.mark.parametrize("cls", Constraint.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_constraint_type_can_refuse(cls):
    # the base ``admits`` admits everything, so a type that keeps it must
    # bound node counts, or it would silently allow every allocation
    if cls.admits is Constraint.admits:
        hints = get_type_hints(cls)
        constraint = cls(**{f.name: SAMPLE_FIELDS[hints[f.name]] for f in fields(cls)})
        assert constraint.node_counts("t1") != (0, inf)


def test_a_constraint_type_written_outside_the_library_joins_the_step_rule():
    # a new type as README describes one: ``check`` refuses unknown ids and
    # ``admits`` reads only the step state.  Defined here, after collection,
    # so the parametrized lists of ``Constraint.__subclasses__()`` omit it.
    @dataclass(frozen=True)
    class Apart(Constraint):
        """The two transactions never share a node."""

        first: str
        second: str

        def check(self, instance):
            unknown = {self.first, self.second} - set(instance.tx_ids)
            if unknown:
                raise MalformedInput(f"Apart references unknown transactions {sorted(unknown)}")

        def admits(self, state, tx, nodes):
            if tx not in (self.first, self.second):
                return True
            other = self.second if tx == self.first else self.first
            return not set(nodes).intersection(state.placed.get(other, ()))

    def holds(instance, allocation, constraint):
        if isinstance(constraint, Apart):
            shared = set(allocation.nodes_for(constraint.first))
            return not shared.intersection(allocation.nodes_for(constraint.second))
        return satisfies_by_ladder(instance, allocation, constraint)

    rng = random.Random(61)
    markets = refused_by_apart = 0
    while markets < 40:
        instance = random_instance(rng)
        if len(instance.tx_ids) < 2:
            continue
        markets += 1
        apart = Apart(*rng.sample(instance.tx_ids, 2))
        for constraints in ((apart,), instance.validity.constraints + (apart,)):
            spec = Constraints(constraints)
            raw = raw_space(instance)
            expected = {a for a in raw if all(holds(instance, a, c) for c in constraints)}
            # the fold runs first, so no memoised valid set answers for it
            for allocation in raw:
                assert is_valid(allocation, spec, instance) == (allocation in expected)
            assert enumerate_valid(instance, spec) == sorted(expected)
            refused_by_apart += sum(not holds(instance, a, apart) for a in raw)
    assert refused_by_apart > 10_000
    unknown = Constraints((Apart("t1", "t9"),))
    instance = simple_instance()
    with pytest.raises(MalformedInput, match=r"Apart references unknown transactions \['t9'\]"):
        enumerate_valid(instance, unknown)
    with pytest.raises(MalformedInput, match=r"Apart references unknown transactions \['t9'\]"):
        is_valid(EMPTY_ALLOCATION, unknown, instance)


def mixed_fraction(rng, lo, hi):
    """A rational in [lo, hi] over a denominator drawn from 1, 2, 3, 5 and 6."""
    den = rng.choice((1, 2, 3, 5, 6))
    return F(rng.randint(lo * den, hi * den), den)


def deep_constrained_instance(rng, shape):
    """A market of 5 or 6 transactions under ``NodeCapacity``, with
    ``MaxTxPerNode``, ``MustShareNode`` and ``MutualExclusion`` mixed in.

    Usage has mixed denominators, some nodes declare no capacity and some
    capacity entries are ``None``.  Six transactions run on at most two
    nodes, so the ladder's raw space stays at most 2^15 allocations.
    """
    n_txs, n_nodes = [(5, 1), (6, 2), (5, 2), (6, 1), (5, 2), (6, 2)][shape % 6]
    if shape % 12 == 10:
        n_nodes = 3
    d = rng.randint(1, 2)
    txs = tuple(
        TransactionSpec(f"t{i + 1}", F(1), tuple(mixed_fraction(rng, 0, 2) for _ in range(d)))
        for i in range(n_txs)
    )
    nodes = []
    for j in range(n_nodes):
        capacity = None
        if j == 0 or rng.random() < 0.7:
            capacity = tuple(
                None if rng.random() < 0.2 else mixed_fraction(rng, 1, 6) for _ in range(d)
            )
        nodes.append(NodeSpec(f"n{j + 1}", Zero(), capacity))
    tx_ids = [t.id for t in txs]
    node_ids = [n.id for n in nodes]
    constraints = [NodeCapacity()]
    if rng.random() < 0.5:
        constraints.append(MaxTxPerNode(rng.choice(node_ids), rng.randint(2, 5)))
    if rng.random() < 0.5:
        constraints.append(MustShareNode(tuple(sorted(rng.sample(tx_ids, rng.randint(2, 3))))))
    if rng.random() < 0.4:
        constraints.append(MutualExclusion(*rng.sample(tx_ids, 2)))
    rng.shuffle(constraints)
    return MarketInstance(txs, tuple(nodes), Constraints(tuple(constraints)))


class TestCapacityInIntegers:
    """A ``NodeCapacity`` step sums and compares the instance's integer
    resource image; the ladder oracle sums the rational vectors."""

    def instance(self, usage, capacity):
        txs = tuple(TransactionSpec(f"t{i + 1}", F(1), tuple(g)) for i, g in enumerate(usage))
        nodes = (NodeSpec("n1", Zero(), capacity), NodeSpec("n2", Zero()))
        return MarketInstance(txs, nodes, Constraints((NodeCapacity(),)))

    def test_the_image_scales_each_dimension_by_its_own_lcm(self):
        instance = self.instance([(F(1, 3), F(2)), (F(1, 6), F(5, 4))], (F(1, 2), None))
        image = instance.resource_image
        assert image.scales == (6, 4)
        assert image.usage == {"t1": (2, 8), "t2": (1, 5)}
        assert image.capacity == {"n1": (3, None)}

    @pytest.mark.parametrize(
        "usage, capacity, fits",
        [
            # 1/3 + 1/6 is exactly 1/2
            ([(F(1, 3),), (F(1, 6),)], (F(1, 2),), True),
            ([(F(1, 3),), (F(1, 6) + F(1, 1000),)], (F(1, 2),), False),
            ([(F(1, 3),), (F(1, 6),), (F(0),)], (F(1, 2),), True),
            # each dimension on its own denominators: 1/2 and 7/10 exactly
            ([(F(1, 3), F(2, 5)), (F(1, 6), F(3, 10))], (F(1, 2), F(7, 10)), True),
            ([(F(1, 3), F(2, 5)), (F(1, 6), F(3, 10) + F(1, 7))], (F(1, 2), F(7, 10)), False),
            # a None entry leaves its dimension unbounded
            ([(F(1, 3), F(7)), (F(1, 6), F(9, 2))], (F(1, 2), None), True),
            ([(F(1, 3), F(7)), (F(1, 5), F(9, 2))], (F(1, 2), None), False),
            ([(F(1, 3),), (F(1, 6),)], (None,), True),
        ],
    )
    def test_the_boundary_matches_the_ladder(self, usage, capacity, fits):
        instance = self.instance(usage, capacity)
        together = Allocation.of({tx: ["n1"] for tx in instance.tx_ids})
        assert valid_by_ladder(instance, together) is fits
        assert is_valid(together, None, instance) is fits  # before any enumeration
        valid = enumerate_valid(instance)
        assert valid == ladder_enumerate(instance)
        assert (together in valid) is fits

    def test_random_mixed_denominators_match_the_ladder(self):
        rng = random.Random(331)
        boundary = 0
        for _ in range(150):
            d = rng.randint(1, 3)
            usage = [
                tuple(mixed_fraction(rng, 0, 2) for _ in range(d)) for _ in range(rng.randint(1, 3))
            ]
            txs = tuple(TransactionSpec(f"t{i + 1}", F(1), g) for i, g in enumerate(usage))
            nodes = []
            for j in range(2):
                capacity = None
                if rng.random() < 0.8:
                    capacity = tuple(
                        None if rng.random() < 0.2 else mixed_fraction(rng, 0, 3) for _ in range(d)
                    )
                nodes.append(NodeSpec(f"n{j + 1}", Zero(), capacity))
            instance = MarketInstance(txs, tuple(nodes), Constraints((NodeCapacity(),)))
            # is_valid first: after enumerate_valid it would accept members unfolded
            for allocation in raw_space(instance):
                verdict = valid_by_ladder(instance, allocation)
                assert is_valid(allocation, None, instance) == verdict
                boundary += verdict and any(
                    cap is not None and cap > 0 and used == cap
                    for node, bundle in allocation.bundles
                    if instance.node(node).capacity is not None
                    for used, cap in zip(
                        map(sum, zip(*(instance.resources[tx] for tx in bundle))),
                        instance.node(node).capacity,
                    )
                )
            assert enumerate_valid(instance) == ladder_enumerate(instance)
        assert boundary > 50  # valid allocations that fill some capacity exactly


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

    def test_uncapacitated_node_needs_no_resource_vector(self):
        # t1 has no vector, and those of t2 and t3 have two lengths, so they
        # would not scale into one resource image; no node declares a
        # capacity, so nothing is checked against them
        txs = (
            TransactionSpec("t1", F(1)),
            TransactionSpec("t2", F(1), (F(1), F(2))),
            TransactionSpec("t3", F(1), (F(1),)),
        )
        nodes = (NodeSpec("n1", Zero(), None),)
        instance = MarketInstance(txs, nodes, Constraints((NodeCapacity(),)))
        everything = Allocation.of({tx: ["n1"] for tx in instance.tx_ids})
        assert is_valid(everything, None, instance)
        valid = enumerate_valid(instance)
        assert valid[:2] == [EMPTY_ALLOCATION, Allocation.of({"t1": ["n1"]})]
        assert len(valid) == 8 and everything in valid

    def test_negative_tx_limit_in_a_scenario_raises(self):
        payload = {
            "kind": "market",
            "transactions": [{"id": "t1", "value": "1"}],
            "nodes": [{"id": "n1", "cost": {"type": "Zero"}}],
            "validity": {
                "type": "constraints",
                "constraints": [{"type": "MaxTxPerNode", "node": "n1", "limit": -3}],
            },
        }
        instance = parse_scenario(payload).instance
        with pytest.raises(MalformedInput, match="'n1'"):
            enumerate_valid(instance)

    def test_cap_enforced(self):
        # the refusal names its stage, the size reached and the cap
        instance = simple_instance(n_txs=3, n_nodes=2)
        with pytest.raises(InstanceTooLarge) as refused:
            enumerate_valid(instance, cap=10)
        assert str(refused.value) == (
            "enumerate_valid: search space of 3 transactions x 2 nodes "
            "has 64 leaves, which exceeds cap 10"
        )

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

    def test_matches_the_ladder_over_the_raw_space(self):
        # all six constraint types, with missing vectors and capacities
        rng = random.Random(29)
        raised = 0
        for _ in range(400):
            instance = random_constrained_instance(rng)
            try:
                expected = ladder_enumerate(instance)
            except MalformedInput:
                raised += 1
                with pytest.raises(MalformedInput):
                    enumerate_valid(instance)
                continue
            assert enumerate_valid(instance) == expected
        assert 0 < raised < 200

    def test_deep_searches_match_the_ladder(self):
        # five and six transactions, so the step state is pushed and popped
        # through deep stacks; every vector is present, so nothing is refused
        rng = random.Random(523)
        deep_valid = deep_invalid = 0
        for shape in range(24):
            instance = deep_constrained_instance(rng, shape)
            for allocation in raw_space(instance):
                verdict = valid_by_ladder(instance, allocation)
                assert is_valid(allocation, None, instance) == verdict
                if len(allocation.pairs) >= 5:
                    deep_valid += verdict
                    deep_invalid += not verdict
            assert enumerate_valid(instance) == ladder_enumerate(instance)
        assert deep_valid > 5000 and deep_invalid > 5000

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


class TestValidSetCache:
    def test_calls_return_equal_but_distinct_lists(self):
        instance = collusion_example_instance()
        first = enumerate_valid(instance)
        expected = list(first)
        second = enumerate_valid(instance)
        assert second == expected and second is not first
        first.clear()
        second.reverse()
        assert enumerate_valid(instance) == expected

    def test_a_smaller_cap_is_still_refused(self):
        # 1 + 3 node sets per transaction: 4^3 leaves, all valid
        instance = simple_instance(n_txs=3, n_nodes=2)
        assert len(enumerate_valid(instance, cap=64)) == 64
        with pytest.raises(InstanceTooLarge, match="exceeds cap 63"):
            enumerate_valid(instance, cap=63)
        assert len(enumerate_valid(instance, cap=64)) == 64
        with pytest.raises(InstanceTooLarge, match="exceeds cap 10"):
            enumerate_valid(instance, cap=10)

    def test_each_spec_object_gets_its_own_valid_set(self):
        member = Allocation.of({"t1": ["n1"]})
        single = Constraints((SingleAssignment(),))
        instance = simple_instance(validity=single)
        listed = Extensional((member,))
        unconstrained = Constraints(())
        for _ in range(2):
            assert enumerate_valid(instance, listed) == [EMPTY_ALLOCATION, member]
            assert len(enumerate_valid(instance, single)) == 3**2
            assert len(enumerate_valid(instance, unconstrained)) == 4**2
            # None reads the instance's own spec
            assert len(enumerate_valid(instance)) == 3**2
            assert len(enumerate_valid(instance, unconstrained)) == 4**2

    def test_only_the_same_objects_reuse_the_search(self, monkeypatch):
        searched = []
        search = validity._search_valid

        def counted(instance, spec, cap):
            searched.append((instance, spec, cap))
            return search(instance, spec, cap)

        monkeypatch.setattr(validity, "_search_valid", counted)
        first, twin = collusion_example_instance(), collusion_example_instance()
        assert first == twin and first is not twin
        equal_spec = Constraints(first.validity.constraints)
        for instance, spec in [(first, None), (first, None), (twin, None), (twin, None)]:
            assert len(enumerate_valid(instance, spec)) == 4
        # the instance's own spec passed explicitly is the key None stands
        # for; an equal spec object is another key
        for spec in [first.validity, equal_spec, equal_spec, first.validity]:
            assert len(enumerate_valid(first, spec)) == 4
        assert len(searched) == 4
        assert [s[0] for s in searched] == [first, twin, first, first]
        assert searched[1][0] is twin
        assert [s[1] for s in searched][2:] == [equal_spec, first.validity]
        assert searched[2][1] is equal_spec

    def test_is_valid_reads_the_last_enumeration(self, monkeypatch):
        tested = []
        admits = MaxTxPerNode.admits

        def counted(self, *args):
            tested.append(args)
            return admits(self, *args)

        monkeypatch.setattr(MaxTxPerNode, "admits", counted)
        spec = Constraints((MaxTxPerNode("n1", 1),))
        instance = simple_instance(validity=spec)
        members = enumerate_valid(instance)
        # 16 raw allocations less the 2 x 2 in which both run on n1
        assert len(members) == 12
        tested.clear()
        assert all(is_valid(member, None, instance) for member in members)
        assert tested == []
        shared = Allocation.of({"t1": ["n1"], "t2": ["n1", "n2"]})
        assert is_valid(shared, None, instance) is False
        assert tested
        with pytest.raises(MalformedInput, match="ghost"):
            is_valid(Allocation.of({"ghost": ["n1"]}), None, instance)
        # keyed by the spec resolved: the instance's own spec passed
        # explicitly is the key ``None`` stands for, so it is read, not
        # tested; an equal spec and an equal instance are tested again
        member = Allocation.of({"t1": ["n1", "n2"]})
        tested.clear()
        assert is_valid(member, spec, instance) is True
        assert tested == []
        for spec_arg, instance_arg in [
            (Constraints(spec.constraints), instance),
            (None, simple_instance(validity=spec)),
        ]:
            tested.clear()
            assert is_valid(member, spec_arg, instance_arg) is True
            assert tested
        single = Constraints((SingleAssignment(),))
        assert is_valid(member, single, instance) is False

    def test_non_members_at_every_bisection_index_are_folded(self):
        # only t2 is ever allocated, so the members are the empty allocation
        # and t2's three node sets; nothing sorts before the empty one
        spec = Constraints((MutualExclusion("t1", "t1"), MutualExclusion("t3", "t3")))
        instance = simple_instance(n_txs=3, validity=spec)
        members = enumerate_valid(instance)
        assert members == [EMPTY_ALLOCATION] + [
            Allocation.of({"t2": nodes}) for nodes in (["n1"], ["n1", "n2"], ["n2"])
        ]
        for outside in [
            Allocation.of({"t1": ["n1"]}),  # before the first non-empty member
            Allocation.of({"t2": ["n1"], "t3": ["n2"]}),  # between two members
            Allocation.of({"t3": ["n2"]}),  # past the last member
        ]:
            assert members[0] < outside and outside not in members
            assert is_valid(outside, None, instance) is False
            assert is_valid(outside, None, simple_instance(n_txs=3, validity=spec)) is False
            assert valid_by_ladder(instance, outside) is False
        assert all(is_valid(member, None, instance) for member in members)

    def test_is_valid_after_enumeration_matches_the_ladder_over_the_raw_space(self):
        # members answer from the memoised valid set, non-members by the
        # fold; each raw allocation is equal to its enumerated twin but is
        # another object, so the memo must look members up by value
        rng = random.Random(4099)
        instances = members = others = 0
        while instances < 120:
            instance = random_constrained_instance(rng)
            try:
                enumerated = enumerate_valid(instance)
            except MalformedInput:
                continue
            instances += 1
            assert instance._valid is not None
            same = {id(a) for a in enumerated}
            for allocation in raw_space(instance):
                assert id(allocation) not in same
                verdict = is_valid(allocation, instance.validity, instance)
                assert verdict == valid_by_ladder(instance, allocation)
                members += verdict
                others += not verdict
        assert members > 1000 and others > 1000
