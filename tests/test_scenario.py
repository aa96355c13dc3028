import json
from dataclasses import fields
from itertools import combinations
from fractions import Fraction as F
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerlab.core import (
    Allocation,
    ConstantNonempty,
    LinearResources,
    MarketInstance,
    NodeSpec,
    PerTransaction,
    SubsetTable,
    TransactionSpec,
    Zero,
)
from brokerlab.equilibrium import DeviationWitness, EquilibriumReport
from brokerlab.errors import MalformedInput
from brokerlab.mdfm import (
    ResourceMarket,
    collusion_example_instance,
    fee_gap_market,
    inclusion_gap_market,
    oracle_gap_market,
)
from brokerlab.scenario import (
    constraint_to_json,
    cost_function_to_json,
    equilibrium_report_to_json,
    instance_to_scenario_json,
    parse_constraint,
    parse_cost_function,
    parse_scenario,
    resource_market_to_scenario_json,
)
from brokerlab.validity import Constraint, Extensional, MutualExclusion, enumerate_valid

from helpers import (
    capacitated_instance,
    naive_enumerate,
    random_instance,
    random_proposals,
    random_reports,
)


MARKET_SCENARIO = {
    "kind": "market",
    "transactions": [
        {"id": "t1", "value": "6"},
        {"id": "t2", "value": "4"},
    ],
    "nodes": [
        {"id": "n1", "cost": {"type": "ConstantNonempty", "amount": "1"}},
        {"id": "n2", "cost": {"type": "ConstantNonempty", "amount": "1"}},
    ],
    "validity": {
        "type": "constraints",
        "constraints": [
            {"type": "RequiredNodeCount", "tx": "t1", "exactly": 2},
            {"type": "RequiredNodeCount", "tx": "t2", "exactly": 1},
            {"type": "MaxTxPerNode", "node": "n1", "limit": 1},
            {"type": "MaxTxPerNode", "node": "n2", "limit": 1},
        ],
    },
    "proposals": [
        {
            "broker": "b1",
            "routing": {
                "allocation": {"t1": ["n1", "n2"]},
                "tx_payments": {"t1": "2"},
                "node_payments": {"n1": "1", "n2": "1"},
            },
        }
    ],
    "broker_order": ["b1"],
    "quantum": "1/4",
    "seed": 7,
}


class TestMarketParsing:
    def test_round_numbers_and_structure(self):
        scenario = parse_scenario(MARKET_SCENARIO)
        assert scenario.kind == "market"
        instance = scenario.instance
        assert instance.transaction("t1").value == 6
        assert instance.node("n1").cost == ConstantNonempty(F(1))
        assert scenario.quantum == F(1, 4)
        assert scenario.seed == 7
        proposal = scenario.proposals[0]
        assert proposal.routing.allocation == Allocation.of({"t1": ["n1", "n2"]})
        assert proposal.routing.tx_payments == {"t1": F(2), "t2": F(0)}

    def test_reports_default_to_truthful(self):
        scenario = parse_scenario(MARKET_SCENARIO)
        assert scenario.reports == scenario.instance.truthful_reports()

    def test_explicit_reports_override(self):
        payload = dict(MARKET_SCENARIO)
        payload["reports"] = {"transactions": {"t1": "5"}}
        scenario = parse_scenario(payload)
        assert scenario.reports.tx_reports["t1"] == 5
        assert scenario.reports.tx_reports["t2"] == 4

    def test_malformed_number_is_rejected_with_path(self):
        payload = json.loads(json.dumps(MARKET_SCENARIO))
        payload["transactions"][0]["value"] = "1.0.0"
        with pytest.raises(MalformedInput, match=r"transactions\[0\].value"):
            parse_scenario(payload)

    def test_float_is_rejected(self):
        payload = json.loads(json.dumps(MARKET_SCENARIO))
        payload["transactions"][0]["value"] = 1.5
        with pytest.raises(MalformedInput):
            parse_scenario(payload)

    def test_unknown_kind(self):
        with pytest.raises(MalformedInput):
            parse_scenario({"kind": "nonsense"})

    @pytest.mark.parametrize("field", ["enum_cap", "others_cap", "max_rounds"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_caps_below_one_are_refused(self, field, value):
        payload = dict(MARKET_SCENARIO, **{field: value})
        with pytest.raises(MalformedInput, match=f"^{field}: must be at least 1"):
            parse_scenario(payload)
        assert getattr(parse_scenario(dict(MARKET_SCENARIO, **{field: 1})), field) == 1


RECORD_BASE = {
    "market": {
        "kind": "market",
        "transactions": [{"id": "t1", "value": "6"}],
        "nodes": [{"id": "n1", "cost": {"type": "Zero"}}],
    },
    "resource_market": {
        "kind": "resource_market",
        "dimensions": 2,
        "transactions": [{"id": "t1", "value": "6", "resources": ["1", "2"]}],
        "nodes": [{"id": "n1", "unit_costs": ["1", "1"]}],
    },
}

FLOAT = "floats are not exact; write the value as a string or as {num, den}"

# (path, bad value, message), the same for both scenario kinds
SHARED_RECORD_ERRORS = [
    (("transactions",), {}, "transactions: expected list, got dict"),
    (("nodes",), "n1", "nodes: expected list, got str"),
    (("transactions", 0), ["t1"], "transactions[0]: expected dict, got list"),
    (("nodes", 0), 3, "nodes[0]: expected dict, got int"),
    (("transactions", 0, "id"), 1, "transactions[0].id: expected str, got int"),
    (("nodes", 0, "id"), None, "nodes[0].id: expected str, got NoneType"),
    (
        ("transactions", 0, "value"),
        "1.0.0",
        "transactions[0].value: cannot parse '1.0.0' as an exact number",
    ),
    (("transactions", 0, "value"), None, "transactions[0].value: expected a number, got NoneType"),
    (("transactions", 0, "resources"), ["1", 1.5], f"transactions[0].resources[1]: {FLOAT}"),
    (("transactions", 0, "resources"), "1", "transactions[0].resources: expected list, got str"),
    (
        ("nodes", 0, "capacity"),
        [None, "x"],
        "nodes[0].capacity[1]: cannot parse 'x' as an exact number",
    ),
    (("nodes", 0, "capacity"), 2, "nodes[0].capacity: expected list, got int"),
]

RECORD_ERRORS = [
    (kind, *case) for kind in RECORD_BASE for case in SHARED_RECORD_ERRORS
] + [
    (
        "market",
        ("nodes", 0, "cost"),
        {"type": "Nope"},
        "nodes[0].cost.type: unknown cost function 'Nope'",
    ),
    ("resource_market", ("nodes", 0, "unit_costs"), [1.5, "1"], f"nodes[0].unit_costs[0]: {FLOAT}"),
    (
        "resource_market",
        ("transactions", 0, "resources"),
        None,
        "transaction 't1' needs a resource vector of length 2",
    ),
    # every list reader names the entry's index
    ("market", ("broker_order",), ["b1", 2], "broker_order[1]: expected str, got int"),
    ("market", ("broker_order",), "b1", "broker_order: expected list, got str"),
    (
        "market",
        ("nodes", 0, "cost"),
        {"type": "SubsetTable", "transactions": ["t1", 2], "table": {}},
        "nodes[0].cost.transactions[1]: expected str, got int",
    ),
    (
        "market",
        ("validity",),
        {"type": "constraints", "constraints": [{"type": "MustShareNode", "txs": ["t1", 3]}]},
        "validity.constraints[0].txs[1]: expected str, got int",
    ),
    (
        "market",
        ("validity",),
        {"type": "extensional", "allocations": [{"t1": ["n1", None]}]},
        "validity.allocations[0][t1][1]: expected str, got NoneType",
    ),
    (
        "market",
        ("validity",),
        {"type": "extensional", "allocations": [{"t1": "n1"}]},
        "validity.allocations[0][t1]: expected list, got str",
    ),
    # a node record holds only id, capacity and its kind's cost field
    ("market", ("nodes", 0, "unit_costs"), ["5"], "nodes[0].unit_costs: unknown field"),
    ("resource_market", ("nodes", 0, "unit_cost"), ["5"], "nodes[0].unit_cost: unknown field"),
    (
        "resource_market",
        ("nodes", 0, "cost"),
        {"type": "Zero"},
        "nodes[0].cost: unknown field",
    ),
    # a transaction record holds only id, value and resources
    ("market", ("transactions", 0, "resorces"), ["1"], "transactions[0].resorces: unknown field"),
    (
        "resource_market",
        ("transactions", 0, "capacity"),
        ["1", "1"],
        "transactions[0].capacity: unknown field",
    ),
    # a top-level field that neither kind reads
    ("resource_market", ("single_assigment",), True, "single_assigment: unknown field"),
    ("market", ("resorces",), [], "resorces: unknown field"),
    # nested records: a proposal, its routing and the reports
    (
        "market",
        ("proposals",),
        [{"brokr": "b1", "broker": "b1", "routing": {}}],
        "proposals[0].brokr: unknown field",
    ),
    (
        "market",
        ("proposals",),
        [{"broker": "b1", "routing": {"allocation": {"t1": ["n1"]}, "node_payment": {"n1": "1"}}}],
        "proposals[0].routing.node_payment: unknown field",
    ),
    ("market", ("reports",), {"transactions": {"t1": "1"}, "node": {}}, "reports.node: unknown field"),
    # each validity kind
    (
        "market",
        ("validity",),
        {"type": "constraints", "constraint": []},
        "validity.constraint: unknown field",
    ),
    (
        "market",
        ("validity",),
        {"type": "extensional", "allocations": [], "constraints": []},
        "validity.constraints: unknown field",
    ),
    # a reported cost function is read as a node's own
    (
        "market",
        ("reports",),
        {"nodes": {"n1": {"type": "Zero", "amount": "2"}}},
        "reports.nodes[n1].amount: unknown field",
    ),
    # a top-level field that only the other kind reads
    (
        "market",
        ("exclusions",),
        [{"type": "MutualExclusion", "txs": ["t1", "t2"]}],
        "exclusions: unknown field",
    ),
    ("market", ("dimensions",), 2, "dimensions: unknown field"),
    ("market", ("single_assignment",), True, "single_assignment: unknown field"),
    ("resource_market", ("validity",), None, "validity: unknown field"),
    ("resource_market", ("proposals",), [], "proposals: unknown field"),
    ("resource_market", ("reports",), None, "reports: unknown field"),
    ("resource_market", ("broker_order",), ["b1"], "broker_order: unknown field"),
    # a rate keyed by a misspelt transaction would leave t1 free on n1
    (
        "market",
        ("nodes", 0, "cost"),
        {"type": "PerTransaction", "rates": {"t_1": "1"}},
        "node 'n1': PerTransaction rates for unknown transactions ['t_1']",
    ),
    (
        "market",
        ("reports",),
        {"nodes": {"n1": {"type": "PerTransaction", "rates": {"t1": "2", "t_1": "1", "t0": "1"}}}},
        "reports.nodes[n1]: PerTransaction rates for unknown transactions ['t0', 't_1']",
    ),
]

# (a record, a stray field, the message); RequiredNodeCount's two forms at once
# are refused too
CONSTRAINT_FIELD_ERRORS = [
    ({"type": "NodeCapacity"}, {"limit": 1}, "c.limit: unknown field"),
    ({"type": "MaxTxPerNode", "node": "n1", "limit": 1}, {"limt": 1}, "c.limt: unknown field"),
    ({"type": "RequiredNodeCount", "tx": "t1", "exactly": 1}, {"node": "n1"}, "c.node: unknown field"),
    (
        {"type": "RequiredNodeCount", "tx": "t1", "exactly": 1},
        {"max": 2},
        "c: give either exactly or min and max, not both",
    ),
    (
        {"type": "RequiredNodeCount", "tx": "t1", "min": 1, "max": 2},
        {"exactly": 1},
        "c: give either exactly or min and max, not both",
    ),
    ({"type": "MustShareNode", "txs": ["t1"]}, {"tx": "t1"}, "c.tx: unknown field"),
    ({"type": "MutualExclusion", "txs": ["t1", "t2"]}, {"tx": "t1"}, "c.tx: unknown field"),
    ({"type": "SingleAssignment"}, {"node": "n1"}, "c.node: unknown field"),
]

# (a record, a stray field, the message) per cost-function type
COST_FIELD_ERRORS = [
    ({"type": "Zero"}, {"amount": "1"}, "f.amount: unknown field"),
    ({"type": "ConstantNonempty", "amount": "1"}, {"rates": {}}, "f.rates: unknown field"),
    ({"type": "PerTransaction", "rates": {"t1": "1"}}, {"amount": "1"}, "f.amount: unknown field"),
    ({"type": "LinearResources", "unit_costs": ["1"]}, {"unit_cost": ["1"]}, "f.unit_cost: unknown field"),
    (
        {"type": "SubsetTable", "transactions": [], "table": {"": "0"}},
        {"rows": {}},
        "f.rows: unknown field",
    ),
]


@pytest.mark.parametrize("kind, path, bad, message", RECORD_ERRORS)
def test_record_errors_name_the_field(kind, path, bad, message):
    payload = json.loads(json.dumps(RECORD_BASE[kind]))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(MalformedInput) as excinfo:
        parse_scenario(payload)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("record, stray, message", CONSTRAINT_FIELD_ERRORS)
def test_constraint_records_refuse_fields_they_do_not_read(record, stray, message):
    parse_constraint(record, "c")
    with pytest.raises(MalformedInput) as excinfo:
        parse_constraint({**record, **stray}, "c")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("record, stray, message", COST_FIELD_ERRORS)
def test_cost_function_records_refuse_fields_they_do_not_read(record, stray, message):
    parse_cost_function(record, "f")
    with pytest.raises(MalformedInput) as excinfo:
        parse_cost_function({**record, **stray}, "f")
    assert str(excinfo.value) == message


def test_a_misspelt_node_payment_no_longer_pays_every_node_zero():
    payload = json.loads(json.dumps(RECORD_BASE["market"]))
    routing = {"allocation": {"t1": ["n1"]}, "tx_payments": {"t1": "2"}, "node_payments": {"n1": "1"}}
    payload["proposals"] = [{"broker": "b1", "routing": routing}]
    assert parse_scenario(payload).proposals[0].routing.node_payments == {"n1": 1}
    routing["node_payment"] = routing.pop("node_payments")
    with pytest.raises(MalformedInput, match=r"^proposals\[0\]\.routing\.node_payment: unknown field$"):
        parse_scenario(payload)


def test_a_deviation_of_unknown_type_is_refused():
    witness = DeviationWitness("t1", "tx_report", 3, F(0), F(1))
    with pytest.raises(MalformedInput, match="^cannot serialize deviation 3$"):
        equilibrium_report_to_json(EquilibriumReport(False, (witness,), 1, 0))


class TestReportParsing:
    def test_node_table_over_other_transactions_is_refused(self):
        payload = json.loads(json.dumps(MARKET_SCENARIO))
        table = {"type": "SubsetTable", "transactions": ["t1"], "table": {"": "0", "t1": "1"}}
        payload["reports"] = {"nodes": {"n1": table}}
        with pytest.raises(
            MalformedInput,
            match=r"^reports\.nodes\[n1\]: SubsetTable must cover exactly the instance transactions",
        ):
            parse_scenario(payload)


class TestCostFunctionRoundTrip:
    @pytest.mark.parametrize(
        "fn",
        [
            Zero(),
            ConstantNonempty(F(3, 2)),
            PerTransaction({"t1": F(1), "t2": F(1, 4)}),
            LinearResources((F(0), F(5, 3))),
            SubsetTable(
                frozenset({"t1", "t2"}),
                {
                    frozenset(): F(0),
                    frozenset({"t1"}): F(1),
                    frozenset({"t2"}): F(2),
                    frozenset({"t1", "t2"}): F(5, 2),
                },
            ),
        ],
    )
    def test_round_trip(self, fn):
        assert parse_cost_function(cost_function_to_json(fn), "fn") == fn


IDS = st.sampled_from(["t1", "t2", "t3", "n1"])
FIELD_VALUES = {
    str: IDS,
    int: st.integers(min_value=-3, max_value=5),
    tuple[str, ...]: st.lists(IDS, unique=True).map(lambda ids: tuple(sorted(ids))),
}


def constraints_of(cls):
    hints = get_type_hints(cls)
    return st.builds(cls, **{f.name: FIELD_VALUES[hints[f.name]] for f in fields(cls)})


@pytest.mark.parametrize("cls", Constraint.__subclasses__(), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_constraint_round_trip(cls, data):
    constraint = data.draw(constraints_of(cls))
    payload = constraint_to_json(constraint)
    parsed = parse_constraint(payload, "constraint")
    assert parsed == constraint
    assert json.dumps(constraint_to_json(parsed)) == json.dumps(payload)


class TestGeneratedScenarios:
    def test_market_scenario_round_trip(self):
        instance = collusion_example_instance()
        payload = instance_to_scenario_json(instance)
        scenario = parse_scenario(payload)
        assert scenario.instance == instance

    @pytest.mark.parametrize(
        "market",
        [
            inclusion_gap_market(4),
            fee_gap_market(3),
            oracle_gap_market(3, [F(1), F(2), F(3)]),
        ],
    )
    def test_resource_market_round_trip(self, market):
        payload = resource_market_to_scenario_json(market)
        scenario = parse_scenario(payload)
        assert scenario.market == market

    def test_exclusions_key(self):
        assert "exclusions" not in resource_market_to_scenario_json(fee_gap_market(3))
        payload = resource_market_to_scenario_json(inclusion_gap_market(3))
        assert payload["exclusions"] == [{"type": "MutualExclusion", "txs": ["t01", "t02"]}]
        payload["exclusions"] = [{"type": "SingleAssignment"}]
        with pytest.raises(MalformedInput, match="exclusions"):
            parse_scenario(payload)

    def test_json_serializable(self):
        payload = resource_market_to_scenario_json(oracle_gap_market(2, [F(1), F(2)]))
        text = json.dumps(payload, sort_keys=True)
        assert parse_scenario(json.loads(text)).market == oracle_gap_market(2, [F(1), F(2)])


def extensional_instance() -> MarketInstance:
    return MarketInstance(
        (TransactionSpec("t1", F(4)), TransactionSpec("t2", F(2))),
        (NodeSpec("n1", ConstantNonempty(F(1))), NodeSpec("n2", Zero())),
        Extensional(
            (Allocation.of({"t1": ["n1"]}), Allocation.of({"t1": ["n1", "n2"], "t2": ["n2"]}))
        ),
    )


@pytest.mark.parametrize(
    "instance, valid",
    [(capacitated_instance(), 7), (extensional_instance(), 3)],
    ids=["capacitated", "extensional"],
)
def test_instance_round_trips_with_its_valid_set(instance, valid):
    payload = instance_to_scenario_json(instance)
    parsed = parse_scenario(json.loads(json.dumps(payload))).instance
    assert parsed == instance
    valid_set = enumerate_valid(parsed, parsed.validity)
    assert valid_set == enumerate_valid(instance, instance.validity)
    assert len(valid_set) == valid


@st.composite
def resource_markets(draw):
    """d = 1-3; zero or linear costs; capacities absent, partial or full;
    single_assignment on or off; any set of pairwise exclusions."""
    d = draw(st.integers(1, 3))
    number = st.builds(F, st.integers(0, 40), st.integers(1, 6))
    vector = st.tuples(*[number] * d)
    txs = tuple(
        TransactionSpec(f"t{i + 1}", draw(number), draw(vector))
        for i in range(draw(st.integers(1, 4)))
    )
    nodes = tuple(
        NodeSpec(
            f"n{j + 1}",
            draw(st.one_of(st.just(Zero()), vector.map(LinearResources))),
            draw(st.one_of(st.none(), st.tuples(*[st.one_of(st.none(), number)] * d))),
        )
        for j in range(draw(st.integers(1, 3)))
    )
    pairs = [MutualExclusion(a, b) for a, b in combinations([t.id for t in txs], 2)]
    exclusions = tuple(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ()
    return ResourceMarket(d, txs, nodes, draw(st.booleans()), exclusions)


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@given(resource_markets())
@settings(max_examples=200, deadline=None)
def test_whole_resource_market_round_trip(market):
    payload = resource_market_to_scenario_json(market)
    parsed = parse_scenario(json.loads(canonical(payload))).market
    assert parsed == market
    assert canonical(resource_market_to_scenario_json(parsed)) == canonical(payload)


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=150, deadline=None)
def test_market_scenario_with_proposals_and_reports_round_trip(rng, keep_validity):
    instance = random_instance(rng, max_txs=3, max_nodes=2)
    if not keep_validity:
        # validity is written only when set, so a market without one reads
        # back without one, not with an empty constraint list
        instance = MarketInstance(instance.transactions, instance.nodes)
    reports, _ = random_reports(rng, instance)
    valid = naive_enumerate(instance, instance.validity)
    proposals, order = random_proposals(rng, instance, reports, valid)
    payload = instance_to_scenario_json(instance, proposals, order, reports)
    assert ("validity" in payload) == keep_validity
    parsed = parse_scenario(json.loads(canonical(payload)))
    assert parsed.instance == instance
    assert parsed.proposals == proposals
    assert parsed.broker_order == order
    assert parsed.reports == reports
    again = instance_to_scenario_json(
        parsed.instance, parsed.proposals, parsed.broker_order, parsed.reports
    )
    assert canonical(again) == canonical(payload)
