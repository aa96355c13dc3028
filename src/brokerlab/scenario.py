"""Scenario files: exact JSON ingestion and report serialization.

Two scenario kinds exist.  ``market`` carries a general instance (arbitrary
cost functions and validity constraints) plus optional proposals, reports,
and a broker order; ``resource_market`` carries a d-dimensional market for
the benchmark commands.  Numbers travel as integers, decimal strings, or
``{"num", "den"}`` pairs and are parsed exactly; floats are rejected.

Parsing errors carry the JSON path of the offending field.  Every record
refuses a field it does not read, and the top-level object one that neither
kind reads, so a misspelt field cannot silently change a market.  A typed
record (cost function, constraint, validity spec) reads ``type`` and that
type's own fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from .core import (
    Allocation,
    ConstantNonempty,
    CostFunction,
    LinearResources,
    MarketInstance,
    NodeSpec,
    PerTransaction,
    ReportProfile,
    Routing,
    SubsetTable,
    TransactionSpec,
    Zero,
)
from .equilibrium import (
    DEFAULT_OTHERS_CAP,
    DeviationWitness,
    EquilibriumReport,
    TruthfulnessReport,
)
from .errors import MalformedInput
from .mdfm import BenchmarkResult, ResourceMarket
from .mechanism import MechanismOutcome, Proposal
from .rationals import ZERO, format_number, parse_number
from .strategy import DEFAULT_QUANTUM, DynamicsTrace
from .validity import (
    DEFAULT_ENUM_CAP,
    Constraint,
    Constraints,
    Extensional,
    MaxTxPerNode,
    MustShareNode,
    MutualExclusion,
    NodeCapacity,
    RequiredNodeCount,
    SingleAssignment,
    ValiditySpec,
)


@dataclass
class Scenario:
    kind: str  # "market" | "resource_market"
    instance: MarketInstance | None = None
    market: ResourceMarket | None = None
    proposals: list[Proposal] = field(default_factory=list)
    reports: ReportProfile | None = None
    broker_order: list[str] | None = None
    quantum: Fraction = DEFAULT_QUANTUM
    enum_cap: int = DEFAULT_ENUM_CAP
    seed: int | None = None
    others_cap: int = DEFAULT_OTHERS_CAP
    max_rounds: int = 1000


def _expect(obj: Any, typ: type, where: str) -> Any:
    if not isinstance(obj, typ) or isinstance(obj, bool) and typ is not bool:
        raise MalformedInput(f"{where}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def _str(obj: Any, where: str) -> str:
    return _expect(obj, str, where)


def _int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise MalformedInput(f"{where}: expected an integer")
    return obj


def _positive_int(obj: Any, where: str) -> int:
    value = _int(obj, where)
    if value < 1:
        raise MalformedInput(f"{where}: must be at least 1, got {value}")
    return value


def _known_fields(raw: Mapping[str, Any], where: str, fields: Iterable[str]) -> None:
    """Refuse the first key of a JSON object that is not one of ``fields``."""
    for key in raw:
        if key not in fields:
            raise MalformedInput(f"{where + '.' if where else ''}{key}: unknown field")


def _records(raw: Any, where: str, parse_one: Callable[[Any, str], Any]) -> tuple:
    """A JSON list, each entry read by ``parse_one`` at its own path."""
    _expect(raw, list, where)
    return tuple([parse_one(entry, f"{where}[{i}]") for i, entry in enumerate(raw)])


def _vector(obj: Any, where: str) -> tuple[Fraction, ...]:
    return _records(obj, where, parse_number)


def _kind(obj: Any, where: str, what: str, fields: Mapping[str, tuple[str, ...]]) -> str:
    """The ``type`` of a JSON object, a key of ``fields``; any key not in
    that kind's ``fields`` is refused."""
    _expect(obj, dict, where)
    kind = _str(obj.get("type"), f"{where}.type")
    if kind not in fields:
        raise MalformedInput(f"{where}.type: unknown {what} {kind!r}")
    _known_fields(obj, where, fields[kind])
    return kind


# the fields of each cost-function type
_COST_FIELDS = {
    "Zero": ("type",),
    "ConstantNonempty": ("type", "amount"),
    "PerTransaction": ("type", "rates"),
    "LinearResources": ("type", "unit_costs"),
    "SubsetTable": ("type", "transactions", "table"),
}


def parse_cost_function(obj: Any, where: str) -> CostFunction:
    kind = _kind(obj, where, "cost function", _COST_FIELDS)
    if kind == "Zero":
        return Zero()
    if kind == "ConstantNonempty":
        return ConstantNonempty(parse_number(obj.get("amount"), f"{where}.amount"))
    if kind == "PerTransaction":
        rates = _expect(obj.get("rates"), dict, f"{where}.rates")
        return PerTransaction(
            {tx: parse_number(v, f"{where}.rates[{tx}]") for tx, v in rates.items()}
        )
    if kind == "LinearResources":
        return LinearResources(_vector(obj.get("unit_costs"), f"{where}.unit_costs"))
    # SubsetTable
    declared = frozenset(_records(obj.get("transactions"), f"{where}.transactions", _str))
    raw = _expect(obj.get("table"), dict, f"{where}.table")
    table = {}
    for key, value in raw.items():
        subset = frozenset(part for part in key.split(",") if part)
        table[subset] = parse_number(value, f"{where}.table[{key!r}]")
    return SubsetTable(declared, table)


def cost_function_to_json(fn: CostFunction) -> dict:
    if isinstance(fn, Zero):
        return {"type": "Zero"}
    if isinstance(fn, ConstantNonempty):
        return {"type": "ConstantNonempty", "amount": format_number(fn.amount)}
    if isinstance(fn, PerTransaction):
        return {
            "type": "PerTransaction",
            "rates": {tx: format_number(v) for tx, v in sorted(fn.rates.items())},
        }
    if isinstance(fn, LinearResources):
        return {"type": "LinearResources", "unit_costs": [format_number(c) for c in fn.unit_costs]}
    if isinstance(fn, SubsetTable):
        return {
            "type": "SubsetTable",
            "transactions": sorted(fn.transactions),
            "table": {
                ",".join(sorted(subset)): format_number(v)
                for subset, v in sorted(fn.table.items(), key=lambda kv: sorted(kv[0]))
            },
        }
    raise MalformedInput(f"cannot serialize cost function {fn!r}")


# the fields of each constraint type; RequiredNodeCount reads ``exactly`` or
# ``min`` and ``max``
_CONSTRAINT_FIELDS = {
    "NodeCapacity": ("type",),
    "MaxTxPerNode": ("type", "node", "limit"),
    "RequiredNodeCount": ("type", "tx", "exactly", "min", "max"),
    "MustShareNode": ("type", "txs"),
    "MutualExclusion": ("type", "txs"),
    "SingleAssignment": ("type",),
}

# the fields of each validity kind
_VALIDITY_FIELDS = {"constraints": ("type", "constraints"), "extensional": ("type", "allocations")}


def parse_constraint(obj: Any, where: str) -> Constraint:
    kind = _kind(obj, where, "constraint", _CONSTRAINT_FIELDS)
    if kind == "NodeCapacity":
        return NodeCapacity()
    if kind == "MaxTxPerNode":
        return MaxTxPerNode(_str(obj.get("node"), f"{where}.node"), _int(obj.get("limit"), f"{where}.limit"))
    if kind == "RequiredNodeCount":
        tx = _str(obj.get("tx"), f"{where}.tx")
        if "exactly" in obj:
            if "min" in obj or "max" in obj:
                raise MalformedInput(f"{where}: give either exactly or min and max, not both")
            count = _int(obj["exactly"], f"{where}.exactly")
            return RequiredNodeCount.exactly(tx, count)
        return RequiredNodeCount(
            tx, _int(obj.get("min"), f"{where}.min"), _int(obj.get("max"), f"{where}.max")
        )
    if kind == "MustShareNode":
        return MustShareNode(tuple(sorted(_records(obj.get("txs"), f"{where}.txs", _str))))
    if kind == "MutualExclusion":
        txs = _expect(obj.get("txs"), list, f"{where}.txs")
        if len(txs) != 2:
            raise MalformedInput(f"{where}.txs: mutual exclusion needs exactly two transactions")
        return MutualExclusion(_str(txs[0], f"{where}.txs[0]"), _str(txs[1], f"{where}.txs[1]"))
    return SingleAssignment()


def constraint_to_json(c: Constraint) -> dict:
    if isinstance(c, NodeCapacity):
        return {"type": "NodeCapacity"}
    if isinstance(c, MaxTxPerNode):
        return {"type": "MaxTxPerNode", "node": c.node, "limit": c.limit}
    if isinstance(c, RequiredNodeCount):
        if c.min_nodes == c.max_nodes:
            return {"type": "RequiredNodeCount", "tx": c.tx, "exactly": c.min_nodes}
        return {"type": "RequiredNodeCount", "tx": c.tx, "min": c.min_nodes, "max": c.max_nodes}
    if isinstance(c, MustShareNode):
        return {"type": "MustShareNode", "txs": list(c.txs)}
    if isinstance(c, MutualExclusion):
        return {"type": "MutualExclusion", "txs": [c.first, c.second]}
    if isinstance(c, SingleAssignment):
        return {"type": "SingleAssignment"}
    raise MalformedInput(f"cannot serialize constraint {c!r}")


def parse_allocation(obj: Any, where: str) -> Allocation:
    _expect(obj, dict, where)
    assignment = {}
    for tx, nodes in obj.items():
        assignment[tx] = _records(nodes, f"{where}[{tx}]", _str)
    return Allocation.of(assignment)


def allocation_to_json(allocation: Allocation) -> dict:
    return {tx: list(nodes) for tx, nodes in allocation.pairs}


def parse_validity(obj: Any, where: str) -> ValiditySpec:
    kind = _kind(obj, where, "validity kind", _VALIDITY_FIELDS)
    if kind == "constraints":
        return Constraints(_records(obj.get("constraints"), f"{where}.constraints", parse_constraint))
    return Extensional(_records(obj.get("allocations"), f"{where}.allocations", parse_allocation))


def validity_to_json(spec: ValiditySpec) -> dict:
    if isinstance(spec, Constraints):
        return {
            "type": "constraints",
            "constraints": [constraint_to_json(c) for c in spec.constraints],
        }
    return {
        "type": "extensional",
        "allocations": [allocation_to_json(a) for a in spec.allocations],
    }


def _parse_payments(obj: Any, ids: tuple[str, ...], where: str) -> dict[str, Fraction]:
    payments = {agent: ZERO for agent in ids}
    if obj is None:
        return payments
    _expect(obj, dict, where)
    for agent, value in obj.items():
        if agent not in payments:
            raise MalformedInput(f"{where}[{agent}]: unknown agent id")
        payments[agent] = parse_number(value, f"{where}[{agent}]")
    return payments


def parse_routing(obj: Any, instance: MarketInstance, where: str) -> Routing:
    _expect(obj, dict, where)
    _known_fields(obj, where, ("allocation", "tx_payments", "node_payments"))
    allocation = parse_allocation(obj.get("allocation", {}), f"{where}.allocation")
    tx_payments = _parse_payments(obj.get("tx_payments"), instance.tx_ids, f"{where}.tx_payments")
    node_payments = _parse_payments(
        obj.get("node_payments"), instance.node_ids, f"{where}.node_payments"
    )
    return Routing(allocation, tx_payments, node_payments)


def routing_to_json(routing: Routing) -> dict:
    return {
        "allocation": allocation_to_json(routing.allocation),
        "tx_payments": {tx: format_number(p) for tx, p in sorted(routing.tx_payments.items())},
        "node_payments": {
            n: format_number(p) for n, p in sorted(routing.node_payments.items())
        },
    }


def _proposal(raw: Any, where: str, instance: MarketInstance) -> Proposal:
    _expect(raw, dict, where)
    _known_fields(raw, where, ("broker", "routing"))
    return Proposal(
        _str(raw.get("broker"), f"{where}.broker"),
        parse_routing(raw.get("routing"), instance, f"{where}.routing"),
    )


def proposal_to_json(proposal: Proposal) -> dict:
    return {"broker": proposal.broker, "routing": routing_to_json(proposal.routing)}


def parse_reports(obj: Any, instance: MarketInstance, where: str) -> ReportProfile:
    _expect(obj, dict, where)
    _known_fields(obj, where, ("transactions", "nodes"))
    truthful = instance.truthful_reports()
    tx_reports = dict(truthful.tx_reports)
    node_reports = dict(truthful.node_reports)
    raw_tx = obj.get("transactions", {})
    _expect(raw_tx, dict, f"{where}.transactions")
    for tx, value in raw_tx.items():
        if tx not in tx_reports:
            raise MalformedInput(f"{where}.transactions[{tx}]: unknown transaction")
        tx_reports[tx] = parse_number(value, f"{where}.transactions[{tx}]")
    raw_nodes = obj.get("nodes", {})
    _expect(raw_nodes, dict, f"{where}.nodes")
    for node, fn in raw_nodes.items():
        if node not in node_reports:
            raise MalformedInput(f"{where}.nodes[{node}]: unknown node")
        cost = parse_cost_function(fn, f"{where}.nodes[{node}]")
        if (fault := instance.cost_fault(cost)) is not None:
            raise MalformedInput(f"{where}.nodes[{node}]{fault}")
        node_reports[node] = cost
    return ReportProfile(tx_reports, node_reports)


def reports_to_json(reports: ReportProfile) -> dict:
    """Every agent's report, in the form ``parse_reports`` reads."""
    return {
        "transactions": {tx: format_number(v) for tx, v in sorted(reports.tx_reports.items())},
        "nodes": {n: cost_function_to_json(fn) for n, fn in sorted(reports.node_reports.items())},
    }


def _transaction(raw: Any, where: str) -> TransactionSpec:
    """``id``, ``value`` and ``resources``, which is optional here;
    ``ResourceMarket`` refuses a transaction without one.  Any other field
    is refused."""
    _expect(raw, dict, where)
    _known_fields(raw, where, ("id", "value", "resources"))
    resources = raw.get("resources")
    return TransactionSpec(
        _str(raw.get("id"), f"{where}.id"),
        parse_number(raw.get("value"), f"{where}.value"),
        None if resources is None else _vector(resources, f"{where}.resources"),
    )


def _transaction_to_json(t: TransactionSpec) -> dict:
    entry: dict[str, Any] = {"id": t.id, "value": format_number(t.value)}
    if t.resources is not None:
        entry["resources"] = [format_number(g) for g in t.resources]
    return entry


def _capacity_entry(obj: Any, where: str) -> Fraction | None:
    return None if obj is None else parse_number(obj, where)


def _node(
    raw: Any, where: str, cost_field: str, cost: Callable[[Any, str], CostFunction]
) -> NodeSpec:
    """``id`` and ``capacity`` (null entries allowed); ``cost`` reads the kind's
    own cost field, ``cost_field``, and any other field is refused."""
    _expect(raw, dict, where)
    _known_fields(raw, where, ("id", "capacity", cost_field))
    node_id = _str(raw.get("id"), f"{where}.id")
    capacity = raw.get("capacity")
    if capacity is not None:
        capacity = _records(capacity, f"{where}.capacity", _capacity_entry)
    return NodeSpec(node_id, cost(raw, where), capacity)


def _node_to_json(n: NodeSpec, cost: dict[str, Any]) -> dict:
    entry: dict[str, Any] = {"id": n.id, **cost}
    if n.capacity is not None:
        entry["capacity"] = [None if r is None else format_number(r) for r in n.capacity]
    return entry


def _market_cost(raw: Mapping[str, Any], where: str) -> CostFunction:
    return parse_cost_function(raw.get("cost", {"type": "Zero"}), f"{where}.cost")


def _unit_costs(raw: Mapping[str, Any], where: str) -> CostFunction:
    if raw.get("unit_costs") is None:
        return Zero()
    return LinearResources(_vector(raw["unit_costs"], f"{where}.unit_costs"))


def _unit_costs_to_json(fn: CostFunction) -> dict[str, Any]:
    if isinstance(fn, LinearResources):
        return {"unit_costs": [format_number(c) for c in fn.unit_costs]}
    return {}


def _parse_market_instance(obj: Mapping[str, Any]) -> MarketInstance:
    validity = obj.get("validity")
    return MarketInstance(
        _records(obj.get("transactions"), "transactions", _transaction),
        _records(obj.get("nodes"), "nodes", partial(_node, cost_field="cost", cost=_market_cost)),
        None if validity is None else parse_validity(validity, "validity"),
    )


def _parse_resource_market(obj: Mapping[str, Any]) -> ResourceMarket:
    d = _int(obj.get("dimensions"), "dimensions")
    txs = _records(obj.get("transactions"), "transactions", _transaction)
    node = partial(_node, cost_field="unit_costs", cost=_unit_costs)
    nodes = _records(obj.get("nodes"), "nodes", node)
    single = obj.get("single_assignment", False)
    if not isinstance(single, bool):
        raise MalformedInput("single_assignment: expected a boolean")
    exclusions = _records(obj.get("exclusions", []), "exclusions", parse_constraint)
    return ResourceMarket(d, txs, nodes, single, exclusions)


# the top-level fields parse_scenario reads for each kind: the run
# parameters, then the kind's market
_RUN_FIELDS = frozenset({"kind", "quantum", "enum_cap", "seed", "others_cap", "max_rounds"})
_SCENARIO_FIELDS = {
    "market": _RUN_FIELDS
    | {"transactions", "nodes", "validity", "proposals", "reports", "broker_order"},
    "resource_market": _RUN_FIELDS
    | {"dimensions", "transactions", "nodes", "single_assignment", "exclusions"},
}


def parse_scenario(obj: Any) -> Scenario:
    _expect(obj, dict, "scenario")
    kind = _str(obj.get("kind"), "kind")
    if kind not in _SCENARIO_FIELDS:
        raise MalformedInput(f"kind: expected 'market' or 'resource_market', got {kind!r}")
    _known_fields(obj, "", _SCENARIO_FIELDS[kind])
    scenario = Scenario(kind=kind)
    if "quantum" in obj:
        scenario.quantum = parse_number(obj["quantum"], "quantum")
        if scenario.quantum <= 0:
            raise MalformedInput("quantum: must be positive")
    if "enum_cap" in obj:
        scenario.enum_cap = _positive_int(obj["enum_cap"], "enum_cap")
    if "seed" in obj and obj["seed"] is not None:
        scenario.seed = _int(obj["seed"], "seed")
    if "others_cap" in obj:
        scenario.others_cap = _positive_int(obj["others_cap"], "others_cap")
    if "max_rounds" in obj:
        scenario.max_rounds = _positive_int(obj["max_rounds"], "max_rounds")

    if kind == "market":
        instance = _parse_market_instance(obj)
        scenario.instance = instance
        scenario.proposals = list(
            _records(obj.get("proposals", []), "proposals", partial(_proposal, instance=instance))
        )
        if obj.get("reports") is not None:
            scenario.reports = parse_reports(obj["reports"], instance, "reports")
        else:
            scenario.reports = instance.truthful_reports()
        if obj.get("broker_order") is not None:
            scenario.broker_order = list(_records(obj["broker_order"], "broker_order", _str))
        else:
            scenario.broker_order = [p.broker for p in scenario.proposals]
        return scenario

    scenario.market = _parse_resource_market(obj)
    return scenario


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def instance_to_scenario_json(
    instance: MarketInstance,
    proposals: list[Proposal] | None = None,
    broker_order: list[str] | None = None,
    reports: ReportProfile | None = None,
) -> dict:
    payload: dict[str, Any] = {
        "kind": "market",
        "transactions": [_transaction_to_json(t) for t in instance.transactions],
        "nodes": [
            _node_to_json(n, {"cost": cost_function_to_json(n.cost)}) for n in instance.nodes
        ],
    }
    if instance.validity is not None:
        payload["validity"] = validity_to_json(instance.validity)
    if proposals:
        payload["proposals"] = [proposal_to_json(p) for p in proposals]
    if broker_order:
        payload["broker_order"] = broker_order
    if reports is not None:
        payload["reports"] = reports_to_json(reports)
    return payload


def resource_market_to_scenario_json(market: ResourceMarket) -> dict:
    payload: dict[str, Any] = {
        "kind": "resource_market",
        "dimensions": market.dimensions,
        "transactions": [_transaction_to_json(t) for t in market.transactions],
        "nodes": [_node_to_json(n, _unit_costs_to_json(n.cost)) for n in market.nodes],
    }
    if market.single_assignment:
        payload["single_assignment"] = True
    if market.exclusions:
        payload["exclusions"] = [constraint_to_json(c) for c in market.exclusions]
    return payload


def outcome_to_json(outcome: MechanismOutcome) -> dict:
    payload: dict[str, Any] = {
        "winner": outcome.winner,
        "routing": routing_to_json(outcome.routing),
        "broker_payment": format_number(outcome.broker_payment),
        "agent_utilities": {
            a: format_number(u) for a, u in sorted(outcome.agent_utilities.items())
        },
        "rejection_reason": outcome.rejection_reason.value
        if outcome.rejection_reason is not None
        else None,
    }
    if outcome.ir_violator is not None:
        payload["ir_violator"] = outcome.ir_violator
    return payload


def _witness_to_json(witness: DeviationWitness) -> dict:
    deviation: Any
    if isinstance(witness.deviation, Fraction):
        deviation = format_number(witness.deviation)
    elif isinstance(witness.deviation, CostFunction):
        deviation = cost_function_to_json(witness.deviation)
    elif isinstance(witness.deviation, Proposal):
        deviation = proposal_to_json(witness.deviation)
    else:
        raise MalformedInput(f"cannot serialize deviation {witness.deviation!r}")
    return {
        "agent": witness.agent,
        "kind": witness.kind,
        "deviation": deviation,
        "utility_before": format_number(witness.utility_before),
        "utility_after": format_number(witness.utility_after),
    }


def equilibrium_report_to_json(report: EquilibriumReport) -> dict:
    return {
        "is_pne": report.is_pne,
        "witnesses": [_witness_to_json(w) for w in report.witnesses],
        "checked_agent_deviations": report.checked_agent_deviations,
        "checked_broker_allocations": report.checked_broker_allocations,
    }


def truthfulness_report_to_json(report: TruthfulnessReport) -> dict:
    return {
        "holds": report.holds,
        "coverage": report.coverage,
        "profiles_checked": report.profiles_checked,
        "witnesses": [_witness_to_json(w) for w in report.witnesses],
        "pne": equilibrium_report_to_json(report.pne),
    }


def dynamics_step_to_json(broker: str, proposal: Proposal, utility: Fraction) -> dict:
    return {
        "broker": broker,
        "proposal": proposal_to_json(proposal),
        "utility": format_number(utility),
    }


def dynamics_summary_to_json(trace: DynamicsTrace) -> dict:
    return {
        "converged": trace.converged,
        "rounds": trace.rounds,
        "steps": len(trace.steps),
        "terminal": [proposal_to_json(p) for p in trace.terminal],
    }


def benchmark_result_to_json(result: BenchmarkResult) -> dict:
    witnesses = {}
    for name, witness in result.witnesses.items():
        entry: dict[str, Any] = {}
        if witness.allocation is not None:
            entry["allocation"] = allocation_to_json(witness.allocation)
        if witness.price is not None:
            entry["price"] = [format_number(p) for p in witness.price]
        if witness.willing is not None:
            entry["willing"] = sorted(witness.willing)
        witnesses[name] = entry
    return {
        "opt": format_number(result.opt),
        "inc": format_number(result.inc),
        "fee": format_number(result.fee),
        "fee_exact": result.fee_exact,
        "ora": format_number(result.ora),
        "hierarchy_ok": result.hierarchy_ok,
        "witnesses": witnesses,
    }
