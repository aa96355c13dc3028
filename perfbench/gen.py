"""Seeded scenario generators for the four benchmark workloads.

Everything here is plain Python over ``fractions.Fraction`` and never
imports brokerlab: the program under test receives only the scenario JSON
built here.  Sizes and constraint classes follow a fixed grid indexed by the
item's position in the pool, so every seed draws the same mix of instance
shapes and only the numbers vary; this is what keeps run-to-run spread low
across seeds.  Where a generator needs an allocation property (validity,
the welfare maximiser) it uses the small independent model below, which
also gives the output checks an answer computed without the library.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

ZERO = Fraction(0)
ONE = Fraction(1)

# Shapes whose raw assignment space (2^nodes)^txs exceeds this always carry
# SingleAssignment: 5 txs x 3 nodes unrestricted is 32768 leaves, about a
# second per enumeration, and a handful of such rounds would be the workload.
MAX_RAW_SPACE = 4096
MAX_DRAWS = 50


def num(x: Fraction):
    """Scenario JSON for an exact number: an int or a "p/q" string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac(rng: random.Random, lo: int = 0, hi: int = 10, dens=(1, 1, 2, 4)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


# ---------------------------------------------------------------------------
# Independent model of costs, validity and welfare
# ---------------------------------------------------------------------------


def cost_of(fn: dict, bundle) -> Fraction:
    """Cost of a bundle under a cost function given in scenario JSON form."""
    bundle = frozenset(bundle)
    kind = fn["type"]
    if kind == "Zero" or not bundle and kind != "SubsetTable":
        return ZERO
    if kind == "ConstantNonempty":
        return Fraction(fn["amount"])
    if kind == "PerTransaction":
        return sum((Fraction(fn["rates"].get(t, 0)) for t in bundle), ZERO)
    if kind == "SubsetTable":
        return Fraction(fn["table"][",".join(sorted(bundle))])
    raise ValueError(f"cost function {kind!r} is outside the generator's model")


def satisfies(assign: dict, constraints: list) -> bool:
    """Validity of a tx -> node-tuple assignment under JSON constraints."""
    for c in constraints:
        kind = c["type"]
        if kind == "SingleAssignment":
            if any(len(nodes) != 1 for nodes in assign.values()):
                return False
        elif kind == "MaxTxPerNode":
            if sum(1 for nodes in assign.values() if c["node"] in nodes) > c["limit"]:
                return False
        elif kind == "RequiredNodeCount":
            nodes = assign.get(c["tx"])
            if nodes and len(nodes) != c["exactly"]:
                return False
        elif kind == "MutualExclusion":
            first, second = c["txs"]
            if assign.get(first) and assign.get(second):
                return False
        elif kind == "MustShareNode":
            sets = [assign.get(t) for t in c["txs"]]
            if all(sets) and not set.intersection(*(set(s) for s in sets)):
                return False
        else:
            raise ValueError(f"constraint {kind!r} is outside the generator's model")
    return True


def welfare_of(assign: dict, values: dict, costs: dict) -> Fraction:
    total = sum((values[t] for t in assign), ZERO)
    for node, fn in costs.items():
        bundle = [t for t, nodes in assign.items() if node in nodes]
        if bundle:
            total -= cost_of(fn, bundle)
    return total


def canonical(assign: dict) -> tuple:
    """The library's canonical allocation order key: sorted (tx, nodes) pairs."""
    return tuple(sorted((t, tuple(sorted(nodes))) for t, nodes in assign.items() if nodes))


def valid_assignments(txs: list, nodes: list, constraints: list) -> list[dict]:
    """Every valid assignment, by brute force over per-transaction node sets."""
    subsets = [()] + [s for k in range(1, len(nodes) + 1) for s in combinations(nodes, k)]
    out = []
    for choice in product(subsets, repeat=len(txs)):
        assign = {t: s for t, s in zip(txs, choice) if s}
        if satisfies(assign, constraints):
            out.append(assign)
    return out


def welfare_max(txs, nodes, constraints, values, costs):
    """(assignment, welfare, unique) for the welfare maximiser, canonical tie-break."""
    best, best_w, ties = None, None, 0
    for assign in sorted(valid_assignments(txs, nodes, constraints), key=canonical):
        w = welfare_of(assign, values, costs)
        if best_w is None or w > best_w:
            best, best_w, ties = assign, w, 1
        elif w == best_w:
            ties += 1
    return best, best_w, ties == 1


# ---------------------------------------------------------------------------
# Market pieces
# ---------------------------------------------------------------------------


def random_cost(rng: random.Random, txs: list) -> dict:
    roll = rng.random()
    if roll < 0.3:
        return {"type": "Zero"}
    if roll < 0.65:
        return {"type": "ConstantNonempty", "amount": num(frac(rng, 0, 6))}
    if roll < 0.9 or len(txs) > 3:
        rates = {t: num(frac(rng, 0, 4)) for t in txs if rng.random() < 0.8}
        return {"type": "PerTransaction", "rates": rates}
    table = {}
    for k in range(len(txs) + 1):
        for combo in combinations(sorted(txs), k):
            table[",".join(combo)] = num(frac(rng, 0, 8)) if combo else 0
    return {"type": "SubsetTable", "transactions": sorted(txs), "table": table}


def grid_constraints(rng: random.Random, txs: list, nodes: list, cls: int, single: bool) -> list:
    """Constraint set of grid class ``cls``: which kinds appear (and the node
    limit) is fixed by the class, only the transactions and nodes they name
    are drawn.  The valid set's size, and so enumeration cost, then depends
    on the slot and not on the seed."""
    constraints = [{"type": "SingleAssignment"}] if single else []
    if cls % 5 in (0, 2):
        constraints.append({"type": "MaxTxPerNode", "node": rng.choice(nodes), "limit": 1 + cls // 5 % 2})
    if len(txs) >= 2 and cls % 4 == 1:
        constraints.append({"type": "MutualExclusion", "txs": rng.sample(txs, 2)})
    if len(nodes) >= 2 and cls % 7 == 3:
        constraints.append({"type": "RequiredNodeCount", "tx": rng.choice(txs), "exactly": 2})
    if not single and len(txs) >= 2 and cls % 3 == 2:
        constraints.append({"type": "MustShareNode", "txs": sorted(rng.sample(txs, 2))})
    return constraints


def market_payload(values: dict, costs: dict, constraints: list) -> dict:
    return {
        "kind": "market",
        "transactions": [{"id": t, "value": num(v)} for t, v in values.items()],
        "nodes": [{"id": n, "cost": fn} for n, fn in costs.items()],
        "validity": {"type": "constraints", "constraints": constraints},
    }


def random_market(rng, n_txs, n_nodes, cls):
    """A market of the given shape; SingleAssignment on 7 classes in 10."""
    txs = [f"t{i + 1}" for i in range(n_txs)]
    nodes = [f"n{j + 1}" for j in range(n_nodes)]
    values = {t: frac(rng) for t in txs}
    costs = {n: random_cost(rng, txs) for n in nodes}
    single = cls % 10 < 7 or (2 ** n_nodes) ** n_txs > MAX_RAW_SPACE
    return txs, nodes, values, costs, grid_constraints(rng, txs, nodes, cls, single), single


def routing_json(txs, nodes, assign, tx_pay: dict, node_pay: dict) -> dict:
    return {
        "allocation": {t: list(s) for t, s in sorted(assign.items())},
        "tx_payments": {t: num(tx_pay.get(t, ZERO)) for t in txs},
        "node_payments": {n: num(node_pay.get(n, ZERO)) for n in nodes},
    }


def bundle_costs(assign, nodes, costs) -> dict:
    return {n: cost_of(costs[n], [t for t, s in assign.items() if n in s]) for n in nodes}


def rebate_routing(txs, nodes, assign, values, costs, target: Fraction) -> dict:
    """Nodes paid their cost, included transactions' values scaled to the margin."""
    node_pay = bundle_costs(assign, nodes, costs)
    total_value = sum((values[t] for t in assign), ZERO)
    total_cost = sum(node_pay.values(), ZERO)
    scale = ZERO if total_value == 0 else (total_cost + target) / total_value
    return routing_json(txs, nodes, assign, {t: scale * values[t] for t in assign}, node_pay)


def extraction_routing(txs, nodes, assign, values, costs) -> dict:
    """Included transactions pay their full value, nodes are paid their cost."""
    return routing_json(
        txs, nodes, assign, {t: values[t] for t in assign}, bundle_costs(assign, nodes, costs)
    )


def random_assignment(rng, txs, nodes, constraints, single) -> dict:
    """A valid assignment found by a few random draws, else the empty one."""
    for _ in range(8):
        assign = {}
        for t in txs:
            if rng.random() < 0.35:
                continue
            k = 1 if single else rng.randint(1, len(nodes))
            assign[t] = tuple(sorted(rng.sample(nodes, k)))
        if satisfies(assign, constraints):
            return assign
    return {}


def random_routing(rng, txs, nodes, assign, values, costs) -> dict:
    mode = rng.random()
    if mode < 0.35:
        return extraction_routing(txs, nodes, assign, values, costs)
    w = welfare_of(assign, values, costs)
    if mode < 0.6 and w >= 0:
        return rebate_routing(txs, nodes, assign, values, costs, w * Fraction(rng.randint(0, 4), 4))
    tx_pay = {}
    for t in txs:
        if t in assign or rng.random() < 0.1:
            tx_pay[t] = Fraction(rng.randint(0, int((values[t] + 2) * 2)), 2)
    node_pay = {}
    for n, c in bundle_costs(assign, nodes, costs).items():
        node_pay[n] = Fraction(rng.randint(0, int(c * 2) + 4), 2)
    return routing_json(txs, nodes, assign, tx_pay, node_pay)


def random_proposals(rng, txs, nodes, values, costs, constraints, single, n_brokers):
    brokers = [f"b{i + 1}" for i in range(n_brokers)]
    proposals = []
    for b in brokers:
        assign = random_assignment(rng, txs, nodes, constraints, single)
        proposals.append({"broker": b, "routing": random_routing(rng, txs, nodes, assign, values, costs)})
    order = list(brokers)
    rng.shuffle(order)
    return proposals, order


def lying_reports(rng, txs, nodes, values, costs, prob: float):
    """Reports JSON plus the reported values and costs it stands for."""
    reports = {"transactions": {}, "nodes": {}}
    values, costs = dict(values), dict(costs)
    for t in txs:
        if rng.random() < prob:
            values[t] = frac(rng)
            reports["transactions"][t] = num(values[t])
    for n in nodes:
        if rng.random() < prob:
            costs[n] = reports["nodes"][n] = random_cost(rng, txs)
    return reports, values, costs


# ---------------------------------------------------------------------------
# Workloads: each returns a list of (kind, scenario payload, check data)
# ---------------------------------------------------------------------------


def rounds(seed: int, count: int) -> list:
    """Fresh acceptance-style rounds: 1-5 txs, 1-3 nodes, lying reports,
    0-3 random broker proposals, constraint class cycling every 15 slots."""
    rng = random.Random(f"rounds:{seed}")
    pool = []
    for i in range(count):
        txs, nodes, values, costs, constraints, single = random_market(
            rng, 1 + i % 5, 1 + i // 5 % 3, i // 15
        )
        payload = market_payload(values, costs, constraints)
        payload["reports"], values, costs = lying_reports(rng, txs, nodes, values, costs, 0.5)
        payload["proposals"], payload["broker_order"] = random_proposals(
            rng, txs, nodes, values, costs, constraints, single, i % 4
        )
        pool.append(("round", payload, {}))
    return pool


FIGURE1 = {
    "kind": "market",
    "transactions": [{"id": "t1", "value": 6}, {"id": "t2", "value": 4}],
    "nodes": [
        {"id": "n1", "cost": {"type": "ConstantNonempty", "amount": 1}},
        {"id": "n2", "cost": {"type": "ConstantNonempty", "amount": 1}},
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
}


def figure1(quantum: Fraction | None = None) -> dict:
    """The paper's figure-1 scenario as ``brokerlab gen figure1`` writes it: a
    zero-margin rebate on t1 over both nodes against max extraction on t2."""
    txs, nodes = ["t1", "t2"], ["n1", "n2"]
    values = {"t1": Fraction(6), "t2": Fraction(4)}
    costs = {n["id"]: n["cost"] for n in FIGURE1["nodes"]}
    payload = dict(FIGURE1)
    payload["proposals"] = [
        {"broker": "b1", "routing": rebate_routing(txs, nodes, {"t1": ("n1", "n2")}, values, costs, ZERO)},
        {"broker": "b2", "routing": extraction_routing(txs, nodes, {"t2": ("n1",)}, values, costs)},
    ]
    payload["broker_order"] = ["b1", "b2"]
    if quantum is not None:
        payload["quantum"] = num(quantum)
    return payload


def truthfulness(seed: int, count: int) -> list:
    """Figure 1 under pne, then alternately a consensus profile (2 txs x 2
    nodes, unique welfare maximiser) for dsic-barring-b and a random 2-3
    broker profile (2-3 txs x 1-2 nodes, lying reports) for pne.

    A dsic check's cost is set by how many agents the maximiser involves, so
    consensus slots are redrawn until it allocates both transactions, where
    the slot's constraints allow that within MAX_DRAWS draws; this keeps the
    workload's total work within a few percent across seeds."""
    rng = random.Random(f"truthfulness:{seed}")
    pool = [("pne", figure1(), {})]
    for i in range(count - 1):
        n_txs, cls = 2 + i // 2 % 2, i // 4
        if i % 2 == 0:
            draws = 0
            while True:
                draws += 1
                txs, nodes, values, costs, constraints, _ = random_market(rng, 2, 2, i // 2)
                best, _, unique = welfare_max(txs, nodes, constraints, values, costs)
                if unique and (len(best) == 2 or draws > MAX_DRAWS):
                    break
            payload = market_payload(values, costs, constraints)
            routing = rebate_routing(txs, nodes, best, values, costs, ZERO)
            payload["proposals"] = [{"broker": b, "routing": routing} for b in ("b1", "b2")]
            payload["broker_order"] = ["b1", "b2"]
            payload["others_cap"] = 4096
            pool.append(("dsic", payload, {}))
        else:
            txs, nodes, values, costs, constraints, single = random_market(
                rng, n_txs, 1 + cls % 2, cls // 2
            )
            payload = market_payload(values, costs, constraints)
            payload["reports"], values, costs = lying_reports(rng, txs, nodes, values, costs, 0.3)
            payload["proposals"], payload["broker_order"] = random_proposals(
                rng, txs, nodes, values, costs, constraints, single, 2 + cls % 2
            )
            pool.append(("pne", payload, {}))
    return pool


def dynamics(seed: int, count: int) -> list:
    """Figure 1, then two brokers at max extraction on the unique, positive
    welfare maximiser of a 3-tx x 2-node instance, quantum = welfare/16."""
    rng = random.Random(f"dynamics:{seed}")
    pool = [("dynamics", figure1(Fraction(4, 16)), {"allocation": (("t1", ("n1", "n2")),)})]
    for i in range(count - 1):
        while True:
            txs, nodes, values, costs, constraints, _ = random_market(rng, 3, 2, i)
            best, w, unique = welfare_max(txs, nodes, constraints, values, costs)
            if unique and w > 0:
                break
        payload = market_payload(values, costs, constraints)
        routing = extraction_routing(txs, nodes, best, values, costs)
        payload["proposals"] = [{"broker": b, "routing": routing} for b in ("b1", "b2")]
        payload["broker_order"] = ["b1", "b2"]
        payload["quantum"] = num(w / 16)
        payload["max_rounds"] = 24
        pool.append(("dynamics", payload, {"allocation": canonical(best)}))
    return pool


def fee_gap(k: int) -> dict:
    """``brokerlab gen thm-fee --k k``."""
    small = Fraction(1, 2 * (k - 1))
    txs = [{"id": f"t{i:02d}", "value": num(small), "resources": [1]} for i in range(1, k + 1)]
    txs.append({"id": f"t{k + 1:02d}", "value": "1/2", "resources": [1]})
    return {"kind": "resource_market", "dimensions": 1, "transactions": txs,
            "nodes": [{"id": "n", "capacity": [k]}]}


def inclusion_gap(d: int) -> dict:
    """``brokerlab gen thm-of --d d``."""
    txs = []
    for j in range(1, d):
        g = [0] * d
        g[j - 1] = g[d - 1] = 1
        txs.append({"id": f"t{j:02d}", "value": num(Fraction(2, d)), "resources": g})
    txs.append({"id": f"t{d:02d}", "value": 1, "resources": [1] * d})
    return {"kind": "resource_market", "dimensions": d, "transactions": txs,
            "nodes": [{"id": "n", "capacity": [1] * d}]}


def oracle_gap(k: int) -> dict:
    """``brokerlab gen thm-wo --k k`` (resource values 1..k, epsilon 1/2)."""
    txs, nodes = [], []
    unit_cost, value = ONE, Fraction(2)
    for j in range(k):
        if j > 0:
            unit_cost = value / j + Fraction(1, 2)
            value = unit_cost * (j + 1) + 1
        txs.append({"id": f"t{j + 1:02d}", "value": num(value), "resources": [j + 1]})
        nodes.append({"id": f"n{j + 1:02d}", "unit_costs": [num(unit_cost)], "capacity": [j + 1]})
    return {"kind": "resource_market", "dimensions": 1, "transactions": txs,
            "nodes": nodes, "single_assignment": True}


# random single-assignment markets: (dimensions, transactions, nodes) per
# slot.  A market's cost varies with its drawn numbers by a factor of ten or
# more; larger shapes (d=2 with 3-4 txs, d=3 with 3 txs, 4+ txs, 2 nodes with
# 5+ txs) reach 0.1-0.6 s, and a handful of those made the workload's rate
# and p90 swing from seed to seed.  Small shapes in large numbers keep the
# cell walk on d >= 2 and let the quantiles settle.
RANDOM_MARKET_SHAPES = [(1, 3, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)]


def random_resource_market(rng, d: int, n_txs: int, n_nodes: int, slot: int) -> dict:
    """Unit costs sit on 3 node slots in 5, so participation hyperplanes
    appear in the same share of markets for every seed."""
    txs = [
        {"id": f"t{i + 1}", "value": num(frac(rng, 1, 8, (1, 2))),
         "resources": [num(frac(rng, 1, 6, (2,))) for _ in range(d)]}
        for i in range(n_txs)
    ]
    nodes = []
    for j in range(n_nodes):
        node = {"id": f"n{j + 1}", "capacity": [num(frac(rng, 2, 8, (1, 2))) for _ in range(d)]}
        if (slot + j) % 5 < 3:
            node["unit_costs"] = [num(frac(rng, 0, 2, (1, 2))) for _ in range(d)]
        nodes.append(node)
    return {"kind": "resource_market", "dimensions": d, "transactions": txs,
            "nodes": nodes, "single_assignment": True}


def price_benchmarks(seed: int, count: int) -> list:
    """The gap constructions (thm-fee k=6..12, thm-of d=3..8, thm-wo k=2..4),
    interleaved by size so any prefix holds the cheap ones of each kind,
    then random single-assignment linear-cost markets (d=1-3, 1-2 nodes)
    of the shapes in RANDOM_MARKET_SHAPES."""
    rng = random.Random(f"price-benchmarks:{seed}")
    pool = []
    for step in range(7):
        pool.append(("benchmarks", fee_gap(6 + step), {"thm": "fee", "k": 6 + step}))
        if step < 6:
            pool.append(("benchmarks", inclusion_gap(3 + step), {"thm": "of", "d": 3 + step}))
        if step < 3:
            pool.append(("benchmarks", oracle_gap(2 + step), {"thm": "wo", "k": 2 + step}))
    for i in range(max(0, count - len(pool))):
        d, n_txs, n_nodes = RANDOM_MARKET_SHAPES[i % len(RANDOM_MARKET_SHAPES)]
        pool.append(("benchmarks", random_resource_market(rng, d, n_txs, n_nodes, i // 6), {}))
    return pool[:count]


WORKLOADS = {
    "rounds": rounds,
    "truthfulness": truthfulness,
    "dynamics": dynamics,
    "price-benchmarks": price_benchmarks,
}
