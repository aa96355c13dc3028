"""One benchmark op per scenario kind: parse, call the library, check, serialize.

Every library function is looked up on its module at call time, so the
tracer's wrappers are seen when tracing is on.  An op returns the canonical
report text (what the digest covers) and None, or a failure reason.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _margin(routing) -> Fraction:
    return sum(routing.tx_payments.values(), Fraction(0)) - sum(
        routing.node_payments.values(), Fraction(0)
    )


def op_round(lib, payload, meta):
    """``brokerlab run`` after enumerating the round's valid set."""
    sc = lib.scenario.parse_scenario(payload)
    inst = sc.instance
    valid = lib.validity.enumerate_valid(inst, inst.validity, sc.enum_cap)
    outcome = lib.mechanism.run(inst, inst.validity, sc.reports, sc.proposals, sc.broker_order)
    text = _canonical([lib.scenario.outcome_to_json(outcome), len(valid)])
    if outcome.winner is not None:
        if outcome.broker_payment < 0:
            return text, "winning round has a negative margin"
        if any(u < 0 for u in outcome.agent_utilities.values()):
            return text, "winning round has a negative reported utility"
        if outcome.routing.allocation not in set(valid):
            return text, "winning allocation is outside the enumerated valid set"
    elif outcome.rejection_reason is None:
        return text, "rejection names no reason"
    return text, None


def op_dsic(lib, payload, meta):
    """``brokerlab equilibrium --mode dsic-barring-b`` on a consensus profile."""
    sc = lib.scenario.parse_scenario(payload)
    inst = sc.instance
    report = lib.equilibrium.check_dsic_barring_b(
        inst,
        inst.validity,
        inst.truthful_reports(),
        sc.proposals,
        sc.broker_order,
        others_cap=sc.others_cap,
        seed=sc.seed,
        quantum=sc.quantum,
        cap=sc.enum_cap,
    )
    text = _canonical(lib.scenario.truthfulness_report_to_json(report))
    if not (report.holds and report.pne.is_pne):
        return text, "consensus profile is not a truthful equilibrium"
    if report.coverage != "exhaustive":
        return text, f"coverage is {report.coverage}"
    return text, None


def op_pne(lib, payload, meta):
    """``brokerlab equilibrium --mode pne`` on an arbitrary action profile."""
    sc = lib.scenario.parse_scenario(payload)
    inst = sc.instance
    report = lib.equilibrium.check_pne(
        inst,
        inst.validity,
        inst.truthful_reports(),
        sc.reports,
        sc.proposals,
        sc.broker_order,
        quantum=sc.quantum,
        cap=sc.enum_cap,
    )
    text = _canonical(lib.scenario.equilibrium_report_to_json(report))
    if report.is_pne != (not report.witnesses):
        return text, "is_pne disagrees with the witness list"
    if any(w.utility_after <= w.utility_before for w in report.witnesses):
        return text, "a witness does not improve its agent's utility"
    return text, None


def op_dynamics(lib, payload, meta):
    """``brokerlab dynamics``; the welfare maximiser is cross-checked against
    the generator's independent brute force."""
    sc = lib.scenario.parse_scenario(payload)
    inst = sc.instance
    trace = lib.strategy.best_response_dynamics(
        inst,
        inst.validity,
        sc.reports,
        sc.proposals,
        sc.broker_order,
        sc.quantum,
        sc.max_rounds,
        cap=sc.enum_cap,
    )
    steps = [lib.scenario.dynamics_step_to_json(s.broker, s.proposal, s.utility) for s in trace.steps]
    text = _canonical([steps, lib.scenario.dynamics_summary_to_json(trace)])
    if not trace.converged:
        return text, "dynamics did not converge"
    best = lib.strategy.welfare_max_allocation(inst, inst.validity, sc.reports, sc.enum_cap)
    if best.allocation.pairs != meta["allocation"]:
        return text, "welfare maximiser disagrees with the brute-force model"
    if not any(
        0 <= _margin(p.routing) <= sc.quantum and p.routing.allocation == best.allocation
        for p in trace.terminal
    ):
        return text, "no terminal proposal on the maximiser with margin <= quantum"
    return text, None


def op_benchmarks(lib, payload, meta):
    """``brokerlab benchmarks``: OPT / INC / FEE / ORA of a resource market."""
    sc = lib.scenario.parse_scenario(payload)
    result = lib.mdfm.run_benchmarks(sc.market)
    text = _canonical(lib.scenario.benchmark_result_to_json(result))
    if not result.inc <= result.ora <= result.opt:
        return text, "INC <= ORA <= OPT fails"
    if result.fee_exact and not result.inc <= result.fee <= result.ora:
        return text, "INC <= FEE <= ORA fails"
    thm, k = meta.get("thm"), meta.get("k")
    if thm == "fee" and result.fee != Fraction(k, 2 * (k - 1)):
        return text, f"thm-fee k={k}: FEE is {result.fee}, not k/(2(k-1))"
    if thm == "wo" and (result.opt != k or result.ora != 1):
        return text, f"thm-wo k={k}: OPT={result.opt}, ORA={result.ora}"
    return text, None


OPS = {
    "round": op_round,
    "dsic": op_dsic,
    "pne": op_pne,
    "dynamics": op_dynamics,
    "benchmarks": op_benchmarks,
}


def run_op(lib, item):
    """(canonical text, failure reason or None); a raised error is a failure."""
    kind, payload, meta = item
    try:
        return OPS[kind](lib, payload, meta)
    except Exception as exc:  # a refusal or crash is a failed op, never a stopped run
        return _canonical({"error": type(exc).__name__}), f"{type(exc).__name__}: {exc}"
