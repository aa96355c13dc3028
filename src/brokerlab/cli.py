"""Command-line interface.

Commands: ``run`` (one auction round), ``equilibrium`` (PNE or
truthfulness-barring-brokers checks), ``dynamics`` (best-response
undercutting, one JSON line per step), ``benchmarks`` (OPT/INC/FEE/ORA on a
resource market), ``gen`` (write a named worst-case scenario file).

Exit codes: 0 success; 2 when the auction legitimately outputs the empty
routing (so harnesses can assert on rejections); 1 for malformed input,
usage errors or operational errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .equilibrium import check_dsic_barring_b, check_pne
from .errors import MalformedInput, MarketError
from .mdfm import (
    collusion_example_instance,
    fee_gap_market,
    inclusion_gap_market,
    oracle_gap_market,
    run_benchmarks,
)
from .mechanism import run as run_mechanism
from .rationals import parse_number
from .scenario import (
    Scenario,
    benchmark_result_to_json,
    dynamics_step_to_json,
    dynamics_summary_to_json,
    equilibrium_report_to_json,
    instance_to_scenario_json,
    outcome_to_json,
    parse_scenario,
    resource_market_to_scenario_json,
    truthfulness_report_to_json,
)
from .strategy import best_response_dynamics


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise MarketError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MarketError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal over Python's digit limit
        raise MarketError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(payload)


def _emit(payload: dict, output: str) -> None:
    if output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows((key, str(value)) for key, value in _flatten(payload))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _flatten(payload, prefix: str = ""):
    if isinstance(payload, dict):
        num, den = payload.get("num"), payload.get("den")
        if len(payload) == 2 and isinstance(num, int) and isinstance(den, int):
            # ``format_number``'s non-integer: one cell, which parse_number reads back
            yield prefix[:-1], f"{num}/{den}"
            return
        for key in sorted(payload):
            yield from _flatten(payload[key], f"{prefix}{key}.")
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            yield from _flatten(value, f"{prefix}{i}.")
    else:
        yield prefix[:-1], payload


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> None:
    """Apply ``--quantum`` and ``--enum-cap``, the flags of the commands that
    search the valid set."""
    if args.quantum is not None:
        scenario.quantum = parse_number(args.quantum, "--quantum")
        if scenario.quantum <= 0:
            raise MalformedInput(f"--quantum: must be positive, got {scenario.quantum}")
    if args.enum_cap is not None:
        if args.enum_cap < 1:
            raise MalformedInput(f"--enum-cap: must be at least 1, got {args.enum_cap}")
        scenario.enum_cap = args.enum_cap


def _require_market(scenario: Scenario) -> None:
    if scenario.kind != "market" or scenario.instance is None:
        raise MarketError("this command needs a scenario of kind 'market'")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    _require_market(scenario)
    assert scenario.instance is not None
    outcome = run_mechanism(
        scenario.instance,
        scenario.instance.validity,
        scenario.reports,
        scenario.proposals,
        scenario.broker_order,
    )
    _emit(outcome_to_json(outcome), args.output)
    return 0 if outcome.winner is not None else 2


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    _apply_overrides(scenario, args)
    _require_market(scenario)
    assert scenario.instance is not None
    instance = scenario.instance
    true_types = instance.truthful_reports()
    if args.mode == "pne":
        report = check_pne(
            instance,
            instance.validity,
            true_types,
            scenario.reports,
            scenario.proposals,
            scenario.broker_order,
            quantum=scenario.quantum,
            cap=scenario.enum_cap,
        )
        _emit(equilibrium_report_to_json(report), args.output)
    else:
        report = check_dsic_barring_b(
            instance,
            instance.validity,
            true_types,
            scenario.proposals,
            scenario.broker_order,
            others_cap=scenario.others_cap,
            seed=scenario.seed,
            quantum=scenario.quantum,
            cap=scenario.enum_cap,
        )
        _emit(truthfulness_report_to_json(report), args.output)
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    _apply_overrides(scenario, args)
    _require_market(scenario)
    assert scenario.instance is not None
    trace = best_response_dynamics(
        scenario.instance,
        scenario.instance.validity,
        scenario.reports,
        scenario.proposals,
        scenario.broker_order,
        scenario.quantum,
        scenario.max_rounds,
        cap=scenario.enum_cap,
    )
    for step in trace.steps:
        print(json.dumps(dynamics_step_to_json(step.broker, step.proposal, step.utility), sort_keys=True))
    print(json.dumps(dynamics_summary_to_json(trace), sort_keys=True))
    return 0


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario.kind != "resource_market" or scenario.market is None:
        raise MarketError("this command needs a scenario of kind 'resource_market'")
    result = run_benchmarks(scenario.market, cap=scenario.enum_cap)
    _emit(benchmark_result_to_json(result), args.output)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    # the parameters each generator reads; it refuses any other one given
    reads = {"thm-of": ("d",), "thm-fee": ("k",), "thm-wo": ("k", "values", "epsilon")}
    for flag in ("d", "k", "values", "epsilon"):
        if getattr(args, flag) is not None and flag not in reads.get(args.name, ()):
            raise MarketError(f"gen {args.name} does not read --{flag}")
    if args.name == "thm-of":
        if args.d is None:
            raise MarketError("gen thm-of needs --d")
        payload = resource_market_to_scenario_json(inclusion_gap_market(args.d))
    elif args.name == "thm-fee":
        if args.k is None:
            raise MarketError("gen thm-fee needs --k")
        payload = resource_market_to_scenario_json(fee_gap_market(args.k))
    elif args.name == "thm-wo":
        if args.k is None:
            raise MarketError("gen thm-wo needs --k")
        if args.values is not None:
            values = [parse_number(v, "--values") for v in args.values.split(",")]
        else:
            values = [Fraction(i + 1) for i in range(args.k)]
        epsilon = parse_number(args.epsilon, "--epsilon") if args.epsilon is not None else Fraction(1, 2)
        payload = resource_market_to_scenario_json(oracle_gap_market(args.k, values, epsilon))
    elif args.name == "figure1":
        instance = collusion_example_instance()
        proposals = _figure1_proposals(instance)
        payload = instance_to_scenario_json(instance, proposals, ["b1", "b2"])
    else:  # pragma: no cover - argparse restricts choices
        raise MarketError(f"unknown generator {args.name!r}")

    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out is None:
        print(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise MarketError(f"cannot write {args.out}: {exc}") from exc
    return 0


def _figure1_proposals(instance) -> list:
    """The two demonstration proposals: a zero-margin rebate on the two-node
    allocation against a margin-extracting rival on the one-node allocation."""
    from .core import Allocation
    from .mechanism import Proposal
    from .strategy import max_extraction_routing, scaled_rebate_routing

    truthful = instance.truthful_reports()
    both = Allocation.of({"t1": ["n1", "n2"]})
    single = Allocation.of({"t2": ["n1"]})
    return [
        Proposal("b1", scaled_rebate_routing(instance, both, truthful, Fraction(0))),
        Proposal("b2", max_extraction_routing(instance, single, truthful)),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brokerlab",
        description="Exact laboratory for broker-auction fee mechanisms",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output", choices=["json", "csv"], default="json", help="report format"
    )
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--quantum", help="margin lattice step, e.g. 1/1024")
    search.add_argument("--enum-cap", type=int, dest="enum_cap", help="enumeration size cap")

    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[output], help="execute one auction round")
    p_run.add_argument("scenario")
    p_run.set_defaults(func=_cmd_run)

    p_eq = sub.add_parser(
        "equilibrium", parents=[search, output], help="check an action profile"
    )
    p_eq.add_argument("scenario")
    p_eq.add_argument("--mode", choices=["pne", "dsic-barring-b"], default="pne")
    p_eq.set_defaults(func=_cmd_equilibrium)

    p_dyn = sub.add_parser("dynamics", parents=[search], help="run best-response dynamics")
    p_dyn.add_argument("scenario")
    p_dyn.set_defaults(func=_cmd_dynamics)

    p_bench = sub.add_parser("benchmarks", parents=[output], help="compute OPT/INC/FEE/ORA")
    p_bench.add_argument("scenario")
    p_bench.set_defaults(func=_cmd_benchmarks)

    p_gen = sub.add_parser("gen", help="write a named scenario")
    p_gen.add_argument("name", choices=["thm-of", "thm-fee", "thm-wo", "figure1"])
    p_gen.add_argument("--d", type=int, help="dimension count for thm-of")
    p_gen.add_argument("--k", type=int, help="size parameter for thm-fee / thm-wo")
    p_gen.add_argument("--values", help="comma-separated resource values for thm-wo")
    p_gen.add_argument("--epsilon", help="cost gap for thm-wo (default 1/2)")
    p_gen.add_argument("--out", help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a rejected round
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except MarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
