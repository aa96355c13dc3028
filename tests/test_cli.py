import csv
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from brokerlab.cli import main
from brokerlab.mdfm import fee_gap_market, inclusion_gap_market
from brokerlab.rationals import parse_number
from brokerlab.scenario import parse_scenario


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def fig1_path(tmp_path):
    code = main(["gen", "figure1", "--out", str(tmp_path / "fig1.json")])
    assert code == 0
    return str(tmp_path / "fig1.json")


class TestRun:
    def test_winning_round_exits_zero(self, fig1_path, capsys):
        assert main(["run", fig1_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["winner"] == "b1"
        assert payload["broker_payment"] == "0"
        assert payload["rejection_reason"] is None
        assert payload["routing"]["allocation"] == {"t1": ["n1", "n2"]}

    def test_rejection_exits_two(self, tmp_path, capsys):
        payload = {
            "kind": "market",
            "transactions": [{"id": "t1", "value": "4"}],
            "nodes": [{"id": "n1", "cost": {"type": "Zero"}}],
            "validity": {"type": "constraints", "constraints": []},
            "proposals": [
                {
                    "broker": "b1",
                    "routing": {
                        "allocation": {"t1": ["n1"]},
                        "tx_payments": {"t1": "5"},
                        "node_payments": {},
                    },
                }
            ],
        }
        path = write(tmp_path, "reject.json", payload)
        assert main(["run", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["rejection_reason"] == "ir_violation"
        assert out["ir_violator"] == "t1"

    def test_malformed_number_exits_one(self, tmp_path, capsys):
        payload = {
            "kind": "market",
            "transactions": [{"id": "t1", "value": "1.0.0"}],
            "nodes": [{"id": "n1", "cost": {"type": "Zero"}}],
        }
        path = write(tmp_path, "bad.json", payload)
        assert main(["run", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_comma_in_a_transaction_id_exits_one(self, tmp_path, capsys):
        payload = {
            "kind": "market",
            "transactions": [{"id": "a,b", "value": "1"}],
            "nodes": [{"id": "n1", "cost": {"type": "Zero"}}],
        }
        path = write(tmp_path, "comma.json", payload)
        assert main(["run", path]) == 1
        assert "transaction id 'a,b'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ['"1e999999999"', "1" * 4301], ids=["huge-exponent", "long-integer"]
    )
    def test_oversized_numbers_exit_one(self, tmp_path, capsys, value):
        # a huge exponent is refused before it is expanded; an integer literal
        # past Python's digit limit is refused by the JSON reader
        path = tmp_path / "huge.json"
        path.write_text(
            '{"kind": "market", "transactions": [{"id": "t1", "value": %s}], '
            '"nodes": [{"id": "n1", "cost": {"type": "Zero"}}]}' % value
        )
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4300" in err and "Traceback" not in err

    def test_capacitated_market_settles(self, tmp_path, capsys):
        from brokerlab.scenario import instance_to_scenario_json
        from helpers import CAPACITATED_PROPOSAL, capacitated_instance

        payload = instance_to_scenario_json(capacitated_instance(), [CAPACITATED_PROPOSAL], ["b1"])
        assert main(["run", write(tmp_path, "capacitated.json", payload)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["winner"] == "b1"
        assert out["routing"]["allocation"] == {"t1": ["n2"], "t2": ["n1"]}

    @pytest.mark.parametrize(
        "command, brokers",
        [("run", 2), ("run", 1), ("equilibrium", 2), ("dynamics", 2)],
        ids=["run", "run-b1-only", "equilibrium", "dynamics"],
    )
    def test_node_report_table_over_other_transactions_exits_one(
        self, tmp_path, fig1_path, capsys, command, brokers
    ):
        payload = json.loads(open(fig1_path).read())
        payload["proposals"] = payload["proposals"][:brokers]
        payload["broker_order"] = payload["broker_order"][:brokers]
        payload["reports"] = {
            "nodes": {
                "n1": {"type": "SubsetTable", "transactions": ["t1"], "table": {"": "0", "t1": "1"}}
            }
        }
        assert main([command, write(tmp_path, "table.json", payload)]) == 1
        assert capsys.readouterr().err.startswith("error: reports.nodes[n1]: SubsetTable")

    @pytest.mark.parametrize(
        "command, capacity_first",
        [("run", True), ("run", False), ("dynamics", False)],
        ids=["run-capacity-first", "run-limit-first", "dynamics-limit-first"],
    )
    def test_a_missing_vector_is_refused_in_either_order(
        self, tmp_path, capsys, command, capacity_first
    ):
        # t1 has no resources and n1 declares a capacity; MaxTxPerNode(n1, 0)
        # alone would reject b1's proposal
        constraints = [{"type": "NodeCapacity"}, {"type": "MaxTxPerNode", "node": "n1", "limit": 0}]
        payload = {
            "kind": "market",
            "transactions": [{"id": "t1", "value": "4"}],
            "nodes": [{"id": "n1", "cost": {"type": "Zero"}, "capacity": ["1"]}],
            "validity": {
                "type": "constraints",
                "constraints": constraints if capacity_first else constraints[::-1],
            },
            "proposals": [
                {"broker": broker, "routing": {"allocation": allocation, "tx_payments": {"t1": "0"}}}
                for broker, allocation in (("b1", {"t1": ["n1"]}), ("b2", {}))
            ],
        }
        assert main([command, write(tmp_path, "vectors.json", payload)]) == 1
        assert capsys.readouterr().err == (
            "error: transaction 't1' has no resource vector for capacity checks\n"
        )

    @pytest.mark.parametrize("command", ["run", "dynamics", "equilibrium"])
    def test_extensional_set_naming_unknown_ids_exits_one(self, tmp_path, capsys, command):
        payload = {
            "kind": "market",
            "transactions": [{"id": "t1", "value": "4"}],
            "nodes": [{"id": "n1", "cost": {"type": "Zero"}}],
            "validity": {"type": "extensional", "allocations": [{"t1": ["n1"]}, {"t1": ["n9"]}]},
            "proposals": [
                {"broker": broker, "routing": {"allocation": {}, "tx_payments": {"t1": "0"}}}
                for broker in ("b1", "b2")
            ],
        }
        assert main([command, write(tmp_path, "extensional.json", payload)]) == 1
        assert capsys.readouterr().err == "error: allocation references unknown ids ['n9']\n"

    def test_missing_file_exits_one(self, capsys):
        assert main(["run", "/nonexistent/path.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_output(self, fig1_path, capsys):
        assert main(["run", fig1_path, "--output", "csv"]) == 0
        out = capsys.readouterr().out
        assert "winner,b1" in out

    def test_enumeration_cap_surfaces_as_error(self, fig1_path, capsys):
        assert main(["equilibrium", fig1_path, "--enum-cap", "2"]) == 1
        assert "exceeds cap" in capsys.readouterr().err


class TestUsage:
    def test_usage_errors_exit_one(self, fig1_path, capsys):
        # 2 is the exit code of a rejected round, never of a usage error
        assert main(["run", fig1_path, "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main([]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "SCENARIO", "--quantum", "1/4"],
            ["run", "SCENARIO", "--enum-cap", "9"],
            ["run", "SCENARIO", "--seed", "1"],
            ["equilibrium", "SCENARIO", "--seed", "1"],
            ["dynamics", "SCENARIO", "--seed", "1"],
            ["dynamics", "SCENARIO", "--output", "csv"],
            ["gen", "figure1", "--quantum", "1/4"],
            ["gen", "figure1", "--enum-cap", "9"],
            ["gen", "figure1", "--seed", "1"],
            ["gen", "figure1", "--output", "csv"],
        ],
    )
    def test_flags_a_command_does_not_read_are_refused(self, fig1_path, capsys, argv):
        assert main([fig1_path if a == "SCENARIO" else a for a in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["equilibrium", "dynamics"])
    @pytest.mark.parametrize("quantum", ["0", "-1"])
    def test_a_quantum_that_is_not_positive_is_refused(self, fig1_path, capsys, command, quantum):
        # without proposals no broker's best response reads the quantum, so
        # only the flag's own check can refuse it
        with open(fig1_path, encoding="utf-8") as f:
            payload = json.load(f)
        del payload["proposals"], payload["broker_order"]
        path = write(Path(fig1_path).parent, "bare.json", payload)
        assert main([command, path, "--quantum", quantum]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--quantum: must be positive, got {quantum}" in captured.err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_enum_cap_below_one_is_refused(self, fig1_path, capsys, cap):
        assert main(["equilibrium", fig1_path, "--enum-cap", cap]) == 1
        assert "--enum-cap: must be at least 1" in capsys.readouterr().err


class TestEquilibrium:
    def test_consensus_scenario_is_pne(self, tmp_path, capsys):
        from brokerlab.equilibrium import construct_consensus_equilibrium
        from brokerlab.mdfm import collusion_example_instance
        from brokerlab.scenario import instance_to_scenario_json

        instance = collusion_example_instance()
        sigma = construct_consensus_equilibrium(
            instance, instance.validity, instance.truthful_reports(), ["b1", "b2"]
        )
        payload = instance_to_scenario_json(instance, sigma, ["b1", "b2"])
        payload["quantum"] = "1/4"
        path = write(tmp_path, "consensus.json", payload)
        assert main(["equilibrium", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_pne"] is True
        assert main(["equilibrium", path, "--mode", "dsic-barring-b"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert report["coverage"] == "exhaustive"

    def test_positive_margin_profile_yields_witness(self, fig1_path, capsys):
        # figure1's generated b2 proposal extracts margin 3, so b1 can undercut
        assert main(["equilibrium", fig1_path, "--quantum", "1/4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_pne"] is False
        assert report["witnesses"]

    def test_csv_rows_keep_subset_table_keys(self, tmp_path, capsys):
        # node deviations report SubsetTable costs keyed "t1,t2" and "" (the
        # empty bundle); each must stay one key of a two-field row
        from brokerlab.core import Allocation, Routing
        from brokerlab.mdfm import collusion_example_instance
        from brokerlab.mechanism import Proposal
        from brokerlab.scenario import instance_to_scenario_json
        from brokerlab.strategy import scaled_rebate_routing

        instance = collusion_example_instance()
        truthful = instance.truthful_reports()
        both = Allocation.of({"t1": ["n1", "n2"]})
        single = Routing(Allocation.of({"t2": ["n1"]}), {"t2": F(3)}, {"n1": F(3)})
        proposals = [
            Proposal("b1", scaled_rebate_routing(instance, both, truthful, F(0))),
            Proposal("b2", single),
        ]
        payload = instance_to_scenario_json(instance, proposals, ["b1", "b2"])
        path = write(tmp_path, "tables.json", payload)
        assert main(["equilibrium", path, "--quantum", "1/4", "--output", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(len(row) == 2 for row in rows)
        keys = dict(rows)
        assert keys["witnesses.1.deviation.table.t1,t2"] == "1"
        assert keys["witnesses.1.deviation.table."] == "0"
        assert "witnesses.1.deviation.table" not in keys

    def test_small_others_cap_without_seed_is_exhaustive(self, tmp_path, capsys):
        from brokerlab.equilibrium import construct_consensus_equilibrium
        from brokerlab.mdfm import collusion_example_instance
        from brokerlab.scenario import instance_to_scenario_json

        instance = collusion_example_instance()
        sigma = construct_consensus_equilibrium(
            instance, instance.validity, instance.truthful_reports(), ["b1", "b2"]
        )
        payload = instance_to_scenario_json(instance, sigma, ["b1", "b2"])
        payload["others_cap"] = 2
        path = write(tmp_path, "smallcap.json", payload)
        assert main(["equilibrium", path, "--mode", "dsic-barring-b"]) == 0
        assert json.loads(capsys.readouterr().out)["coverage"] == "exhaustive"


class TestDynamics:
    def test_streams_steps_and_summary(self, tmp_path, capsys):
        from brokerlab.core import Allocation
        from brokerlab.mdfm import collusion_example_instance
        from brokerlab.mechanism import Proposal
        from brokerlab.scenario import instance_to_scenario_json
        from brokerlab.strategy import max_extraction_routing

        instance = collusion_example_instance()
        truthful = instance.truthful_reports()
        allocation = Allocation.of({"t1": ["n1", "n2"]})
        start = [
            Proposal("b1", max_extraction_routing(instance, allocation, truthful)),
            Proposal("b2", max_extraction_routing(instance, allocation, truthful)),
        ]
        payload = instance_to_scenario_json(instance, start, ["b1", "b2"])
        payload["quantum"] = "1/4"
        path = write(tmp_path, "dyn.json", payload)
        assert main(["dynamics", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["converged"] is True
        assert len(lines) - 1 == summary["steps"]
        first = json.loads(lines[0])
        assert {"broker", "proposal", "utility"} <= set(first)

    def test_no_state_leaks_between_runs_in_one_process(self, tmp_path, fig1_path, capsys):
        # figure 1's ids with other values: a result remembered by anything
        # but the parsed market itself would leak into the third run
        payload = json.loads(open(fig1_path).read())
        for tx in payload["transactions"]:
            tx["value"] = str(2 * int(tx["value"]) + 1)
        other = write(tmp_path, "other.json", payload)
        outputs = []
        for path in (fig1_path, other, fig1_path):
            assert main(["dynamics", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[2]
        assert outputs[1] != outputs[0]

    def test_max_rounds_below_one_exits_one(self, tmp_path, fig1_path, capsys):
        payload = json.loads(open(fig1_path).read())
        payload["max_rounds"] = -2
        assert main(["dynamics", write(tmp_path, "dyn.json", payload)]) == 1
        assert "max_rounds: must be at least 1" in capsys.readouterr().err


class TestBenchmarks:
    """Whole reports, witnesses included, so that a change to any value or
    witness of the gap constructions shows."""

    def test_inclusion_gap_via_gen(self, tmp_path, capsys):
        assert main(["gen", "thm-of", "--d", "4", "--out", str(tmp_path / "of.json")]) == 0
        assert main(["benchmarks", str(tmp_path / "of.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "fee": "1",
            "fee_exact": False,
            "hierarchy_ok": None,
            "inc": {"den": 2, "num": 1},
            "opt": "1",
            "ora": "1",
            "witnesses": {
                "fee": {"price": ["0", "0", "1", "0"], "willing": ["t01", "t02", "t04"]},
                "inc": {
                    "allocation": {"t01": ["n"]},
                    "price": ["0", "0", "0", "0"],
                    "willing": ["t01", "t02", "t03", "t04"],
                },
                "opt": {"allocation": {"t04": ["n"]}},
                "ora": {"allocation": {"t04": ["n"]}, "price": ["0", "0", "0", "0"]},
            },
        }

    def test_fee_gap_via_gen(self, tmp_path, capsys):
        assert main(["gen", "thm-fee", "--k", "3", "--out", str(tmp_path / "fee.json")]) == 0
        assert main(["benchmarks", str(tmp_path / "fee.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "fee": {"den": 4, "num": 3},
            "fee_exact": True,
            "hierarchy_ok": True,
            "inc": {"den": 4, "num": 3},
            "opt": "1",
            "ora": "1",
            "witnesses": {
                "fee": {
                    "price": [{"den": 4, "num": 1}],
                    "willing": ["t01", "t02", "t03", "t04"],
                },
                "inc": {
                    "allocation": {"t01": ["n"], "t02": ["n"], "t03": ["n"]},
                    "price": ["0"],
                    "willing": ["t01", "t02", "t03", "t04"],
                },
                "opt": {"allocation": {"t01": ["n"], "t02": ["n"], "t04": ["n"]}},
                "ora": {
                    "allocation": {"t01": ["n"], "t02": ["n"], "t04": ["n"]},
                    "price": ["0"],
                },
            },
        }

    def test_csv_writes_a_rational_as_one_cell(self, tmp_path, capsys):
        path = str(tmp_path / "fee.json")
        assert main(["gen", "thm-fee", "--k", "3", "--out", path]) == 0
        assert main(["benchmarks", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["benchmarks", path, "--output", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(len(row) == 2 for row in rows)
        cells = dict(rows)
        assert (cells["fee"], cells["inc"], cells["witnesses.fee.price.0"]) == ("3/4", "3/4", "1/4")
        assert not [key for key in cells if key.endswith((".num", ".den"))]
        # each cell reads back to the number the JSON report holds
        assert parse_number(cells["fee"]) == parse_number(report["fee"]) == F(3, 4)
        price = report["witnesses"]["fee"]["price"][0]
        assert parse_number(cells["witnesses.fee.price.0"]) == parse_number(price)

    def test_oracle_gap_via_gen(self, tmp_path, capsys):
        out = str(tmp_path / "wo.json")
        assert main(["gen", "thm-wo", "--k", "3", "--values", "1,2,3", "--epsilon", "1/2", "--out", out]) == 0
        assert main(["benchmarks", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "fee": "1",
            "fee_exact": True,
            "hierarchy_ok": True,
            "inc": "1",
            "opt": "3",
            "ora": "1",
            "witnesses": {
                "fee": {"price": ["1"], "willing": ["t01", "t02", "t03"]},
                "inc": {
                    "allocation": {"t01": ["n01"]},
                    "price": ["1"],
                    "willing": ["t01", "t02", "t03"],
                },
                "opt": {"allocation": {"t01": ["n01"], "t02": ["n02"], "t03": ["n03"]}},
                "ora": {"allocation": {"t01": ["n01"]}, "price": ["1"]},
            },
        }

    def test_multi_node_market_exits_one(self, tmp_path, capsys):
        payload = {
            "kind": "resource_market",
            "dimensions": 1,
            "transactions": [{"id": "t1", "value": "5", "resources": ["1"]}],
            "nodes": [{"id": "a", "capacity": ["2"]}, {"id": "b", "capacity": ["2"]}],
        }
        assert main(["benchmarks", write(tmp_path, "two.json", payload)]) == 1
        assert "'t1'" in capsys.readouterr().err
        payload["single_assignment"] = True
        assert main(["benchmarks", write(tmp_path, "one.json", payload)]) == 0
        capsys.readouterr()

    def test_scenario_enum_cap_is_honoured(self, tmp_path, capsys):
        # thm-wo k = 5: 261 valid allocations in a space of (1 + 5)^5 leaves
        path = tmp_path / "wo.json"
        assert main(["gen", "thm-wo", "--k", "5", "--out", str(path)]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert main(["benchmarks", str(path)]) == 0
        uncapped = capsys.readouterr().out
        assert json.loads(uncapped)["opt"] == "5"
        for cap in (1, 6**5 - 1):
            payload["enum_cap"] = cap
            assert main(["benchmarks", write(tmp_path, f"cap{cap}.json", payload)]) == 1
            assert f"exceeds cap {cap}" in capsys.readouterr().err
        payload["enum_cap"] = 6**5
        assert main(["benchmarks", write(tmp_path, "fits.json", payload)]) == 0
        assert capsys.readouterr().out == uncapped

    def test_wrong_kind_errors(self, fig1_path, capsys):
        assert main(["benchmarks", fig1_path]) == 1
        assert "resource_market" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--enum-cap", "2"], ["--quantum", "1/4"], ["--seed", "1"]])
    def test_flags_benchmarks_does_not_read_are_refused(self, tmp_path, capsys, flag):
        path = str(tmp_path / "wo.json")
        assert main(["gen", "thm-wo", "--k", "3", "--out", path]) == 0
        assert main(["benchmarks", path, *flag]) == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestGen:
    def test_generated_files_parse_and_round_trip(self, tmp_path):
        out = str(tmp_path / "of.json")
        assert main(["gen", "thm-of", "--d", "4", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert parse_scenario(payload).market == inclusion_gap_market(4)

        out = str(tmp_path / "fee.json")
        assert main(["gen", "thm-fee", "--k", "3", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert parse_scenario(payload).market == fee_gap_market(3)

    def test_bad_params_exit_one(self, capsys):
        assert main(["gen", "thm-of", "--d", "2"]) == 1
        assert main(["gen", "thm-fee"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen", "thm-of", "--d", "3", "--k", "9"], "--k"),
            (["gen", "thm-of", "--d", "3", "--epsilon", "5"], "--epsilon"),
            (["gen", "thm-of", "--d", "3", "--values", "1,2"], "--values"),
            (["gen", "thm-fee", "--k", "3", "--values", "1,2"], "--values"),
            (["gen", "thm-fee", "--k", "3", "--d", "3"], "--d"),
            (["gen", "thm-wo", "--k", "3", "--d", "3"], "--d"),
            (["gen", "figure1", "--d", "3"], "--d"),
            (["gen", "figure1", "--k", "3"], "--k"),
            (["gen", "figure1", "--epsilon", ""], "--epsilon"),
        ],
    )
    def test_a_flag_the_generator_does_not_read_is_refused(self, capsys, argv, flag):
        assert main(argv) == 1
        name = argv[1]
        assert capsys.readouterr().err == f"error: gen {name} does not read {flag}\n"

    def test_an_empty_epsilon_is_refused(self, capsys):
        assert main(["gen", "thm-wo", "--k", "3", "--epsilon", ""]) == 1
        assert "--epsilon" in capsys.readouterr().err

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        assert main(["gen", "thm-fee", "--k", "3", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_stdout_default(self, capsys):
        assert main(["gen", "thm-fee", "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "resource_market"

    def test_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["gen", "figure1", "--out", a])
        main(["gen", "figure1", "--out", b])
        assert open(a).read() == open(b).read()
