import json

import pytest

from brokerlab.cli import main
from brokerlab.mdfm import fee_gap_market, inclusion_gap_market
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

    def test_sampling_without_seed_errors(self, tmp_path, capsys):
        from brokerlab.equilibrium import construct_consensus_equilibrium
        from brokerlab.mdfm import collusion_example_instance
        from brokerlab.scenario import instance_to_scenario_json

        instance = collusion_example_instance()
        sigma = construct_consensus_equilibrium(
            instance, instance.validity, instance.truthful_reports(), ["b1", "b2"]
        )
        payload = instance_to_scenario_json(instance, sigma, ["b1", "b2"])
        payload["others_cap"] = 2
        path = write(tmp_path, "needseed.json", payload)
        assert main(["equilibrium", path, "--mode", "dsic-barring-b"]) == 1
        assert "seed" in capsys.readouterr().err


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

    def test_wrong_kind_errors(self, fig1_path, capsys):
        assert main(["benchmarks", fig1_path]) == 1
        assert "resource_market" in capsys.readouterr().err


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

    def test_stdout_default(self, capsys):
        assert main(["gen", "thm-fee", "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "resource_market"

    def test_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["gen", "figure1", "--out", a])
        main(["gen", "figure1", "--out", b])
        assert open(a).read() == open(b).read()
