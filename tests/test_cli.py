import json

import pytest

from stablecontracts import cli, instance
from stablecontracts.fileformat import document_from_instance
from stablecontracts.fixtures import (
    bad_table_documents,
    marriage_2x2,
    two_parallel_contracts,
)


@pytest.fixture()
def i3_file(tmp_path):
    path = tmp_path / "i3.json"
    path.write_text(json.dumps(document_from_instance(marriage_2x2())))
    return str(path)


@pytest.fixture()
def i1_file(tmp_path):
    path = tmp_path / "i1.json"
    path.write_text(json.dumps(document_from_instance(two_parallel_contracts())))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_ample_default(self, capsys, i3_file):
        code, out, err = run(capsys, "solve", "--algorithm", "ample", i3_file)
        assert code == 0
        assert out == "S = {e12, e21}\nsteps = 0\n"
        assert err == ""

    def test_ample_trace(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "ample", "--trace", i3_file)
        assert code == 0
        assert out.splitlines()[0] == "B[0] = {e11, e12, e21, e22}"

    def test_modest_default(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "modest", "--trace", i3_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Q[0] = {}"
        assert "S = {e12, e21}" in lines

    def test_gs(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "gs", i3_file)
        assert code == 0
        assert out == "S = {e12, e21}\n"

    def test_sotomayor(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "sotomayor", i3_file)
        assert code == 0
        assert out == "S = {e12, e21}\n"

    def test_custom_ample_start(self, capsys, i1_file):
        code, out, _ = run(capsys, "solve", "--start", "e1", i1_file)
        assert code == 0
        assert "S = {e1}" in out

    def test_non_ample_start_is_domain_error(self, capsys, i1_file):
        code, out, err = run(capsys, "solve", "--start", "e2", i1_file)
        assert code == 1
        assert "not ample" in err

    def test_empty_modest_start(self, capsys, i1_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "modest", "--start", "", i1_file)
        assert code == 0
        assert "S = {e2}" in out

    def test_start_with_gs_is_usage_error(self, capsys, i3_file):
        code, _, err = run(capsys, "solve", "--algorithm", "gs", "--start", "e11", i3_file)
        assert code == 2
        assert "usage" in err

    def test_gs_on_quota_instance_is_domain_error(self, capsys, tmp_path):
        from stablecontracts.oracle import random_instance

        inst = random_instance(2, 2, 2, family_mix={"quota": 1.0})
        path = tmp_path / "quota.json"
        path.write_text(json.dumps(document_from_instance(inst)))
        code, _, err = run(capsys, "solve", "--algorithm", "gs", str(path))
        assert code == 1
        assert "linear orders" in err

    def test_deterministic_bytes(self, capsys, i3_file):
        first = run(capsys, "solve", "--algorithm", "ample", "--trace", i3_file)
        second = run(capsys, "solve", "--algorithm", "ample", "--trace", i3_file)
        assert first == second


class TestEnumerate:
    def test_canonical_listing(self, capsys, i3_file):
        code, out, _ = run(capsys, "enumerate", i3_file)
        assert code == 0
        assert out == "count = 2\n{e11, e22}\n{e12, e21}\n"

    def test_two_parallel(self, capsys, i1_file):
        code, out, _ = run(capsys, "enumerate", i1_file)
        assert code == 0
        assert out == "count = 2\n{e1}\n{e2}\n"

    def test_cross_check_mismatch_exits_3(self, capsys, i1_file, monkeypatch):
        monkeypatch.setattr(cli, "brute_force_stable", lambda problem: [])
        code, _, err = run(capsys, "enumerate", i1_file)
        assert code == 3
        assert "disagrees" in err


class TestCheck:
    def test_stable_set(self, capsys, i3_file):
        code, out, _ = run(capsys, "check", i3_file, "e11", "e22")
        assert code == 0
        assert out == (
            "S = {e11, e22}\nacceptable = true\nblocking = {}\nstable = true\n"
        )

    def test_empty_set_blocked_by_everything(self, capsys, i3_file):
        code, out, _ = run(capsys, "check", i3_file)
        assert code == 0
        assert "blocking = {e11, e12, e21, e22}" in out
        assert "stable = false" in out

    def test_unknown_contract(self, capsys, i3_file):
        code, _, err = run(capsys, "check", i3_file, "e99")
        assert code == 1
        assert "unknown contract label" in err


class TestValidate:
    def test_valid_instance(self, capsys, i3_file):
        code, out, _ = run(capsys, "validate", i3_file)
        assert code == 0
        assert out.endswith("valid\n")
        assert out.count(": ok") == 4

    @pytest.mark.parametrize("name", ["consistency", "substitutability", "both"])
    def test_bad_tables_fail_with_witness(self, capsys, tmp_path, name):
        path = tmp_path / f"bad_{name}.json"
        path.write_text(json.dumps(bad_table_documents()[name]))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "failed at" in out
        assert "axiom-violation" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nope/missing.json")
        assert code == 1
        assert "[io]" in err

    def test_ground_mismatch_is_coded(self, capsys, tmp_path):
        doc = document_from_instance(marriage_2x2())
        worker = next(a["id"] for a in doc["agents"] if a["side"] == "worker")
        doc["choices"][worker] = {"family": "linear", "payload": []}
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        # the Instance check fails before every agent is scanned, so no
        # agent is reported ok
        assert out == ""
        assert "[malformed]" in err

    def test_agent_over_the_cap_is_coded(self, capsys, tmp_path):
        # thirteen single-contract workers, then one firm holding all of them
        workers = [f"w{i}" for i in range(13)]
        doc = {
            "agents": [{"id": w, "side": "worker"} for w in workers]
            + [{"id": "f", "side": "firm"}],
            "contracts": [{"id": w, "firm": "f", "worker": w} for w in workers],
            "choices": {
                **{w: {"family": "linear", "payload": [w]} for w in workers},
                "f": {"family": "linear", "payload": workers},
            },
        }
        path = tmp_path / "over_cap.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        # only an axiom violation is rendered agent by agent
        assert out == ""
        assert "[malformed]" in err and "capped at 12" in err

    def test_scans_each_agent_once(self, capsys, i3_file, monkeypatch):
        calls = []
        original = instance.validate_plott

        def counting(cf, *args):
            calls.append(cf)
            return original(cf, *args)

        monkeypatch.setattr(instance, "validate_plott", counting)
        code, _, _ = run(capsys, "validate", i3_file)
        assert code == 0
        assert len(calls) == 4

    def test_reports_the_same_first_fault_as_solve(self, capsys, tmp_path):
        # a ground mismatch on the first-listed agent, then a table agent
        # that breaks consistency: both commands stop at the mismatch
        doc = bad_table_documents()["consistency"]
        doc["agents"].reverse()
        doc["choices"][doc["agents"][0]["id"]]["payload"] = []
        path = tmp_path / "two_faults.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert "[malformed]" in err
        assert run(capsys, "solve", str(path)) == (code, "", err)


class TestGenerate:
    def test_round_trips_through_validate(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "generate", "--seed", "3", "--firms", "2", "--workers", "3",
            "--families", "linear,quota",
        )
        assert code == 0
        path = tmp_path / "generated.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "validate", str(path))
        assert code == 0

    def test_deterministic(self, capsys):
        a = run(capsys, "generate", "--seed", "5", "--firms", "2", "--workers", "2")
        b = run(capsys, "generate", "--seed", "5", "--firms", "2", "--workers", "2")
        assert a == b


class TestLemmas:
    def test_table_all_pass(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--problems", "5", "--seed", "11")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("problems = ")
        assert lines[-1] == "overall = pass"
        assert sum(1 for line in lines if line.endswith("pass")) >= 12

    def test_includes_extra_files(self, capsys, i1_file):
        code, out, _ = run(capsys, "lemmas", "--problems", "0", i1_file)
        assert code == 0
        assert "problems = 4" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2
