import itertools
import json
import time

import numpy as np
import pytest

from prslab import budget, cli, combinatorics, condcheck, corelin, expand, moments, prsgen
from prslab.budget import DEFAULT_BUDGET_MIB, BudgetError
from prslab.moments import ExhaustiveAllFunctions

from conftest import measured_peak


def run(args):
    return cli.main([str(a) for a in args])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestMomentsCommand:
    def test_single_point_csv_and_json(self, tmp_path):
        code = run(["--out-dir", tmp_path, "moments", "--source", "construction1",
                    "--n", "2", "--i", "1", "--t", "1", "--space", "exhaustive",
                    "--method", "deltapair"])
        assert code == 0
        lines = read_lines(tmp_path / "moments.csv")
        assert lines[0] == "# schema=2"
        assert lines[1].split(",")[:6] == ["source", "kind", "n", "i", "t", "method"]
        assert lines[2].startswith("construction1,binary,2,1,1,delta_pairing,0,")
        payload = json.loads((tmp_path / "moments.json").read_text())
        assert payload[0]["source"] == "construction1"

    def test_both_methods(self, tmp_path):
        code = run(["--out-dir", tmp_path, "moments", "--source", "plain",
                    "--n", "2", "--t", "1", "--method", "both"])
        assert code == 0
        assert len(read_lines(tmp_path / "moments.csv")) == 4

    def test_a_later_comparison_runs_beside_the_grams_held(self, monkeypatch):
        # c1 (3,2,2), the projector left out: the brute-force report holds
        # its 528 x 528 Gram, 2.1 MiB or 3 whole MiB, while the pairing
        # comparison runs, and the two peak at 6.26 MiB traced; alone, the
        # pairing comparison fits in 6 MiB, beside the Gram it is refused
        monkeypatch.setattr(corelin, "symmetric_projector", lambda *args: None)
        point = (0, "construction1", "binary", 3, 2, None, 2, "exhaustive", False)
        pair, brute = moments.Method.DELTA_PAIRING, moments.Method.BRUTE_FORCE
        with budget.limit(6):
            (report,) = cli._compare([pair], *point)
            with pytest.raises(BudgetError, match="pairing route peak .* budget is 3 MiB: 6 MiB "
                                                  "less the 3 MiB that the brute_force "
                                                  "report's class Gram holds$"):
                cli._compare([brute, pair], *point)
        # a budget the held Gram fills leaves none for the next comparison
        monkeypatch.setattr(moments, "compare_to_haar", lambda spec, method: report)
        with pytest.raises(BudgetError, match="^3 MiB less the 3 MiB that the delta_pairing "
                                              "report's class Gram holds must be"), \
                budget.limit(3):
            cli._compare([pair, brute], *point)

    def test_sampled_space_requires_seed(self, tmp_path, capsys):
        code = run(["--out-dir", tmp_path, "moments", "--source", "plain",
                    "--n", "2", "--t", "1", "--space", "prf:8", "--method", "montecarlo"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --seed is required") and err.count("\n") == 1
        assert not (tmp_path / "moments.csv").exists()

    def test_canonical_reruns_byte_identical_json(self, tmp_path):
        args = ["moments", "--source", "plain", "--n", "2", "--t", "2",
                "--space", "prf:16", "--method", "montecarlo"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["--seed", "4", "--out-dir", out, "--canonical"] + args) == 0
            outs.append((out / "moments.json").read_bytes()
                        + (out / "moments.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_canonical_pairing_reruns_byte_identical(self, tmp_path):
        args = ["moments", "--source", "construction1", "--n", "2", "--i", "1",
                "--t", "2", "--space", "exhaustive", "--method", "deltapair"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["--out-dir", out, "--canonical"] + args) == 0
            outs.append((out / "moments.json").read_bytes()
                        + (out / "moments.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_shared_key_flag(self, tmp_path):
        code = run(["--seed", "6", "--out-dir", tmp_path, "moments",
                    "--source", "construction2", "--n", "2", "--t", "1",
                    "--space", "uniform:4", "--method", "montecarlo",
                    "--shared-key"])
        assert code == 0
        payload = json.loads((tmp_path / "moments.json").read_text())
        assert payload[0]["shared_key"] is True

    def test_config_supplies_out_dir_and_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "from_config"), "seed": 4}))
        assert run(["--config", cfg, "moments", "--source", "plain", "--n", "2",
                    "--t", "1", "--space", "prf:8", "--method", "montecarlo"]) == 0
        assert (tmp_path / "from_config" / "moments.csv").exists()


    @pytest.mark.parametrize("config, message", [
        ({"out_dir": 3}, "out-dir must be a string, got 3"),
        ({"seed": "1"}, "seed must be a whole number, got '1'"),
        ({"budget-mib": 1.5}, "budget-mib must be a whole number, got 1.5"),
        ({"canonical": 1}, "canonical must be true or false, got 1"),
        ({"seed": [1]}, "seed must be a whole number, got [1]"),
    ], ids=["number-out-dir", "string-seed", "float-budget", "number-canonical", "list-seed"])
    def test_wrongly_typed_config_value_exits_2_without_a_report(self, tmp_path, monkeypatch,
                                                                capsys, config, message):
        monkeypatch.chdir(tmp_path)  # where the default out dir would go
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["--config", cfg, "lemmas"]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {message}\n"
        assert not list(tmp_path.rglob("*.csv"))


class TestSweepCommand:
    CONFIG = {
        "grid": {
            "source": ["plain", "construction1"],
            "kind": ["binary"],
            "n": [2, 3],
            "i": [1],
            "t": [1],
            "space": ["exhaustive"],
            "method": ["deltapair", "bruteforce"],
        },
        "seed": 0,
    }

    def write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write_config(tmp_path, self.CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_rows_sorted_and_equivalence_column_present(self, tmp_path):
        cfg = self.write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 0
        lines = read_lines(out / "sweep.csv")
        assert lines[1].endswith("method_equiv_max_diff")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 8  # 2 sources x 2 n x 2 methods
        assert rows == sorted(rows)
        assert all(float(r[-1]) <= 1e-12 for r in rows)

    def test_multi_block_sources_agree_across_methods(self, tmp_path):
        config = {
            "grid": {"source": ["construction2", "construction3"], "kind": ["binary"],
                     "n": [2], "ell": [2], "t": [1], "space": ["exhaustive"],
                     "method": ["deltapair", "bruteforce"]},
            "seed": 0,
        }
        cfg = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 0
        assert not (out / "sweep_failures.json").exists()
        rows = [line.split(",") for line in read_lines(out / "sweep.csv")[2:]]
        assert len(rows) == 4  # 2 sources x 2 methods
        assert all(float(r[-1]) <= 1e-12 for r in rows)

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = self.write_config(tmp_path, {"grid": {"n": []}, "seed": 0})
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "sweep"]) == 0
        lines = read_lines(out / "sweep.csv")
        assert lines[0] == "# schema=2"
        assert len(lines) == 2

    def test_infeasible_point_isolated_in_manifest(self, tmp_path):
        config = {
            "grid": {"source": ["plain"], "kind": ["binary"], "n": [2, 12],
                     "t": [1], "space": ["exhaustive"], "method": ["deltapair"]},
            "seed": 0,
        }
        cfg = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 1
        lines = read_lines(out / "sweep.csv")
        assert len(lines) == 3  # schema + header + the feasible n=2 row
        manifest = json.loads((out / "sweep_failures.json").read_text())
        assert len(manifest) == 1
        assert manifest[0]["point"]["n"] == 12

    def test_malformed_space_isolated_in_manifest(self, tmp_path):
        config = {"grid": {"n": [2], "t": [1], "space": ["exhaustive", "exhaustiv", "prf:0"]},
                  "seed": 0}
        cfg = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 1
        assert len(read_lines(out / "sweep.csv")) == 3  # the exhaustive row only
        manifest = json.loads((out / "sweep_failures.json").read_text())
        assert sorted(f["point"]["space"] for f in manifest) == ["exhaustiv", "prf:0"]

    def test_seedless_sampled_point_isolated_in_manifest(self, tmp_path):
        config = {"grid": {"n": [2], "t": [1], "space": ["exhaustive", "prf:4"]}}
        cfg = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 1
        assert len(read_lines(out / "sweep.csv")) == 3  # the exhaustive row only
        (failure,) = json.loads((out / "sweep_failures.json").read_text())
        assert failure["point"]["space"] == "prf:4"
        assert "--seed is required" in failure["error"]

    def test_a_refused_method_fails_its_point_before_any_comparison(self, tmp_path,
                                                                    monkeypatch):
        computed = record_computation(monkeypatch)
        config = {"grid": {"n": [2], "t": [1], "kind": ["general"],
                           "method": ["bruteforce", "deltapair"]}, "seed": 0}
        cfg = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 1
        assert json.loads((out / "sweep_failures.json").read_text()) == [{
            "point": {"source": "plain", "kind": "general", "n": 2, "i": None, "ell": None,
                      "t": 1, "space": "exhaustive", "shared_key": False},
            "error": "pairing route requires the sign-phase kind",
        }]
        assert computed == []
        assert len(read_lines(out / "sweep.csv")) == 2  # the header only

    def test_the_equivalence_column_is_the_gap_between_the_class_grams(self, tmp_path,
                                                                       monkeypatch):
        # every entry of a moment's d^t x d^t matrix is an entry of its class
        # Gram, so the sweep compares the Grams and expands neither moment
        def refuse(moment):
            raise AssertionError("the sweep expanded a moment")

        monkeypatch.setattr(moments.SymmetricMoment, "matrix", property(refuse))
        config = {"grid": {"source": ["construction1"], "n": [3], "i": [1], "t": [2],
                           "method": ["bruteforce", "deltapair"]}, "seed": 0}
        cfg = self.write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 0
        spec = moments.MomentSpec(moments.Source.CONSTRUCTION1, n=3, t=2, i=1)
        brute, pairing = (moments.compare_to_haar(spec, method).moment.gram
                          for method in (moments.Method.BRUTE_FORCE,
                                         moments.Method.DELTA_PAIRING))
        gap = float(np.max(np.abs(brute - pairing)))
        assert 0.0 < gap <= 1e-12
        rows = read_lines(out / "sweep.csv")[2:]
        assert len(rows) == 2
        assert {row.split(",")[-1] for row in rows} == {cli.fmt_value(gap)}

    @pytest.mark.parametrize("grid, axis, message", [
        ({"n": ["a"]}, "n", "n must be a whole number, got 'a'"),
        ({"n": [2], "t": [True]}, "t", "t must be a whole number, got True"),
        ({"n": [None]}, "n", "n must be a whole number, got None"),
        ({"n": [2], "source": [3]}, "source", "source must be a string, got 3"),
        ({"n": [2], "space": [None]}, "space", "space must be a string, got None"),
        ({"n": [2], "shared_key": ["yes"]}, "shared_key", "shared-key must be true or false"),
        ({"n": [2], "kind": ["sign"]}, "kind", "kind must be one of ['binary', 'general']"),
    ], ids=["string-n", "bool-t", "null-n", "number-source", "null-space", "string-shared-key",
            "unknown-kind"])
    def test_wrongly_typed_value_isolated_in_manifest(self, tmp_path, grid, axis, message):
        cfg = self.write_config(tmp_path, {"grid": grid, "seed": 0})
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 1
        (failure,) = json.loads((out / "sweep_failures.json").read_text())
        assert failure["point"][axis] == grid[axis][0]
        assert message in failure["error"]

    def test_config_without_grid_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"seed": 0})
        assert run(["--config", cfg, "--out-dir", tmp_path / "out", "sweep"]) == 2
        assert capsys.readouterr().err == "input error: sweep needs a config file with a 'grid' object\n"

    @pytest.mark.parametrize("text, message", [
        ("{not json", "cannot read config"),
        (None, "cannot read config"),
        ("[1, 2]", "must hold a JSON object, got list"),
        (json.dumps({"grid": {"n": [2], "method": ["brute"]}}), "unknown sweep method 'brute'"),
        (json.dumps({"grid": {"n": 2}}), "sweep grid axis 'n' must be a list, got 2"),
    ], ids=["invalid-json", "missing-file", "not-an-object", "unknown-method", "scalar-axis"])
    def test_malformed_config_exits_2_without_a_report(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "sweep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err and err.count("\n") == 1
        assert not (out / "sweep.csv").exists()
        assert not (out / "sweep_failures.json").exists()


class TestVerificationCommands:
    def test_lemmas(self, tmp_path):
        assert run(["--out-dir", tmp_path, "lemmas", "--max-n", "6", "--max-t", "5"]) == 0
        lines = read_lines(tmp_path / "lemmas.csv")
        assert lines[0] == "# schema=2"
        assert all(line.endswith("True") for line in lines[2:])

    def test_lemmas_writes_perm_rows_up_to_max_t(self, tmp_path):
        assert run(["--out-dir", tmp_path, "lemmas", "--max-n", "1", "--max-t", "7"]) == 0
        rows = [line.split(",") for line in read_lines(tmp_path / "lemmas.csv")[2:]]
        at_seven = [row for row in rows if row[0] == "perm_norm" and row[2] == "7"]
        assert len(at_seven) == 15  # the partitions of 7
        for row in at_seven:
            shape = [int(m) for m in row[3].split("+")]
            elements = [str(value) for value, m in enumerate(shape) for _ in range(m)]
            assert float(row[4]) == combinatorics.perm_state_norm_sq(elements)

    def test_lemmas_perm_rows_stop_at_the_enumeration_cap(self, tmp_path):
        assert run(["--out-dir", tmp_path, "lemmas", "--max-n", "1", "--max-t", "9"]) == 0
        rows = [line.split(",") for line in read_lines(tmp_path / "lemmas.csv")[2:]]
        perm_t = [int(row[2]) for row in rows if row[0] == "perm_norm"]
        assert max(perm_t) == combinatorics._MAX_PERM_LEN == 8
        assert perm_t.count(8) == 22  # the partitions of 8

    def test_good_census(self, tmp_path):
        assert run(["--out-dir", tmp_path, "good-census",
                    "--n", "3", "--i", "1", "--t", "2"]) == 0
        lines = read_lines(tmp_path / "good_census.csv")
        row = lines[2].split(",")
        assert row[:5] == ["3", "1", "2", "384", "48"]

    def test_condition_binary(self, tmp_path):
        assert run(["--out-dir", tmp_path, "condition", "--witness", "binary",
                    "--n", "2"]) == 0
        payload = json.loads((tmp_path / "condition_binary.json").read_text())
        assert payload["passed"] is True
        assert [r["condition"] for r in payload["reports"]] == [1, 2]

    def test_condition_general_needs_seed(self, tmp_path, capsys):
        assert run(["--out-dir", tmp_path, "condition", "--witness", "general", "--n", "2"]) == 2
        assert "--seed is required for the sampled space" in capsys.readouterr().err
        assert not (tmp_path / "condition_general.json").exists()
        assert run(["--seed", "3", "--out-dir", tmp_path, "condition",
                    "--witness", "general", "--n", "2", "--samples", "16"]) == 0

    def test_expand_check_exhaustive(self, tmp_path):
        assert run(["--out-dir", tmp_path, "expand-check", "--n", "2", "--i", "1"]) == 0
        payload = json.loads((tmp_path / "expand_check.json").read_text())
        assert payload["passed"] is True
        assert payload["functions"] == 16

    def test_expand_check_sampled(self, tmp_path, capsys):
        assert run(["--seed", "5", "--out-dir", tmp_path, "expand-check",
                    "--n", "4", "--i", "2", "--samples", "20"]) == 0
        assert run(["--out-dir", tmp_path / "no_seed", "expand-check",
                    "--n", "4", "--i", "2", "--samples", "20"]) == 2
        assert "--seed is required for the sampled space" in capsys.readouterr().err

    @pytest.mark.parametrize("args,output,expected", [
        (["expand-check", "--n", "5", "--i", "2", "--samples", "64"], "expand_check.json",
         {"functions": 64, "i": 2, "max_deviation": 1.1102230246251565e-16, "n": 5,
          "passed": True}),
        (["condition", "--witness", "general", "--n", "5", "--samples", "64"],
         "condition_general.json",
         {"passed": True, "witness": "general", "reports": [
             {"condition": 1, "failures": [], "max_deviation": 1.3668035872266426e-16,
              "n": 5, "passed": True, "scale": 5.656854249492381},
             {"condition": 2, "failures": [], "max_deviation": 7.021666937153402e-16,
              "n": 5, "passed": True, "scale": 5.656854249492381}]}),
    ], ids=["expand-check", "condition-general"])
    def test_sampled_commands_write_the_pinned_json(self, tmp_path, args, output, expected):
        # recorded when the uniform space drew one table per call: the
        # commands read the rows of its batches, the same tables
        assert run(["--seed", "3", "--out-dir", tmp_path] + args) == 0
        assert json.loads((tmp_path / output).read_text()) == expected

    def test_exhaustive_functions_stream(self):
        # listed, the 65 536 functions of enumerate_all(4, 2) hold 21.5 MiB
        # (tracemalloc: 8 MiB of decoded blocks, 13.5 MiB of function
        # objects); the first draw needs one block of 1024 tables
        measured = measured_peak(lambda: next(ExhaustiveAllFunctions().members(4, 2)))
        assert measured < 1 << 20

    @pytest.mark.parametrize("seed,args,output", [
        (1, ["expand-check", "--samples", "0"], "expand_check.json"),
        (1, ["expand-check", "--samples", "-4"], "expand_check.json"),
        (1, ["condition", "--witness", "general", "--n", "2", "--samples", "0"],
         "condition_general.json"),
        (1, ["condition", "--witness", "binary", "--n", "3", "--samples", "0"],
         "condition_binary.json"),
        (1, ["condition", "--witness", "binary", "--n", "2", "--samples", "-4"],
         "condition_binary.json"),
        (1, ["condition", "--witness", "binary", "--n", "0"], "condition_binary.json"),
        (1, ["condition", "--witness", "general", "--n", "-1"], "condition_general.json"),
        (1, ["moments", "--space", "prf:0"], "moments.csv"),
        (1, ["moments", "--space", "uniform:x"], "moments.csv"),
        (-1, ["moments", "--space", "uniform:4"], "moments.csv"),
        (1 << 70, ["moments", "--space", "prf:4"], "moments.csv"),
    ], ids=["expand-check-samples-0", "expand-check-samples-neg", "condition-samples-0",
            "condition-binary-samples-0", "condition-binary-samples-neg",
            "condition-binary-n-0", "condition-general-n-neg",
            "prf-count-0", "uniform-count-x", "uniform-seed-neg", "prf-seed-2^70"])
    def test_bad_input_exits_2_with_one_line_and_no_output(self, tmp_path, capsys, seed, args,
                                                           output):
        command = {"expand-check": ["--n", "3", "--i", "1"],
                   "moments": ["--source", "plain", "--n", "2", "--t", "1",
                               "--method", "montecarlo"]}.get(args[0], [])
        assert run(["--seed", seed, "--out-dir", tmp_path] + args + command) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not (tmp_path / output).exists()

    def test_budget_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRS_LAB_BUDGET_MIB", "1")  # below the 8 MiB projector of d^t = 1024
        code = run(["--out-dir", tmp_path, "moments", "--source", "plain",
                    "--n", "5", "--t", "2", "--method", "deltapair"])
        assert code == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_budget_env_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("PRS_LAB_BUDGET_MIB", value)
        code = run(["--out-dir", tmp_path, "moments", "--source", "plain",
                    "--n", "2", "--t", "1"])
        assert code == 2
        assert "PRS_LAB_BUDGET_MIB must be a whole number" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_bad_budget_env_fails_a_sweep_once_not_per_point(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRS_LAB_BUDGET_MIB", "abc")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": {"n": [2, 3], "t": [1]}, "seed": 0}))
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "sweep"]) == 2
        assert not (out / "sweep.csv").exists()
        assert not (out / "sweep_failures.json").exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_bad_budget_flag_exits_2(self, tmp_path, capsys, value):
        code = run(["--budget-mib", value, "--out-dir", tmp_path, "moments",
                    "--source", "plain", "--n", "2", "--t", "1"])
        assert code == 2
        assert "--budget-mib" in capsys.readouterr().err

    def test_bad_budget_message_names_where_the_value_came_from(self, tmp_path, monkeypatch,
                                                                capsys):
        args = ["lemmas", "--max-n", "1", "--max-t", "1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget-mib": 0}))
        assert run(["--config", cfg, "--out-dir", tmp_path] + args) == 2
        assert capsys.readouterr().err == (
            f"budget error: budget-mib in {cfg} must be a whole number of MiB >= 1, got 0\n")
        assert run(["--budget-mib", "0", "--out-dir", tmp_path] + args) == 2
        assert capsys.readouterr().err == (
            "budget error: --budget-mib must be a whole number of MiB >= 1, got 0\n")
        monkeypatch.setenv("PRS_LAB_BUDGET_MIB", "0")
        assert run(["--out-dir", tmp_path] + args) == 2
        assert capsys.readouterr().err == (
            "budget error: PRS_LAB_BUDGET_MIB must be a whole number of MiB >= 1, got '0'\n")
        assert not (tmp_path / "lemmas.csv").exists()

    def test_every_budget_check_of_a_command_reads_the_flag(self, tmp_path, monkeypatch):
        checks, resolved = [], []
        check, resolve = budget.check_complex_array, budget.budget_mib

        def record_check(entries, what):
            checks.append(what)
            return check(entries, what)

        def record(*args):
            resolved.append(resolve(*args))
            return resolved[-1]

        for module in (condcheck, corelin, expand, moments, prsgen):
            monkeypatch.setattr(module, "check_complex_array", record_check)
        monkeypatch.setattr(budget, "budget_mib", record)
        assert run(["--budget-mib", "4096", "--out-dir", tmp_path, "moments", "--source",
                    "plain", "--n", "2", "--t", "1", "--method", "bruteforce"]) == 0
        # the projector the comparison builds and drops, the accumulation
        # peak, the 16 members' batch evaluation and its first block's
        # prepared state, and the distance stage; at t = 1 the moment's
        # compression is its Gram, read with no check, and no Haar array is
        # built
        assert checks == [
            "symmetric projector on (4)^1",
            "moment accumulation peak, dim 4",
            "evaluation on 2 qubits",
            "state on 2 qubits",
            "trace distance of two 4 x 4 operators",
        ]
        assert resolved == [4096] * len(checks)

    @pytest.mark.parametrize("env, expected", [(None, DEFAULT_BUDGET_MIB), ("64", 64)])
    def test_a_refused_flag_run_leaves_no_budget_behind(self, tmp_path, monkeypatch, capsys,
                                                        env, expected):
        if env is None:
            monkeypatch.delenv("PRS_LAB_BUDGET_MIB", raising=False)
        else:
            monkeypatch.setenv("PRS_LAB_BUDGET_MIB", env)
        # d^t = 1024: 1 MiB refuses its 8 MiB projector
        args = ["moments", "--source", "plain", "--n", "5", "--t", "2", "--method", "deltapair"]
        assert run(["--budget-mib", "1", "--out-dir", tmp_path / "a"] + args) == 2
        assert "but the budget is 1 MiB" in capsys.readouterr().err
        assert budget.budget_mib() == expected
        assert run(["--out-dir", tmp_path / "b"] + args) == 0
        assert (tmp_path / "b" / "moments.csv").exists()

    @pytest.mark.parametrize("n,i,t,message", [
        (4, -1, 2, "got n=4, i=-1, t=2"),
        (4, 1, 0, "got n=4, i=1, t=0"),
        (3, 2, 2, "got n=3, i=2, t=2"),
        (11, 0, 2, "would enumerate 4194304 items"),
    ])
    def test_bad_census_input_exits_2(self, tmp_path, capsys, n, i, t, message):
        code = run(["--out-dir", tmp_path, "good-census", "--n", n, "--i", i, "--t", t])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "good_census.csv").exists()

    @pytest.mark.parametrize("args", [
        ["--source", "construction1", "--n", "3", "--t", "1"],
        ["--source", "construction2", "--n", "3", "--t", "1"],
        ["--source", "plain", "--n", "2", "--t", "0"],
        ["--source", "plain", "--n", "2", "--t", "1", "--space", "uniform:abc"],
        ["--source", "plain", "--n", "2", "--t", "1", "--space", "uniform"],
        ["--source", "plain", "--n", "2", "--t", "1", "--space", "prf:4"],
        ["--source", "plain", "--n", "2", "--t", "1", "--space", "prf:0",
         "--method", "montecarlo"],
    ], ids=["c1-without-i", "c2-odd-n", "t-zero", "uniform-abc", "unknown-space",
            "prf-bruteforce", "prf-zero"])
    def test_bad_moments_input_exits_2_without_a_report(self, tmp_path, capsys, args):
        code = run(["--seed", "1", "--out-dir", tmp_path, "moments"] + args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not (tmp_path / "moments.csv").exists()
        assert not (tmp_path / "moments.json").exists()

    def test_condition_over_budget_exits_2_without_a_report(self, tmp_path, capsys):
        code = run(["--seed", "0", "--budget-mib", "1", "--out-dir", tmp_path, "condition",
                    "--witness", "binary", "--n", "7"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("budget error: ") and err.count("\n") == 1
        assert not (tmp_path / "condition_binary.json").exists()

    @pytest.mark.parametrize("args,message", [
        (["moments", "--source", "plain", "--n", "10", "--t", "200"],
         "requires 2^3983 MiB (2^3999 entries of 16 bytes)"),
        (["expand-check", "--n", "13", "--i", "1"], "would enumerate 2^8192 items"),
        (["expand-check", "--n", "14", "--i", "1"], "would enumerate 2^16384 items"),
        (["expand-check", "--n", "28", "--i", "1"], "would enumerate 2^268435456 items"),
    ], ids=["moments-plain-10-200", "expand-check-13", "expand-check-14", "expand-check-28"])
    def test_a_refusal_of_any_size_is_one_short_line(self, tmp_path, capsys, args, message):
        # sizes past 2^64 are stated as powers of two, and a count past the
        # cap is not built: the 2^(2^28) functions on 28 bits are a 32 MiB integer
        start = time.perf_counter()
        assert run(["--out-dir", tmp_path] + args) == 2
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert err.startswith("budget error: ") and message in err
        assert err.count("\n") == 1 and len(err) < 200
        assert elapsed < 0.5

    def test_condition_witness_over_budget_exits_2_before_building_it(self, tmp_path, capsys):
        code = run(["--seed", "0", "--budget-mib", "1", "--out-dir", tmp_path, "condition",
                    "--witness", "general", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("budget error: U_x phase family on 10 qubits")
        assert err.count("\n") == 1
        assert not (tmp_path / "condition_general.json").exists()

    @pytest.mark.parametrize("args,message", [
        (["--kind", "general"], "pairing route requires the sign-phase kind"),
        (["--space", "prf:4"],
         "pairing route computes the exhaustive all-functions average"),
    ], ids=["general-kind", "sampled-space"])
    def test_a_spec_the_pairing_route_refuses_is_reported_before_the_haar_reference(
            self, tmp_path, capsys, monkeypatch, args, message):
        built = []
        monkeypatch.setattr(corelin, "symmetric_projector", lambda *args: built.append(args))
        code = run(["--seed", "1", "--budget-mib", "1", "--out-dir", tmp_path, "moments",
                    "--source", "plain", "--n", "5", "--t", "2", "--method", "deltapair"] + args)
        assert code == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert built == []

    def test_both_methods_are_refused_before_either_comparison(self, tmp_path, capsys,
                                                                monkeypatch):
        computed = record_computation(monkeypatch)
        code = run(["--out-dir", tmp_path, "moments", "--source", "plain", "--n", "2",
                    "--t", "1", "--kind", "general", "--method", "both"])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: pairing route requires the sign-phase kind\n")
        assert computed == []
        assert not (tmp_path / "moments.csv").exists()

    @pytest.mark.parametrize("max_n,max_t,message", [
        (0, 5, "--max-n and --max-t must be >= 1, got 0 and 5"),
        (6, 0, "--max-n and --max-t must be >= 1, got 6 and 0"),
        (6, 170, "the bound at n=6, t=170 is past float range"),
        (32, 33, "the bound at n=32, t=33 is past float range"),
        # the bound at this corner is 0, but n=8, t=128 is past float range
        (14, 128, "the bound at n=8, t=128 is past float range"),
    ], ids=["no-n", "no-t", "n6-t170", "n32-t33", "n14-t128"])
    def test_lemmas_refuses_a_range_it_cannot_write(self, tmp_path, capsys, max_n, max_t,
                                                    message):
        code = run(["--out-dir", tmp_path, "lemmas", "--max-n", max_n, "--max-t", max_t])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "lemmas.csv").exists()


def record_computation(monkeypatch):
    """Replace the brute-force route and the symmetric projector with
    recorders; the list they append their calls to."""
    computed = []
    for owner, name in ((moments, "ensemble_moment_bruteforce"),
                        (corelin, "symmetric_projector")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: computed.append(name))
    return computed


class TestCsvColumns:
    def sweep_rows(self, tmp_path, grid):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": grid, "seed": 3}))
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out-dir", out, "--canonical", "sweep"]) == 0
        lines = read_lines(out / "sweep.csv")
        header = lines[1].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[2:]]

    def test_header_keeps_the_leading_columns(self):
        assert cli.SWEEP_COLUMNS == (
            "source", "kind", "n", "i", "t", "method", "seed", "haar_distance",
            "runtime_ms", "ell", "shared_key", "space", "method_equiv_max_diff",
        )

    def test_ell_and_shared_key_tell_sweep_rows_apart(self, tmp_path):
        rows = self.sweep_rows(tmp_path, {
            "source": ["construction3"], "n": [2], "t": [1], "ell": [2, 3],
            "shared_key": [False, True], "method": ["deltapair"],
        })
        params = {(r["ell"], r["shared_key"], r["space"]) for r in rows}
        assert params == {("2", "False", "exhaustive"), ("2", "True", "exhaustive"),
                          ("3", "False", "exhaustive"), ("3", "True", "exhaustive")}

    def test_space_column_tells_sampled_spaces_apart(self, tmp_path):
        rows = self.sweep_rows(tmp_path, {
            "source": ["plain"], "n": [2], "t": [1], "space": ["prf:16", "uniform:16"],
            "method": ["montecarlo"],
        })
        assert sorted(r["space"] for r in rows) == ["prf:16", "uniform:16"]
        assert {r["ell"] for r in rows} == {""}

    def test_moments_csv_carries_the_same_columns(self, tmp_path):
        assert run(["--seed", "2", "--out-dir", tmp_path, "moments", "--source",
                    "construction2", "--n", "2", "--t", "1", "--space", "uniform:4",
                    "--method", "montecarlo", "--shared-key"]) == 0
        lines = read_lines(tmp_path / "moments.csv")
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert (row["ell"], row["shared_key"], row["space"]) == ("", "True", "uniform:4")


class TestCanonicalOutput:
    # every field of each artifact that may differ between two runs of one
    # command; a field added to an artifact is volatile unless two runs under
    # different clocks write it the same
    VOLATILE = {
        "moments.json": {"runtime_ms"},
        "moments.csv": {"runtime_ms"},
        "sweep.csv": {"runtime_ms"},
    }

    def records(self, tmp_path, monkeypatch, name, tick, canonical):
        """Run `moments` and `sweep` with every clock advancing `tick` seconds
        a read; each artifact as its bytes and its list of {field: value}."""
        for clock in ("perf_counter", "monotonic", "process_time", "time"):
            monkeypatch.setattr(time, clock, itertools.count(1.0, tick).__next__)
        out = tmp_path / name
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": {
            "source": ["plain", "construction3"], "n": [2], "ell": [2], "t": [1],
            "method": ["bruteforce", "deltapair"]}}))
        flags = ["--canonical"] if canonical else []
        assert run(["--seed", "3", "--out-dir", out, *flags, "moments", "--source",
                    "construction1", "--n", "2", "--i", "1", "--t", "1", "--method", "both"]) == 0
        assert run(["--config", cfg, "--out-dir", out, *flags, "sweep"]) == 0
        monkeypatch.undo()
        found = {"moments.json": json.loads((out / "moments.json").read_text())}
        for artifact in ("moments.csv", "sweep.csv"):
            lines = read_lines(out / artifact)
            header = lines[1].split(",")
            found[artifact] = [dict(zip(header, line.split(","))) for line in lines[2:]]
        return {artifact: ((out / artifact).read_bytes(), rows)
                for artifact, rows in found.items()}

    def test_canonical_zeroes_every_volatile_field(self, tmp_path, monkeypatch):
        fast = self.records(tmp_path, monkeypatch, "fast", 0.001, canonical=False)
        slow = self.records(tmp_path, monkeypatch, "slow", 7.0, canonical=False)
        assert set(fast) == set(self.VOLATILE)
        for artifact, volatile in self.VOLATILE.items():
            (_, fast_rows), (_, slow_rows) = fast[artifact], slow[artifact]
            assert len(fast_rows) == len(slow_rows) >= 2
            differing = {key for a, b in zip(fast_rows, slow_rows) for key in a
                         if a[key] != b[key]}
            assert differing == volatile, artifact
        canonical = [self.records(tmp_path, monkeypatch, name, tick, canonical=True)
                     for name, tick in (("canonical-fast", 0.001), ("canonical-slow", 7.0))]
        assert canonical[0] == canonical[1]
        for artifact, volatile in self.VOLATILE.items():
            _, rows = canonical[0][artifact]
            assert all(str(row[key]) == "0" for row in rows for key in volatile), artifact
