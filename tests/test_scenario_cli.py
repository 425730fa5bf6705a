import csv
import json
import math
from pathlib import Path

import pytest

import gepkit.montecarlo
from conftest import key_paths, load_workloads
from gepkit.cli import entropy_gate, main
from gepkit.ensemble import message_count
from gepkit.errors import (
    IntegrityError,
    MemoryBudgetExceeded,
    ParseError,
    SchemaError,
)
from gepkit.montecarlo import run_trials
from gepkit.scenario import DECODERS, load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
LN2 = math.log(2.0)


def minimal_doc(**over):
    doc = {
        "channel": {"type": "bsc_compound", "crossovers": [0.05, 0.3],
                    "rate": 0.2, "rate_unit": "nats",
                    "input_pmf": [0.5, 0.5]},
        "N": 8,
        "region": [[0, 0]],
        "trials": 10,
        "seed": 1,
    }
    doc.update(over)
    return doc


def bsc_doc(**channel):
    doc = minimal_doc()
    doc["channel"].update(channel)
    return doc


def table_doc(pmf=None, input_pmf=None):
    """One regular user with a single code over a binary table channel."""
    return {
        "channel": {"type": "table", "pmf": pmf or [[0.9, 0.1], [0.1, 0.9]]},
        "users": [{"kind": "regular",
                   "codes": [{"rate": 0.3, "rate_unit": "bits",
                              "input_pmf": input_pmf or [0.5, 0.5]}]}],
        "N": 6, "region": [[0]], "trials": 5, "seed": 0,
    }


class TestLoadScenario:
    def test_shipped_sec4_rate_converted_to_nats(self):
        s = load_scenario(SCENARIOS / "bsc_compound_sec4.json")
        assert s.model.rate(0, 0) == pytest.approx(0.31 * LN2)
        assert s.model.code_counts == (1, 4)
        assert s.margin == frozenset({(0, 1), (0, 2)})
        assert s.decoder == "margin"

    def test_all_shipped_scenarios_load(self):
        for p in sorted(SCENARIOS.glob("*.json")):
            load_scenario(p)

    def test_invalid_json_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_region_out_of_range_names_path(self):
        with pytest.raises(IntegrityError) as err:
            parse_scenario(minimal_doc(region=[[0, 5]]))
        assert "$.region[0]" in str(err.value)

    def test_overlapping_margin_rejected(self):
        with pytest.raises(IntegrityError):
            parse_scenario(minimal_doc(margin=[[0, 0]]))

    def test_zero_trials_is_schema_error(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario(minimal_doc(trials=0))
        assert "$.trials" in str(err.value)

    def test_missing_key_names_path(self):
        doc = minimal_doc()
        del doc["N"]
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert "$.N" in str(err.value)

    def test_bad_rate_unit_rejected(self):
        doc = minimal_doc()
        doc["channel"]["rate_unit"] = "furlongs"
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_detection_must_partition(self):
        with pytest.raises(IntegrityError):
            parse_scenario(minimal_doc(detection=[[[0, 0]]]))

    def test_detect_decoder_needs_detection(self):
        with pytest.raises(IntegrityError):
            parse_scenario(minimal_doc(decoder="detect-then-decode"))

    def test_table_channel_with_users(self):
        s = parse_scenario(table_doc())
        assert s.model.K == 1 and s.model.M == 0
        assert s.model.rate(0, 0) == pytest.approx(0.3 * LN2)

    def test_alpha_entries_applied(self):
        doc = minimal_doc(alpha={"default": 0.1,
                                 "entries": [{"g": [0, 1], "value": 0.4}]})
        s = parse_scenario(doc)
        assert s.alpha((0, 0)) == pytest.approx(0.1)
        assert s.alpha((0, 1)) == pytest.approx(0.4)

    @pytest.mark.parametrize("spelling", sorted(DECODERS))
    def test_decoder_spellings_round_trip(self, spelling):
        s = parse_scenario(minimal_doc(decoder=spelling,
                                       detection=[[[0, 0]], [[0, 1]]]))
        assert s.decoder == DECODERS[spelling]


class TestEntropyGate:
    def test_sec4_gate_values_and_outcome(self, tmp_path):
        s = load_scenario(SCENARIOS / "bsc_compound_sec4.json")
        rate_bits, rows, passed = entropy_gate(s)
        assert rate_bits == pytest.approx(0.31)
        assert [(i, p, role, ok) for i, p, _c, role, ok in rows] == [
            (0, 0.18, "region", True), (1, 0.185, "margin", None),
            (2, 0.185, "margin", None), (3, 0.19, "outside", True)]
        for (_i, _p, cap, _role, _ok), pin in zip(
                rows, (0.319923, 0.309106, 0.309106, 0.298529)):
            assert cap == pytest.approx(pin, abs=2e-6)
        # r = 0.31 sits just above the margin states' capacity (0.309106),
        # which the margin construction allows
        assert rows[1][2] < rate_bits
        assert passed is True
        assert main(["gate", "--scenario",
                     str(SCENARIOS / "bsc_compound_sec4.json"),
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("change", [
        {"rate": 0.32},                           # above the region's 0.319923
        {"rate": 0.2985},                         # below the outside 0.298529
        {"region": [[0, 3]]},                     # region and outside swapped
    ])
    def test_mutated_sec4_copies_fail(self, tmp_path, change):
        doc = json.loads((SCENARIOS / "bsc_compound_sec4.json").read_text())
        if "rate" in change:
            doc["channel"]["rate"] = change["rate"]
        doc.update({k: v for k, v in change.items() if k != "rate"})
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert entropy_gate(load_scenario(p))[2] is False
        assert main(["gate", "--scenario", str(p),
                     "--out", str(tmp_path)]) == 1

    def test_every_group_but_the_margin_must_be_nonempty(self, tmp_path):
        doc = minimal_doc()
        doc["margin"] = [[0, 1]]   # no state outside region and margin
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        assert entropy_gate(load_scenario(p))[2] is False

    def test_gate_passes_on_separated_states(self, tmp_path):
        doc = minimal_doc()
        doc["channel"]["crossovers"] = [0.05, 0.3]
        doc["channel"]["rate"] = 0.5
        doc["channel"]["rate_unit"] = "bits"
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        # capacities: 1-H(0.3) = 0.1187, 1-H(0.05) = 0.7136
        assert main(["gate", "--scenario", str(p),
                     "--out", str(tmp_path)]) == 0

    def test_gate_creates_no_output_directory(self, tmp_path):
        sec4 = str(SCENARIOS / "bsc_compound_sec4.json")
        assert main(["gate", "--scenario", sec4,
                     "--out", str(tmp_path / "x")]) == 0
        assert not (tmp_path / "x").exists()
        # a subcommand that writes files still creates its directory
        assert main(["exponents", "--scenario", sec4,
                     "--out", str(tmp_path / "y")]) == 0
        assert (tmp_path / "y" / "exponents.csv").is_file()

    def test_gate_needs_compound_channel(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(table_doc()))
        assert main(["gate", "--scenario", str(p),
                     "--out", str(tmp_path)]) == 2


class TestCliDispatch:
    def _write(self, tmp_path, doc):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_zero_trials_override_exits_2(self, tmp_path):
        p = self._write(tmp_path, minimal_doc())
        code = main(["simulate", "--scenario", p, "--trials", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        # numpy's seeding rejects it mid-run with a traceback and exit 1,
        # which would read as a FAIL verdict
        p = self._write(tmp_path, minimal_doc())
        assert main(["simulate", "--scenario", p, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: --seed: must be >= 0\n"

    @pytest.mark.parametrize("sub, reason", [
        ("", "File exists"), ("sub", "Not a directory")])
    def test_unusable_out_exits_2(self, tmp_path, sub, reason, capsys):
        # an existing file where the output directory belongs, or on its
        # path, is an input error, not a traceback
        p = self._write(tmp_path, minimal_doc())
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / sub
        assert main(["bound", "--scenario", p, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out: {reason}: {out}\n"

    def test_bad_scenario_exits_2(self, tmp_path):
        p = self._write(tmp_path, minimal_doc(region=[[0, 9]]))
        assert main(["bound", "--scenario", p,
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("change", [
        {"decoder": ["plain"]},
        {"partition": 5},
        {"partition": [5]},
        {"partition": [{"D": ["a"], "region": [[0, 0]]}]},
        {"margin": 5},
        {"alpha": {"entries": 5}},
        {"alpha": {"entries": [5]}},
        {"detection": [[[0, 0]], 5]},
        {"region": [["a", 0]]},
        {"N": True},
        {"trials": True},
        {"seed": True},
    ])
    def test_wrong_json_types_exit_2(self, tmp_path, change, capsys):
        # a malformed scenario is an input error (exit 2), never a
        # traceback, whose exit 1 would read as a FAIL verdict
        with pytest.raises(SchemaError):
            parse_scenario(minimal_doc(**change))
        p = self._write(tmp_path, minimal_doc(**change))
        assert main(["bound", "--scenario", p,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: $")

    @pytest.mark.parametrize("doc, path", [
        (bsc_doc(crossovers=["a", 0.3]), "$.channel.crossovers[0]"),
        (table_doc(input_pmf=["a", 0.5]), "$.users[0].codes[0].input_pmf[0]"),
        (table_doc(pmf=[["a", 0.1], [0.1, 0.9]]), "$.channel.pmf[0][0]"),
        (bsc_doc(rate=math.nan), "$.channel.rate"),
        (minimal_doc(alpha={"entries": [{"g": [0, 1], "value": math.nan}]}),
         "$.alpha.entries[0].value"),
        (table_doc(pmf=[[math.nan, 0.1], [0.1, 0.9]]), "$.channel.pmf[0][0]"),
        (bsc_doc(rate=math.inf), "$.channel.rate"),
        (minimal_doc(alpha={"default": math.inf}), "$.alpha.default"),
        (table_doc(pmf=[[0.9, 0.1], [0.1]]), "$.channel.pmf"),
        (minimal_doc(seed=-3), "$.seed"),
        (minimal_doc(alpha={"entries": [{"g": [0, 1], "value": 0.1},
                                        {"g": [0, 1], "value": 0.4}]}),
         "$.alpha.entries[1]"),
        (minimal_doc(region=[[0, 0], [0, 1]],
                     partition=[{"D": [0, 0], "region": [[0, 0]]},
                                {"D": [0], "region": [[0, 1]]}]),
         "$.partition"),
        (minimal_doc(partition=[{"D": [0, -1], "region": [[0, 0]]}]),
         "$.partition"),
    ])
    def test_malformed_numbers_exit_2(self, tmp_path, doc, path, capsys):
        # a string, NaN or infinity where a number belongs, a second alpha
        # value for one g, or a decoded subset that repeats a user or names
        # one that does not exist, is an input error naming its key path,
        # not a traceback, a bound of 1.0, the last value silently applied
        # or a partition part silently dropped
        p = self._write(tmp_path, doc)
        assert main(["bound", "--scenario", p,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("change, error", [
        ({"g_set": []}, IntegrityError),
        ({"g_set": [[0, 1]], "g_sampling": "alpha_prior"}, SchemaError),
        ({"g_set": [[0, 1], [0, 1], [0, 0]]}, IntegrityError),
    ], ids=["empty", "alpha_prior", "duplicate"])
    def test_g_set_that_would_be_misread_exits_2(self, tmp_path, change,
                                                 error, capsys):
        # an empty g_set would sample the whole index space, alpha_prior
        # would ignore the set, and a repeated vector would be drawn twice
        # as often: each is refused by its key path
        with pytest.raises(error):
            parse_scenario(minimal_doc(**change))
        p = self._write(tmp_path, minimal_doc(**change))
        assert main(["simulate", "--scenario", p,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: $.g_set: ")

    def test_bound_then_simulate_pass(self, tmp_path):
        doc = minimal_doc(trials=400)
        p = self._write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["bound", "--scenario", p, "--out", str(out)]) == 0
        bounds = json.loads((out / "bounds.json").read_text())
        assert 0 < bounds["decode"]["value"] <= 1
        assert main(["simulate", "--scenario", p, "--out", str(out),
                     "--seed", "77"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "PASS"
        assert summary["estimate"] <= bounds["decode"]["value"] + \
            3 * summary["sigma"] + 1e-12

    def test_unsampled_strata_are_named(self, tmp_path, capsys):
        """A g_set that leaves a stratum unsampled counts it as zero error
        at its full weight: summary.json and the verdict line name it."""
        doc = json.loads((SCENARIOS / "detect_two_bsc.json").read_text())
        doc.update(N=12, trials=400, g_set=[[0, 0]])
        p = self._write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", p, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["unestimated"] == ["0 1"]
        rows = (out / "trials.csv").read_text().splitlines()
        assert rows[2] == "0 1,0,0,nan"
        p_hat = float(rows[1].split(",")[3])
        assert summary["estimate"] == pytest.approx(p_hat / 2, abs=1e-12)
        line = capsys.readouterr().out.strip()
        assert line.endswith("-> PASS (no trials for g = 0 1)")
        # every stratum sampled: no key, no note
        doc.pop("g_set")
        p = self._write(tmp_path, doc)
        assert main(["simulate", "--scenario", p, "--out", str(out)]) == 0
        assert "unestimated" not in json.loads(
            (out / "summary.json").read_text())
        assert "no trials" not in capsys.readouterr().out

    def test_exponents_csv_byte_stable(self, tmp_path):
        p = self._write(tmp_path, minimal_doc())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["exponents", "--scenario", p, "--out", str(out1)]) == 0
        assert main(["exponents", "--scenario", p, "--out", str(out2)]) == 0
        b1 = (out1 / "exponents.csv").read_bytes()
        assert b1 == (out2 / "exponents.csv").read_bytes()
        header = b1.splitlines()[0].decode()
        assert header == "theorem,D,S,g,g_alt,exponent,rho_star,s_star"

    def test_detect_subcommand(self, tmp_path):
        doc = minimal_doc(trials=300,
                          detection=[[[0, 0]], [[0, 1]]])
        doc["channel"]["crossovers"] = [0.1, 0.4]
        doc["channel"]["input_pmf"] = [0.9, 0.1]
        doc["N"] = 20
        p = self._write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["detect", "--scenario", p, "--out", str(out)]) == 0
        rows = (out / "detect.csv").read_text().splitlines()
        assert rows[0] == "g,trials,errors,p_hat,bound,vacuous"
        assert len(rows) == 3

    def test_detect_verdict_unweights_alpha(self, tmp_path):
        # detection_bound bounds Pr{err | g} e^{-N alpha(g)}; the verdict
        # compares the frequency against that bound times e^{N alpha(g)}
        doc = json.loads((SCENARIOS / "detect_two_bsc.json").read_text())
        doc["alpha"] = {"default": 0.0,
                        "entries": [{"g": [0, 0], "value": 0.1}]}
        p = self._write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["detect", "--scenario", p, "--out", str(out),
                     "--trials", "4000", "--seed", "5"]) == 0
        rows = {r.split(",")[0]: r.split(",")
                for r in (out / "detect.csv").read_text().splitlines()[1:]}
        weighted = float(rows["0 1"][4])  # alpha = 0: weighted = unweighted
        assert weighted == pytest.approx(0.129337878665, abs=1e-12)
        assert float(rows["0 0"][4]) == \
            pytest.approx(weighted * math.exp(20 * 0.1), rel=1e-9)
        assert rows["0 0"][1:4] == ["1951", "556", "0.284982060482"]
        summary = json.loads((out / "detect_summary.json").read_text())
        assert summary["verdict"] == "PASS"
        assert summary["per_g"]["0 0"]["bound"] == float(rows["0 0"][4])

    def test_detect_judges_against_the_bound_reports(self, tmp_path):
        # detect's per-g bound is bounds.json's detection report for g,
        # which carries the weight e^{-N alpha(g)}, times e^{N alpha(g)} and
        # clamped at 1; no shipped scenario or workload has alpha != 0
        doc = json.loads((SCENARIOS / "detect_two_bsc.json").read_text())
        doc["alpha"] = {"entries": [{"g": [0, 1], "value": 0.05}]}
        p = self._write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["bound", "--scenario", p, "--out", str(out)]) == 0
        assert main(["detect", "--scenario", p, "--out", str(out),
                     "--trials", "500"]) == 0
        reports = json.loads((out / "bounds.json").read_text())["detection"]
        with open(out / "detect.csv", newline="") as fh:
            rows = {r["g"]: float(r["bound"]) for r in csv.DictReader(fh)}
        summary = json.loads((out / "detect_summary.json").read_text())
        assert sorted(reports) == sorted(rows) == ["0 0", "0 1"]
        for g, alpha in (("0 0", 0.0), ("0 1", 0.05)):
            want = min(1.0, math.exp(doc["N"] * alpha) * reports[g]["raw"])
            assert want < 1.0
            assert rows[g] == pytest.approx(want, rel=1e-10)
            assert summary["per_g"][g]["bound"] == \
                pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("default", [0.0, 37.0, 38.0, 60.0])
    def test_detection_component_ignores_a_uniform_alpha(self, tmp_path,
                                                         default):
        # the verdict bound divides the weighted detection bound by
        # sum_g e^{-N alpha(g)}, so a uniform alpha cancels; in linear
        # domain both underflow (N = 20: wrong at 37, division by zero at 38)
        doc = json.loads((SCENARIOS / "detect_two_bsc.json").read_text())
        doc.update(decoder="detect-then-decode", alpha={"default": default})
        p = self._write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["bound", "--scenario", p, "--out", str(out)]) == 0
        bounds = json.loads((out / "bounds.json").read_text())
        # the detection component at alpha = 0
        assert bounds["decode"]["components"]["detection"] == \
            pytest.approx(0.485655708088, rel=1e-12)

    def test_simulate_detect_then_decode(self, tmp_path):
        doc = minimal_doc(trials=200, decoder="detect-then-decode",
                          detection=[[[0, 0]], [[0, 1]]])
        p = self._write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", p, "--out", str(out)]) == 0

    def test_cli_writes_every_result_file(self, tmp_path, monkeypatch):
        # montecarlo returns data only; without a trace it opens no file
        def no_open(*args, **kwargs):
            raise AssertionError(f"montecarlo opened {args[0]}")

        monkeypatch.setattr(gepkit.montecarlo, "open", no_open, raising=False)
        p = str(SCENARIOS / "detect_two_bsc.json")
        out = tmp_path / "out"
        for command in ("simulate", "detect"):
            assert main([command, "--scenario", p, "--out", str(out),
                         "--trials", "200"]) in (0, 1)
        assert sorted(f.name for f in out.iterdir()) == [
            "detect.csv", "detect_summary.json", "summary.json",
            "trials.csv"]


class TestMemoryPreflight:
    """simulate refuses a scenario whose codebooks would not fit before it
    builds a threshold or draws a codebook; sizes are computed, never
    allocated."""

    def test_sec4_at_n64_exits_2_with_the_byte_count(self, tmp_path,
                                                     monkeypatch, capsys):
        doc = json.loads((SCENARIOS / "bsc_compound_sec4.json").read_text())
        doc["N"] = 64
        p = tmp_path / "sec4_n64.json"
        p.write_text(json.dumps(doc))
        rate = load_scenario(p).model.rate(0, 0)
        assert message_count(rate, 64) == 938501
        # its table, plus the gather and four scores of each candidate
        assert 938501 * 64 * 8 == 480512512 > \
            gepkit.montecarlo.TRIAL_BUDGET_BYTES
        assert 480512512 + 938501 * (64 + 4) * 8 == 991057056

        def forbidden(*args, **kwargs):
            raise AssertionError("simulate allocated before its pre-flight")

        monkeypatch.setattr(gepkit.montecarlo, "CodebookRealization",
                            forbidden)
        monkeypatch.setattr(gepkit.montecarlo, "build_thresholds", forbidden)
        code = main(["simulate", "--scenario", str(p), "--trials", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "991057056 bytes" in capsys.readouterr().err
        assert main(["bound", "--scenario", str(p),
                     "--out", str(tmp_path / "out")]) == 0

    def test_detect_exits_2_with_the_byte_count(self, tmp_path, monkeypatch,
                                                capsys):
        """detect counts one trial's uniforms and detection scores,
        (n_users + 1 + H) x N x 8 bytes, before it keys or draws any
        stream."""
        p = SCENARIOS / "detect_two_bsc.json"
        scen = load_scenario(p)
        need = (scen.model.n_users + 1 + scen.model.space_size) * scen.N * 8
        assert need == 800
        derived, keyed = [], []
        derive = gepkit.montecarlo.philox_keys
        rekey = gepkit.montecarlo.rekey

        def spy_derive(master_seed, *path):
            derived.extend(key_paths(master_seed, *path))
            return derive(master_seed, *path)

        def spy_rekey(rng, key, block):
            keyed.append(key)
            return rekey(rng, key, block)

        monkeypatch.setattr(gepkit.montecarlo, "philox_keys", spy_derive)
        monkeypatch.setattr(gepkit.montecarlo, "rekey", spy_rekey)
        monkeypatch.setattr(gepkit.montecarlo, "TRIAL_BUDGET_BYTES", need - 1)
        argv = ["detect", "--scenario", str(p), "--trials", "2",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "800 bytes" in capsys.readouterr().err
        assert derived == keyed == []
        monkeypatch.setattr(gepkit.montecarlo, "TRIAL_BUDGET_BYTES", need)
        assert main(argv) in (0, 1)
        assert derived == [(scen.seed, t, 2) for t in range(2)]
        assert len(keyed) == 2

    def test_sec4_at_n4000_bounds_finite_and_simulate_exits_2(
            self, tmp_path, capsys):
        """e^{N r} is past the float range: the bounds never form the
        message count, and simulate reports it as an input error."""
        doc = json.loads((SCENARIOS / "bsc_compound_sec4.json").read_text())
        doc["N"] = 4000
        p = tmp_path / "sec4_n4000.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["exponents", "--scenario", str(p),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "exponents.csv")))
        assert rows and all(math.isfinite(float(r["exponent"]))
                            for r in rows)
        assert main(["bound", "--scenario", str(p), "--out", str(out)]) == 0
        bounds = json.loads((out / "bounds.json").read_text())
        assert bounds["N"] == 4000
        for report in (bounds["margin"], bounds["partitioned"]):
            assert math.isfinite(report["raw"])
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(p), "--trials", "1",
                     "--out", str(out)]) == 2
        assert "past the float range" in capsys.readouterr().err

    @staticmethod
    def _refuse_thresholds(monkeypatch):
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built

        monkeypatch.setattr(gepkit.montecarlo, "build_thresholds", built)
        return Built

    def test_two_user_candidate_grid_counts(self, tmp_path, monkeypatch,
                                            capsys):
        """mac2-partition at N = 30 with (1, 1) decoded under D = (0, 1):
        its codebooks take 3.75 MiB, but g = (1, 1) alone has 8103^2
        candidates, each held as 2 gathered rows, their stack, a
        likelihood gather of 30 symbols and four scores."""
        doc = load_workloads().generate("mac2-partition", ROOT)
        doc["N"] = 30
        doc["region"].append([1, 1])
        doc["partition"][1]["region"].append([1, 1])
        scen = parse_scenario(doc)
        codebooks = 2 * (90 + 8103) * 30 * 8
        assert (message_count(scen.model.rate(0, 0), 30),
                message_count(scen.model.rate(0, 1), 30)) == (90, 8103)
        assert codebooks == 3932640 < gepkit.montecarlo.TRIAL_BUDGET_BYTES
        grid = (90 * 90 + 8103 * 8103) * (5 * 30 + 4) * 8
        assert 8103 * 8103 == 65658609
        built = self._refuse_thresholds(monkeypatch)
        with pytest.raises(MemoryBudgetExceeded,
                           match=f" {codebooks + grid} bytes"):
            run_trials(scen, 1, 1)
        p = tmp_path / "mac2_n30.json"
        p.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(p), "--trials", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert f"{codebooks + grid} bytes" in capsys.readouterr().err
        doc["N"] = 12  # the benchmark workload's length still passes
        with pytest.raises(built):
            run_trials(parse_scenario(doc), 1, 1)

    def test_single_user_boundary_is_the_codebooks(self, monkeypatch):
        """A single-user decoder's candidates are views of its table, but
        each holds a likelihood gather of N symbols and four scores:
        compound_bsc_relaxed reaches its thresholds at N = 62 (242,801
        messages, 248,628,224 bytes) and is refused at N = 63 (296,558
        messages, 308,420,320 bytes)."""
        doc = json.loads((SCENARIOS / "compound_bsc_relaxed.json").read_text())
        built = self._refuse_thresholds(monkeypatch)
        for N, messages, need in ((62, 242801, 248628224),
                                  (63, 296558, 308420320)):
            assert message_count(0.2, N) == messages
            assert messages * (N + N + 4) * 8 == need
        doc["N"] = 62
        with pytest.raises(built):
            run_trials(parse_scenario(doc), 1, 1)
        doc["N"] = 63
        with pytest.raises(MemoryBudgetExceeded, match=" 308420320 bytes"):
            run_trials(parse_scenario(doc), 1, 1)
