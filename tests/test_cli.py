"""Command-line contract: documented invocations, JSON round-trips, exit codes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import surfcoh.transform
from conftest import check_report
from surfcoh import (
    MINUS_ONE_CURVE_COUNTS,
    ORACLE_NAMES,
    DivisorClass,
    catalog_surface,
    fixture_path,
    is_effective,
    load_surface,
    make_del_pezzo,
)
from surfcoh.cli import main


K3_SLICE_SPEC = {
    "name": "k3_slice",
    "rank": 2,
    "intersection_matrix": [[0, 1], [1, 0]],
    "canonical_class": [0, 0],
    "chi_structure_sheaf": 2,
    "negative_curves": [],
    "mori_generators": [[1, 0], [0, 1]],
    "effective_generators": [[1, 0], [0, 1]],
    "regime": "trivial_canonical",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCohomologyCommand:
    def test_documented_dp1_invocation(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--surface", "dp1", "--class", "2,1")
        assert code == 0
        assert "h0=6 h1=0 h2=0 chi=6, certificate kawamata_viehweg" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "cohomology", "--surface", "dp1", "--class", "2,1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["h0"] == 6 and data["chi"] == 6
        assert data["certificate"]["rule"] == "kawamata_viehweg"
        assert data["trace"]["limit"] == [2, 0]

    def test_unknown_h_values_render(self, capsys, tmp_path):
        # A trivial-canonical surface with a square-zero nef class: no
        # certificate applies, so h0 and h1 print as unknown.
        path = tmp_path / "k3_slice.json"
        path.write_text(json.dumps(K3_SLICE_SPEC))
        code, out, _ = run_cli(capsys, "cohomology", "--surface", str(path), "--class", "1,0")
        assert code == 0
        assert "h0=unknown h1=unknown h2=0 chi=2, certificate none" in out

    @pytest.mark.parametrize(
        "surface, coeffs",
        [("dp1", "2,1"), ("dp1", "-1,0"), ("k3_slice", "1,0"), ("gdp2", "2,2,0")],
    )
    def test_json_reports_check_out(self, capsys, tmp_path, surface, coeffs):
        # The cohomology runs of this file, in JSON, against check_report.
        if surface == "k3_slice":
            path = tmp_path / "k3_slice.json"
            path.write_text(json.dumps(K3_SLICE_SPEC))
            model, surface = load_surface(K3_SLICE_SPEC), str(path)
        else:
            model = catalog_surface(surface)
        code, out, _ = run_cli(
            capsys, "cohomology", "--surface", surface, "--class", coeffs, "--format", "json"
        )
        assert code == 0
        check_report(model, DivisorClass(int(c) for c in coeffs.split(",")), json.loads(out))

    def test_rank_mismatch_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "--surface", "dp1", "--class", "2,1,0")
        assert code == 2
        assert "rank 2" in err

    def test_unknown_surface_lists_names(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "--surface", "dp42", "--class", "1")
        assert code == 1
        assert "dp0..dp8" in err

    def test_negative_coefficients_parse(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--surface", "dp1", "--class", "-1,0")
        assert code == 0
        assert "h0=0" in out


class TestTransformCommand:
    def test_documented_gdp2_invocation(self, capsys, tmp_path, monkeypatch):
        shutil.copy(fixture_path("gdp2"), tmp_path / "gdp2.json")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "transform", "--surface", "gdp2.json", "--class", "2,2,0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "input: [2, 2, 0]"
        assert lines[1] == "step 1: - 1 × [0, 1, -1] → [2, 1, 1]"
        assert lines[2] == "step 2: - 1 × [0, 0, 1] → [2, 1, 0]"
        assert lines[3] == "step 3: - 1 × [0, 1, -1] → [2, 0, 1]"
        assert lines[4] == "step 4: - 1 × [0, 0, 1] → [2, 0, 0]"
        assert "limit: [2, 0, 0]" in out
        assert "steps: 4" in out

    def test_non_effective_input_fails(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--surface", "dp1", "--class", "1,-2")
        assert code == 1
        assert "not effective" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--surface", "gdp2", "--class", "2,2,0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["input"] == [2, 2, 0]
        assert data["limit"] == [2, 0, 0]
        assert data["step_count"] == 4
        assert [s["fixed_part"][0]["curve"] for s in data["steps"]] == [
            [0, 1, -1],
            [0, 0, 1],
            [0, 1, -1],
            [0, 0, 1],
        ]


class TestCatalogCommand:
    @pytest.mark.parametrize("k", range(9))
    def test_negative_curve_counts_in_json(self, capsys, k):
        code, out, _ = run_cli(capsys, "catalog", "--surface", f"dp{k}", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["negative_curve_count"] == MINUS_ONE_CURVE_COUNTS[k]
        assert len(data["negative_curves"]) == MINUS_ONE_CURVE_COUNTS[k]

    def test_text_shows_basis(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--surface", "dp2")
        assert code == 0
        assert "basis: H, E1, E2" in out

    def test_spec_file_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "catalog", "--surface", str(fixture_path("gdp2")), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["regime"] == "general"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_builtin_gdp2_prints_as_its_spec_file(self, capsys, fmt):
        _, spec_out, _ = run_cli(
            capsys, "catalog", "--surface", str(fixture_path("gdp2")), "--format", fmt
        )
        code, out, _ = run_cli(capsys, "catalog", "--surface", "gdp2", "--format", fmt)
        assert code == 0
        assert out == spec_out


class TestOracleCheckCommand:
    def test_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--surface", "f2", "--class", "1,0")
        assert code == 0
        assert "pipeline h0: 1" in out and "oracle h0: 1" in out and "match: true" in out

    def test_no_oracle_for_dp5(self, capsys):
        code, _, err = run_cli(capsys, "oracle-check", "--surface", "dp5", "--class", "0,0,0,0,0,0")
        assert code == 2
        assert "--oracle" in err
        assert f"available: {', '.join(ORACLE_NAMES)}" in err and "gdp2" in err


from conftest import box_classes, corrupt_f2_spec


class TestScanCommand:
    def test_documented_f2_scan_clean(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--surface", "f2", "--box", "-3..3")
        assert code == 0
        assert "mismatches: 0" in out

    def test_scan_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--surface", "dp1", "--box", "-2..2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["classes"] == 25
        assert data["mismatches"] == 0
        assert data["mismatch_details"] == []

    def test_gdp2_scan_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--surface", "gdp2", "--box", "-2..2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert (data["oracle"], data["classes"], data["mismatches"]) == ("gdp2", 125, 0)

    def test_copied_gdp2_spec_gets_its_oracle(self, capsys, tmp_path):
        # The oracle is found by the surface's own name, not the file's.
        path = tmp_path / "my_surface.json"
        shutil.copy(fixture_path("gdp2"), path)
        code, out, _ = run_cli(capsys, "scan", "--surface", str(path), "--box", "-1..1")
        assert code == 0
        assert "oracle: gdp2" in out and "mismatches: 0" in out

    def test_corrupted_fixture_yields_nonzero_exit(self, capsys, tmp_path):
        path = corrupt_f2_spec(tmp_path)
        code, out, _ = run_cli(
            capsys, "scan", "--surface", str(path), "--oracle", "f2", "--box", "-3..3"
        )
        assert code == 1
        assert "mismatches: 0" not in out
        assert "mismatch at" in out

    @pytest.mark.parametrize("box", ((-3, 0), (-1, 2)))
    def test_scan_decides_each_class_once_per_branch(self, capsys, monkeypatch, box):
        # One effectiveness decision for D and one for K - D; the effective
        # count reuses the first instead of deciding D a third time.
        decisions = []
        inner = surfcoh.transform.cone_contains

        def counting(cone, d):
            decisions.append(d)
            return inner(cone, d)

        monkeypatch.setattr(surfcoh.transform, "cone_contains", counting)
        lo, hi = box
        code, out, _ = run_cli(
            capsys, "scan", "--surface", "dp3", "--box", f"{lo}..{hi}", "--format", "json"
        )
        monkeypatch.undo()
        data = json.loads(out)
        assert code == 0 and data["classes"] == 256
        assert len(decisions) == 2 * 256
        surface = make_del_pezzo(3)
        assert data["effective"] == sum(is_effective(surface, d) for d in box_classes(4, lo, hi))

    def test_bad_box_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--surface", "f2", "--box", "nope")
        assert code == 2
        assert "lo..hi" in err

    def test_self_contradictory_fixture_fails_loudly(self, capsys, tmp_path):
        # A wrong canonical class makes the pipeline's own h1-positivity
        # check fire; the scan must not paper over it. The spec claims the
        # general regime, which load_surface cannot check against K.
        data = json.loads(fixture_path("f2").read_text())
        data["canonical_class"] = [-2, -6]
        data["regime"] = "general"
        path = tmp_path / "f2_bad_k.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys, "scan", "--surface", str(path), "--oracle", "f2", "--box", "-3..3"
        )
        assert code == 1
        assert "inconsistent" in err

    def test_wrong_canonical_class_fails_the_toric_regime_at_load(self, capsys, tmp_path):
        # Under its own label the same fault is caught before any class runs:
        # K^2 = 16 breaks Noether's formula on a rational surface of rank 2.
        data = json.loads(fixture_path("f2").read_text())
        data["canonical_class"] = [-2, -6]
        path = tmp_path / "f2_bad_k.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "scan", "--surface", str(path), "--oracle", "f2", "--box", "-3..3"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: regime: toric_convex_fan needs K^2 = 10 - rank = 8 "
            "(Noether's formula), got 16\n"
        )


def write_form_spec(tmp_path, matrix):
    """A rank-2 spec file with the given form and otherwise valid data."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps({
        "name": "form",
        "rank": 2,
        "intersection_matrix": matrix,
        "canonical_class": [1, 1],
        "chi_structure_sheaf": 1,
        "negative_curves": [],
        "mori_generators": [[1, 0]],
        "effective_generators": [[1, 0]],
        "regime": "general",
    }))
    return str(path)


class TestStrictValidation:
    def test_strict_rejects_bad_signature_file(self, capsys, tmp_path):
        path = write_form_spec(tmp_path, [[1, 0], [0, 1]])
        code, out, err = run_cli(capsys, "catalog", "--surface", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: intersection_matrix: signature (2, 0)")
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--surface", path, "--strict-validation"])
        assert exc.value.code == 2
        assert "--strict-validation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["cohomology", "--class", "1,0"],
            ["transform", "--class", "1,0"],
            ["catalog"],
            ["oracle-check", "--class", "1,0", "--oracle", "f0"],
            ["scan", "--box", "0..1", "--oracle", "f0"],
        ],
        ids=lambda c: c[0],
    )
    def test_every_subcommand_rejects_bad_signature(self, capsys, tmp_path, command):
        path = write_form_spec(tmp_path, [[-1, 0], [0, -1]])
        code, out, err = run_cli(capsys, command[0], "--surface", path, *command[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: intersection_matrix: ")

    @pytest.mark.parametrize(
        "fault, line",
        [
            ({"extra": 1}, "error: extra: unknown field in surface spec"),
            ({"name": None}, "error: name: expected a string, got None"),
        ],
        ids=["stray-key", "null-name"],
    )
    def test_one_fault_spec_file(self, capsys, tmp_path, fault, line):
        data = json.loads(fixture_path("gdp2").read_text())
        data.update(fault)
        path = tmp_path / "fault.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "catalog", "--surface", str(path))
        assert (code, out, err) == (1, "", line + "\n")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "surfcoh", "cohomology", "--surface", "dp1", "--class", "2,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "h0=6" in proc.stdout

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "--surface", "missing.json")
        assert code == 1
        assert "does not exist" in err

    def test_non_utf8_spec_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b"\xff\xfe")
        proc = subprocess.run(
            [sys.executable, "-m", "surfcoh", "catalog", "--surface", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: document: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_malformed_json_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "broken", "rank": ', encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "surfcoh", "catalog", "--surface", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Expecting value: line 1 column ")
        assert len(proc.stderr.splitlines()) == 1
