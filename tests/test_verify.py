import json
from dataclasses import replace

import numpy as np
import pytest

from wavefilter import io, verify
from wavefilter.cli import main
from wavefilter.filters import build_filter_bank
from wavefilter.verify import REGISTRY, ToleranceProfile, check_filter_bank, run_verification


class TestRunVerification:
    def test_default_profile_all_pass(self):
        checks = run_verification()
        failures = [c for c in checks if not c.passed]
        assert not failures, failures

    def test_row_count_matches_registry(self):
        checks = run_verification(ToleranceProfile(sizes=(64,)))
        names = [c.name for c in checks]
        assert len(set(names)) == len(names)
        assert len(checks) == len(REGISTRY)

    def test_small_profile_passes(self):
        checks = run_verification(ToleranceProfile(sizes=(64, 128)))
        assert all(c.passed for c in checks)


class TestToleranceProfile:
    @pytest.mark.parametrize("kwargs, message", [
        ({"sizes": ()}, r"^sizes must be a non-empty tuple of sizes of at least 1, got \(\)$"),
        ({"sizes": (0,)}, r"^sizes must be a non-empty tuple of sizes of at least 1, got \(0,\)$"),
        ({"sizes": (64, -3)}, r"^sizes must be .* at least 1, got \(64, -3\)$"),
    ])
    def test_rejects_empty_or_too_small_sizes_by_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ToleranceProfile(**kwargs)

    def test_overlap_horizons_are_fixed_not_a_field(self):
        with pytest.raises(TypeError, match="overlap_sizes"):
            ToleranceProfile(overlap_sizes=(200,))
        assert verify._OVERLAP_SIZES == (200, 1000)

    @pytest.mark.parametrize("sizes, failing", [
        ((5,), {"spectral-decay": 10, "tail-dominance": 60}),
        ((5, 20), {"tail-dominance": 60}),
        ((5, 64), {}),
    ])
    def test_size_bound_checks_fail_when_no_size_reaches_their_minimum(self, sizes, failing):
        profile = ToleranceProfile(sizes=sizes)
        checks = {c.name: c for c in (verify._check_spectral_decay(profile),
                                      verify._check_tail_dominance(profile))}
        for name, check in checks.items():
            if name in failing:
                assert not check.passed
                assert check.detail == f"no size is at least {failing[name]}, got sizes {sizes}"
            else:
                assert check.passed, check


class TestHiddenStateDecay:
    def test_comparator_ignoring_h0_fails(self, monkeypatch):
        # the upper bound alone holds for a zero gap; the closed form does not
        real = verify.derivative_predictions
        monkeypatch.setattr(
            verify,
            "derivative_predictions",
            lambda params, traj: real(replace(params, h0=np.zeros_like(params.h0)), traj),
        )
        assert not verify._check_hidden_state_decay(ToleranceProfile()).passed


class TestBankValidation:
    def test_clean_bank_passes(self):
        checks = check_filter_bank(build_filter_bank(80, 8))
        assert all(c.passed for c in checks)

    def test_corrupt_bank_fails(self):
        bank = build_filter_bank(80, 8)
        phis = bank.phis.copy()
        phis[3, 10] += 0.25
        from dataclasses import replace

        corrupt = replace(bank, phis=phis)
        checks = check_filter_bank(corrupt)
        assert any(not c.passed for c in checks)


class TestCliVerify:
    def test_report_written_and_exit_zero(self, tmp_path):
        report = tmp_path / "report.json"
        rc = main(["verify", "--sizes", "64", "128", "--out", str(report)])
        assert rc == 0
        rows = json.loads(report.read_text())
        assert len(rows) == len(REGISTRY)
        assert all(r["passed"] for r in rows)

    @pytest.mark.parametrize("sizes, message", [
        ([], "argument --sizes: expected at least one argument"),
        (["0"], "argument --sizes: expected a positive integer, got '0'"),
        (["64", "-3"], "argument --sizes: expected a positive integer, got '-3'"),
        (["6.5"], "argument --sizes: expected a positive integer, got '6.5'"),
    ])
    def test_sizes_must_be_positive_integers(self, tmp_path, capsys, sizes, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--sizes", *sizes, "--out", str(tmp_path / "report.json")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_sizes_below_the_size_bound_minimums_fail_those_checks(self, tmp_path, capsys):
        rc = main(["verify", "--sizes", "5", "--out", str(tmp_path / "report.json")])
        assert rc == 1
        failed = [r for r in json.loads((tmp_path / "report.json").read_text()) if not r["passed"]]
        assert [r["name"] for r in failed] == ["spectral-decay", "tail-dominance"]
        out = capsys.readouterr().out
        assert "FAIL  spectral-decay: no size is at least 10, got sizes (5,)" in out
        assert "FAIL  tail-dominance: no size is at least 60, got sizes (5,)" in out

    def test_corrupt_bank_flips_exit_status(self, tmp_path):
        base = tmp_path / "bank"
        main(["filters", "--T", "64", "--k", "5", "--out", str(base)])
        rows = base.with_suffix(".csv").read_text().splitlines()
        cells = rows[10].split(",")
        cells[1] = io.FLOAT_FMT % 0.9
        rows[10] = ",".join(cells)
        base.with_suffix(".csv").write_text("\n".join(rows) + "\n")
        rc = main(
            ["verify", "--sizes", "64", "--bank", str(base),
             "--out", str(tmp_path / "report.json")]
        )
        assert rc == 1
        rows = json.loads((tmp_path / "report.json").read_text())
        assert any(not r["passed"] for r in rows)
