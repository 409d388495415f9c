import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from wavefilter import cli, io, online, verify
from wavefilter.cli import main
from wavefilter.filters import build_filter_bank
from wavefilter.verify import REGISTRY, ToleranceProfile, check_filter_bank, run_verification


class TestRunVerification:
    def test_default_profile_all_pass(self):
        checks = run_verification()
        failures = [c for c in checks if not c.passed]
        assert not failures, failures
        # every row is plain JSON: passed is a bool, not a numpy.bool_
        for check in checks:
            assert json.loads(json.dumps(asdict(check)))["passed"] is True, check

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
        ({"sizes": ()}, r"^sizes must be a non-empty tuple, got \(\)$"),
        ({"sizes": (0,)}, r"^sizes\[0\] must be at least 1, got 0$"),
        ({"sizes": (64, -3)}, r"^sizes\[1\] must be at least 1, got -3$"),
        ({"sizes": (64.5,)}, r"^sizes\[0\] must be an integer, got 64\.5$"),
        ({"sizes": (64, True)}, r"^sizes\[1\] must be an integer, got True$"),
        ({"sizes": ("64",)}, r"^sizes\[0\] must be an integer, got '64'$"),
        ({"sizes": 64}, r"^sizes must be a non-empty tuple, got 64$"),
        ({"sizes": None}, r"^sizes must be a non-empty tuple, got None$"),
    ])
    def test_rejects_empty_or_too_small_sizes_by_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ToleranceProfile(**kwargs)

    def test_sizes_are_stored_as_a_tuple(self):
        assert ToleranceProfile(sizes=[64, 128]).sizes == (64, 128)

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


def _raise_one_symbol_entry(hankel):
    symbol = hankel.symbol.copy()
    symbol[0] += 1e-15
    return replace(hankel, symbol=symbol)


class TestChecksCanFail:
    @pytest.mark.parametrize("name, scale, checks", [
        ("mu_curve", 1.01, [verify._check_mu_envelope, verify._check_mu_l1,
                            verify._check_mu_l2, verify._check_moment_identity]),
        ("spectral_tail_sum", 1e6, [verify._check_tail_dominance]),
        # a smaller tail shrinks the residual bound sqrt(6 tail)
        ("spectral_tail_sum", 1e-6, [verify._check_projection_residual]),
        ("featurize_batch", 1.01, [verify._check_fft_equivalence]),
        ("derivative_predictions", 1.01, [verify._check_derivative_equivalence]),
        ("featurize_batch", 100.0, [verify._check_feature_entry_bound]),
        ("featurize_online", 1000.0, [verify._check_feature_norm_bound]),
        ("lipschitz_bound", 0.1, [verify._check_output_lipschitz]),
    ])
    def test_scaled_quantity_fails_the_checks_that_bound_it(self, monkeypatch, name, scale, checks):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args: scale * real(*args))
        for check in checks:
            result = check(ToleranceProfile())
            assert not result.passed, result

    @pytest.mark.parametrize("name, edit, check", [
        ("full_spectrum", lambda spec: replace(spec, sigmas=spec.sigmas - 1e-9),
         verify._check_hankel_psd),
        ("full_spectrum", lambda spec: replace(spec, sigmas=spec.sigmas * 1e6),
         verify._check_spectral_decay),
        ("build_hankel", lambda hankel: replace(hankel, symbol=2.0 * hankel.symbol),
         verify._check_hankel_trace),
        ("build_hankel", _raise_one_symbol_entry, verify._check_hankel_entries),
    ], ids=["hankel-psd-lowered-sigmas", "spectral-decay-scaled-sigmas",
            "hankel-trace-doubled-symbol", "hankel-entry-formula-raised-entry"])
    def test_edited_result_fails_the_check_that_reads_it(self, monkeypatch, name, edit, check):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda T: edit(real(T)))
        result = check(ToleranceProfile())
        assert not result.passed, result


class _FullGram:
    """numpy, except that ``tril`` returns the whole matrix."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def tril(a, k=0):
        return np.array(a)


class TestOgdEquivalence:
    def test_blocked_run_matches_the_per_step_loop(self):
        check = verify._check_ogd_equivalence(ToleranceProfile())
        assert check.passed and check.detail.startswith("max abs diff "), check

    def test_a_block_solve_that_reads_later_rows_fails(self, monkeypatch):
        # the whole Gram instead of its strictly lower triangle: every residual
        # of a block then depends on the block's later rows
        monkeypatch.setattr(online, "np", _FullGram())
        check = verify._check_ogd_equivalence(ToleranceProfile())
        assert not check.passed, check


class TestBankValidation:
    def test_clean_bank_passes(self):
        checks = check_filter_bank(build_filter_bank(80, 8))
        assert all(c.passed for c in checks)
        order = next(c for c in checks if c.name == "bank-sigma-order")
        assert order.detail == "no sigma rises by more than 1e-12"

    @pytest.mark.parametrize("method, rows", [
        ("eigen", ["bank-orthonormality", "bank-sigma-order", "bank-rayleigh", "bank-filter-l1"]),
        ("hilbert", ["bank-orthonormality", "bank-sigma-order", "bank-rayleigh"]),
        ("ode", ["bank-orthonormality", "bank-sigma-order"]),
    ], ids=["eigen", "hilbert", "ode"])
    def test_each_method_gets_its_rows_and_an_edited_sigma_fails_the_rayleigh_row(self, method,
                                                                                rows):
        bank = build_filter_bank(80, 8, method=method)
        checks = check_filter_bank(bank)
        assert [c.name for c in checks] == rows and all(c.passed for c in checks), checks
        sigmas = bank.sigmas.copy()
        sigmas[0] *= 1 + 1e-9
        failed = [c.name for c in check_filter_bank(replace(bank, sigmas=sigmas)) if not c.passed]
        assert failed == (["bank-rayleigh"] if "bank-rayleigh" in rows else [])

    def test_corrupt_bank_fails(self):
        bank = build_filter_bank(80, 8)
        phis = bank.phis.copy()
        phis[3, 10] += 0.25
        from dataclasses import replace

        corrupt = replace(bank, phis=phis)
        checks = check_filter_bank(corrupt)
        assert any(not c.passed for c in checks)


def _perturb_one_phi_entry(phis, sigmas):
    phis[1, 10] += 1e-3


def _swap_two_sigmas(phis, sigmas):
    sigmas[[1, 2]] = sigmas[[2, 1]]


def _scale_the_sigmas(phis, sigmas):
    sigmas *= 1e8


def _edit_one_sigma(phis, sigmas):
    sigmas[3] *= 1.01


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

    @pytest.mark.parametrize("T, k, sigmas, message", [
        (0, 0, [], r"bank\.json, whose T must be at least 1, got 0$"),
        (4, 1, [-1.0], r"^sigmas must be 1-D, finite and nonnegative, got shape \(1,\), least -1"),
    ], ids=["empty-bank", "negative-sigma"])
    def test_a_bank_file_that_is_no_bank_exits_2_naming_the_field(self, tmp_path, capsys, T, k,
                                                                 sigmas, message):
        base = tmp_path / "bank"
        base.with_suffix(".csv").write_text("".join("1.0\n" * k for _ in range(T)))
        base.with_suffix(".json").write_text(
            json.dumps({"T": T, "k": k, "sigmas": sigmas, "method": "eigen"}))
        assert main(["verify", "--sizes", "5", "--bank", str(base)]) == 2
        assert re.search(message, capsys.readouterr().err.split("error: ", 1)[1])

    @pytest.mark.parametrize("row, edit, detail", [
        ("bank-orthonormality", _perturb_one_phi_entry, r"^max gram deviation "),
        ("bank-sigma-order", _swap_two_sigmas,
         r"^first rise at index 2: sigma\[1\] \S+ < sigma\[2\] \S+$"),
        ("bank-filter-l1", _scale_the_sigmas, r"^worst l1-minus-bound "),
        ("bank-rayleigh", _edit_one_sigma, r"^max Rayleigh quotient deviation "),
    ], ids=["phi-entry", "swapped-sigmas", "scaled-sigmas", "one-sigma"])
    def test_each_bank_row_fails_on_its_corrupted_file(self, tmp_path, monkeypatch, row, edit,
                                                       detail):
        base = tmp_path / "bank"
        io.save_filter_bank(build_filter_bank(64, 5), base)
        monkeypatch.setattr(cli, "run_verification", lambda profile: [])  # the bank rows alone
        report = tmp_path / "report.json"
        argv = ["verify", "--bank", str(base), "--out", str(report)]
        assert main(argv) == 0
        assert [r["name"] for r in json.loads(report.read_text())] == [
            "bank-orthonormality", "bank-sigma-order", "bank-rayleigh", "bank-filter-l1"]
        bank = io.load_filter_bank(base)
        phis, sigmas = bank.phis.copy(), bank.sigmas.copy()
        edit(phis, sigmas)
        io.save_filter_bank(replace(bank, phis=phis, sigmas=sigmas), base)
        assert main(argv) == 1
        failed = {r["name"]: r["detail"] for r in json.loads(report.read_text()) if not r["passed"]}
        assert re.search(detail, failed[row]), failed[row]

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
