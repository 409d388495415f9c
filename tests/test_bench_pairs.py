import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

STEADY = [10.0, 10.02, 9.98, 10.01, 9.99, 10.0, 10.03, 9.97, 10.01, 9.99]
NOISY = [10.0] * 5 + [12.0] * 5  # quartiles 10 and 12: a spread of 2, wider than 5% of 11


@pytest.mark.parametrize("parent, change, verdict", [
    (STEADY, [v - 1.0 for v in STEADY], "gain"),
    (STEADY, [v - 1.0 for v in STEADY[:8]] + [11.0, 11.0], "unchanged"),  # 8 of 10 pairs won
    (STEADY, [v + 0.4 for v in STEADY], "unchanged"),  # within the 5% bound
    (STEADY, [v + 0.6 for v in STEADY], "regression"),
    (STEADY, STEADY, "unchanged"),  # ties count for neither side
    (NOISY, NOISY, "unresolved"),
    (NOISY, [9.9] * 10, "unchanged"),  # every change run beats every parent run
    (NOISY, [8.0] * 10, "gain"),
    (NOISY, [12.0] * 10, "regression"),
])
def test_verdict_follows_the_review_rules(parent, change, verdict):
    assert bench_pairs._verdict(parent, change, 0.05, (0.0, 0.0)) == verdict


@pytest.mark.parametrize("failed_shares, verdict", [
    ((0.0, 0.1), "unchanged"),  # faster, but more operations fail
    ((0.1, 0.1), "gain"),
    ((0.2, 0.1), "gain"),
])
def test_gain_does_not_count_when_more_operations_fail(failed_shares, verdict):
    faster = [v - 1.0 for v in STEADY]
    assert bench_pairs._verdict(STEADY, faster, 0.05, failed_shares) == verdict


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_rejected_before_any_run(monkeypatch, capsys, pairs):
    monkeypatch.setattr(bench_pairs, "_export", lambda *args: pytest.fail("a tree was exported"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--pairs", pairs, "--out", "unused.json"])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_unknown_workload_is_rejected_before_any_run(monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "_export", lambda *args: pytest.fail("a tree was exported"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--workloads", "cli_batch_ode", "exp_siso",
                          "--out", "unused.json"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'exp_siso'" in capsys.readouterr().err
