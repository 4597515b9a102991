"""The A/B harness's summary: seeds, quartiles, pairs won and op counts."""

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_seed_ranges_and_lists():
    assert ab.parse_seeds("1-10") == list(range(1, 11))
    assert ab.parse_seeds("3") == [3]
    assert ab.parse_seeds("1,4-5,9") == [1, 4, 5, 9]


def _result(rss, rate, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 3,
        "failed": failed,
        "metrics": {
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "pretrain_samples_per_s": {"value": rate, "unit": "samples/s"},
        },
    }


def test_summary_counts_pairs_won_in_the_metric_direction():
    pairs = [
        (1, "parent", {"parent": _result(700.0, 10.0), "change": _result(500.0, 11.0)}),
        (2, "change", {"parent": _result(710.0, 12.0), "change": _result(710.0, 11.0)}),
        (3, "parent", {"parent": _result(720.0, 10.0), "change": _result(730.0, 10.5,
                                                                         failed=1)}),
    ]
    lower = ab.summarize(pairs, "peak_rss_mb", "lower")
    assert lower["peak_rss_mb_pairs_won"] == {"change": 1, "pairs": 3}  # a tie wins nothing
    assert lower["peak_rss_mb_pair_ratios"] == {"min": 500.0 / 700.0, "q1": 500.0 / 700.0,
                                                "median": 1.0, "q3": 730.0 / 720.0,
                                                "max": 730.0 / 720.0, "n": 3}
    assert ab.summarize(pairs, "pretrain_samples_per_s", "higher")[
        "pretrain_samples_per_s_pairs_won"] == {"change": 2, "pairs": 3}
    rss = lower["metrics"]["peak_rss_mb"]
    assert rss["parent"]["runs"] == [700.0, 710.0, 720.0]
    assert rss["change"] == {"runs": [500.0, 710.0, 730.0], "median": 710.0,
                             "q1": 500.0, "q3": 730.0, "n": 3}
    assert rss["change_over_parent"] == 1.0
    assert lower["first"] == ["parent", "change", "parent"]
    assert lower["seeds"] == {"parent": [1, 2, 3], "change": [1, 2, 3]}
    assert lower["attempted_ops"] == {"parent": 9, "change": 9}
    assert lower["failed_ops"] == {"parent": 0, "change": 1}
    assert lower["all_correct"] is True
    pairs[0][2]["change"]["correct"] = False
    assert ab.summarize(pairs, "peak_rss_mb", "lower")["all_correct"] is False


def test_claim_verdict_needs_nine_in_ten_pairs_and_a_gap_beyond_the_spread():
    """Ten pairs: 9 wins and a median gap wider than the parent's
    interquartile spread meet the claim; 8 wins, or a gap inside the
    spread, do not."""
    def pairs_of(parent, change):
        return [(i, "parent", {"parent": _result(700.0, p), "change": _result(700.0, c)})
                for i, (p, c) in enumerate(zip(parent, change))]

    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    ahead = [v + 2.0 for v in parent[:9]] + [parent[9] - 1.0]
    entry = ab.summarize(pairs_of(parent, ahead), "pretrain_samples_per_s", "higher")
    assert entry["pretrain_samples_per_s_pairs_won"] == {"change": 9, "pairs": 10}
    assert entry["claim_verdict"] == "met"
    eight = ahead[:8] + [parent[8] - 1.0, parent[9] - 1.0]
    entry = ab.summarize(pairs_of(parent, eight), "pretrain_samples_per_s", "higher")
    assert entry["pretrain_samples_per_s_pairs_won"]["change"] == 8
    assert entry["claim_verdict"] == "not met"
    close = [v + 0.1 for v in parent]  # won every pair, but inside the spread
    entry = ab.summarize(pairs_of(parent, close), "pretrain_samples_per_s", "higher")
    assert entry["pretrain_samples_per_s_pairs_won"]["change"] == 10
    assert entry["claim_verdict"] == "not met"
    lower = ab.summarize(pairs_of(parent, ahead), "peak_rss_mb", "lower")
    assert lower["claim_verdict"] == "not met"  # every pair a tie


def test_a_metric_no_run_of_one_side_measured_has_no_median():
    pairs = [(1, "parent", {"parent": _result(700.0, 10.0), "change": _result(500.0, 11.0)})]
    del pairs[0][2]["change"]["metrics"]["pretrain_samples_per_s"]
    rate = ab.summarize(pairs, "peak_rss_mb", "lower")["metrics"]["pretrain_samples_per_s"]
    assert rate["change"] == {"median": None, "q1": None, "q3": None, "n": 0, "runs": []}
    assert rate["change_over_parent"] is None


def _traced(load_s, absent=False):
    return {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            "data.load_s": {"value": load_s, "unit": "s"},
            "norm.gate_s": {"value": None if absent else 0.5, "unit": "s"},
        },
    }


def test_traced_pairs_give_per_layer_medians_without_absent_layers():
    pairs = [
        (1, "parent", {"parent": _traced(0.6), "change": _traced(0.4, absent=True)}),
        (2, "change", {"parent": _traced(0.5), "change": _traced(0.3, absent=True)}),
    ]
    per_layer = ab.summarize_traced(pairs)
    assert per_layer["seeds"] == [1, 2] and per_layer["first"] == ["parent", "change"]
    assert per_layer["all_correct"] is True
    load = per_layer["metrics"]["data.load_s"]
    assert load["parent"]["median"] == 0.55 and load["change"]["median"] == 0.35
    assert abs(load["change_over_parent"] - 0.35 / 0.55) < 1e-15
    gate = per_layer["metrics"]["norm.gate_s"]
    assert gate["change"] == {"median": None, "q1": None, "q3": None, "n": 0, "runs": []}
    assert gate["parent"]["runs"] == [0.5, 0.5] and gate["change_over_parent"] is None


def _fake_package(dest, body):
    """A checkout at ``dest`` whose ``src/protonorm`` package is ``body``."""
    os.makedirs(os.path.join(dest, "src", "protonorm"))
    with open(os.path.join(dest, "src", "protonorm", "__init__.py"), "w") as fh:
        fh.write(body)


# The fake change's fingerprint names the BLAS thread count it ran with.
FAKE_FINGERPRINT = (
    "import os\n"
    "def arithmetic_fingerprint():\n"
    "    return 'threads-' + os.environ['OPENBLAS_NUM_THREADS']\n"
)


def _fake_checkouts(monkeypatch, fake_run):
    """The parent's package predates ``arithmetic_fingerprint``; the
    change's has one."""
    monkeypatch.setattr(ab, "git", lambda *args, **kwargs: "0" * 40)
    monkeypatch.setattr(ab, "working_tree_src_tree", lambda: "1" * 40)
    monkeypatch.setattr(ab, "export_parent", lambda sha, dest: _fake_package(dest, ""))
    monkeypatch.setattr(ab, "export_working_tree",
                        lambda dest: _fake_package(dest, FAKE_FINGERPRINT))
    monkeypatch.setattr(ab, "run_benchmark", fake_run)


def test_each_side_records_its_arithmetic_fingerprint(tmp_path, monkeypatch):
    """Each side's fingerprint is computed by that checkout's own package
    at one BLAS thread; a parent without the function reads null."""
    def fake_run(checkout, side, workload, seed, seconds, trace=0):
        return _result(700.0, 10.0), None

    _fake_checkouts(monkeypatch, fake_run)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    out = tmp_path / "BENCH_test.json"
    ab.main(["--parent", "HEAD", "--workload", "desk-pretrain", "--seeds", "1-2",
             "--out", str(out), "--workdir", str(tmp_path)])
    doc = json.loads(out.read_text())
    assert doc["arithmetic_fingerprint"] == {"parent": None, "change": "threads-1"}


def test_this_checkout_s_fingerprint_is_the_one_its_package_computes():
    import protonorm

    assert ab.checkout_fingerprint(ROOT) == protonorm.arithmetic_fingerprint()


def test_a_claim_is_ruled_on_its_own_workload_alone(tmp_path, monkeypatch, capsys):
    """With two workloads run, only the claimed one counts pairs won and
    gets a verdict; the other reports its metrics against their bounds."""
    def fake_run(checkout, side, workload, seed, seconds, trace=0):
        return _result(700.0, 10.0 if side == "parent" else 13.0), None

    _fake_checkouts(monkeypatch, fake_run)
    out = tmp_path / "BENCH_test.json"
    ab.main(["--parent", "HEAD", "--workload", "desk-pretrain", "--workload", "paper-pretrain",
             "--seeds", "1-2", "--claim", "pretrain_samples_per_s@paper-pretrain",
             "--out", str(out), "--workdir", str(tmp_path)])
    doc = json.loads(out.read_text())
    assert doc["claim"] == {"metric": "pretrain_samples_per_s", "workload": "paper-pretrain"}
    desk, paper = doc["workloads"]["desk-pretrain"], doc["workloads"]["paper-pretrain"]
    assert "claim_verdict" not in desk and not [k for k in desk if k.endswith("_pairs_won")]
    assert desk["regression"]["pretrain_samples_per_s"]["verdict"] == "within"
    assert paper["pretrain_samples_per_s_pairs_won"] == {"change": 2, "pairs": 2}
    assert paper["claim_verdict"] == "met"
    printed = capsys.readouterr().out
    assert printed.count("better in") == 1
    assert "pretrain_samples_per_s better in 2 of 2 pairs: claim met" in printed


@pytest.mark.parametrize("claim, message", [
    ("eval_samples_per_s@shift-pipeline", "workload 'shift-pipeline' is not run"),
    ("eval_samples_per_s", "give it as METRIC@WORKLOAD"),
    ("norm.gate_s@desk-pretrain", "'norm.gate_s' is not an end-to-end metric"),
])
def test_a_claim_that_cannot_be_ruled_on_is_an_error(tmp_path, monkeypatch, claim, message):
    def fake_run(*args, **kwargs):
        raise AssertionError("no run starts for a bad claim")

    _fake_checkouts(monkeypatch, fake_run)
    with pytest.raises(SystemExit, match=re.escape(message)):
        ab.main(["--parent", "HEAD", "--workload", "desk-pretrain", "--seeds", "1",
                 "--claim", claim, "--out", str(tmp_path / "BENCH_test.json")])
    assert not (tmp_path / "BENCH_test.json").exists()


def test_trace_seeds_run_traced_pairs_on_both_sides(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, side, workload, seed, seconds, trace=0):
        calls.append((side, seed, trace))
        if trace:
            return _traced(0.6 if side == "parent" else 0.4), None
        return _result(700.0 if side == "parent" else 500.0, 10.0), None

    _fake_checkouts(monkeypatch, fake_run)
    out = tmp_path / "BENCH_test.json"
    ab.main(["--parent", "HEAD", "--workload", "shift-pipeline", "--seeds", "1-3",
             "--trace-seeds", "2,5", "--claim", "peak_rss_mb@shift-pipeline", "--out", str(out),
             "--workdir", str(tmp_path)])
    assert calls == [
        ("parent", 1, 0), ("change", 1, 0), ("change", 2, 0), ("parent", 2, 0),
        ("parent", 3, 0), ("change", 3, 0),
        ("parent", 2, 1), ("change", 2, 1), ("change", 5, 1), ("parent", 5, 1),
    ]
    doc = json.loads(out.read_text())
    assert doc["traced_benchmark"].endswith("--trace 1")
    assert doc["claim"] == {"metric": "peak_rss_mb", "workload": "shift-pipeline"}
    entry = doc["workloads"]["shift-pipeline"]
    assert entry["seeds"]["change"] == [1, 2, 3]
    assert entry["peak_rss_mb_pairs_won"] == {"change": 3, "pairs": 3}
    assert entry["claim_verdict"] == "met"
    assert "data.load_s" not in entry["metrics"]
    per_layer = entry["per_layer"]
    assert per_layer["seeds"] == [2, 5] and per_layer["first"] == ["parent", "change"]
    assert per_layer["metrics"]["data.load_s"]["change"]["runs"] == [0.4, 0.4]
    printed = capsys.readouterr().out
    assert "peak_rss_mb better in 3 of 3 pairs: claim met" in printed
    assert "data.load_s: parent 0.6 -> change 0.4" in printed


def _sides(parent, change):
    return {"parent": dict(ab.quartiles(parent), runs=parent),
            "change": dict(ab.quartiles(change), runs=change)}


def test_regression_sets_each_median_against_its_bound():
    declared = {
        "peak_rss_mb": {"better": "lower", "bound": 0.1},
        "pretrain_samples_per_s": {"better": "higher", "bound": 0.25},
        "setup_s": {"better": "lower", "bound": 0.25},
        "test_accuracy": {"better": "higher", "bound": 0.15},
    }
    metrics = {
        # 12% more memory on a tight parent: worse
        "peak_rss_mb": _sides([100.0, 100.0, 101.0, 100.0], [112.0, 112.0, 113.0, 112.0]),
        # 20% slower, within its 25% bound
        "pretrain_samples_per_s": _sides([10.0, 10.0, 10.0, 10.0], [8.0, 8.0, 8.0, 8.0]),
        # a parent spread of 50% is wider than the bound: cannot tell
        "setup_s": _sides([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4]),
    }
    verdicts = ab.regression(metrics, declared)
    rss = verdicts["peak_rss_mb"]
    assert rss["verdict"] == "worse" and abs(rss["worse_by"] - 0.12) < 1e-12
    rate = verdicts["pretrain_samples_per_s"]
    assert rate["verdict"] == "within" and abs(rate["worse_by"] - 0.2) < 1e-12
    assert rate["parent_spread"] == 0.0
    setup = verdicts["setup_s"]
    assert setup["verdict"] == "unresolved" and setup["parent_spread"] > 0.25
    assert verdicts["test_accuracy"] == {"bound": 0.15, "verdict": "unmeasured"}
    # a wide parent spread is resolved when every change run reads better
    metrics["setup_s"] = _sides([0.1, 0.2, 0.3, 0.4], [0.01, 0.02, 0.03, 0.04])
    setup = ab.regression(metrics, declared)["setup_s"]
    assert setup["verdict"] == "within" and setup["worse_by"] < 0


def test_a_run_without_a_claim_reports_each_metric_against_its_bound(tmp_path, monkeypatch,
                                                                      capsys):
    def fake_run(checkout, side, workload, seed, seconds, trace=0):
        return _result(700.0 if side == "parent" else 800.0, 10.0), None

    _fake_checkouts(monkeypatch, fake_run)
    out = tmp_path / "BENCH_test.json"
    ab.main(["--parent", "HEAD", "--workload", "desk-pretrain", "--seeds", "1-2",
             "--out", str(out), "--workdir", str(tmp_path)])
    entry = json.loads(out.read_text())["workloads"]["desk-pretrain"]
    assert not [key for key in entry if key.endswith("_pairs_won")]
    regression = entry["regression"]
    assert regression["peak_rss_mb"]["verdict"] == "worse"  # +14% against a 10% bound
    assert regression["pretrain_samples_per_s"]["verdict"] == "within"
    assert regression["setup_s"]["verdict"] == "unmeasured"
    printed = capsys.readouterr().out
    assert "peak_rss_mb: worse (worse by +14.29%, bound 10%" in printed
    assert "better in" not in printed
