"""The A/B harness's summary: seeds, quartiles, pairs won and op counts."""

import importlib.util
import os

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


def test_a_metric_no_run_of_one_side_measured_has_no_median():
    pairs = [(1, "parent", {"parent": _result(700.0, 10.0), "change": _result(500.0, 11.0)})]
    del pairs[0][2]["change"]["metrics"]["pretrain_samples_per_s"]
    rate = ab.summarize(pairs, "peak_rss_mb", "lower")["metrics"]["pretrain_samples_per_s"]
    assert rate["change"] == {"median": None, "q1": None, "q3": None, "n": 0, "runs": []}
    assert rate["change_over_parent"] is None
