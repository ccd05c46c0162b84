"""Verdicts of the compare mode (choosing-metrics, section 8)."""

import json

import compare


def _set(tmp_path, side, values):
    d = tmp_path / side
    d.mkdir(parents=True)
    for seed, v in enumerate(values):
        (d / f"r{seed}.json").write_text(json.dumps({
            "workload": "w", "seed": seed, "trace": 0, "attempted": 10,
            "failed": 0, "metrics": {"op_p50_ms": {"value": v, "unit": "ms"}}}))
    return str(d)


BENCH = {"workloads": [{"name": "w"}], "end_to_end": [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


def _verdict(tmp_path, parent, change):
    rows = compare.report(_set(tmp_path, "p", parent),
                          _set(tmp_path, "c", change), BENCH)
    return rows[0]


def test_improved_unchanged_worse(tmp_path):
    parent = [100, 101, 99, 100.5, 99.5, 100, 101, 99, 100, 100.2]
    faster = [v * 0.8 for v in parent]
    assert _verdict(tmp_path / "a", parent, faster)["verdict"] == "improved"
    same = [v + (0.3 if i % 2 else -0.3) for i, v in enumerate(parent)]
    assert _verdict(tmp_path / "b", parent, same)["verdict"] == "unchanged"
    slower = [v * 1.2 for v in parent]
    row = _verdict(tmp_path / "c", parent, slower)
    assert row["verdict"] == "worse" and row["won"] == 0.0


def test_unresolved_when_spread_exceeds_bound_or_too_few_pairs(tmp_path):
    noisy = [80, 120, 90, 110, 70, 130, 85, 115, 95, 105]
    change = [v + (5 if i % 3 else -5) for i, v in enumerate(noisy)]
    assert _verdict(tmp_path / "a", noisy, change)["verdict"] == "unresolved"
    assert _verdict(tmp_path / "b", [100] * 5, [80] * 5)["verdict"] == (
        "unresolved")


def test_gain_not_counted_with_more_failures():
    row = compare.verdict([100] * 10, [80] * 10, "lower", 0.1,
                          more_failures=True)
    assert row["verdict"] == "unchanged"
