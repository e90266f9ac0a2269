import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 102.0, 100.5, 101.5, 100.2, 101.8, 100.9, 101.2, 100.7]


def test_quartiles_of_ten_runs():
    assert bench_pairs.quartiles(list(range(1, 11))) == pytest.approx((3.25, 5.5, 7.75))
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_gain_needs_nine_in_ten_wins_and_a_gap_above_the_parent_iqr():
    change = [74.0 + 0.1 * i for i in range(10)]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.gain_holds(PARENT, change, "lower")
    # one lost pair of ten still holds; two do not
    one_lost = change[:9] + [200.0]
    assert bench_pairs.gain_holds(PARENT, one_lost, "lower")
    two_lost = change[:8] + [200.0, 200.0]
    assert bench_pairs.wins(PARENT, two_lost, "lower") == 8
    assert not bench_pairs.gain_holds(PARENT, two_lost, "lower")
    # every pair won, by less than the parent's interquartile range
    close = [p - 0.01 for p in PARENT]
    assert bench_pairs.wins(PARENT, close, "lower") == 10
    assert not bench_pairs.gain_holds(PARENT, close, "lower")
    # ties count for neither side
    assert bench_pairs.wins(PARENT, PARENT, "lower") == 0
    # where higher is better the same numbers are a loss
    assert not bench_pairs.gain_holds(PARENT, change, "higher")
    assert bench_pairs.gain_holds(change, PARENT, "higher")


def test_verdict_against_the_bound():
    assert bench_pairs.verdict(PARENT, [p * 1.05 for p in PARENT],
                               "lower", 0.1) == "within bound"
    assert bench_pairs.verdict(PARENT, [p * 1.2 for p in PARENT],
                               "lower", 0.1) == "worse"
    assert bench_pairs.verdict(PARENT, [p * 0.8 for p in PARENT],
                               "higher", 0.1) == "worse"
    # a spread wider than the bound leaves a small move unresolved
    wide = [50.0, 150.0] * 5
    assert bench_pairs.verdict(wide, wide, "lower", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.verdict(wide, [10.0, 40.0] * 5, "lower", 0.25) == "within bound"


def _git(cwd, *args):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def test_out_names_the_commit_of_each_checkout(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        _git(checkout, "init", "-q")
        (checkout / "f").write_text(checkout.name)
        _git(checkout, "add", "f")
        _git(checkout, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "c")
    plain = change / "copy"  # a plain directory inside a work tree
    plain.mkdir()
    assert bench_pairs.head_commit(parent) == _git(parent, "rev-parse", "HEAD")
    assert bench_pairs.head_commit(plain) is None
    assert bench_pairs.head_commit(tmp_path) is None

    names = [m["name"] for m in json.loads(
        (_PATH.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]]
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, *args: dict.fromkeys(names, 1.0))
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "desk_point", "--seeds", "1,2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["commits"] == {"parent": _git(parent, "rev-parse", "HEAD"),
                              "change": _git(change, "rev-parse", "HEAD")}


def test_cpu_seconds_are_read_from_the_diagnostics_and_reported(tmp_path, monkeypatch, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    names = [m["name"] for m in json.loads(
        (_PATH.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]]
    metrics = {name: {"value": 2.0, "unit": "s"} for name in names}
    (checkout / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'diagnostics': {'cpu_s': 8.5, 'walls_s': [1.0]}}))\n"
        f"print(json.dumps({{'correct': True, 'metrics': {metrics!r}}}))\n")
    assert bench_pairs.run_once(checkout, "desk_point", 1, 1.0) == dict.fromkeys(names, 2.0) | {
        "cpu_s": 8.5}

    cpu = {"parent": iter([9.0, 7.0, 8.0]), "change": iter([4.0, 6.0, 5.0])}
    for side in cpu:
        (tmp_path / side).mkdir()
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: dict.fromkeys(
        names, 1.0) | {"cpu_s": next(cpu[checkout.name])})
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "desk_point", "--seeds", "1,2,3", "--out", str(out)])
    assert "cpu_s (s, reported, not judged): parent 8, change 5" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["summary"]["cpu_s"] == {"parent_median": 8.0, "change_median": 5.0}
    assert [run["cpu_s"] for run in doc["runs"]["change"]] == [4.0, 6.0, 5.0]
