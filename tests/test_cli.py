import json
import math
import sys
from pathlib import Path

import pytest

from gibq.cli import main


def run(args):
    return main(args)


def test_trees_csv(tmp_path, capsys):
    out = tmp_path / "trees.csv"
    assert run(["trees", "--arity", "2", "--max-gen", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,count,bound_holds"
    counts = [int(l.split(",")[1]) for l in lines[1:-1]]
    assert counts == [1, 1, 2, 5, 14, 42, 132]
    assert lines[-1].startswith("C0,")


def test_trees_stdout(capsys):
    assert run(["trees", "--arity", "3", "--max-gen", "3"]) == 0
    text = capsys.readouterr().out
    assert "3,12,true" in text


def test_construct_writes_bump(tmp_path):
    out = tmp_path / "bump.json"
    code = run(["construct", "--n", "2", "--k", "2", "--s", "-0.75",
                "--sigma", "-2", "--delta", "0.25", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["sigma"] == -2
    assert len(doc["omega_support"]) == 44
    assert len(doc["phi"]["entries"]) == 44


def test_inflate_missing_config_exits_2(tmp_path, capsys):
    code = run(["inflate", "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_inflate_bad_schema_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "s": -0.75}))
    code = run(["inflate", "--config", str(cfg),
                "--out", str(tmp_path / "runs")])
    assert code == 2


def test_inflate_writes_csv_and_manifest(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "k": 2, "s": -0.75, "delta": 0.25, "N_list": [256],
        "families": [{"family": "sobolev"}], "seed": 1,
        "J": 2, "p": 12, "method": "none",
    }))
    outdir = tmp_path / "runs"
    assert run(["inflate", "--config", str(cfg), "--out", str(outdir)]) == 0
    csv_text = (outdir / "runs.csv").read_text()
    assert csv_text.count("\n") == 2
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["rows"] == 1


def test_solve_series_ledger(tmp_path):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "k": 2, "s": -0.75, "delta": 0.25, "n": 1, "seed": 3,
        "base_amplitude": 0.25, "bump": False,
    }))
    out = tmp_path / "ledger.csv"
    assert run(["solve", "--config", str(cfg), "--max-gen", "4",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,sup_l1,ratio"
    assert len(lines) == 6


def test_solve_fixed_point(tmp_path):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "k": 2, "s": -0.75, "delta": 0.25, "n": 1, "seed": 3,
        "base_amplitude": 0.2, "bump": False,
    }))
    out = tmp_path / "fp.csv"
    assert run(["solve", "--config", str(cfg), "--method", "fixed-point",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,sup_l1,ratio"
    assert len(lines) == 2


def test_solve_divergent_bump_reports_honest_ledger(tmp_path):
    # the scheduled bump sits outside the contraction regime; the ledger
    # simply records the growing ratios
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"k": 2, "s": -0.75, "delta": 0.25, "n": 2}))
    out = tmp_path / "ledger.csv"
    assert run(["solve", "--config", str(cfg), "--max-gen", "2",
                "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[2:]]
    assert all(float(r[2]) > 1 for r in rows)


def test_solve_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"k": 2, "s": -0.75, "n": 1, "zzz": 0}))
    assert run(["solve", "--config", str(cfg)]) == 2


def test_solve_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text("3")
    assert run(["solve", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_solve_rejects_nonnegative_s_as_inflate_does(tmp_path, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"k": 2, "s": 0.5, "n": 1}))
    assert run(["solve", "--config", str(cfg)]) == 2
    assert "s must be negative" in capsys.readouterr().err


_SWEEP = {"k": 2, "s": -0.75, "delta": 0.25, "N_list": [256],
          "families": [{"family": "sobolev"}], "seed": 1, "J": 2, "p": 12,
          "method": "none"}

_SOLVE = {"k": 2, "s": -0.75, "delta": 0.25, "n": 1, "seed": 3}


@pytest.mark.parametrize("key,value", [
    ("s", "x"), ("k", "2"), ("N_list", [256, "1024"]), ("N_list", 256),
    ("seed", None), ("p", 12.5), ("J", True), ("s", math.nan),
])
def test_inflate_rejects_a_value_of_the_wrong_type(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SWEEP, **{key: value})))
    assert run(["inflate", "--config", str(cfg),
                "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("s", "x"), ("k", "2"), ("n", "1"), ("seed", [3]), ("p", "16"),
    ("delta", "0.25"), ("base_amplitude", False), ("bump", "no"),
])
def test_solve_rejects_a_value_of_the_wrong_type(tmp_path, capsys, key, value):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(dict(_SOLVE, **{key: value})))
    assert run(["solve", "--config", str(cfg)]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


def test_integral_floats_and_null_defaults_pass_the_key_check():
    from gibq.harness import validate_config

    config = dict(_SWEEP, N_list=[256.0, 1e3], seed=1.0, sigma=None,
                  delta=None)
    assert validate_config(config) is config


# a p of 0 reports the data at t = 0 as the state at T, numpy rejects a
# negative seed, run_inflation needs J >= 2, the schedule k >= 2 and
# rk4_solve a step of at most T/100: each exited 1 (inflate with an error
# row per point, or with a ZeroDivisionError for an rk4_steps of 0 under
# RK4) or, for p and for rk4_steps under the other methods, 0
@pytest.mark.parametrize("command,key,value", [
    ("inflate", "p", 0), ("inflate", "seed", -1), ("inflate", "J", 1),
    ("inflate", "k", 1), ("inflate", "rk4_steps", 0), ("inflate", "rk4_steps", 50),
    ("solve", "p", 0), ("solve", "seed", -1), ("solve", "k", 1),
])
def test_a_value_below_its_least_is_a_config_error(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SWEEP if command == "inflate" else _SOLVE,
                                   **{key: value})))
    args = ["--out", str(tmp_path / "runs")] if command == "inflate" else []
    assert run([command, "--config", str(cfg)] + args) == 2
    assert f"config error: {key} must be at least" in capsys.readouterr().err


def test_an_empty_index_list_is_a_config_error(tmp_path, capsys, monkeypatch):
    # an empty list ran no point, exited 0 and wrote a header-only runs.csv
    from gibq import harness

    monkeypatch.setattr(harness, "run_inflation", _capture)
    for key in ("N_list", "n_list"):
        config = {k: v for k, v in _SWEEP.items() if k != "N_list"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, **{key: []})))
        assert run(["inflate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
        assert f"config error: {key} must hold at least one point" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("entry,message", [
    ({"family": "sobolev", "q": "x"}, "q must be"),
    ({"family": "fourier_lebesgue", "q": 0.5}, "q must be"),
    ({"family": "besov"}, "family must be one of"),
    ({"family": "sobolev_pair"}, "family must be one of"),
    ({"family": "wiener_pair"}, "family must be one of"),
    ({"family": "sobolev", "qq": 3}, "unknown family keys"),
])
def test_inflate_rejects_a_bad_family_before_any_point_runs(tmp_path, capsys, monkeypatch,
                                                             entry, message):
    from gibq import harness

    monkeypatch.setattr(harness, "run_inflation", _capture)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SWEEP, families=[{"family": "sobolev"}, entry])))
    assert run(["inflate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_family_q_may_be_a_number_null_or_inf():
    from gibq.harness import validate_config

    families = [{"family": "fourier_lebesgue", "q": 1}, {"family": "modulation", "q": 2.5},
                {"family": "wiener_amalgam", "q": None}, {"family": "fourier_lebesgue", "q": "inf"},
                {"family": "w_s2inf"}]
    validate_config(dict(_SWEEP, families=families))


def _signature_defaults(names: dict) -> dict:
    """Config values that write out run_inflation's defaults of the
    parameters that names maps config keys to."""
    import inspect

    from gibq.harness import run_inflation

    params = inspect.signature(run_inflation).parameters
    return {key: params[name].default for key, name in names.items()}


def test_a_sweep_without_its_optional_keys_runs_the_signature_defaults(tmp_path):
    # at s = -4 and N = 64 the default RK4 (depth 18, 400 steps, tail
    # tolerance 1e-10) reaches T without a breach in about a second
    bare = dict(_SWEEP, s=-4.0, delta=0.9, N_list=[64], method="rk4")
    written = dict(bare, **_signature_defaults({key: key for key in (
        "base_amplitude", "base_decay", "rk4_depth", "rk4_steps", "rk4_tail_tol")}))
    outputs = []
    for i, config in enumerate((bare, written)):
        cfg, outdir = tmp_path / f"cfg{i}.json", tmp_path / f"runs{i}"
        cfg.write_text(json.dumps(config))
        assert run(["inflate", "--config", str(cfg), "--out", str(outdir),
                    "--dump-reports"]) == 0
        outputs.append([(outdir / name).read_bytes() for name in ("runs.csv", "run_000.json")])
    assert outputs[0] == outputs[1]
    row = dict(zip(*[line.split(",") for line in outputs[0][0].decode().splitlines()]))
    assert row["error"] == "" and row["solution_hs"] != ""


@pytest.mark.parametrize("given", [{}, {"base_amplitude": 0.01}])
def test_a_solve_without_its_optional_keys_runs_the_signature_defaults(tmp_path, given):
    bare = dict(_SOLVE, N=256, **given)
    del bare["n"]
    written = dict(bare, **_signature_defaults({
        key: name for key, name in (("p", "degree"), ("base_amplitude", "base_amplitude"),
                                    ("base_decay", "base_decay")) if key not in given}))
    outputs = []
    for i, config in enumerate((bare, written)):
        cfg = tmp_path / f"solve{i}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"ledger{i}.csv"
        assert run(["solve", "--config", str(cfg), "--max-gen", "3", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class _Captured(Exception):
    pass


def _capture(data, *args, **kwargs):
    raise _Captured(data)


def test_solve_and_run_inflation_build_the_same_data(tmp_path, monkeypatch):
    from gibq import cli, harness

    config = {"k": 2, "s": -0.75, "delta": 0.25, "N": 256, "seed": 4,
              "base_amplitude": 0.01, "base_decay": 0.3}
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setattr(cli, "partial_sum", _capture)
    monkeypatch.setattr(harness, "partial_sum", _capture)
    with pytest.raises(_Captured) as solved:
        run(["solve", "--config", str(cfg)])
    with pytest.raises(_Captured) as inflated:
        harness.run_inflation(harness.point_params(config, "N", 256), base_seed=4,
                              base_amplitude=0.01, base_decay=0.3)
    (a,), (b,) = solved.value.args, inflated.value.args
    assert a.lattice == b.lattice
    for f, g in ((a.u0, b.u0), (a.u1, b.u1)):
        assert f.nnz > 44 and f.xi.tobytes() == g.xi.tobytes()
        assert f.c.tobytes() == g.c.tobytes()


def test_norms_field_value(tmp_path, lattice):
    from gibq.lattice import SpectralField

    f = SpectralField.delta(lattice, 0, 2.0)
    path = tmp_path / "field.json"
    path.write_text(f.to_json())
    out = tmp_path / "value.txt"
    assert run(["norms", "--field", str(path),
                "--spec", "sobolev,-0.75", "--out", str(out)]) == 0
    assert float(out.read_text()) == pytest.approx(2.0)


def test_norms_field_on_line_surrogate(tmp_path):
    from gibq.lattice import FrequencyLattice, SpectralField
    from gibq.norms import NormSpec, norm

    line = FrequencyLattice(period=8.0, cutoff=1 << 20, kind="line_approx")
    f = SpectralField.from_pairs(line, [(-3, 0.5), (0, 1.0), (3, 0.5)])
    path = tmp_path / "field.json"
    path.write_text(f.to_json())
    out = tmp_path / "value.txt"
    assert run(["norms", "--field", str(path),
                "--spec", "sobolev,0", "--out", str(out)]) == 0
    assert float(out.read_text()) == norm(f, NormSpec("sobolev", 0.0))


def test_norms_field_with_a_repeated_frequency(tmp_path):
    entries = [{"xi": 2, "re": 0.0, "im": 1.0}, {"xi": 2, "re": 0.0, "im": 2.0}]
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"period": 1.0, "entries": entries}))
    out = tmp_path / "value.txt"
    assert run(["norms", "--field", str(path),
                "--spec", "sobolev,0", "--out", str(out)]) == 0
    assert float(out.read_text()) == 3.0


def test_norms_requires_arguments(capsys):
    assert run(["norms"]) == 2


def test_oracle_sandwich_csv(tmp_path):
    out = tmp_path / "sandwich.csv"
    assert run(["oracle", "--mode", "sandwich", "--A", "10",
                "--offsets=-1,0,1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10
    assert all(l.endswith("true") for l in lines[1:])


def test_oracle_xi1_csv(tmp_path):
    out = tmp_path / "xi1.csv"
    assert run(["oracle", "--mode", "xi1", "--n", "2", "--k", "2",
                "--s", "-0.75", "--delta", "0.25", "--out", str(out)]) == 0
    assert out.read_text().startswith("xi,re,im")


def test_norms_spec_with_infinite_q(tmp_path, lattice):
    from gibq.lattice import SpectralField

    f = SpectralField.from_pairs(lattice, [(3, 2.0), (-3, 2.0)])
    path = tmp_path / "field.json"
    path.write_text(f.to_json())
    out = tmp_path / "value.txt"
    assert run(["norms", "--field", str(path),
                "--spec", "fourier_lebesgue,0,inf", "--out", str(out)]) == 0
    assert float(out.read_text()) == pytest.approx(2.0)


def test_verify_all_full_mode(tmp_path):
    out = tmp_path / "full.csv"
    assert run(["verify-all", "--out", str(out)]) == 0
    assert all(line.endswith("true") for line in
               out.read_text().strip().splitlines()[1:])


def test_version(capsys):
    code = run(["--version"])
    assert code == 0
    assert "gibq" in capsys.readouterr().out


def test_verify_all_quick_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["verify-all", "--quick", "--out", str(a)]) == 0
    assert run(["verify-all", "--quick", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert all(line.endswith("true") for line in
               a.read_text().strip().splitlines()[1:])


# verify-all rows whose exact value is 0: they hold rounding residuals, so
# any change of summation order moves them by a large relative amount
ROUNDING_RESIDUALS = {"xi1_closed_vs_quadrature", "tree_sum_identity_j2"}


def test_verify_all_quick_matches_golden(tmp_path):
    # tests/data/verify_all_quick.csv holds the output of an earlier
    # version: a change may move the values by rounding only, that is by
    # 1e-12 relative, or by 64 eps absolute for a rounding residual
    out = tmp_path / "quick.csv"
    assert run(["verify-all", "--quick", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "verify_all_quick.csv"
    rows = [line.split(",") for line in out.read_text().splitlines()]
    ref = [line.split(",") for line in golden.read_text().splitlines()]
    assert [(name, ok) for name, _, ok in rows] == [(name, ok) for name, _, ok in ref]
    eps = sys.float_info.epsilon
    for (name, value, _), (_, expected, _) in zip(rows[1:], ref[1:]):
        if name in ROUNDING_RESIDUALS:
            assert abs(float(value) - float(expected)) <= 64 * eps, name
        else:
            assert math.isclose(float(value), float(expected), rel_tol=1e-12, abs_tol=0.0), name
