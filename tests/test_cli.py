import json

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
