import json

import numpy as np
import pytest

from reachtune import cli
from reachtune.cli import main
from reachtune.modelio import (SafetySpec, load_model, read_report,
                               read_result, save_model)
from reachtune.reach import LinearSystem
from reachtune.sampling import check_containment, sample_trajectories
from reachtune.zonotope import Zonotope


def gen_model(tmp_path, name="model.json", dim=2, seed=42):
    path = tmp_path / name
    assert main(["gen", "--dim", str(dim), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return path


def test_gen_then_run_then_check(tmp_path, capsys):
    model = gen_model(tmp_path)
    out = tmp_path / "result.jsonl"
    report = tmp_path / "report.json"
    code = main(["run", "--model", str(model), "--eps", "0.05",
                 "--out", str(out), "--report", str(report)])
    assert code == 0
    segments = read_result(out)
    assert segments[0].t_lo == 0.0 and segments[-1].t_hi == 3.0
    rep = read_report(report)
    assert rep.steps == len(segments)
    assert rep.budget["total"] == pytest.approx(0.05)
    assert main(["check", "--result", str(out), "--model", str(model)]) == 0
    assert "no specs" in capsys.readouterr().out


def test_run_with_weights_and_specs_violation(tmp_path, capsys):
    sys_ = LinearSystem(np.zeros((2, 2)),
                        Zonotope(np.full(2, 10.0), 0.25 * np.eye(2)),
                        Zonotope.point([0.0, 0.0]), 1.0)
    model = tmp_path / "static.json"
    save_model(model, sys_, (SafetySpec("x1-le-10", [1.0, 0.0], 10.0),))
    out = tmp_path / "r.jsonl"
    code = main(["run", "--model", str(model), "--eps", "0.05",
                 "--weights", "0.5,0.25,0.25", "--out", str(out)])
    assert code == 2
    assert "VIOLATED" in capsys.readouterr().out
    assert main(["check", "--result", str(out), "--model", str(model)]) == 2


def test_run_satisfied_spec_exits_zero(tmp_path):
    sys_ = LinearSystem(np.zeros((2, 2)),
                        Zonotope(np.full(2, 10.0), 0.25 * np.eye(2)),
                        Zonotope.point([0.0, 0.0]), 1.0)
    model = tmp_path / "static.json"
    save_model(model, sys_, (SafetySpec("x1-le-11", [1.0, 0.0], 11.0),))
    assert main(["run", "--model", str(model), "--eps", "0.05"]) == 0


def test_baseline_cli(tmp_path):
    model = gen_model(tmp_path)
    out = tmp_path / "base.jsonl"
    report = tmp_path / "base_report.json"
    code = main(["baseline", "--model", str(model), "--dt", "0.1",
                 "--eta", "6", "--rho", "10", "--out", str(out),
                 "--report", str(report)])
    assert code == 0
    assert len(read_result(out)) == 30
    assert read_report(report).budget is None


def test_sample_cli_with_result_step(tmp_path):
    model = gen_model(tmp_path)
    out = tmp_path / "r.jsonl"
    main(["run", "--model", str(model), "--eps", "0.5", "--out", str(out)])
    traj = tmp_path / "traj.jsonl"
    code = main(["sample", "--model", str(model), "--count", "3",
                 "--seed", "7", "--out", str(traj), "--result", str(out)])
    assert code == 0
    lines = traj.read_text().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["trajectory"] == 0
    assert len(first["times"]) == len(first["states"])
    assert first["times"][-1] == pytest.approx(3.0)


def test_sample_cli_explicit_step(tmp_path):
    model = gen_model(tmp_path)
    traj = tmp_path / "traj.jsonl"
    assert main(["sample", "--model", str(model), "--count", "1",
                 "--seed", "1", "--out", str(traj), "--step", "0.05"]) == 0
    assert len(traj.read_text().splitlines()) == 1


def test_input_errors_exit_three(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--model", str(missing), "--eps", "0.05"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", "--model", str(bad), "--eps", "0.05"]) == 3
    model = gen_model(tmp_path)
    assert main(["run", "--model", str(model), "--eps", "0.05",
                 "--weights", "1,2"]) == 3
    assert main(["gen", "--dim", "1", "--seed", "1",
                 "--out", str(tmp_path / "m.json")]) == 3
    # baseline eta too small for the remainder to converge at this dt
    spin = LinearSystem(np.array([[0.0, 2.0], [-2.0, 0.0]]),
                        Zonotope(np.full(2, 10.0), 0.25 * np.eye(2)),
                        Zonotope.point([0.0, 0.0]), 3.0)
    spin_path = tmp_path / "spin.json"
    save_model(spin_path, spin)
    assert main(["baseline", "--model", str(spin_path), "--dt", "3.0",
                 "--eta", "1", "--rho", "10"]) == 3
    capsys.readouterr()


def test_malformed_numbers_exit_three(tmp_path, capsys):
    # input checked where it enters: non-numeric fields, bad --eps and
    # --weights values, sample counts and a result of another dimension
    model = gen_model(tmp_path)
    raw = json.loads(model.read_text())
    raw["A"] = [["a", 0.0], [0.0, 1.0]]
    bad = tmp_path / "bad_a.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", "--model", str(bad), "--eps", "0.05"]) == 3
    assert "field A must be numeric" in capsys.readouterr().err
    for eps, weights in (("0", "0.4,0.3,0.3"), ("nan", "0.4,0.3,0.3"),
                         ("0.05", "0.5,0.5,0.5"), ("0.05", "-0.5,1,0.5")):
        assert main(["run", "--model", str(model), "--eps", eps,
                     "--weights", weights]) == 3
    traj = str(tmp_path / "t.jsonl")
    assert main(["sample", "--model", str(model), "--count", "0",
                 "--seed", "1", "--out", traj]) == 3
    assert main(["sample", "--model", str(model), "--count", "1",
                 "--seed", "1", "--out", traj, "--step", "-1"]) == 3
    out = tmp_path / "r.jsonl"
    assert main(["run", "--model", str(model), "--eps", "0.5",
                 "--out", str(out)]) == 0
    assert main(["check", "--result", str(out),
                 "--model", str(gen_model(tmp_path, "m3.json", dim=3))]) == 3
    capsys.readouterr()


def test_negative_seed_exits_three(tmp_path, capsys):
    # numpy's generator refuses a negative seed; gen and sample reject it
    # as input, naming the seed, before any generator is made
    model = gen_model(tmp_path)
    assert main(["gen", "--dim", "2", "--seed", "-1",
                 "--out", str(tmp_path / "neg.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0, got -1" in err
    assert main(["sample", "--model", str(model), "--count", "1",
                 "--seed", "-3", "--out", str(tmp_path / "t.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed must be >= 0, got -3" in err


def test_run_time_failures_exit_four(tmp_path, capsys, monkeypatch):
    model = gen_model(tmp_path)
    # no homogeneous budget: the step search cannot meet the cap
    assert main(["run", "--model", str(model), "--eps", "0.05",
                 "--weights", "0,0.5,0.5"]) == 4
    assert "time step underflow" in capsys.readouterr().err
    # a ValueError raised inside the analysis is a fault, not bad input

    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr(cli, "run_adaptive", broken)
    assert main(["run", "--model", str(model), "--eps", "0.05"]) == 4
    assert "internal error: broken invariant" in capsys.readouterr().err


def test_run_very_stiff_model_succeeds(tmp_path, capsys):
    # the powers of diag(-3000, -1) overflow at the high orders the step
    # search tries first; those candidates are rejected, not input errors
    sys_ = LinearSystem(np.diag([-3000.0, -1.0]),
                        Zonotope.box([1.0, 1.0], [0.1, 0.1]),
                        Zonotope.box([0.0, 0.0], [0.05, 0.05]), 0.3)
    model = tmp_path / "stiff.json"
    save_model(model, sys_)
    out = tmp_path / "stiff.jsonl"
    report = tmp_path / "stiff.report.json"
    assert main(["run", "--model", str(model), "--eps", "0.05",
                 "--out", str(out), "--report", str(report)]) == 0
    rep = read_report(report)
    assert rep.max_step_hom_error <= rep.budget["hom_max"]
    assert rep.input_error_total <= rep.budget["input_max"]
    assert rep.reduction_error_total <= rep.budget["reduction_max"]
    # RK4 needs steps well below 2.8 / 3000 to stay stable
    batch = sample_trajectories(sys_, 10, seed=3, step=1e-4)
    containment = check_containment(read_result(out), batch)
    assert containment.checked > 0
    assert containment.all_contained
    capsys.readouterr()


def test_run_long_horizon_model_succeeds(tmp_path, capsys):
    # the first candidate step is T = 1e4, whose high-order Taylor
    # coefficients dt^k / k! leave the float range; those candidates are
    # rejected like overflowing powers, not reported as internal errors
    sys_ = LinearSystem(np.diag([-1e-3, -2e-3]),
                        Zonotope.box([1.0, 1.0], [0.1, 0.1]),
                        Zonotope.box([0.0, 0.0], [0.01, 0.01]), 1e4)
    model = tmp_path / "slow.json"
    save_model(model, sys_)
    out = tmp_path / "slow.jsonl"
    report = tmp_path / "slow.report.json"
    assert main(["run", "--model", str(model), "--eps", "0.05",
                 "--out", str(out), "--report", str(report)]) == 0
    rep = read_report(report)
    assert rep.steps == len(read_result(out))
    assert rep.max_step_hom_error <= rep.budget["hom_max"]
    assert rep.input_error_total <= rep.budget["input_max"]
    assert rep.reduction_error_total <= rep.budget["reduction_max"]
    capsys.readouterr()


def test_usage_error_exits_three(capsys):
    assert main(["run", "--eps", "0.05"]) == 3
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_multi_model_requires_placeholder(tmp_path, capsys):
    m1 = gen_model(tmp_path, "m1.json", seed=1)
    m2 = gen_model(tmp_path, "m2.json", seed=2)
    code = main(["run", "--model", str(m1), "--model", str(m2),
                 "--eps", "0.05", "--out", str(tmp_path / "out.jsonl")])
    assert code == 3
    capsys.readouterr()


def test_multi_model_batch_runs_serially(tmp_path, capsys):
    m1 = gen_model(tmp_path, "m1.json", seed=1)
    m2 = gen_model(tmp_path, "m2.json", seed=2)
    single = tmp_path / "single"
    single.mkdir()
    for model in (m1, m2):
        assert main(["run", "--model", str(model), "--eps", "0.05",
                     "--out", str(single / f"{model.stem}.jsonl")]) == 0
    capsys.readouterr()
    # m2 first: the print order is the --model order, not the file names'
    code = main(["run", "--model", str(m2), "--model", str(m1),
                 "--eps", "0.05", "--out", str(tmp_path / "{}.jsonl"),
                 "--report", str(tmp_path / "{}.report.json")])
    assert code == 0
    for stem in ("m1", "m2"):
        assert ((tmp_path / f"{stem}.jsonl").read_bytes()
                == (single / f"{stem}.jsonl").read_bytes())
    assert read_report(tmp_path / "m1.report.json").dimension == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [str(m2), str(m1)]


def test_gen_model_round_trips(tmp_path):
    model = gen_model(tmp_path, dim=5, seed=9)
    sys_, specs = load_model(model)
    assert sys_.dim == 5
    assert sys_.horizon == 3.0
    assert specs == []


def test_bad_output_paths_exit_three_before_any_analysis(tmp_path, capsys,
                                                         monkeypatch):
    model = gen_model(tmp_path)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the analysis ran")

    for name in ("run_adaptive", "run_fixed_baseline", "sample_trajectories"):
        monkeypatch.setattr(cli, name, counted)
    folder = tmp_path / "folder"
    folder.mkdir()
    missing = tmp_path / "missing" / "r.jsonl"
    for flag in ("--out", "--report"):
        for path in (folder, missing):
            assert main(["run", "--model", str(model), "--eps", "0.05",
                         flag, str(path)]) == 3
            assert main(["baseline", "--model", str(model), "--dt", "0.1",
                         "--eta", "6", "--rho", "10", flag, str(path)]) == 3
    # the {}-expanded path names a directory for the second model only
    m2 = gen_model(tmp_path, "m2.json", seed=2)
    (tmp_path / "m2.jsonl").mkdir()
    assert main(["run", "--model", str(model), "--model", str(m2),
                 "--eps", "0.05", "--out", str(tmp_path / "{}.jsonl")]) == 3
    for path in (folder, missing):
        assert main(["gen", "--dim", "2", "--seed", "1",
                     "--out", str(path)]) == 3
        assert main(["sample", "--model", str(model), "--count", "1",
                     "--seed", "1", "--out", str(path)]) == 3
    assert calls == []
    err = capsys.readouterr().err
    assert err.count("error: output path") == 13
    assert "internal error" not in err


def _forbid_analysis(monkeypatch):
    calls = []
    for name in ("run_adaptive", "run_fixed_baseline"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
    return calls


def test_result_and_report_on_one_file_exit_three(tmp_path, capsys, monkeypatch):
    model = gen_model(tmp_path)
    calls = _forbid_analysis(monkeypatch)
    same = str(tmp_path / "r.json")
    # the same file, spelled the same or through another directory
    for report in (same, str(tmp_path / "sub" / ".." / "r.json")):
        (tmp_path / "sub").mkdir(exist_ok=True)
        assert main(["run", "--model", str(model), "--eps", "0.05",
                     "--out", same, "--report", report]) == 3
        assert main(["baseline", "--model", str(model), "--dt", "0.1",
                     "--eta", "6", "--rho", "10",
                     "--out", same, "--report", report]) == 3
    assert calls == []
    assert not (tmp_path / "r.json").exists()
    assert capsys.readouterr().err.count("name the same file") == 4


def test_outputs_on_input_files_exit_three(tmp_path, capsys, monkeypatch):
    model = gen_model(tmp_path)
    result = tmp_path / "r.jsonl"
    assert main(["run", "--model", str(model), "--eps", "0.5",
                 "--out", str(result)]) == 0
    inputs = {path: path.read_bytes() for path in (model, result)}
    calls = _forbid_analysis(monkeypatch)
    monkeypatch.setattr(cli, "sample_trajectories",
                        lambda *args, **kwargs: calls.append(args))
    (tmp_path / "sub").mkdir()
    for spelled in (str(model), str(tmp_path / "sub" / ".." / "model.json")):
        for flag in ("--out", "--report"):
            assert main(["run", "--model", str(model), "--eps", "0.5",
                         flag, spelled]) == 3
            assert main(["baseline", "--model", str(model), "--dt", "0.1",
                         "--eta", "6", "--rho", "10", flag, spelled]) == 3
        assert main(["sample", "--model", str(model), "--count", "1",
                     "--seed", "1", "--out", spelled]) == 3
    assert main(["sample", "--model", str(model), "--count", "1", "--seed", "1",
                 "--result", str(result), "--out", str(result)]) == 3
    assert calls == []
    assert {path: path.read_bytes() for path in inputs} == inputs
    assert capsys.readouterr().err.count("names the input file") == 11


def test_baseline_orders_above_the_cut_off_exit_three(tmp_path, capsys):
    # above the adaptive run's cut-off of 100; at 170 the series' k! for
    # k = eta + 1 no longer fits a float
    model = gen_model(tmp_path)
    for eta in ("101", "170"):
        assert main(["baseline", "--model", str(model), "--dt", "0.5",
                     "--eta", eta, "--rho", "10"]) == 3
        err = capsys.readouterr().err
        assert "eta must be <= 100" in err and "internal error" not in err
    assert main(["baseline", "--model", str(model), "--dt", "0.5",
                 "--eta", "100", "--rho", "10"]) == 0


def test_result_lines_of_different_dimensions_exit_three(tmp_path, capsys):
    model = gen_model(tmp_path)
    result = tmp_path / "mixed.jsonl"
    result.write_text("\n".join(json.dumps(
        {"t_lo": t_lo, "t_hi": t_lo + 1.5, "center": center})
        for t_lo, center in ((0.0, [0.0, 0.0]), (1.5, [0.0, 0.0, 0.0]))) + "\n")
    assert main(["check", "--result", str(result), "--model", str(model)]) == 3
    err = capsys.readouterr().err
    assert f"{result}:2" in err and "internal error" not in err


def test_bad_segment_windows_exit_three(tmp_path, capsys):
    model = gen_model(tmp_path)
    good = {"t_lo": 0.0, "t_hi": 1.0, "center": [0.0, 0.0]}
    for t_lo, t_hi in ((1.0, 1.0), (2.0, 1.0), (1.0, float("inf"))):
        result = tmp_path / "bad.jsonl"
        result.write_text(json.dumps(good) + "\n" + json.dumps(
            {"t_lo": t_lo, "t_hi": t_hi, "center": [0.0, 0.0]}) + "\n")
        assert main(["sample", "--model", str(model), "--count", "1",
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl"),
                     "--result", str(result)]) == 3
        err = capsys.readouterr().err
        assert f"{result}:2: window" in err and "internal error" not in err


def test_models_with_one_stem_exit_three(tmp_path, capsys, monkeypatch):
    # two models named m.json in different directories expand {} alike
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        gen_model(tmp_path / folder, "m.json")
    calls = _forbid_analysis(monkeypatch)
    models = ["--model", str(tmp_path / "a" / "m.json"),
              "--model", str(tmp_path / "b" / "m.json")]
    for flag in ("--out", "--report"):
        assert main(["run", *models, "--eps", "0.05",
                     flag, str(tmp_path / "{}.json")]) == 3
    # distinct result and report files do not separate the two models
    assert main(["run", *models, "--eps", "0.05",
                 "--out", str(tmp_path / "{}.jsonl"),
                 "--report", str(tmp_path / "{}.json")]) == 3
    assert calls == []
    assert capsys.readouterr().err.count("name the same file") == 3


def test_bad_second_model_exits_three_before_any_analysis(tmp_path, capsys,
                                                          monkeypatch):
    model = gen_model(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, "run_adaptive",
                        lambda *args, **kwargs: calls.append(args))
    for second in (broken, tmp_path / "nope.json"):
        assert main(["run", "--model", str(model), "--model", str(second),
                     "--eps", "0.05"]) == 3
    assert calls == []
    assert capsys.readouterr().out == ""


def test_run_prints_each_model_as_it_finishes(tmp_path, capsys, monkeypatch):
    m1 = gen_model(tmp_path, "m1.json", seed=1)
    m2 = gen_model(tmp_path, "m2.json", seed=2)
    capsys.readouterr()
    analyse = cli.run_adaptive
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second model failed")
        return analyse(*args, **kwargs)

    monkeypatch.setattr(cli, "run_adaptive", second_fails)
    assert main(["run", "--model", str(m1), "--model", str(m2),
                 "--eps", "0.05"]) == 4
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [str(m1)]
    assert "internal error: second model failed" in captured.err


def test_json_booleans_exit_three(tmp_path, capsys):
    # numpy reads JSON true and false as 1.0 and 0.0; the file boundary
    # rejects them in every numeric field, naming the field
    model = gen_model(tmp_path)
    raw = json.loads(model.read_text())
    raw["specs"] = [{"name": "s", "direction": [1.0, 0.0], "bound": 100.0}]
    edits = [
        ("A", lambda m: m.update(A=[[True, False], [False, True]])),
        ("X0.center", lambda m: m["X0"].update(center=[1.0, True])),
        ("X0.generators", lambda m: m["X0"]["generators"][0].__setitem__(0, False)),
        ("specs[0].direction", lambda m: m["specs"][0].update(direction=[True, 0.0])),
        ("specs[0].bound", lambda m: m["specs"][0].update(bound=True)),
    ]
    bad = tmp_path / "bool.json"
    for label, edit in edits:
        edited = json.loads(json.dumps(raw))
        edit(edited)
        bad.write_text(json.dumps(edited))
        assert main(["run", "--model", str(bad), "--eps", "0.5"]) == 3, label
        err = capsys.readouterr().err
        assert f"field {label} must be numeric" in err and "internal error" not in err
    result = tmp_path / "bool.jsonl"
    for name in ("t_lo", "t_hi"):
        line = {"t_lo": 0.0, "t_hi": 3.0, "center": [0.0, 0.0]}
        line[name] = bool(line[name])
        result.write_text(json.dumps(line) + "\n")
        assert main(["check", "--result", str(result), "--model", str(model)]) == 3
        err = capsys.readouterr().err
        assert f"field {result}:1.{name} must be numeric" in err


def test_json_of_the_wrong_shape_exits_three(tmp_path, capsys):
    model = gen_model(tmp_path)
    raw = json.loads(model.read_text())
    raw["specs"] = 5
    bad = tmp_path / "specs.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", "--model", str(bad), "--eps", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "field specs must be a list" in err and "internal error" not in err
    result = tmp_path / "r.jsonl"
    result.write_text(json.dumps(
        {"t_lo": 0.0, "t_hi": 3.0, "center": [0.0, 0.0]}) + "\n5\n")
    assert main(["check", "--result", str(result), "--model", str(model)]) == 3
    assert main(["sample", "--model", str(model), "--count", "1", "--seed", "1",
                 "--out", str(tmp_path / "t.jsonl"), "--result", str(result)]) == 3
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2
    assert all(f"{result}:2 must be an object" in err for err in errs)
