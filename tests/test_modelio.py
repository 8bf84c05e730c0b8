import json
import math
import re

import numpy as np
import pytest

from reachtune.modelio import (ModelError, SafetySpec, check_specs,
                               load_model, random_system, read_report,
                               read_result, run_adaptive, run_fixed_baseline,
                               save_model, write_report, write_result)
from reachtune.reach import LinearSystem, ReachSegment
from reachtune.tuner import run
from reachtune.zonotope import Zonotope, interval_hull, support


def test_model_round_trip(tmp_path):
    sys = LinearSystem(np.array([[-1.0]]), Zonotope([1.0], np.array([[0.1]])),
                       Zonotope([0.0], np.array([[0.05]])), 1.0)
    path = tmp_path / "model.json"
    save_model(path, sys, (SafetySpec("upper", [1.0], 2.0),))
    loaded, specs = load_model(path)
    np.testing.assert_array_equal(loaded.a, sys.a)
    np.testing.assert_array_equal(loaded.initial_set.center, [1.0])
    np.testing.assert_array_equal(loaded.initial_set.generators, [[0.1]])
    np.testing.assert_array_equal(loaded.input_set.generators, [[0.05]])
    assert loaded.horizon == 1.0
    assert len(specs) == 1 and specs[0].name == "upper"


def test_load_model_missing_field(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[0.0]], "X0": {"center": [0.0]},
                                "U": {"center": [0.0]}}))
    with pytest.raises(ModelError, match="missing field T"):
        load_model(path)


def test_load_model_rejects_bad_values(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "A": [[0.0, 1.0]], "X0": {"center": [0.0]},
        "U": {"center": [0.0]}, "T": 1.0}))
    with pytest.raises(ModelError, match="square"):
        load_model(path)
    path.write_text(json.dumps({
        "A": [[0.0]], "X0": {"center": [0.0, 1.0]},
        "U": {"center": [0.0]}, "T": 1.0}))
    with pytest.raises(ModelError, match="X0"):
        load_model(path)
    path.write_text("{not json")
    with pytest.raises(ModelError, match="line 1"):
        load_model(path)
    # a JSON true is a Python int, yet no horizon
    for horizon in (-1.0, True):
        path.write_text(json.dumps({
            "A": [[0.0]], "X0": {"center": [0.0]},
            "U": {"center": [0.0]}, "T": horizon}))
        with pytest.raises(ModelError, match="T"):
            load_model(path)


def test_load_model_generators_are_columns(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "X0": {"center": [1.0, 2.0], "generators": [[0.5, 0.0], [0.1, 0.2]]},
        "U": {"center": [0.0, 0.0]},
        "T": 1.0}))
    sys, _ = load_model(path)
    assert sys.initial_set.num_generators == 2
    np.testing.assert_array_equal(sys.initial_set.generators[:, 0], [0.5, 0.0])
    np.testing.assert_array_equal(sys.initial_set.generators[:, 1], [0.1, 0.2])


def test_random_system_deterministic_and_in_range():
    first = random_system(4, seed=42)
    second = random_system(4, seed=42)
    np.testing.assert_array_equal(first.a, second.a)
    other = random_system(4, seed=43)
    assert not np.array_equal(first.a, other.a)

    for dim in (2, 3, 5, 12):
        sys = random_system(dim, seed=7)
        eig = np.linalg.eigvals(sys.a)
        assert np.all(eig.real >= -1.0 - 1e-9) and np.all(eig.real <= 1.0 + 1e-9)
        assert np.all(np.abs(eig.imag) <= 1.0 + 1e-9)
        hull = interval_hull(sys.initial_set)
        np.testing.assert_allclose(hull.lo, np.full(dim, 9.75))
        np.testing.assert_allclose(hull.hi, np.full(dim, 10.25))
        hull = interval_hull(sys.input_set)
        np.testing.assert_allclose(hull.lo, np.full(dim, 0.95))
        np.testing.assert_allclose(hull.hi, np.full(dim, 1.05))
        assert sys.horizon == 3.0
        # conjugation by an orthogonal matrix preserves the 2-norm spectrum
        assert np.linalg.norm(sys.a, 2) <= math.sqrt(2) * 2.0 + 1e-9


def test_random_system_rejects_dim_one():
    with pytest.raises(ValueError):
        random_system(1, seed=1)


def test_result_round_trip_bit_identical(tmp_path):
    sys = random_system(2, seed=3)
    result = run(sys, eps_max=0.5)
    path = tmp_path / "result.jsonl"
    write_result(path, result)
    segments = read_result(path)
    assert len(segments) == result.steps
    for orig, loaded in zip(result.segments, segments):
        assert loaded.t_lo == orig.t_lo and loaded.t_hi == orig.t_hi
        np.testing.assert_array_equal(loaded.set.center, orig.set.center)
        np.testing.assert_array_equal(loaded.set.generators, orig.set.generators)
    # a second write of the loaded data is byte-identical
    path2 = tmp_path / "result2.jsonl"
    from reachtune.tuner import ReachResult
    write_result(path2, ReachResult(segments, result.ledger, result.budget,
                                    0.0, 0.0))
    assert path.read_bytes() == path2.read_bytes()


def test_report_round_trip(tmp_path):
    sys = random_system(2, seed=4)
    result, report = run_adaptive(sys, 0.05,
                                  report_path=tmp_path / "report.json")
    loaded = read_report(tmp_path / "report.json")
    assert loaded.steps == report.steps == result.steps
    assert loaded.dt_min == report.dt_min
    assert loaded.dt_max == report.dt_max
    assert 0.0 <= loaded.tuning_time_fraction <= 1.0
    assert loaded.dimension == 2
    assert len(loaded.series["dt"]) == report.steps
    assert loaded.budget["total"] == pytest.approx(0.05)


def written_report(tmp_path):
    """A report file as ``write_report`` writes it, and its JSON object."""
    _, report = run_adaptive(random_system(2, seed=4), 0.05)
    path = tmp_path / "report.json"
    write_report(path, report)
    return report, path, json.loads(path.read_text())


def test_written_report_reads_back_equal(tmp_path):
    report, path, _ = written_report(tmp_path)
    assert read_report(path) == report


@pytest.mark.parametrize("make_text, message", [
    (lambda obj: '{"dimension": 2,', "invalid JSON at line 1"),
    (lambda obj: "[1, 2]", "top level must be an object"),
    (lambda obj: json.dumps({k: v for k, v in obj.items() if k != "steps"}),
     "missing field steps"),
    (lambda obj: json.dumps({**obj, "stepz": 3}), "unknown field stepz"),
    (lambda obj: json.dumps({**obj, "steps": 2.5}), "field steps has the wrong type"),
    (lambda obj: json.dumps({**obj, "steps": True}), "field steps has the wrong type"),
    (lambda obj: json.dumps({**obj, "dt_min": "0.1"}), "field dt_min has the wrong type"),
    (lambda obj: json.dumps({**obj, "budget": [0.05]}), "field budget has the wrong type"),
    (lambda obj: json.dumps({**obj, "series": None}), "field series has the wrong type"),
], ids=["invalid-json", "non-object", "missing-field", "unknown-field",
        "steps-float", "steps-bool", "dt_min-string", "budget-list", "series-null"])
def test_read_report_rejects_malformed_file(tmp_path, make_text, message):
    _, path, obj = written_report(tmp_path)
    path.write_text(make_text(obj))
    with pytest.raises(ModelError, match=re.escape(f"{path}: {message}")):
        read_report(path)


def test_check_specs_static_example():
    sys = LinearSystem(np.zeros((2, 2)),
                       Zonotope(np.full(2, 10.0), 0.25 * np.eye(2)),
                       Zonotope.point([0.0, 0.0]), 1.0)
    result = run(sys, eps_max=0.05)
    specs = [
        SafetySpec("huge-bound", [1.0, 0.0], 1e12),
        SafetySpec("x1-le-10", [1.0, 0.0], 10.0),
        SafetySpec("x1-ge-9", [-1.0, 0.0], -9.0),
    ]
    verdicts = check_specs(result, specs)
    assert verdicts[0].satisfied
    assert not verdicts[1].satisfied
    assert verdicts[1].violating_index == 0
    assert verdicts[1].support_value == pytest.approx(10.25)
    assert verdicts[2].satisfied


def test_check_specs_gives_the_verdicts_of_support_per_spec():
    # the one-product screen reports what a per-spec, per-segment support
    # loop reports, index, time and value alike, with bounds placed within
    # a few ulps of a segment's support, where the two sums can disagree
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 25))
        segments = [ReachSegment(0.1 * i, 0.1 * (i + 1), Zonotope(
            10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n),
            rng.standard_normal((n, int(rng.integers(0, 50))))))
            for i in range(int(rng.integers(1, 10)))]
        specs = []
        for k in range(int(rng.integers(1, 10))):
            d = rng.standard_normal(n)
            b = support(segments[int(rng.integers(len(segments)))].set, d)
            specs.append(SafetySpec(f"s{k}", d,
                                    b + int(rng.integers(-3, 4)) * np.spacing(b)))
        expected = []
        for spec in specs:
            values = [support(seg.set, spec.direction) for seg in segments]
            first = next((i for i, v in enumerate(values) if v > spec.bound), None)
            expected.append((first is None, first,
                             None if first is None else segments[first].t_lo,
                             None if first is None else values[first]))
        got = [(v.satisfied, v.violating_index, v.violating_time, v.support_value)
               for v in check_specs(segments, specs)]
        assert got == expected


def test_check_specs_empty_segments_or_specs():
    spec = SafetySpec("x", [1.0, 0.0], -1e9)
    verdicts = check_specs([], [spec])
    assert [(v.name, v.satisfied, v.violating_index) for v in verdicts] == [
        ("x", True, None)]
    segment = ReachSegment(0.0, 1.0, Zonotope.point([1.0, 1.0]))
    assert check_specs([segment], []) == []


def test_baseline_single_step_and_clamping():
    sys = random_system(2, seed=9)
    result, report = run_fixed_baseline(sys, dt=3.0, eta=8, rho=5.0)
    assert result.steps == 1
    assert result.segments[0].t_hi == 3.0

    result, _ = run_fixed_baseline(sys, dt=0.7, eta=8, rho=5.0)
    widths = [r.dt for r in result.ledger.records]
    assert sum(widths) == pytest.approx(3.0, abs=1e-12)
    assert result.segments[-1].t_hi == 3.0
    assert all(w == 0.7 for w in widths[:-1])
    assert widths[-1] == pytest.approx(3.0 - 4 * 0.7)


def test_baseline_divides_exactly():
    sys = random_system(2, seed=9)
    result, _ = run_fixed_baseline(sys, dt=0.5, eta=8, rho=5.0)
    assert result.steps == 6
    assert all(r.dt == pytest.approx(0.5, abs=1e-12)
               for r in result.ledger.records)


def test_baseline_absorbs_leftover_below_1e9():
    # seven steps of 3/7 - 1e-11 leave about 7e-11 of the horizon, which
    # the seventh step takes in instead of an eighth step
    sys = random_system(2, seed=9)
    result, _ = run_fixed_baseline(sys, dt=3 / 7 - 1e-11, eta=8, rho=5.0)
    assert result.steps == 7
    assert result.segments[-1].t_hi == 3.0
    assert result.tuning_seconds == 0.0


def test_baseline_tracks_errors_without_enforcing():
    sys = random_system(2, seed=10)
    result, report = run_fixed_baseline(sys, dt=0.25, eta=4, rho=2.0)
    assert result.budget is None
    assert report.budget is None
    assert report.input_error_total > 0.0
    assert all(r.zonotope_order <= 2.0 + 1e-12 for r in result.ledger.records)


def test_baseline_rejects_invalid_parameters():
    sys = random_system(2, seed=9)
    with pytest.raises(ValueError):
        run_fixed_baseline(sys, dt=0.0, eta=4, rho=2.0)
    with pytest.raises(ValueError):
        run_fixed_baseline(sys, dt=0.5, eta=0, rho=2.0)
    with pytest.raises(ValueError):
        run_fixed_baseline(sys, dt=0.5, eta=4, rho=0.5)


def test_baseline_rejects_overflowing_taylor_terms():
    # the powers of diag(-3000, -1) overflow at order 100 with dt 0.03
    sys = LinearSystem(np.diag([-3000.0, -1.0]), Zonotope.box([1.0, 1.0], [0.1, 0.1]),
                       Zonotope.box([0.0, 0.0], [0.05, 0.05]), 0.3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflow"):
            run_fixed_baseline(sys, 0.03, 100, 10.0)
