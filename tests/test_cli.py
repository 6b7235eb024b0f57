"""Command-line interface: exit codes, formats, determinism, examples."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from expcheb.approx import find_degree, problem
from expcheb.cli import main
from expcheb.coeffs import Target
from expcheb.errors import BitBudgetError
from expcheb.kde import kde_bruteforce, make_instance, solve


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# degree


def test_degree_trivial_certificate(capsys):
    code, out, _ = _run(capsys, ["degree", "--B", "1", "--delta", "0.9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["D_upper"] == 1
    assert doc["certificate"]["lower_witness"] == "definition"
    assert doc["B"] == "1" and doc["delta"] == "0.9"
    assert "prediction" in doc


def test_degree_argument_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--B", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--B", "1", "--delta", "0.5", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--B", "1", "--delta", "0.5", "--target", "exp"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["degree", "--B", "0.25", "--delta", "0.5"]) == 2
    assert main(["degree", "--B", "4", "--delta", "2"]) == 2
    capsys.readouterr()


def test_degree_capacity_note_and_interval(capsys):
    code, out, _ = _run(capsys, ["degree", "--B", "1000000000",
                                 "--delta", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] is None
    assert "coefficients" in doc["certificate_note"]
    pred = doc["prediction"]
    assert pred["regime"] == "huge-B"
    assert pred["leading_constant"] == ["0.5", "1"]
    code, out, _ = _run(capsys, ["degree", "--B", "1000000000",
                                 "--delta", "0.5", "--format", "text"])
    assert code == 0
    assert "certificate skipped" in out


def test_degree_tiny_tolerance(capsys):
    code, out, _ = _run(capsys, ["degree", "--B", "2", "--delta", "1e-300"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["D_upper"] > 80


def test_degree_below_the_double_range(capsys):
    # 1e-400 underflows a double and used to end in a bare ValueError
    code, out, _ = _run(capsys, ["degree", "--B", "1", "--delta", "1e-400"])
    assert code == 0
    assert json.loads(out)["certificate"]["D_upper"] == 166


def test_degree_csv_format(capsys):
    code, out, _ = _run(capsys, ["degree", "--B", "4", "--delta", "1e-3",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {ln.split(",", 1)[0] for ln in lines[1:]}
    assert "certificate.D_upper" in keys
    assert "prediction.regime" in keys


# ---------------------------------------------------------------------------
# coeffs


def test_coeffs_csv_example(capsys):
    code, out, _ = _run(capsys, ["coeffs", "--lambda", "1", "--count", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,value,error_radius"
    assert len(lines) == 4
    v0 = lines[1].split(",")
    v1 = lines[2].split(",")
    v2 = lines[3].split(",")
    assert v0[1].startswith("0.9315192151")
    assert v1[1].startswith("-")
    assert not v2[1].startswith("-")
    assert float(v0[2]) < 2.0 ** -120


def test_coeffs_validation(capsys):
    assert main(["coeffs", "--lambda", "1", "--count", "0"]) == 2
    assert main(["coeffs", "--lambda", "0.25", "--count", "2"]) == 2
    for lam in ("inf", "nan"):
        assert main(["coeffs", "--lambda", lam, "--count", "2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# build / eval


def test_build_eval_round_trip(tmp_path, capsys):
    poly_path = tmp_path / "poly.json"
    code, out, _ = _run(capsys, ["build", "--B", "4", "--delta", "1e-6",
                                 "--out", str(poly_path)])
    assert code == 0 and out == ""
    assert poly_path.exists()

    pts = tmp_path / "pts.txt"
    pts.write_text("0\n1.5\n# comment\n4\n")
    code, out, err = _run(capsys, ["eval", "--poly", str(poly_path),
                                   "--points", str(pts)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,p,f,error"
    assert len(lines) == 4
    assert err == ""
    for ln in lines[1:]:
        z, p, f, e = ln.split(",")
        assert float(e) < 1e-6
        assert abs(float(p) - math.exp(-float(z))) < 2e-6


def test_eval_outside_domain_warns_but_evaluates(tmp_path, capsys):
    poly_path = tmp_path / "poly.json"
    _run(capsys, ["build", "--B", "4", "--delta", "1e-6",
                  "--out", str(poly_path)])
    pts = tmp_path / "pts.txt"
    pts.write_text("5\n")
    code, out, err = _run(capsys, ["eval", "--poly", str(poly_path),
                                   "--points", str(pts)])
    assert code == 0
    assert "warning" in err and "outside [0, 4]" in err
    assert len(out.strip().splitlines()) == 2


def test_eval_refuses_non_finite_points(tmp_path, capsys):
    poly_path = tmp_path / "poly.json"
    _run(capsys, ["build", "--B", "4", "--delta", "1e-6",
                  "--out", str(poly_path)])
    for z in ("nan", "inf", "-inf"):
        pts = tmp_path / "pts.txt"
        pts.write_text(f"1\n{z}\n")
        code, out, err = _run(capsys, ["eval", "--poly", str(poly_path),
                                       "--points", str(pts)])
        assert code == 2 and out == ""
        assert "non-finite" in err


def test_eval_missing_file(capsys):
    assert main(["eval", "--poly", "/nonexistent/poly.json",
                 "--points", "/nonexistent/pts.txt"]) == 2
    capsys.readouterr()


def test_build_stdout_is_parseable(capsys):
    code, out, _ = _run(capsys, ["build", "--B", "2", "--delta", "1e-4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "expcheb-poly/1"


# ---------------------------------------------------------------------------
# kde


def _instance_doc(n=6, m=2, delta="1e-3", B=None, seed=9, side=1.0):
    rng = np.random.default_rng(seed)
    doc = {
        "n": n,
        "m": m,
        "x": rng.uniform(-side, side, (n, m)).tolist(),
        "y": rng.uniform(-side, side, (n, m)).tolist(),
        "w": rng.uniform(0.0, 1.0, n).tolist(),
        "delta": delta,
    }
    if B is not None:
        doc["B"] = B
    return doc


def test_kde_instance_json(tmp_path, capsys):
    path = tmp_path / "inst.json"
    doc = _instance_doc()
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["kde", "--instance", str(path),
                                 "--validate", "--no-timings"])
    assert code == 0
    res = json.loads(out)
    assert res["n"] == 6 and res["m"] == 2
    assert res["B_estimated"] is True
    assert float(res["B_used"]) >= 1
    assert res["timings_ms"] is None
    assert len(res["v"]) == 6
    assert float(res["measured_ratio"]) <= 1e-3
    assert res["certificate"]["D_upper"] == res["degree"]
    # cross-check against the in-library brute force
    inst = make_instance(np.asarray(doc["x"]), np.asarray(doc["y"]),
                         np.asarray(doc["w"]), "1e-3")
    brute = kde_bruteforce(inst)
    got = np.array([float(t) for t in res["v"]])
    assert np.abs(got - brute).max() <= 1e-3 * np.abs(inst.w).sum()


def _tight_doc():
    # points spread over [0, 4] (B = 16) at delta = 1e-13: even recentred,
    # the plain double-precision bound misses its budget and the matvec
    # escalates
    rng = np.random.default_rng(31)
    return {"x": rng.uniform(0, 4, (128, 1)).tolist(),
            "y": rng.uniform(0, 4, (128, 1)).tolist(),
            "w": rng.normal(size=128).tolist(), "delta": "1e-13", "B": "16"}


@pytest.mark.parametrize("doc,escalates",
                         [(_instance_doc(n=40, seed=12), False),
                          (_tight_doc(), True)], ids=["plain", "escalated"])
def test_kde_matches_solve_bitwise(tmp_path, capsys, doc, escalates):
    # the subcommand and solve() run one certify -> factor -> matvec path
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["kde", "--instance", str(path),
                                 "--no-timings"])
    assert code == 0
    got = json.loads(out)
    inst = make_instance(np.asarray(doc["x"]), np.asarray(doc["y"]),
                         np.asarray(doc["w"]), doc["delta"], doc.get("B"))
    res = solve(inst)
    cert = find_degree(problem(Target.EXP_NEG, inst.B, inst.delta / 2))
    assert (got["degree"], got["M"], got["certificate"]["D_lower"]) \
        == (res.degree, res.M, cert.D_lower)
    assert got["used_high_precision"] is res.used_high_precision is escalates
    assert got["float_bound_source"] == res.float_bound_source
    assert got["v"] == [repr(float(x)) for x in res.v]


def test_kde_csv_inputs(tmp_path, capsys):
    rng = np.random.default_rng(4)
    X = rng.uniform(-0.8, 0.8, (5, 2))
    Y = rng.uniform(-0.8, 0.8, (5, 2))
    w = rng.uniform(0.0, 1.0, 5)
    xp, yp, wp = (tmp_path / n for n in ("x.csv", "y.csv", "w.csv"))
    np.savetxt(xp, X, delimiter=",")
    np.savetxt(yp, Y, delimiter=",")
    np.savetxt(wp, w, delimiter=",")
    code, out, _ = _run(capsys, ["kde", "--x", str(xp), "--y", str(yp),
                                 "--w", str(wp), "--delta", "1e-3",
                                 "--B", "11", "--no-timings"])
    assert code == 0
    res = json.loads(out)
    assert res["B_estimated"] is False
    assert float(res["B_used"]) == 11.0


def test_kde_capacity_exit(tmp_path, capsys):
    path = tmp_path / "big.json"
    # coordinates in [-0.2, 0.2]: B = 9 bounds the squared distances
    doc = _instance_doc(n=4, m=50, delta="1e-9", B="9", side=0.2)
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["kde", "--instance", str(path)])
    assert code == 4
    assert out == ""
    assert "capacity error" in err and "C(" in err


def test_kde_soundness_exit(tmp_path, capsys):
    # plain doubles cannot certify the tight instance
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(_tight_doc()))
    code, out, err = _run(capsys, ["kde", "--instance", str(path),
                                   "--force", "plain"])
    assert code == 3
    assert "soundness error" in err


def test_error_exit_names_the_error_kind(capsys, monkeypatch):
    # a certified-computation failure other than a soundness failure keeps
    # exit code 3 and names its own kind
    import expcheb.cli as cli

    def fail(*args):
        raise BitBudgetError("rounded coefficients exceed the cap")
    monkeypatch.setattr(cli, "export_polynomial", fail)
    code, out, err = _run(capsys, ["build", "--B", "4", "--delta", "1e-3"])
    assert code == 3 and out == ""
    assert err == "bit budget error: rounded coefficients exceed the cap\n"


def test_kde_validate_reports_the_diameter(tmp_path, capsys):
    # the O(nm) floor is the far pair's 40, above the cross range's 36;
    # B = 42 clears it but not the squared diameter 45, which --validate
    # reports; at B = 45 it stays silent
    path = tmp_path / "inst.json"
    points = {"x": [[3, 3], [-4, -4]], "y": [[2, -1], [1, -3]], "w": [1, 1],
              "delta": "1e-3"}
    for B, violation in (("42", 45.0), ("45", None)):
        path.write_text(json.dumps({**points, "B": B}))
        code, out, _ = _run(capsys, ["kde", "--instance", str(path),
                                     "--validate", "--no-timings"])
        assert code == 0
        doc = json.loads(out)
        if violation is None:
            assert "diameter_violation" not in doc
        else:
            assert float(doc["diameter_violation"]) == violation
    # without --validate nothing is measured
    path.write_text(json.dumps({**points, "B": "42"}))
    code, out, _ = _run(capsys, ["kde", "--instance", str(path),
                                 "--no-timings"])
    assert code == 0 and "diameter_violation" not in json.loads(out)


def test_kde_input_validation(tmp_path, capsys):
    assert main(["kde", "--delta", "1e-3"]) == 2
    capsys.readouterr()
    path = tmp_path / "bad.json"
    doc = _instance_doc(n=4)
    doc["n"] = 5
    path.write_text(json.dumps(doc))
    assert main(["kde", "--instance", str(path)]) == 2
    capsys.readouterr()
    path.write_text("{not json")
    assert main(["kde", "--instance", str(path)]) == 2
    capsys.readouterr()
    # "Infinity" as text and as the JSON literal
    for key, value in (("delta", "Infinity"), ("B", float("inf"))):
        doc = _instance_doc(n=4)
        doc[key] = value
        path.write_text(json.dumps(doc))
        assert main(["kde", "--instance", str(path)]) == 2
        capsys.readouterr()
    # a given B below the squared x-y diameter, 36, in one dimension
    path.write_text(json.dumps({"x": [[0.0], [3.0]], "y": [[-3.0], [1.0]],
                                "w": [1, 1], "delta": "1e-3", "B": "35"}))
    code, out, err = _run(capsys, ["kde", "--instance", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: B = 35 is below 36")
    # finite weights whose sum overflows a double
    path.write_text(json.dumps({"x": [[0.0]] * 64, "y": [[0.0]] * 64,
                                "w": [1e307] * 64, "delta": "1e-3"}))
    code, out, err = _run(capsys, ["kde", "--instance", str(path)])
    assert code == 2 and out == ""
    assert "overflows" in err


# ---------------------------------------------------------------------------
# regimes / bench


def test_regimes_predict_only_sweep(capsys):
    code, out, _ = _run(capsys, ["regimes", "--B", "1,5,600,3000",
                                 "--delta", "1e-6", "--predict-only"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("B,delta,rho,regime,constant_name,leading_constant,"
                        "predicted_degree,D_upper,D_lower,lower_witness")
    labels = [ln.split(",")[3] for ln in lines[1:]]
    assert labels == ["small-B", "critical", "large-B", "huge-B"]
    huge = lines[4].split(",")
    assert huge[5] == "0.5..1"
    assert huge[7] == "" and huge[8] == ""


def test_regimes_certified_degrees_monotone(capsys):
    code, out, _ = _run(capsys, ["regimes", "--B", "2,4,8,16",
                                 "--delta", "1e-3"])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    ups = [int(ln.split(",")[7]) for ln in lines]
    assert ups == sorted(ups)
    assert all(ln.split(",")[9] for ln in lines)  # witness column filled


def test_bench_no_timings_deterministic(capsys):
    argv = ["bench", "--n", "64,128", "--m", "2", "--B", "4",
            "--delta", "1e-2", "--no-timings"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    code, out2, _ = _run(capsys, argv)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n,M,degree,build_ms,matvec_ms,total_ms,brute_ms"
    assert len(lines) == 3
    for ln in lines[1:]:
        cols = ln.split(",")
        assert cols[3] == cols[4] == cols[5] == cols[6] == "0.000"
    assert "# slope" not in out1


def test_bench_reports_slopes(capsys):
    code, out, _ = _run(capsys, ["bench", "--n", "64,128,256", "--m", "2",
                                 "--B", "4", "--delta", "1e-2"])
    assert code == 0
    assert "# slope_matvec=" in out
    assert "# slope_brute=" in out


def test_bench_validation(capsys):
    assert main(["bench", "--n", "1,64", "--m", "2", "--B", "4",
                 "--delta", "1e-2"]) == 2
    capsys.readouterr()
    assert main(["bench", "--n", "64", "--m", "2", "--B", "inf",
                 "--delta", "1e-2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cross-cutting


def test_outputs_byte_deterministic(capsys):
    for argv in (["degree", "--B", "7", "--delta", "1e-8"],
                 ["coeffs", "--lambda", "2.5", "--count", "6"],
                 ["regimes", "--B", "2,20", "--delta", "1e-4,1e-2",
                  "--predict-only"]):
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2


def test_precision_bits_flag(capsys):
    # coeffs prints at --precision-bits, 128 by default
    argv = ["coeffs", "--lambda", "1", "--count", "1"]
    _, out_def, _ = _run(capsys, argv)
    _, out_192, _ = _run(capsys, argv + ["--precision-bits", "192"])
    v_def = out_def.strip().splitlines()[1].split(",")[1]
    v_192 = out_192.strip().splitlines()[1].split(",")[1]
    assert len(v_192) > len(v_def) + 10
    code, out_explicit, _ = _run(capsys, argv + ["--precision-bits", "128"])
    assert code == 0
    assert out_explicit == out_def


@pytest.mark.parametrize("argv", [
    ["regimes", "--B", "2", "--delta", "1e-3", "--seed", "1"],
    ["degree", "--B", "2", "--delta", "1e-3", "--no-timings"],
    ["build", "--B", "2", "--delta", "1e-3", "--format", "json"],
    ["kde", "--instance", "inst.json", "--format", "csv"],
    ["kde", "--instance", "inst.json", "--seed", "1"],
    ["eval", "--poly", "p.json", "--points", "z.txt",
     "--precision-bits", "256"],
    ["degree", "--B", "2", "--delta", "1e-3", "--precision-bits", "256"],
    ["kde", "--instance", "inst.json", "--precision-bits", "256"],
    ["bench", "--n", "64", "--m", "2", "--B", "4", "--delta", "1e-2",
     "--precision-bits", "256"],
    ["kde", "--instance", "inst.json", "--max-columns", "100"],
    ["bench", "--n", "64", "--m", "2", "--B", "4", "--delta", "1e-2",
     "--max-columns", "100"],
    ["kde", "--instance", "inst.json", "--validate-diameter"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    # each subcommand takes only the common flags that change its output
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "expcheb.cli", "degree",
         "--B", "1", "--delta", "0.9"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["certificate"]["D_upper"] == 1
