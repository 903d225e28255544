import csv
import json

import numpy as np

from twodevp import refpairs
from twodevp.cli import _auto_x0, main
from twodevp.curves import trace_curves
from twodevp.harness import random_pair_with_crossing
from twodevp.model import (
    HermitianPair,
    Triplet,
    jacobian_hat,
    load_pair,
    save_pair,
    save_triplet,
)
from twodevp.rqi import solve


def write_reference_files(tmp_path):
    pair, trip = refpairs.simple_pair_desk()
    ppath = tmp_path / "pair.json"
    tpath = tmp_path / "ref.json"
    save_pair(pair, ppath)
    save_triplet(trip, tpath)
    return str(ppath), str(tpath)


def test_solve_subcommand(tmp_path):
    ppath, tpath = write_reference_files(tmp_path)
    out = tmp_path / "trace.json"
    rc = main(
        [
            "solve",
            "--pair", ppath,
            "--mu0", "0.05",
            "--lambda0", "0.95",
            "--reference", tpath,
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "Converged"
    last = doc["iterates"][-1]
    assert last["res_norm"] < 1e-10
    assert last["err_mu"] < 1e-9


def test_solve_reference_at_a_crossing_measures_the_distance_to_the_torus(tmp_path):
    # the file's x, (e1 + i e2)/sqrt(2), is a member of the set at (1, 0)
    # other than the (e1 + e2)/sqrt(2) that the automatic start reaches;
    # err_x is the distance to the set, not to that member (about 0.77)
    pair, _ = refpairs.multiple_pair_desk()
    ppath, rpath, out = tmp_path / "p.json", tmp_path / "ref.json", tmp_path / "trace.json"
    save_pair(pair, ppath)
    save_triplet(Triplet(1.0, 0.0, np.array([1.0, 1j, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)), rpath)
    rc = main(["solve", "--pair", str(ppath), "--mu0", "1.01", "--lambda0", "0.01",
               "--reference", str(rpath), "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 0 and doc["status"] == "Converged"
    assert all(rec["err_x"] <= 1e-12 for rec in doc["iterates"])


def test_window_whose_width_overflows_is_one_error_line(tmp_path, capsys):
    ppath, _ = write_reference_files(tmp_path)
    for command in ("oracle", "curves"):
        out = tmp_path / (command + ".out")
        rc = main([command, "--pair", ppath, "--mu-lo=-1e308", "--mu-hi=1e308", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err.count("error:") == 1 and "finite width" in err and "Traceback" not in err, err


def _auto_start_end(tmp_path, pair, mu0, lam0):
    ppath, out = tmp_path / "p.json", tmp_path / "trace.json"
    save_pair(pair, ppath)
    rc = main(["solve", "--pair", str(ppath), "--mu0", mu0, "--lambda0", lam0, "--out", str(out)])
    last = json.loads(out.read_text())["iterates"][-1]
    return rc, last["mu"], last["lambda"]


def test_solve_auto_start_on_commuting_pair(tmp_path):
    rc, mu, lam = _auto_start_end(tmp_path, refpairs.multiple_pair_desk()[0], "1.01", "0.01")
    assert rc == 0
    assert abs(mu - 1.0) <= 1e-12 and abs(lam) <= 1e-12


def test_solve_auto_start_reaches_nearby_crossing(tmp_path):
    # the README example: a crossing planted at (0.4, -0.3), started 0.01 away
    pair = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    rc, mu, lam = _auto_start_end(tmp_path, pair, "0.41", "-0.29")
    assert rc == 0
    assert abs(mu - 0.4) <= 1e-10 and abs(lam + 0.3) <= 1e-10


def test_auto_start_falls_back_to_nearest_eigenvector():
    # C is indefinite, yet both eigenvectors of A - 0*C have x^H C x = 1
    pair = HermitianPair(np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(np.abs(_auto_x0(pair, 0.0, 0.9)), [1.0, 0.0])
    assert np.allclose(np.abs(_auto_x0(pair, 0.0, -0.9)), [0.0, 1.0])


def test_solve_subcommand_csv(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    out = tmp_path / "trace.csv"
    rc = main(
        [
            "solve",
            "--pair", ppath,
            "--mu0", "0.05",
            "--lambda0", "0.95",
            "--format", "csv",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert ",".join(rows[0]) == "k,mu,lambda,res_norm,sigma_n_jhat,c1,c2,abs_a12"
    # sigma_n_jhat is the smallest singular value of the leading Jacobian
    # block at each stepped iterate; the same run in process gives the vectors
    pair = load_pair(ppath)
    trace = solve(pair, Triplet.normalized(0.05, 0.95, _auto_x0(pair, 0.05, 0.95)))
    assert len(rows) == len(trace.iterates) >= 2
    for row, rec in zip(rows[:-1], trace.iterates):
        assert float(row["mu"]) == rec.triplet.mu
        want = np.linalg.svd(jacobian_hat(pair, rec.triplet), compute_uv=False).min()
        assert abs(float(row["sigma_n_jhat"]) - want) <= 1e-12 * want
    assert rows[-1]["sigma_n_jhat"] == ""


def test_classify_subcommand(tmp_path):
    pair, _ = refpairs.multiple_pair_desk()
    ppath = tmp_path / "mult.json"
    save_pair(pair, ppath)
    out = tmp_path / "cls.json"
    rc = main(["classify", "--pair", str(ppath), "--mu", "1.0", "--lambda", "0.0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "NonsingularMultiple"
    assert doc["multiplicity"] == 2


def test_curves_subcommand_json_and_csv(tmp_path):
    pair = refpairs.simple_pair_2x2()
    ppath = tmp_path / "p.json"
    save_pair(pair, ppath)
    jout = tmp_path / "grid.json"
    rc = main(["curves", "--pair", str(ppath), "--mu-lo", "-1", "--mu-hi", "1", "--grid", "9", "--out", str(jout)])
    assert rc == 0
    doc = json.loads(jout.read_text())
    assert list(doc) == ["points"] and len(doc["points"]) == 9
    assert all(np.all(np.diff(p["values"]) <= 0.0) for p in doc["points"])
    cout = tmp_path / "grid.csv"
    rc = main(
        ["curves", "--pair", str(ppath), "--mu-lo", "-1", "--mu-hi", "1", "--grid", "9",
         "--format", "csv", "--out", str(cout)]
    )
    assert rc == 0
    assert cout.read_text().splitlines()[0] == "mu,curve_index,lambda"


def test_curves_subcommand_csv_to_stdout(tmp_path, capsys):
    # --format csv without --out writes the grid rows to stdout
    pair = refpairs.simple_pair_2x2()
    ppath = tmp_path / "p.json"
    save_pair(pair, ppath)
    capsys.readouterr()
    rc = main(["curves", "--pair", str(ppath), "--mu-lo", "-0.5", "--mu-hi", "0.5", "--grid", "5",
               "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mu,curve_index,lambda"
    grid = trace_curves(pair, -0.5, 0.5, 5)
    assert len(lines) == 1 + 2 * len(grid.points)


def test_curves_vectors_rows_hold_unit_eigenvectors(tmp_path):
    # one column per real and imaginary part of each of the n entries, and
    # each row's x solves (A - mu C) x = lambda x
    pair, _ = refpairs.simple_pair_desk()
    ppath, out = tmp_path / "p.json", tmp_path / "grid.csv"
    save_pair(pair, ppath)
    rc = main(["curves", "--pair", str(ppath), "--mu-lo", "-1", "--mu-hi", "1", "--grid", "5",
               "--format", "csv", "--vectors", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        header = reader.fieldnames
    assert header[:3] == ["mu", "curve_index", "lambda"]
    assert set(header[3:]) == {"x%d_%s" % (k, part) for k in range(pair.n) for part in ("re", "im")}
    assert len(rows) == 5 * pair.n
    for row in rows:
        x = np.array([float(row["x%d_re" % k]) + 1j * float(row["x%d_im" % k]) for k in range(pair.n)])
        mu, lam = float(row["mu"]), float(row["lambda"])
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert np.linalg.norm((pair.a - mu * pair.c) @ x - lam * x) <= 1e-12


def test_oracle_subcommand(tmp_path):
    pair = refpairs.simple_pair_2x2()
    ppath = tmp_path / "p.json"
    save_pair(pair, ppath)
    out = tmp_path / "hits.json"
    rc = main(["oracle", "--pair", str(ppath), "--mu-lo", "-1", "--mu-hi", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    lams = sorted(h["lambda"] for h in doc["hits"])
    assert np.allclose(lams, [-1.0, 1.0], atol=1e-10)
    assert all(h["residual"] < 1e-9 for h in doc["hits"])


def test_gen_pair_subcommand(tmp_path):
    out = tmp_path / "gen.json"
    rc = main(["gen-pair", "--n", "6", "--sig-pos", "3", "--sig-neg", "3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    pair = load_pair(out)
    assert pair.n == 6


def test_gen_pair_with_crossing(tmp_path):
    out = tmp_path / "cross.json"
    rc = main(
        ["gen-pair", "--n", "12", "--sig-pos", "6", "--sig-neg", "6", "--seed", "11",
         "--crossing", "0.4", "-0.3", "--out", str(out)]
    )
    assert rc == 0
    rc = main(["classify", "--pair", str(out), "--mu", "0.4", "--lambda", "-0.3", "--out", str(tmp_path / "c.json")])
    assert rc == 0
    assert json.loads((tmp_path / "c.json").read_text())["kind"] == "NonsingularMultiple"


def test_study_conditioning_passes(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    out = tmp_path / "cond.json"
    rc = main(
        ["study", "conditioning", "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
         "--eps", "1e-3", "--trials", "50", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert all(v["pass"] for v in doc["verdicts"])


def test_study_embeds_seed_and_verdicts(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    out = tmp_path / "sc.json"
    rc = main(
        ["study", "scaling", "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
         "--eps", "1e-2", "1e-3", "--trials", "10", "--seed", "21", "--out", str(out)]
    )
    doc = json.loads(out.read_text())
    assert doc["seed"] == 21
    assert doc["regime"] == "simple"
    assert {v["check"] for v in doc["verdicts"]} == {"slope_lambda", "slope_mu", "slope_x"}
    assert rc in (0, 1)


def test_study_scaling_and_ritz_pass_on_desk_pair(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    # the eps lists and seed of the acceptance scaling and Ritz checks
    runs = [("scaling", ["1e-2", "3e-3", "1e-3", "3e-4"]), ("ritz", ["1e-2", "3e-3", "1e-3"])]
    for kind, eps in runs:
        out = tmp_path / (kind + ".json")
        rc = main(
            ["study", kind, "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
             "--eps", *eps, "--trials", "50", "--seed", "1234", "--out", str(out)]
        )
        doc = json.loads(out.read_text())
        assert rc == 0, doc["verdicts"]
        assert all(v["pass"] for v in doc["verdicts"])


def test_study_scaling_passes_on_commuting_pair(tmp_path):
    # judged by the commuting-pair windows, not the generic-crossing ones
    ppath = tmp_path / "mult.json"
    save_pair(refpairs.multiple_pair_desk()[0], ppath)
    out = tmp_path / "sc.json"
    rc = main(["study", "scaling", "--pair", str(ppath), "--target-mu", "1", "--target-lambda", "0",
               "--eps", "1e-1", "3e-2", "1e-2", "--trials", "50", "--seed", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 0, doc["verdicts"]
    assert doc["regime"] == "multiple"


def test_study_eps_under_a_decade_is_input_error(tmp_path, capsys):
    ppath, _ = write_reference_files(tmp_path)
    for kind in ("scaling", "ritz"):
        out = tmp_path / (kind + ".json")
        rc = main(["study", kind, "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
                   "--eps", "1e-2", "5e-3", "--out", str(out)])
        assert rc == 2 and not out.exists()
    out = tmp_path / "zero.json"
    rc = main(["study", "scaling", "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
               "--eps", "1e-2", "0", "--out", str(out)])
    assert rc == 2 and not out.exists()
    # an infinite eps spans every decade, and is no perturbation size
    capsys.readouterr()
    out = tmp_path / "inf.json"
    rc = main(["study", "ritz", "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
               "--eps", "inf", "1e-3", "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.count("error:") == 1


def test_study_that_loses_its_trials_is_one_error_line(tmp_path, capsys):
    ppath, _ = write_reference_files(tmp_path)
    out = tmp_path / "ritz.json"
    rc = main(["study", "ritz", "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
               "--eps", "100", "10", "--trials", "2", "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert err.count("error:") == 1 and "more than 20%" in err and "Traceback" not in err


def test_missing_pair_file_is_input_error(tmp_path):
    rc = main(["classify", "--pair", str(tmp_path / "nope.json"), "--mu", "0", "--lambda", "0"])
    assert rc == 2


def test_unreadable_path_is_input_error(tmp_path, capsys):
    rc = main(["classify", "--pair", str(tmp_path), "--mu", "0", "--lambda", "0"])
    assert rc == 2
    ppath, _ = write_reference_files(tmp_path)
    rc = main(["classify", "--pair", ppath, "--mu", "0", "--lambda", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_solve_negative_max_iter_is_input_error(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    rc = main(["solve", "--pair", ppath, "--mu0", "0.05", "--lambda0", "0.95", "--max-iter", "-1",
               "--out", str(tmp_path / "trace.json")])
    assert rc == 2


def test_solve_unreachable_tolerance_is_input_error(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    for tol in ("-1", "nan"):
        rc = main(["solve", "--pair", ppath, "--mu0", "0.05", "--lambda0", "0.95", "--tol-abs", tol,
                   "--out", str(tmp_path / "trace.json")])
        assert rc == 2


def test_study_without_trials_is_input_error(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    for kind in ("scaling", "ritz", "conditioning"):
        rc = main(["study", kind, "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
                   "--eps", "1e-2", "1e-3", "--trials", "0", "--out", str(tmp_path / "st.json")])
        assert rc == 2


def test_solve_bad_reference_is_input_error(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    _, trip = refpairs.simple_pair_desk()
    rpath = tmp_path / "bad_ref.json"
    save_triplet(Triplet(0.0, 0.5, trip.x), rpath)
    rc = main(["solve", "--pair", ppath, "--mu0", "0.05", "--lambda0", "0.95",
               "--reference", str(rpath), "--out", str(tmp_path / "trace.json")])
    assert rc == 2


def test_solve_non_number_triplet_field_is_input_error(tmp_path, capsys):
    # null is no number, and 10**400 no float
    ppath, _ = write_reference_files(tmp_path)
    doc = json.loads((tmp_path / "ref.json").read_text())
    out = tmp_path / "trace.json"
    for key, value in (("mu", None), ("mu", 10**400), ("lambda", 10**400)):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(doc, **{key: value})))
        for flag in ("--x0", "--reference"):
            rc = main(["solve", "--pair", ppath, "--mu0", "0.05", "--lambda0", "0.95", flag, str(bad),
                       "--out", str(out)])
            assert rc == 2 and not out.exists()
            assert capsys.readouterr().err.count("error:") == 1


def test_solve_non_finite_start_is_input_error(tmp_path, capsys):
    # with or without --x0, whichever of mu0, lambda0 and x0 it is
    ppath, tpath = write_reference_files(tmp_path)
    nan_x = tmp_path / "nan_x.json"
    doc = json.loads((tmp_path / "ref.json").read_text())
    doc["x"][0][0] = float("nan")
    nan_x.write_text(json.dumps(doc))
    out = tmp_path / "trace.json"
    for start in (["--mu0", "nan", "--lambda0", "0.95"],
                  ["--mu0", "nan", "--lambda0", "0.95", "--x0", tpath],
                  ["--mu0", "0.05", "--lambda0", "nan"],
                  ["--mu0", "0.05", "--lambda0", "inf"],
                  ["--mu0", "0.05", "--lambda0", "0.95", "--x0", str(nan_x)]):
        rc = main(["solve", "--pair", ppath, "--out", str(out)] + start)
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.count("error:") == 1


def test_curves_vectors_without_csv_is_input_error(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    out = tmp_path / "grid.json"
    rc = main(["curves", "--pair", ppath, "--mu-lo", "-1", "--mu-hi", "1", "--vectors",
               "--out", str(out)])
    assert rc == 2 and not out.exists()


def test_bad_pair_schema_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2}')
    rc = main(["oracle", "--pair", str(bad), "--mu-lo", "0", "--mu-hi", "1"])
    assert rc == 2


def test_malformed_pair_file_is_one_error_line(tmp_path, capsys):
    # each input stops at its own check, on load or in HermitianPair
    pair, _ = refpairs.simple_pair_desk()
    ppath = tmp_path / "p.json"
    save_pair(pair, ppath)
    doc = json.loads(ppath.read_text())
    not_pairs = json.loads(ppath.read_text())
    not_pairs["a"][0][0] = ["re", "im"]
    nan_entry = json.loads(ppath.read_text())
    nan_entry["c"][1][1][0] = float("nan")
    cases = [
        ("invalid JSON", '{"n": %d, "a": [' % pair.n),
        ("not an array of [re, im] pairs", json.dumps(not_pairs)),
        ("must be a 2-d array", json.dumps(dict(doc, c=doc["c"][0]))),
        ("do not match n", json.dumps(dict(doc, n=pair.n + 1))),
        ("non-finite", json.dumps(nan_entry)),
    ]
    out = tmp_path / "cls.json"
    for message, text in cases:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["classify", "--pair", str(bad), "--mu", "0", "--lambda", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err.count("error:") == 1 and message in err and "Traceback" not in err, err


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


def test_solve_writes_strict_json_and_fails_unless_converged(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    out = tmp_path / "short.json"
    rc = main(["solve", "--pair", ppath, "--mu0", "3", "--lambda0", "-2", "--max-iter", "1",
               "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text(), parse_constant=_reject_constant)["status"] != "Converged"
    # a non-finite start is an input error, so a NaN comes from a study:
    # every error at the rounding floor leaves no slope to fit
    out = tmp_path / "floor.json"
    rc = main(["study", "scaling", "--pair", ppath, "--target-mu", "0", "--target-lambda", "1",
               "--eps", "1e-9", "1e-10", "--trials", "3", "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["fitted_slopes"] == {"mu": None, "lambda": None, "x": None}
