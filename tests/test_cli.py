import json

import numpy as np

from twodevp import refpairs
from twodevp.cli import main
from twodevp.curves import trace_curves
from twodevp.model import Triplet, load_pair, save_pair, save_triplet


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
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,mu,lambda,res_norm,sigma_n_jhat,c1,c2,abs_a12"
    assert len(lines) >= 2


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


def test_missing_pair_file_is_input_error(tmp_path):
    rc = main(["classify", "--pair", str(tmp_path / "nope.json"), "--mu", "0", "--lambda", "0"])
    assert rc == 2


def test_solve_negative_max_iter_is_input_error(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    rc = main(["solve", "--pair", ppath, "--mu0", "0.05", "--lambda0", "0.95", "--max-iter", "-1",
               "--out", str(tmp_path / "trace.json")])
    assert rc == 2


def test_solve_bad_reference_is_input_error(tmp_path):
    ppath, _ = write_reference_files(tmp_path)
    _, trip = refpairs.simple_pair_desk()
    rpath = tmp_path / "bad_ref.json"
    save_triplet(Triplet(0.0, 0.5, trip.x), rpath)
    rc = main(["solve", "--pair", ppath, "--mu0", "0.05", "--lambda0", "0.95",
               "--reference", str(rpath), "--out", str(tmp_path / "trace.json")])
    assert rc == 2


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


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


def test_solve_writes_strict_json_and_fails_unless_converged(tmp_path):
    ppath, tpath = write_reference_files(tmp_path)
    out = tmp_path / "nan.json"
    rc = main(["solve", "--pair", ppath, "--mu0", "nan", "--lambda0", "0", "--x0", tpath,
               "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["status"] == "NonFinite"
    assert doc["iterates"][0]["mu"] is None and doc["iterates"][0]["res_norm"] is None
    out = tmp_path / "short.json"
    rc = main(["solve", "--pair", ppath, "--mu0", "3", "--lambda0", "-2", "--max-iter", "1",
               "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text())["status"] != "Converged"
