"""Command-line interface: exit codes, file formats, determinism, figures."""

import csv
import hashlib
import json
import warnings

import numpy as np
import pytest

import ews3x2 as m
from ews3x2.cli import main
from ews3x2.statics import Shock

@pytest.fixture()
def e0_path(e0, tmp_path):
    p = tmp_path / "economy.json"
    p.write_text(json.dumps(e0.to_dict()))
    return str(p)


@pytest.fixture()
def obs_path(e0, tmp_path):
    obs = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0)))
    p = tmp_path / "obs.json"
    p.write_text(json.dumps(obs.to_dict()))
    return str(p)


# ---------------------------------------------------------------------------
# validate / ews / classify / solve / rybczynski


def test_validate_ok(e0_path, capsys):
    assert main(["validate", e0_path, "--ranking"]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_economy(e0, tmp_path, capsys):
    d = e0.to_dict()
    d["theta_share"][0][0] += 0.05
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 1
    assert "share-column-sum" in capsys.readouterr().out


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "/nonexistent/economy.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_io_error(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["ews", str(p)]) == 2


def test_ews_payload(e0_path, capsys):
    assert main(["ews", e0_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["sign_triple"] == [1, 1, 1]
    assert d["determinant_identity"]["lhs"] == pytest.approx(0.287857142857)
    assert d["pair_labels"]["L-K"] == "economy-wide substitute"


def test_classify_payload(e0_path, capsys):
    assert main(["classify", e0_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["quadrant"] == "I"
    assert d["subregion"] == "quadrant I"
    assert d["ratio_point"][0] == pytest.approx(1.011494252873563)


def test_solve_writes_out_file(e0_path, tmp_path, capsys):
    shock = tmp_path / "shock.json"
    shock.write_text(json.dumps({"p_star": [1.0, 0.0], "v_star": [0, 0, 0]}))
    out = tmp_path / "resp.json"
    assert main(["--out", str(out), "solve", e0_path, str(shock)]) == 0
    d = json.loads(out.read_text())
    assert d["w_star"] == pytest.approx([2.18269231, -1.375, 0.83653846])
    assert d["ranking"] == "X>Z>Y"
    assert d["sign_label"] == "A"


def test_solve_malformed_shock(e0_path, tmp_path):
    shock = tmp_path / "shock.json"
    shock.write_text(json.dumps({"p_star": [1.0, 0.0]}))
    assert main(["solve", e0_path, str(shock)]) == 2


def test_rybczynski_payload(e0_path, capsys):
    assert main(["rybczynski", e0_path]) == 0
    d = json.loads(capsys.readouterr().out)
    signs = np.array(d["signs"])
    assert signs.shape == (2, 3)
    assert d["subregion"] == "quadrant I"


@pytest.mark.parametrize("command",
                         ["solve", "rybczynski", "ews", "classify", "plot"])
def test_nan_share_is_a_typed_error(e0, tmp_path, capsys, command):
    d = e0.to_dict()
    d["theta_share"][0][0] = float("nan")
    econ = tmp_path / "nan.json"
    econ.write_text(json.dumps(d))
    shock = tmp_path / "shock.json"
    shock.write_text(json.dumps(Shock.price(1.0).to_dict()))
    argv = (["--out-dir", str(tmp_path), command, str(econ)]
            + ([str(shock)] if command == "solve" else []))
    assert main(argv) in (1, 2)
    out = capsys.readouterr()
    assert out.err.startswith("error:")
    assert "NaN" not in out.out
    assert not (tmp_path / "figure.svg").exists()


def test_validate_reports_nan_share(e0, tmp_path, capsys):
    d = e0.to_dict()
    d["theta_share"][0][0] = float("nan")
    econ = tmp_path / "nan.json"
    econ.write_text(json.dumps(d))
    assert main(["validate", str(econ)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("non-finite:")
    payload = json.loads(out[out.index("{"):])
    assert [v["code"] for v in payload["violations"]] == ["non-finite"]
    assert payload["violations"][0]["magnitude"] is None


def _run_on(d, tmp_path, command):
    econ = tmp_path / "economy.json"
    econ.write_text(json.dumps(d))
    shock = tmp_path / "shock.json"
    shock.write_text(json.dumps(Shock.price(1.0).to_dict()))
    argv = (["--out-dir", str(tmp_path), command, str(econ)]
            + ([str(shock)] if command == "solve" else []))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


MISSHAPEN = {
    "theta_share": [[0.5, 0.3], [0.5, 0.7]],
    "theta_good": [0.3, 0.3, 0.4],
    "sigma": [[[-1.0, 1.0], [1.0, -1.0]]] * 2,
}


@pytest.mark.parametrize("field", MISSHAPEN)
@pytest.mark.parametrize("command", ["validate", "ews", "classify", "solve",
                                     "rybczynski", "plot"])
def test_misshapen_array_is_an_input_error(e0, tmp_path, capsys, command,
                                           field):
    d = e0.to_dict()
    d[field] = MISSHAPEN[field]
    assert _run_on(d, tmp_path, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed economy document")
    assert f"{field} has shape" in err
    assert not (tmp_path / "figure.svg").exists()


@pytest.mark.parametrize("command",
                         ["ews", "classify", "solve", "rybczynski", "plot"])
def test_invalid_economy_is_not_computed_on(e0, tmp_path, capsys, command):
    d = e0.to_dict()
    d["theta_share"][0][0] = 0.0
    assert _run_on(d, tmp_path, command) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: invalid economy")
    codes = [line.split(":")[0] for line in out.err.splitlines()[1:]]
    assert codes == [v.code for v in m.validate_economy(
        m.Economy.from_dict(d)).violations]
    assert {"share-column-sum", "share-range"} <= set(codes)
    assert out.out == ""
    assert not (tmp_path / "figure.svg").exists()


@pytest.mark.parametrize("command,target,error", [
    ("solve", "statics.solve_linear", m.SingularSystem),
    ("rybczynski", "statics.rybczynski_matrix", m.SingularSystem),
    ("classify", "model.ews_ratio_vector", m.DegenerateDenominator),
    ("estimate", "est.run_pipeline", m.ZeroP),
    ("sweep", "production.sample_economies", m.ExhaustedRejection),
])
def test_typed_error_exits_1(e0_path, obs_path, tmp_path, capsys, monkeypatch,
                             command, target, error):
    # the one library call each command makes raises a typed error, which
    # main turns into exit 1 and an error line instead of a traceback
    import ews3x2.cli as cli

    def fail(*args, **kwargs):
        raise error("injected failure")

    owner, name = target.split(".")
    monkeypatch.setattr(getattr(cli, owner), name, fail)
    shock = tmp_path / "shock.json"
    shock.write_text(json.dumps(Shock.price(1.0).to_dict()))
    argv = {"solve": ["solve", e0_path, str(shock)],
            "rybczynski": ["rybczynski", e0_path],
            "classify": ["classify", e0_path],
            "estimate": ["estimate", obs_path],
            "sweep": ["sweep", "--seed", "1", "--count", "3"]}[command]
    assert main(["--out-dir", str(tmp_path)] + argv) == 1
    out = capsys.readouterr()
    assert out.err == "error: injected failure\n"
    assert out.out == ""


# ---------------------------------------------------------------------------
# estimate


def test_estimate_json(obs_path, capsys):
    assert main(["estimate", obs_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["quadrant_verdict"] == "inconclusive"
    assert d["a0_sign_label"] == "A"
    assert d["diagnostics"]["consistent"] is True


def test_estimate_csv_and_svg(e0, tmp_path, capsys):
    obs = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0)))
    th, a = obs.theta_share, obs.a_star
    row = {
        "theta_T1": th[0, 0], "theta_T2": th[0, 1],
        "theta_K1": th[1, 0], "theta_K2": th[1, 1],
        "theta_L1": th[2, 0], "theta_L2": th[2, 1],
        "theta_good1": obs.theta_good[0], "theta_good2": obs.theta_good[1],
        "p1_star": obs.p_star[0], "p2_star": obs.p_star[1],
        "wT_star": obs.w_star[0], "wK_star": obs.w_star[1],
        "wL_star": obs.w_star[2],
        "aT1_star": a[0, 0], "aT2_star": a[0, 1],
        "aK1_star": a[1, 0], "aK2_star": a[1, 1],
        "aL1_star": a[2, 0], "aL2_star": a[2, 1],
    }
    path = tmp_path / "obs.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(row))
        w.writeheader()
        w.writerow(row)
    svg = tmp_path / "fig.svg"
    assert main(["estimate", str(path), "--svg", str(svg)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["ranking"] == "X>Z>Y"
    text = svg.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert "S'(R_L1)" in text


def test_non_finite_observation_rate_exits_2(e0, tmp_path, capsys):
    d = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0))).to_dict()
    del d["a_star"]
    d["w_star"] = [float("nan"), -0.5, 0.5]
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(d))
    assert main(["estimate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: non-finite entries in w_star of {path}\n"
    assert out.out == ""


MISSHAPEN_OBSERVATION = {
    "w_star of length 2": ("w_star", lambda d: d["w_star"][:2]),
    "w_star of length 4": ("w_star", lambda d: d["w_star"] + [0.1]),
    "scalar w_star": ("w_star", lambda d: 0.5),
    "p_star of length 1": ("p_star", lambda d: d["p_star"][:1]),
    "p_star of length 3": ("p_star", lambda d: d["p_star"] + [0.0]),
    "a_star of shape (3, 1)": ("a_star", lambda d: [r[:1] for r in d["a_star"]]),
    "a0_prime of length 2": ("a0_prime", lambda d: d["a0_prime"][:2]),
}


@pytest.mark.parametrize("case", MISSHAPEN_OBSERVATION)
def test_misshapen_observation_is_an_input_error(e0, tmp_path, capsys, case):
    field, value = MISSHAPEN_OBSERVATION[case]
    d = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0))).to_dict()
    if field == "a0_prime":
        del d["a_star"]  # otherwise a0_prime is recomputed from a_star
    d[field] = value(d)
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(d))
    assert main(["estimate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: malformed observation document {path}: "
                              f"{field} has shape")
    assert out.out == ""


def test_estimate_bad_csv(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("theta_T1,theta_T2\n0.45,0.2\n")
    assert main(["estimate", str(path)]) == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_requires_seed(tmp_path):
    assert main(["--out-dir", str(tmp_path), "sweep"]) == 2


def test_sweep_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--out", str(out1), "sweep", "--seed", "9", "--count", "20"]) == 0
    assert main(["--out", str(out2), "sweep", "--seed", "9", "--count", "20"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert '"violations": 0' in capsys.readouterr().out
    # rows computed in a process pool come out byte-identical too
    out3 = tmp_path / "c.csv"
    assert main(["--out", str(out3), "sweep", "--seed", "9", "--count", "20",
                 "--jobs", "2"]) == 0
    assert out3.read_bytes() == out1.read_bytes()
    with open(out1) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "row"
    assert len(rows) == 21
    for r in rows[1:]:
        assert r[14] in ("X>Y>Z", "X>Z>Y", "Z>X>Y", "Z>Y>X")
        assert r[17] == "True"


#: sha256 of the 200-row reference sweep CSVs, as the one-seed-at-a-time
#: sweep wrote them (numpy 2.4)
SWEEP_DIGESTS = {
    ("1234", "ranked"):
        "fc7075b9027d41e8537c1d75396ff72a3181013f78fbb6f45296c31e6cbc31e3",
    ("77", "quadrant4"):
        "5929922c24965bc3fb2f52111daabd228ecd90c6059323d994bfac5be4e0d1b3",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("seed,constraint", list(SWEEP_DIGESTS))
def test_sweep_reference_csv_digests(tmp_path, seed, constraint, jobs):
    out = tmp_path / "sweep.csv"
    assert main(["--out", str(out), "sweep", "--seed", seed, "--count", "200",
                 "--constraint", constraint, "--jobs", jobs]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SWEEP_DIGESTS[seed, constraint]


@pytest.mark.parametrize("constraint", ["ranked", "quadrant4"])
def test_sweep_chunk_equals_one_row_commands(tmp_path, constraint):
    whole, one = tmp_path / "whole.csv", tmp_path / "one.csv"
    assert main(["--out", str(whole), "sweep", "--seed", "600", "--count", "20",
                 "--constraint", constraint]) == 0
    lines = whole.read_text().splitlines()
    assert len(lines) == 21
    for k in range(20):
        assert main(["--out", str(one), "sweep", "--seed", str(600 + k),
                     "--count", "1", "--constraint", constraint]) == 0
        header, row = one.read_text().splitlines()
        index, rest = row.split(",", 1)
        assert (header, index) == (lines[0], "0")
        assert lines[k + 1] == f"{k},{rest}"


def test_sweep_reports_the_first_failing_row(tmp_path, capsys, monkeypatch):
    # row 5's sampler fails before row 3's statics in the batched pass; the
    # rows rerun one at a time, so row 3's own error is the one reported
    import ews3x2.cli as cli
    seed = 40
    row3 = m.sample_economy(seed + 3, m.SampleConstraints(ranked=True)).economy
    sample = cli.production.sample_economies
    solve = cli.statics.responses_and_rybczynski

    def sampler(seeds, *args):
        if seed + 5 in seeds:
            raise m.ExhaustedRejection("row 5 has no economy")
        return sample(seeds, *args)

    def statics(economies, *args):
        if any(np.array_equal(e.theta_share, row3.theta_share) for e in economies):
            raise m.SingularSystem("row 3 is singular")
        return solve(economies, *args)

    monkeypatch.setattr(cli.production, "sample_economies", sampler)
    monkeypatch.setattr(cli.statics, "responses_and_rybczynski", statics)
    assert main(["--out", str(tmp_path / "s.csv"), "sweep", "--seed", str(seed),
                 "--count", "8"]) == 1
    assert capsys.readouterr().err == "error: row 3 is singular\n"


def test_sweep_overwrites_a_longer_file_exactly(tmp_path):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert main(["--out", str(reused), "sweep", "--seed", "9", "--count", "20"]) == 0
    assert main(["--out", str(reused), "sweep", "--seed", "9", "--count", "2"]) == 0
    assert main(["--out", str(fresh), "sweep", "--seed", "9", "--count", "2"]) == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_sweep_quadrant4_constraint(tmp_path):
    out = tmp_path / "q4.csv"
    assert main(["--out", str(out), "sweep", "--seed", "3", "--count", "8",
                 "--constraint", "quadrant4"]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(r[12] == "IV" for r in rows)


# ---------------------------------------------------------------------------
# plot


def test_plot_writes_svg_and_csv(e0_path, tmp_path):
    svg = tmp_path / "fig.svg"
    coords = tmp_path / "coords.csv"
    assert main(["--out", str(svg), "plot", e0_path,
                 "--csv", str(coords)]) == 0
    text = svg.read_text()
    assert "<svg" in text
    for label in ("Q", "R_L1", "R_L2", "E"):
        assert label in text
    assert coords.read_text().splitlines()[0]  # non-empty header
