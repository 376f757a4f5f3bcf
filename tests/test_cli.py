"""Command-line interface: exit codes, file formats, determinism, figures."""

import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ews3x2 as m
from ews3x2.cli import SWEEP_HEADER, main
from ews3x2.model import K, L, T
from ews3x2.statics import Shock

from conftest import mixed_pool

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
    out = capsys.readouterr().out
    assert out.startswith("valid\n")
    assert json.loads(out[out.index("{"):]) == {"ok": True, "violations": []}


def test_validate_bad_economy(e0, tmp_path, capsys):
    d = e0.to_dict()
    d["theta_share"][0][0] += 0.05
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 1
    assert "share-column-sum" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "-0.5", "abc"])
def test_tolerance_must_be_finite_and_not_negative(e0, tmp_path, capsys, value):
    d = e0.to_dict()
    d["theta_share"][0][0] += 0.05
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    with pytest.raises(SystemExit) as exc:
        main([f"--tolerance={value}", "validate", str(p)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "error: argument --tolerance" in out.err
    assert out.out == ""


def test_tolerance_zero_is_zero(e0, tmp_path, capsys):
    d = e0.to_dict()
    d["theta_share"][0][0] += 1e-12
    p = tmp_path / "nearly.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 0
    assert main(["--tolerance", "0", "validate", str(p)]) == 1
    assert "share-column-sum" in capsys.readouterr().out


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "/nonexistent/economy.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_io_error(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["ews", str(p)]) == 2


@pytest.mark.parametrize("argv,path", [
    ("--out {tmp}/missing/x.json ews {e0}", "{tmp}/missing/x.json"),
    ("--out {tmp} ews {e0}", "{tmp}"),
    ("--out-dir {e0}/sub sweep --seed 1 --count 2", "{e0}/sub"),
    ("--out {tmp}/missing/f.svg plot {e0}", "{tmp}/missing/f.svg"),
    ("estimate {obs} --svg {tmp}/missing/x.svg", "{tmp}/missing/x.svg"),
], ids=["missing-dir", "a-directory", "file-as-dir", "plot", "estimate-svg"])
def test_unwritable_output_path_is_io_error(e0_path, obs_path, tmp_path, capsys,
                                            argv, path):
    paths = {"tmp": tmp_path, "e0": e0_path, "obs": obs_path}
    assert main(argv.format(**paths).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and "Traceback" not in err
    assert repr(path.format(**paths)) in err


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


def solve_reference_lines(e0):
    """`ews3x2 solve`'s JSON for e0 and 40 mixed-pool economies, each under a
    unit price rise, a unit capital loss and one normal shock."""
    rng = np.random.default_rng(21)
    for e in [e0] + mixed_pool(2024, 40):
        for s in (Shock.price(1.0), Shock.endowment(K, -1.0),
                  Shock(rng.normal(size=2), rng.normal(size=3))):
            yield json.dumps(m.solve_linear(e, s).to_dict(), indent=2,
                             default=str, allow_nan=False)


#: sha256 of the reference `solve` documents (numpy 2.4)
SOLVE_DIGEST = (
    "2a9f5d0fbcd26af52e10ae0067340772ca151330bb746c0c175de40afc7cd0cb")


def test_solve_reference_json_digest(e0):
    h = hashlib.sha256()
    for text in solve_reference_lines(e0):
        h.update(text.encode() + b"\n")
    assert h.hexdigest() == SOLVE_DIGEST


def test_solve_overflow_is_a_typed_error_alone(e0_path, tmp_path, capsys):
    shock = tmp_path / "shock.json"
    shock.write_text(json.dumps({"p_star": [1e160, 0.0], "v_star": [0, 0, 0]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", e0_path, str(shock)]) == 1
    out = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert out.out == ""
    assert out.err.startswith("error: result is not finite")
    assert len(out.err.splitlines()) == 1 and "Warning" not in out.err


def test_solve_malformed_shock(e0_path, tmp_path):
    shock = tmp_path / "shock.json"
    shock.write_text(json.dumps({"p_star": [1.0, 0.0]}))
    assert main(["solve", e0_path, str(shock)]) == 2


BAD_SHOCK = {
    "p_star of length 1": ("p_star", [1.0], "malformed shock document {}: "
                           "p_star has shape (1,), not (2,)"),
    "scalar p_star": ("p_star", 1.0, "malformed shock document {}: "
                      "p_star has shape (), not (2,)"),
    "v_star of length 2": ("v_star", [0.0, 0.5], "malformed shock document {}: "
                           "v_star has shape (2,), not (3,)"),
    "v_star of length 4": ("v_star", [0.0, 0.5, 0.0, 0.0], "malformed shock "
                           "document {}: v_star has shape (4,), not (3,)"),
    "NaN in p_star": ("p_star", [float("nan"), 0.0],
                      "non-finite entries in p_star of {}"),
}


@pytest.mark.parametrize("case", BAD_SHOCK)
def test_bad_shock_is_an_input_error(e0_path, tmp_path, capsys, case):
    field, value, message = BAD_SHOCK[case]
    d = Shock.price(1.0).to_dict()
    d[field] = value
    path = tmp_path / "shock.json"
    path.write_text(json.dumps(d))
    assert main(["solve", e0_path, str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message.format(path)}\n"
    assert out.out == ""


def test_rybczynski_payload(e0_path, capsys):
    assert main(["rybczynski", e0_path]) == 0
    d = json.loads(capsys.readouterr().out)
    signs = np.array(d["signs"])
    assert signs.shape == (2, 3)
    assert d["subregion"] == "quadrant I"


@pytest.fixture()
def p2_path(tmp_path):
    # a ranked quadrant-IV economy whose ratio point is in P2
    e = m.sample_economy(7, m.SampleConstraints(ranked=True, quadrant="IV")).economy
    p = tmp_path / "p2.json"
    p.write_text(json.dumps(e.to_dict()))
    return str(p)


def test_classify_and_rybczynski_agree_on_a_p2_economy(p2_path, capsys):
    assert main(["classify", p2_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["quadrant"] == "IV"
    assert d["subregion"] == "P2"
    assert d["rybczynski_pattern"] == m.rybczynski_pattern(m.SubregionLabel.P2).tolist()
    assert main(["rybczynski", p2_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["subregion"] == "P2"
    assert d["pattern_match"] is True


def test_rybczynski_without_a_ratio_point_reports_no_subregion(p2_path, capsys,
                                                                monkeypatch):
    import ews3x2.cli as cli

    def fail(*args, **kwargs):
        raise m.DegenerateDenominator("injected failure")

    monkeypatch.setattr(cli.model, "ews_ratio_vector", fail)
    assert main(["rybczynski", p2_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["subregion"] is None
    assert "pattern_match" not in d


def test_rybczynski_sign_mismatch_exits_1(p2_path, capsys, monkeypatch):
    import ews3x2.cli as cli
    exact = cli.statics.rybczynski_matrix

    def flipped(e):
        values, signs = exact(e)
        return -values, -signs

    monkeypatch.setattr(cli.statics, "rybczynski_matrix", flipped)
    assert main(["rybczynski", p2_path]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["subregion"] == "P2"
    assert d["pattern_match"] is False


def test_non_finite_result_exits_1(e0_path, capsys, monkeypatch):
    import ews3x2.cli as cli
    exact = cli.statics.rybczynski_matrix

    def with_nan(e):
        values, signs = exact(e)
        values[0, 0] = np.nan
        return values, signs

    monkeypatch.setattr(cli.statics, "rybczynski_matrix", with_nan)
    assert main(["rybczynski", e0_path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: result is not finite")


@pytest.fixture()
def unranked_iv_path(tmp_path):
    # a quadrant-IV economy outside the intensity ranking: L, not T, has the
    # largest sector-1 to sector-2 share ratio
    e = m.sample_economy(2, m.SampleConstraints(
        ranked=False, quadrant="IV", families=("two_level_ces",))).economy
    assert not m.is_ranked(e)
    p = tmp_path / "unranked.json"
    p.write_text(json.dumps(e.to_dict()))
    return str(p)


def test_no_tabulated_pattern_outside_the_intensity_ranking(unranked_iv_path,
                                                            capsys):
    assert main(["classify", unranked_iv_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["quadrant"] == "IV"
    assert d["subregion"] == "quadrant IV (unclassified)"
    assert "rybczynski_pattern" not in d
    assert main(["rybczynski", unranked_iv_path]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["subregion"] == "quadrant IV (unclassified)"
    assert "pattern_match" not in d


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


@pytest.mark.parametrize("command, code", [("validate", 1), ("ews", 2),
                                           ("estimate", 2)])
def test_zero_share_row_warns_nothing(e0, tmp_path, capsys, command, code):
    # a factor row of zero shares, with lambda_share and theta_factor left
    # to be derived, makes the allocations 0 / 0
    obs = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0)))
    d = obs.to_dict() if command == "estimate" else e0.to_dict()
    for derived in ("lambda_share", "theta_factor"):
        d.pop(derived, None)
    d["theta_share"] = [[0.0, 0.0], [0.5, 0.5], [0.5, 0.5]]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(d))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(doc)]) == code
    out = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if command == "validate":
        assert out.out.startswith("non-finite:") and out.err == ""
    else:
        field = "lambda_share" if command == "ews" else "a0_prime"
        assert out.err == f"error: non-finite entries in {field} of {doc}\n"


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
    ("sweep", "production._sample_rounds", m.ExhaustedRejection),
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


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_estimate_keeps_its_verdicts_past_the_float_range(obs_path, tmp_path,
                                                           capsys, scale):
    # H0 and the H_j multiply two rates, which leaves the float range here
    assert main(["estimate", obs_path]) == 0
    want = json.loads(capsys.readouterr().out)
    with open(obs_path) as f:
        doc = json.load(f)
    for name in ("p_star", "w_star", "a0_prime", "a_star"):
        doc[name] = (np.asarray(doc[name]) * scale).tolist()
    # a CSV of the a0_prime columns takes the path without a_star
    docs = {"big.json": json.dumps(doc),
            "big.csv": observation_csv(m.Observation.from_dict(doc), "prime")}
    for name, text in docs.items():
        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", str(path)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        got = json.loads(out.out)
        assert got["diagnostics"]["H0"] is None
        for key in ("quadrant_verdict", "subregion_verdict"):
            assert got[key] == want[key]
        assert got["diagnostics"]["failures"] == want["diagnostics"]["failures"]


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


@pytest.mark.parametrize("theta_share", [
    [[0.40, 0.0], [0.15, 0.6], [0.45, 0.4]],  # once estimated with exit 0
    [[0.45, 0.0], [0.2, 0.5], [0.35, 0.5]],
    [[0.45, -0.1], [0.2, 0.6], [0.35, 0.5]],
])
def test_share_that_is_not_positive_is_a_typed_error_alone(e0, tmp_path, capsys,
                                                           theta_share):
    d = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0))).to_dict()
    d["theta_share"] = theta_share
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(d))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", str(path)]) == 1
    out = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert out.out == ""
    assert out.err == "error: a distributive share is not positive\n"


@pytest.mark.parametrize("theta_good", [[1.0, 0.0], [1.2, -0.2]])
def test_goods_share_that_is_not_positive_is_a_typed_error(e0, tmp_path, capsys,
                                                           theta_good):
    # both once exited 0 with an inconclusive verdict
    d = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0))).to_dict()
    d["theta_good"] = theta_good
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(d))
    assert main(["estimate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: a goods income share is not positive\n"


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


def observation_csv(obs, a_columns: str) -> str:
    """`obs` as a one-row CSV whose rate-of-change columns are a_star's
    (a_columns "star") or a0_prime's ("prime"), named as in the README."""
    th, a = obs.theta_share, obs.a_star
    row = {f"theta_{f}{j + 1}": th[i, j] for i, f in enumerate("TKL") for j in range(2)}
    row.update({f"theta_good{j + 1}": obs.theta_good[j] for j in range(2)})
    row.update({f"p{j + 1}_star": obs.p_star[j] for j in range(2)})
    row.update({f"w{f}_star": obs.w_star[i] for i, f in enumerate("TKL")})
    if a_columns == "star":
        row.update({f"a{f}{j + 1}_star": a[i, j]
                    for i, f in enumerate("TKL") for j in range(2)})
    else:
        row.update({f"a{f}0_prime": obs.a0_prime[i] for i, f in enumerate("TKL")})
    return ",".join(row) + "\n" + ",".join(repr(float(v)) for v in row.values()) + "\n"


@pytest.mark.parametrize("change", ["no row", "two rows", "short row", "long row"])
def test_observation_csv_needs_one_data_row_of_all_columns(e0, tmp_path, capsys,
                                                            change):
    # two rows once exited 0 on the first; a short row died with a TypeError
    # and a long one with an AttributeError
    obs = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0)))
    header, row = observation_csv(obs, "star").splitlines()
    rows = {"no row": [], "two rows": [row, row], "short row": [row[:row.rindex(",")]],
            "long row": [row + ",0.5"]}[change]
    path = tmp_path / "obs.csv"
    path.write_text("".join(line + "\n" for line in [header] + rows))
    assert main(["estimate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: malformed observation CSV {path}: "
                              "not a header and one data row")
    assert out.out == ""


@pytest.mark.parametrize("seed", [None, 3, 11, 42])
@pytest.mark.parametrize("reversal", [[], ["--time-reversal"]])
def test_observation_json_and_csv_give_the_same_estimate(e0, tmp_path, capsys,
                                                         seed, reversal):
    e = e0 if seed is None else m.sample_economy(
        seed, m.SampleConstraints(ranked=True, quadrant="IV")).economy
    obs = m.observation_from_response(e, m.solve_linear(e, Shock.price(1.0)))
    # the a0_prime columns give what a document without a_star gives
    a0_only = {k: v for k, v in obs.to_dict().items() if k != "a_star"}
    docs = {"star.json": json.dumps(obs.to_dict()), "star.csv": observation_csv(obs, "star"),
            "a0.json": json.dumps(a0_only), "a0.csv": observation_csv(obs, "prime")}
    outputs = {}
    for name, text in docs.items():
        path, svg = tmp_path / f"obs.{name}", tmp_path / f"{name}.svg"
        path.write_text(text)
        assert main(["estimate", str(path), "--svg", str(svg)] + reversal) == 0
        outputs[name] = (capsys.readouterr(), svg.read_bytes())
    assert outputs["star.csv"] == outputs["star.json"]
    assert outputs["a0.csv"] == outputs["a0.json"]


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


@pytest.mark.parametrize("cpus,workers", [(64, 3), (2, 2)])
def test_sweep_starts_no_more_workers_than_chunks_or_cpus(tmp_path, monkeypatch,
                                                          cpus, workers):
    # a stand-in pool that records its size and maps in this process, so no
    # process is started however large --jobs is
    import concurrent.futures
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    codes = [main(["--out", str(out), "sweep", "--seed", "5", "--count", "3",
                   "--constraint", "quadrant4", "--jobs", jobs])
             for out, jobs in ((one, "1"), (many, "64"))]
    assert codes == [0, 0]
    assert started == [workers]
    assert many.read_bytes() == one.read_bytes()


def test_sweep_counts_cpus_without_an_affinity_call(tmp_path, monkeypatch):
    # where os has no sched_getaffinity and cpu_count knows nothing, one cpu
    # is counted, so --jobs 2 computes in this process
    import concurrent.futures

    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert [main(["--out", str(out), "sweep", "--seed", "5", "--count", "3",
                  "--jobs", jobs]) for out, jobs in ((one, "1"), (two, "2"))] == [0, 0]
    assert two.read_bytes() == one.read_bytes()


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
    rounds = cli.production._sample_rounds
    solve = cli.statics._solve_hats

    def sampler(seeds, *args):
        if seed + 5 in seeds:
            raise m.ExhaustedRejection("row 5 has no economy")
        return rounds(seeds, *args)

    def statics(th, *args):
        if any(np.array_equal(t, row3.theta_share) for t in th):
            raise m.SingularSystem("row 3 is singular")
        return solve(th, *args)

    monkeypatch.setattr(cli.production, "_sample_rounds", sampler)
    monkeypatch.setattr(cli.statics, "_solve_hats", statics)
    assert main(["--out", str(tmp_path / "s.csv"), "sweep", "--seed", str(seed),
                 "--count", "8"]) == 1
    assert capsys.readouterr().err == "error: row 3 is singular\n"


def test_sweep_reports_a_degenerate_quadrant_iv_row_through_the_fallback(
        tmp_path, capsys, monkeypatch):
    # row 3's economy has equal land shares in both sectors (A = 0) and its
    # ratio point in quadrant IV, so Q is undefined; row 5's sampler fails
    # first in the batched pass, and the row-by-row rerun reports row 3
    import dataclasses
    import ews3x2.cli as cli
    from conftest import economy_with_point
    seed = 40
    flat = economy_with_point([[0.3, 0.3], [0.2, 0.45], [0.5, 0.25]],
                              [0.5, 0.5], 1.0, -0.1)
    with pytest.raises(m.DegenerateShares) as scalar:
        m.classify_subregion(m.ews_ratio_vector(m.ews_matrix(flat)), flat)
    rounds = cli.production._sample_rounds

    def sampler(seeds, *args):
        if seed + 5 in seeds:
            raise m.ExhaustedRejection("row 5 has no economy")
        batch = rounds(seeds, *args)
        if seed + 3 in seeds:
            for arr, f in zip(batch[0], dataclasses.fields(flat)):
                arr[seeds.index(seed + 3)] = getattr(flat, f.name)
        return batch

    monkeypatch.setattr(cli.production, "_sample_rounds", sampler)
    assert main(["--out", str(tmp_path / "s.csv"), "sweep", "--seed", str(seed),
                 "--count", "8"]) == 1
    assert capsys.readouterr().err == f"error: {scalar.value}\n"


def test_sweep_reports_a_row_without_a_ratio_point(tmp_path, capsys, monkeypatch):
    # row 3's g_LT is zeroed, so the batched pass has no ratio point there;
    # the rows rerun one at a time, and row 3 raises DegenerateDenominator
    import ews3x2.cli as cli
    seed = 40
    row3 = m.sample_economy(seed + 3, m.SampleConstraints(ranked=True)).economy
    ews = cli.model._ews

    def zeroed(la, eps):
        g = ews(la, eps)
        for n, lam in enumerate(la):
            if np.array_equal(lam, row3.lambda_share):
                g[n, L, T] = g[n, T, L] = 0.0
        return g

    monkeypatch.setattr(cli.model, "_ews", zeroed)
    assert main(["--out", str(tmp_path / "s.csv"), "sweep", "--seed", str(seed),
                 "--count", "8"]) == 1
    assert capsys.readouterr().err == ("error: g_LT = 0.000e+00; the EWS-ratio "
                                       "vector is undefined\n")


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1", "--count", "2"], "--seed must be >= 0, not -1"),
    (["--seed", "-1", "--count", "2", "--jobs", "2"], "--seed must be >= 0, not -1"),
    (["--seed", "1", "--count", "-3"], "--count must be >= 0, not -3"),
    (["--seed", "1", "--count", "2", "--jobs", "0"], "--jobs must be >= 1, not 0"),
    (["--seed", "1", "--count", "2", "--jobs", "-4"], "--jobs must be >= 1, not -4"),
])
def test_sweep_rejects_arguments_that_make_no_sense(tmp_path, capsys, argv, message):
    out = tmp_path / "s.csv"
    assert main(["--out", str(out), "sweep"] + argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_sweep_of_no_rows_writes_the_header(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["--out", str(out), "sweep", "--seed", "1", "--count", "0"]) == 0
    assert out.read_text() == ",".join(SWEEP_HEADER) + "\n"


def test_sweep_overwrites_a_longer_file_exactly(tmp_path):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert main(["--out", str(reused), "sweep", "--seed", "9", "--count", "20"]) == 0
    assert main(["--out", str(reused), "sweep", "--seed", "9", "--count", "2"]) == 0
    assert main(["--out", str(fresh), "sweep", "--seed", "9", "--count", "2"]) == 0
    assert reused.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_sweep_into_a_device_is_not_truncated(capsys):
    # a device has no length to cut: truncating /dev/null raises EINVAL
    assert main(["--out", "/dev/null", "sweep", "--seed", "1", "--count", "2"]) == 0
    assert "error" not in capsys.readouterr().err


def test_sweep_into_a_missing_directory_fails_before_any_row(tmp_path, capsys,
                                                             monkeypatch):
    import ews3x2.cli as cli

    def never(*args):
        raise AssertionError("a row was computed for an unwritable --out")

    monkeypatch.setattr(cli, "_sweep_rows", never)
    out = tmp_path / "missing" / "s.csv"
    assert main(["--out", str(out), "sweep", "--seed", "1", "--count", "5",
                 "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and "Traceback" not in err
    assert not out.parent.exists()


def test_sweep_that_ends_in_a_typed_error_writes_no_csv(tmp_path, capsys,
                                                        monkeypatch):
    # a path that did not exist is left without a file, and an existing file
    # keeps its bytes
    import ews3x2.cli as cli

    def fail(*args):
        raise m.ExhaustedRejection("injected failure")

    monkeypatch.setattr(cli.production, "_sample_rounds", fail)
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"earlier,bytes\n")
    for out in (fresh, kept):
        assert main(["--out", str(out), "sweep", "--seed", "1", "--count", "5",
                     "--jobs", "1"]) == 1
        assert capsys.readouterr().err == "error: injected failure\n"
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_bytes() == b"earlier,bytes\n"


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
    assert '<polyline fill="none" stroke="#d62728"' in text  # the segment AB
    lines = coords.read_text().splitlines()
    assert lines[0]  # non-empty header
    series = {line.split(",")[0] for line in lines[1:]}
    assert {"segment", "vector-line", "point-A", "point-B"} <= series


def _plot_series(argv, tmp_path) -> set:
    coords = tmp_path / "coords.csv"
    assert main(["--out", str(tmp_path / "fig.svg"), "plot", *argv,
                 "--csv", str(coords)]) == 0
    return {line.split(",")[0] for line in coords.read_text().splitlines()[1:]}


def test_plot_without_q_draws_no_special_points(tmp_path):
    # equal land shares: Q is undefined
    e = m.Economy.cobb_douglas([[0.3, 0.3], [0.2, 0.45], [0.5, 0.25]], [0.5, 0.5])
    econ = tmp_path / "economy.json"
    econ.write_text(json.dumps(e.to_dict()))
    series = _plot_series([str(econ)], tmp_path)
    assert "point-E" in series
    assert not {"point-Q", "point-R_L1", "point-R_L2"} & series


def test_plot_without_a_segment_draws_no_vector_line(e0_path, tmp_path, monkeypatch):
    import ews3x2.cli as cli

    def fail(*args, **kwargs):
        raise m.DegenerateShock("injected failure")

    monkeypatch.setattr(cli.geometry, "segment_ab", fail)
    series = _plot_series([e0_path], tmp_path)
    assert {"point-E", "point-Q", "boundary"} <= series
    assert not {"segment", "vector-line", "point-A", "point-B"} & series


@pytest.mark.parametrize("r", [0.5, 1.75, 1e303])
@pytest.mark.parametrize("viewport", [(-4.0, 4.0, -4.0, 4.0), (-1.6, 2.1, -3.3, 0.9)])
def test_boundary_branch_equals_the_pointwise_loop(r, viewport):
    # the reference: one scalar boundary_u per abscissa, in float arithmetic
    from ews3x2.svgfig import Figure, Viewport
    vp = Viewport(*viewport)
    want = []
    for lo, hi in ((vp.s_min, -1.0 - 1e-6), (-1.0 + 1e-6, vp.s_max)):
        pts = []
        for k in range(401):
            s = lo + (hi - lo) * k / 400
            try:
                u = m.boundary_u(s, r)
            except m.AsymptoteHit:
                continue
            if vp.u_min <= u <= vp.u_max:
                pts.append(("boundary", s, u))
        want += pts if len(pts) >= 2 else []
    fig = Figure(viewport=vp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fig.add_boundary(r)
    assert [c for c in fig.coords if c[0] == "boundary"] == want


# ---------------------------------------------------------------------------
# fuzzed documents: a valid document with one part broken


WRONG_TYPES = ["abc", "1.0", None, True, {"a": 1.0}, [], [["x", 1.0]]]


def broken_value(value):
    """Strategy: the array-like `value` in a wrong shape, with one entry not
    finite, or replaced by a value of another type."""
    arr = np.asarray(value, dtype=float)

    def non_finite(args):
        k, bad = args
        flat = arr.flatten()
        flat[k] = bad
        return flat.reshape(arr.shape).tolist()

    return st.one_of(
        st.lists(st.floats(-2, 2), max_size=4),
        st.floats(-2, 2),
        st.just(np.append(arr, 0.5).tolist()),
        st.just(arr[..., :-1].tolist()),
        st.tuples(st.integers(0, arr.size - 1),
                  st.sampled_from([np.nan, np.inf, -np.inf])).map(non_finite),
        st.sampled_from(WRONG_TYPES),
    )


@st.composite
def broken_json(draw, doc: dict) -> str:
    how = draw(st.sampled_from(["field", "missing key", "not an object"]))
    if how == "not an object":
        return json.dumps(draw(st.sampled_from([[], [1.0, 2.0], 3.5, "abc", None])))
    doc = dict(doc)
    name = draw(st.sampled_from(sorted(k for k in doc if k not in ("factors", "sectors"))))
    if how == "missing key":
        del doc[name]
    else:
        doc[name] = draw(broken_value(doc[name]))
    return json.dumps(doc)


@st.composite
def broken_csv(draw, obs) -> str:
    header, row = observation_csv(obs, draw(st.sampled_from(["star", "prime"]))).splitlines()
    header, row = header.split(","), row.split(",")
    how = draw(st.sampled_from(["extra row", "no row", "missing column", "entry",
                                "short row", "long row"]))
    rows = [row]
    k = draw(st.integers(0, len(row) - 1))
    if how == "extra row":
        rows.append(draw(st.sampled_from([row, ["foo", "bar"], row[:3]])))
    elif how == "no row":
        rows = []
    elif how == "missing column":
        del header[k], row[k]
    elif how == "entry":
        row[k] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "", "x", "None"]))
    elif how == "short row":
        del row[k]
    else:
        row.append("0.5")
    return "".join(",".join(r) + "\n" for r in [header] + rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_broken_documents_exit_0_1_or_2(e0, data):
    obs = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0)))
    kind = data.draw(st.sampled_from(["economy", "shock", "observation", "csv"]))
    with tempfile.TemporaryDirectory() as tmp:
        econ, shock = os.path.join(tmp, "economy.json"), os.path.join(tmp, "shock.json")
        doc = os.path.join(tmp, "obs.csv" if kind == "csv" else "doc.json")
        with open(econ, "w") as fh:
            json.dump(e0.to_dict(), fh)
        with open(shock, "w") as fh:
            json.dump(Shock.price(1.0).to_dict(), fh)
        text = {"economy": lambda: broken_json(e0.to_dict()),
                "shock": lambda: broken_json(Shock.price(1.0).to_dict()),
                "observation": lambda: broken_json(obs.to_dict()),
                "csv": lambda: broken_csv(obs)}[kind]()
        with open(doc, "w") as fh:
            fh.write(data.draw(text))
        if kind == "economy":
            command = data.draw(st.sampled_from(
                ["validate", "ews", "classify", "solve", "rybczynski", "plot"]))
            argv = [command, doc] + ([shock] if command == "solve" else [])
        elif kind == "shock":
            argv = ["solve", econ, doc]
        else:
            argv = ["estimate", doc, "--svg", os.path.join(tmp, "fig.svg")]
            argv += data.draw(st.sampled_from([[], ["--time-reversal"]]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["--out-dir", tmp] + argv)
    assert rc in (0, 1, 2)
    assert "NaN" not in out.getvalue()
    assert "Infinity" not in out.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# fuzzed values: well-formed documents that hold extreme numbers


def extreme(low: float, high: float):
    """Strategy: floats in [low, high], the ends and powers of ten between them
    included, one draw in four; a float in the middle of the range otherwise,
    so that many drawn economies are valid and reach the computations."""
    ends = st.one_of(st.sampled_from([low, high]), st.floats(low, high),
                     st.integers(-300, 300).map(lambda k: 10.0 ** k)
                     .filter(lambda v: low <= v <= high))
    middle = st.floats(0.05, 0.95) if low > 0 else st.floats(0.0, 3.0)
    return st.integers(0, 3).flatmap(lambda k: ends if k == 0 else middle)


@st.composite
def extreme_economy(draw) -> m.Economy:
    share = extreme(1e-300, 1 - 1e-16)
    th = np.array(draw(st.lists(share, min_size=6, max_size=6))).reshape(3, 2)
    tg = np.array(draw(st.lists(share, min_size=2, max_size=2)))
    cross = st.lists(extreme(-1e300, 1e300), min_size=3, max_size=3)
    sigma = np.zeros((2, 3, 3))
    for j in range(2):
        (sigma[j, 0, 1], sigma[j, 0, 2], sigma[j, 1, 2]) = draw(cross)
        sigma[j] += sigma[j].T
    with np.errstate(all="ignore"):
        th, tg = th / th.sum(axis=0), tg / tg.sum()
        sigma = m.model._fill_aes_diagonal(sigma, th.T)
    assume(np.isfinite(sigma).all())  # a diagonal past the float range
    return m.Economy.from_shares(th, tg, sigma)


@settings(max_examples=50, deadline=None)
@given(e=extreme_economy(),
       shock=st.lists(extreme(-1e300, 1e300), min_size=5, max_size=5),
       scale=st.floats(-300, 300).map(lambda k: 10.0 ** k),
       reversal=st.sampled_from([[], ["--time-reversal"]]))
def test_extreme_values_exit_0_1_or_2(e0, e, shock, scale, reversal):
    obs = m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0)))
    obs = m.Observation(theta_share=obs.theta_share, theta_good=obs.theta_good,
                        p_star=scale * obs.p_star, w_star=scale * obs.w_star,
                        a_star=scale * obs.a_star)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("economy", e.to_dict()),
                          ("shock", {"p_star": shock[:2], "v_star": shock[2:]}),
                          ("observation", obs.to_dict())):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        for argv in ([[command, paths["economy"]] for command in
                      ("validate", "ews", "classify", "rybczynski", "plot")]
                     + [["solve", paths["economy"], paths["shock"]],
                        ["estimate", paths["observation"], *reversal]]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(["--out-dir", tmp] + argv)
            assert rc in (0, 1, 2), argv
            if rc == 0:
                assert "NaN" not in out.getvalue(), argv
                assert "Infinity" not in out.getvalue(), argv
