"""Command-line front end.

Commands: validate, ews, classify, solve, rybczynski, estimate, sweep, plot.
Exit codes: 0 success, 1 model/assertion failure, 2 I/O or parse failure.
The EWS3X2_OUT environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import estimate as est
from . import geometry, model, production, statics, tolerances
from .errors import Ews3x2Error

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("EWS3X2_OUT") or "."
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _fail_io(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_IO


#: the shape of every array an economy, shock or observation document holds
SHAPES = {"theta_share": (3, 2), "lambda_share": (3, 2), "theta_good": (2,),
          "theta_factor": (3,), "sigma": (2, 3, 3), "p_star": (2,),
          "v_star": (3,), "w_star": (3,), "a_star": (3, 2), "a0_prime": (3,)}

#: observation field -> its CSV columns, in row-major order of its shape
CSV_COLUMNS = {"theta_share": "theta_T1 theta_T2 theta_K1 theta_K2 theta_L1 theta_L2",
               "theta_good": "theta_good1 theta_good2", "p_star": "p1_star p2_star",
               "w_star": "wT_star wK_star wL_star",
               "a_star": "aT1_star aT2_star aK1_star aK2_star aL1_star aL2_star",
               "a0_prime": "aT0_prime aK0_prime aL0_prime"}
CSV_HELP = ("; ".join(f"{field}: {cols}" for field, cols in CSV_COLUMNS.items())
            + "; either the a_star or the a0_prime columns may be left out")


def _csv_document(fh) -> dict:
    """The observation dict held by a CSV of a header and one data row."""
    rows = [r for r in csv.reader(fh) if r]
    if len(rows) != 2 or len(rows[0]) != len(rows[1]):
        raise ValueError("not a header and one data row of as many values")
    row = {k.strip(): float(v) for k, v in zip(*rows)}
    return {field: np.reshape([row[c] for c in cols.split()], SHAPES[field])
            for field, cols in CSV_COLUMNS.items()
            if any(c in row for c in cols.split())}


def _read(path: str, cls, finite: bool = True):
    """Parse `path` into `cls`, an Economy, Shock or Observation, from JSON or,
    for an Observation, a one-row CSV. An unreadable or malformed document, a
    misshapen array, and a non-finite entry unless `finite` is False exit 2."""
    is_csv = cls is est.Observation and path.endswith(".csv")
    what = f"{cls.__name__.lower()} {'CSV' if is_csv else 'document'} {path}"
    try:
        with (open(path, newline="" if is_csv else None) as fh,
              np.errstate(divide="ignore", invalid="ignore")):  # 0/0: flagged below
            doc = cls.from_dict(_csv_document(fh) if is_csv else json.load(fh))
    except (OSError, LookupError, ValueError, TypeError, csv.Error, Ews3x2Error) as exc:
        if not is_csv and isinstance(exc, (OSError, json.JSONDecodeError)):
            raise SystemExit(_fail_io(f"cannot read {path}: {exc}"))
        hint = f" (expected {CSV_HELP})" if is_csv else ""
        raise SystemExit(_fail_io(f"malformed {what}: {exc}{hint}"))
    arrays = [(f.name, getattr(doc, f.name)) for f in fields(doc)
              if getattr(doc, f.name) is not None]
    wrong = [f"{name} has shape {arr.shape}, not {SHAPES[name]}"
             for name, arr in arrays if arr.shape != SHAPES[name]]
    if wrong:
        raise SystemExit(_fail_io(f"malformed {what}: {'; '.join(wrong)}"))
    bad = [name for name, arr in arrays if not np.isfinite(arr).all()]
    if bad and finite:
        raise SystemExit(_fail_io(f"non-finite entries in {', '.join(bad)} of {path}"))
    return doc


def _load_valid_economy(args) -> model.Economy:
    """Parse `args.economy` for a compute command; a structurally invalid
    economy (ranking not required) exits 1 listing every violation."""
    e = _read(args.economy, model.Economy)
    rep = model.validate_economy(e, tol=args.tolerance)
    if not rep.ok:
        print(f"error: invalid economy {args.economy}:\n{rep}", file=sys.stderr)
        raise SystemExit(EXIT_MODEL)
    return e


def _emit(payload: dict, args):
    try:
        text = json.dumps(payload, indent=2, default=str, allow_nan=False)
    except ValueError as exc:
        print(f"error: result is not finite: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_MODEL)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def cmd_validate(args) -> int:
    e = _read(args.economy, model.Economy, finite=False)
    rep = model.validate_economy(e, check_ranking=args.ranking, tol=args.tolerance)
    print(rep)
    _emit(rep.to_dict(), args)
    return EXIT_OK if rep.ok else EXIT_MODEL


def cmd_ews(args) -> int:
    e = _load_valid_economy(args)
    g = model.ews_matrix(e)
    lhs, mid, rhs = g.determinant_identity()
    payload = {
        "g": g.g.tolist(),
        "row_sums": g.row_sums().tolist(),
        "sign_triple": list(g.sign_triple()),
        "determinant_identity": {"lhs": lhs, "mid": mid, "rhs": rhs},
        "pair_labels": {f"{a}-{b}": v
                        for (a, b), v in model.classify_substitutes(g).items()},
    }
    _emit(payload, args)
    return EXIT_OK


def _placement(e: model.Economy) -> dict:
    """Where the ratio point of `e` lies: its coordinates, quadrant and implied
    sign triple, its subregion and, where one is tabulated, its Rybczynski
    sign pattern."""
    p = model.ews_ratio_vector(model.ews_matrix(e))
    quad, triple = geometry.quadrant(p)
    label = geometry.classify_subregion(p, e)
    payload = {
        "ratio_point": [p.s, p.u],
        "quadrant": quad.value,
        "implied_sign_triple": triple,
        "subregion": label.value,
    }
    if label in geometry.RYBCZYNSKI_PATTERNS:
        payload["rybczynski_pattern"] = geometry.rybczynski_pattern(label).tolist()
    return payload


def cmd_classify(args) -> int:
    _emit(_placement(_load_valid_economy(args)), args)
    return EXIT_OK


def cmd_solve(args) -> int:
    e = _load_valid_economy(args)
    with np.errstate(over="ignore", invalid="ignore"):  # `_emit` reports non-finite
        r = statics.solve_linear(e, _read(args.shock, statics.Shock))
    _emit(r.to_dict(), args)
    return EXIT_OK


def cmd_rybczynski(args) -> int:
    e = _load_valid_economy(args)
    values, signs = statics.rybczynski_matrix(e)
    payload = {"values": values.tolist(), "signs": signs.tolist()}
    try:
        place = _placement(e)
    except Ews3x2Error:
        place = {"subregion": None}
    payload["subregion"] = place["subregion"]
    if "rybczynski_pattern" in place:
        payload["pattern_match"] = place["rybczynski_pattern"] == payload["signs"]
    _emit(payload, args)
    return EXIT_MODEL if payload.get("pattern_match") is False else EXIT_OK


def cmd_estimate(args) -> int:
    obs = _read(args.observation, est.Observation)
    rep = est.run_pipeline(obs, time_reversal=args.time_reversal)
    _emit(rep.to_dict(), args)
    if args.svg:
        _write_estimate_svg(obs, rep, args.svg)
    return EXIT_OK


def _write_estimate_svg(obs, rep, path):
    from .svgfig import Figure, autoscale_viewport
    norm, _ = est.preprocess(obs, time_reversal=rep.preprocess.reversed)
    r = float(norm.theta_factor[model.L] / norm.theta_factor[model.K])
    t1 = rep.theorem1
    pts = [t1.point_a, t1.point_b]
    fig = Figure(viewport=autoscale_viewport(pts, r))
    fig.add_boundary(r)
    if t1.point_a is not None and t1.point_b is not None:
        fig.add_segment(t1.point_a, t1.point_b)
    for j, t in enumerate(geometry.r_thresholds(norm.theta_share).tolist(), 1):
        fig.add_threshold(t, f"S'(R_L{j})")
    Path(path).write_text(fig.to_svg())


SWEEP_HEADER = [
    "row", "seed", "family_1", "family_2",
    "theta_T1", "theta_K1", "theta_L1", "theta_T2", "theta_K2", "theta_L2",
    "s_prime", "u_prime", "quadrant", "subregion", "ranking",
    "ryb_signs", "oracle_agrees", "ok",
]


#: most rows computed as one batch: it bounds the batch's arrays (a peak of about
#: 6.5 kB a seed), while the rows are all held until the CSV is written
SWEEP_CHUNK = 128

#: a sweep row's shock, p* = (1, 0), and the right-hand sides of its hat-systems
_SHOCK = statics.Shock.price(1.0)
_SWEEP_RHS = np.column_stack([np.concatenate([_SHOCK.p_star, _SHOCK.v_star]),
                              statics._ENDOWMENT_RHS])[None]


def _sweep_rows(first_index: int, seeds, constraint: str) -> list:
    """CSV rows first_index, first_index + 1, ... for the seeds, computed as
    one batch: one hat-system solve, EWS ratio and subregion pass over the
    chunk's arrays. On a typed error the rows are recomputed one at a time,
    so the error that surfaces is the first failing row's own."""
    cons = production.SampleConstraints(
        ranked=True, quadrant="IV" if constraint == "quadrant4" else None)
    try:
        (th, la, _, tf, sigma), *_, drawn = production._sample_rounds(seeds, cons)
        x, eps = statics._solve_hats(th, la, sigma, _SWEEP_RHS)
        g = model._ews(la, eps)
        s, u = model._ews_ratios(g)
        for n in np.flatnonzero(np.isnan(s))[:1]:  # raises: row n has no ratio point
            model.ews_ratio_vector(model.EwsMatrix(g[n], tf[n]))
        quads, codes = geometry._subregions(s, u, th, tf)
    except Ews3x2Error:
        if len(seeds) == 1:
            raise
        return [row for k, seed in enumerate(seeds)
                for row in _sweep_rows(first_index + k, [seed], constraint)]
    xyz = (x[:, :3, 0] - _SHOCK.p_star[0]).tolist()
    signs = np.sign(x[:, 3:, 1:]).reshape(-1, 6).tolist()
    cols = th.transpose(0, 2, 1).reshape(-1, 6).tolist()
    rows = []
    for k, (q, c, sk, uk) in enumerate(zip(quads.tolist(), codes.tolist(),
                                           s.tolist(), u.tolist())):
        label = geometry._LABELS[c]
        ranking = statics.ranking_label(xyz[k], _SHOCK.zero_band)
        agrees = ""
        ok = ranking in statics.RANKINGS_UNDER_ASSUMPTIONS
        if label in geometry.RYBCZYNSKI_PATTERNS:
            agrees = signs[k] == geometry.RYBCZYNSKI_PATTERNS[label].ravel().tolist()
            ok = ok and agrees
        rows.append([
            first_index + k, seeds[k], *(family for family, _, _ in drawn[k]),
            *(f"{v:.12g}" for v in cols[k]), f"{sk:.12g}", f"{uk:.12g}",
            geometry._QUADRANTS[q].value, label.value, ranking,
            "".join("+" if v > 0 else "-" for v in signs[k]), agrees, ok,
        ])
    return rows


def cmd_sweep(args) -> int:
    if args.seed is None:
        return _fail_io("--seed is mandatory for sweep (reproducibility)")
    for name, low in (("seed", 0), ("count", 0), ("jobs", 1)):
        if getattr(args, name) < low:
            return _fail_io(f"--{name} must be >= {low}, not {getattr(args, name)}")
    seeds = [args.seed + k for k in range(args.count)]
    # one chunk at --jobs 1, about four chunks per worker otherwise, and
    # never more than SWEEP_CHUNK rows
    size = -(-len(seeds) // (4 * args.jobs)) if args.jobs > 1 else len(seeds)
    size = max(1, min(size, SWEEP_CHUNK))
    firsts = range(0, len(seeds), size)
    chunks = [seeds[f:f + size] for f in firsts]
    constraints = [args.constraint] * len(chunks)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(args.jobs, len(chunks), cpus)
    out_path = Path(args.out) if args.out else _out_dir(args) / "sweep.csv"
    made = not out_path.exists()
    # opened before any row is computed, so an unwritable path fails at once;
    # in place: ext4 writes back a file truncated to zero on close; a rerun waits
    try:
        with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  newline="") as fh:
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    parts = list(pool.map(_sweep_rows, firsts, chunks, constraints))
            else:
                parts = list(map(_sweep_rows, firsts, chunks, constraints))
            rows = [row for part in parts for row in part]
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(SWEEP_HEADER)
            w.writerows(rows)
            if out_path.is_file():  # a device or pipe has no length to cut
                fh.truncate()
    except Ews3x2Error:  # no CSV: an existing file keeps its bytes
        if made:
            out_path.unlink()
        raise

    failures = sum(r[17] is not True for r in rows)
    summary = {
        "rows": len(rows),
        "csv": str(out_path),
        "quadrants": Counter(r[12] for r in rows),
        "rankings": Counter(r[14] for r in rows),
        "violations": failures,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK if failures == 0 else EXIT_MODEL


def cmd_plot(args) -> int:
    from .svgfig import Figure, autoscale_viewport
    e = _load_valid_economy(args)
    r = e.theta_L_over_K
    p = model.ews_ratio_vector(model.ews_matrix(e))
    extra = [p]
    q = rl1 = rl2 = seg = None
    try:
        q = geometry.point_q(e)
        rl1, rl2 = geometry.points_r(e)
        extra += [q, rl1, rl2]
    except Ews3x2Error:
        pass
    try:
        resp = statics.stolper_samuelson(e, 1.0)
        seg = geometry.segment_ab(geometry.vector_line(resp, e), resp, e)
        extra += [seg.point_a, seg.point_b]
    except Ews3x2Error:
        pass
    fig = Figure(viewport=autoscale_viewport(extra, r))
    fig.add_boundary(r)
    if seg is not None:
        fig.add_line(seg.line.a1, seg.line.b1)
        fig.add_segment(seg.point_a, seg.point_b)
    if q is not None:
        fig.add_point(q.s, q.u, "Q", "#9467bd")
        fig.add_point(rl1.s, rl1.u, "R_L1", "#8c564b")
        fig.add_point(rl2.s, rl2.u, "R_L2", "#8c564b")
    fig.add_point(p.s, p.u, "E", "#17becf")
    out_path = Path(args.out) if args.out else _out_dir(args) / "figure.svg"
    out_path.write_text(fig.to_svg())
    if args.csv:
        Path(args.csv).write_text(fig.coords_csv())
    print(f"wrote {out_path}")
    return EXIT_OK


def tolerance(text: str) -> float:
    """The --tolerance type: a float that `model.check_tolerance` accepts."""
    try:
        return model.check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ews3x2",
        description="Comparative statics and EWS-ratio geometry for the "
                    "three-factor two-good trade model")
    ap.add_argument("--tolerance", type=tolerance, default=tolerances.STRUCT_TOL,
                    help="structural validation tolerance, finite and >= 0 "
                         "(default %(default)s)")
    ap.add_argument("--out", default=None, help="output file path")
    ap.add_argument("--out-dir", default=None,
                    help="output directory (default: $EWS3X2_OUT or .)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all structural invariants")
    p.add_argument("economy")
    p.add_argument("--ranking", action="store_true",
                   help="also enforce the factor-intensity ranking")

    p = sub.add_parser("ews", help="economy-wide substitution matrix")
    p.add_argument("economy")

    p = sub.add_parser("classify", help="ratio point, quadrant, subregion")
    p.add_argument("economy")

    p = sub.add_parser("solve", help="solve the hat-system for a shock")
    p.add_argument("economy")
    p.add_argument("shock")

    p = sub.add_parser("rybczynski", help="output responses to endowments")
    p.add_argument("economy")

    p = sub.add_parser("estimate", help="run the two-period estimation pipeline")
    p.add_argument("observation", help="Observation JSON, or a CSV of a header "
                   f"and one data row with the columns {CSV_HELP}")
    p.add_argument("--time-reversal", action="store_true")
    p.add_argument("--svg", default=None, help="also write a segment figure")

    p = sub.add_parser("sweep", help="seeded Monte Carlo sweep with oracle checks")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--constraint", choices=["ranked", "quadrant4"],
                   default="ranked")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("plot", help="SVG figure of the ratio plane")
    p.add_argument("economy")
    p.add_argument("--csv", default=None, help="also write plotted coordinates")
    return ap


#: the parser depends on nothing in argv or the environment
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_IO
    except Ews3x2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:  # `_read` exits on its reads, so this is a write
        return _fail_io(f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
