"""Digest every output of a trialport checkout's command line.

Usage: python tools/output_digest.py CHECKOUT

Runs ``trialport.cli.main`` from ``CHECKOUT/src`` in-process, in a temporary
directory, on a two-covariate DGP with one auxiliary covariate: ``simulate``
per design, ``estimate --out`` for every method and estimand on each dataset,
``diagnose`` at B = 8, ``estimate`` on seven hand-written malformed datasets
(each exits 2 naming its first bad line), ``experiment`` per design at
workers 1, 2 and 4 plus one misspecified config, a two-estimator
``experiment`` with a bootstrap at workers 1 and 2, and a three-cell
``sweep`` at workers 1, 2 and 4. Prints
``sha256  name`` per output (each written file; each command's exit code,
stdout and stderr), then a total over those lines: equal totals mean the same
bytes. Each ``experiment`` and ``sweep`` CSV is also digested with its
oracle-derived columns (``truth``, ``bias``, ``rmse``) removed, as
``NAME.no_truth``: a change to the oracle alone moves only the full digests.
Each ``diagnose`` output is also digested with its ``difference_bootstrap_se``
rounded to 6 significant digits, as ``NAME.se6``, and so is each bootstrap
``experiment`` CSV, with its ``boot_se_mean`` rounded likewise, as
``experiment_bootstrap_wN.se6``: a change that refits the same resamples to
the same optimum by another route moves only the full digests, while one that
draws other resamples moves both. Each ``experiment`` and ``sweep`` CSV is
also digested with every number rounded to 10 significant digits, as
``NAME.r10`` (``NAME`` without ``.csv``): a change that moves only the last
bits of some values moves the full digests but not these. ``diagnose`` runs on
every CPU the process may use; its output does not depend on how many there
are, so digests from machines with different CPU counts compare.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

DGP = {
    "covariates": [{"dist": "normal", "mean": 0.0, "sd": 1.0}, {"dist": "uniform", "lo": -1.0, "hi": 1.0}],
    "participation_logit": [-1.0, 0.5, -0.4], "treatment_prob": 0.5,
    "outcome_mean_a0": [1.0, 1.0, 0.5], "outcome_mean_a1": [2.0, 1.3, -0.3],
    "noise_sd": 1.0, "seed": 20240901, "aux_split": 1,
}
STEP = {"type": "step", "coord": 0, "cutoff": 0.0, "low": 0.2, "high": 0.8}
DESIGNS = {
    "census": {"variant": "census_nested"},
    "sub": {"variant": "subsampled_nested", "c": 0.3},
    "cov": {"variant": "subsampled_nested_covariate", "c_table": STEP},
    "nonnested": {"variant": "non_nested", "u_hidden": 0.4},
}
# hand-written datasets that the reader refuses; "formfeed" has a form feed at
# the end of data row 1 and a blank line 4
MALFORMED_ROWS = "trial,0,1.5,0.1\ntrial,1,2.5,0.2\nexternal,,,0.3\n"
MALFORMED = {
    "cell_count": MALFORMED_ROWS.replace("2.5,0.2", "2.5"),
    "blank_line": MALFORMED_ROWS.replace("\ntrial", "\n\ntrial"),
    "unknown_role": MALFORMED_ROWS.replace("trial,1", "bogus,1"),
    "external_a": MALFORMED_ROWS.replace("external,,", "external,1,"),
    "bad_cells": MALFORMED_ROWS.replace("0,1.5,0.1", "0,1.5,#"),
    "header_only": "",
    "formfeed": MALFORMED_ROWS.replace("0.1\n", "0.1\x0c\n").replace("\nex", "\n\nex"),
}
METHODS = ("gformula", "ipw", "ipw_ht", "ipw_hajek", "trial_only")
ESTIMANDS = ("target", "nonrandomized", "randomized")
TRUTH_COLUMNS = ("truth", "bias", "rmse")


def _write(name: str, doc: dict) -> str:
    Path(name).write_text(json.dumps(doc))
    return name


def _run(main, name: str, argv: list, streams: dict) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    streams[name] = f"exit {code}\n{out.getvalue()}{err.getvalue()}".encode()


def _csv_bytes(rows) -> bytes:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def _without_truth(data: bytes) -> bytes:
    """A summary CSV's bytes with the columns derived from the oracle's truths removed."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    keep = [i for i, name in enumerate(rows[0]) if name not in TRUTH_COLUMNS]
    return _csv_bytes([row[i] for i in keep] for row in rows)


def _se6(stream: bytes) -> bytes:
    """A diagnose output with each arm's bootstrap SE rounded to 6 significant digits."""
    head, _, text = stream.decode().partition("\n")
    try:
        doc, end = json.JSONDecoder().raw_decode(text)
    except json.JSONDecodeError:  # no report: a refused run
        return stream
    for arm in doc["arms"]:
        if arm["difference_bootstrap_se"] is not None:
            arm["difference_bootstrap_se"] = float(f"{arm['difference_bootstrap_se']:.6g}")
    return f"{head}\n{json.dumps(doc, indent=2)}{text[end:]}".encode()


def _boot_se6(data: bytes) -> bytes:
    """A summary CSV's bytes with each row's ``boot_se_mean`` rounded to 6 significant digits."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    column = rows[0].index("boot_se_mean")
    for row in rows[1:]:
        row[column] = repr(float(f"{float(row[column]):.6g}"))
    return _csv_bytes(rows)


def _round10(data: bytes) -> bytes:
    """A summary CSV's bytes with every number rounded to 10 significant digits."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    for row in rows[1:]:
        for i, cell in enumerate(row):
            try:
                row[i] = f"{float(cell):.10g}"
            except ValueError:  # a label, not a number
                pass
    return _csv_bytes(rows)


def run_all(main) -> dict:
    """Run every command in the current directory; return name -> output bytes."""
    streams = {}
    for d, design in DESIGNS.items():
        cfg = _write(f"sim_{d}.json", {"dgp": DGP, "design": design, "n": 4000})
        _run(main, f"simulate_{d}", ["simulate", cfg, f"data_{d}"], streams)
        for method in METHODS:
            for estimand in ESTIMANDS:
                name = f"estimate_{d}_{method}_{estimand}"
                argv = ["estimate", f"data_{d}", "--estimand", estimand, "--method", method]
                _run(main, name, argv + ["--out", f"{name}.csv"], streams)
        for method in ("gformula", "ipw"):
            argv = ["diagnose", f"data_{d}", "--method", method, "--bootstrap-b", "8", "--seed", "3"]
            name = f"diagnose_{d}_{method}"
            _run(main, name, argv, streams)
            streams[f"{name}.se6"] = _se6(streams[name])
    sidecar = {"design": DESIGNS["census"], "k": 1, "treatment_prob": 0.5,
               "n_unsampled_nonrandomized": 0}
    for m, rows in MALFORMED.items():
        Path(f"malformed_{m}.csv").write_text("role,a,y,x1\n" + rows)
        _write(f"malformed_{m}.json", sidecar)
        argv = ["estimate", f"malformed_{m}", "--estimand", "target"]
        _run(main, f"estimate_malformed_{m}", argv, streams)
    base = {"dgp": DGP, "n": 2000, "replications": 6, "master_seed": 77, "oracle_m": 100_000}
    configs = {d: {**base, "design": design} for d, design in DESIGNS.items()}
    configs["misspecified"] = {**configs["sub"], "misspecify": {"participation": True, "s_shift": 0.5}}
    estimators = [{"method": "gformula", "population": "target", "arm": 1},
                  {"method": "trial_only", "population": "randomized", "arm": 1}]
    configs["bootstrap"] = {**configs["sub"], "replications": 2, "bootstrap_b": 100,
                            "estimators": estimators}
    for c, doc in configs.items():
        cfg = _write(f"exp_{c}.json", doc)
        for workers in ("1", "2") if c == "bootstrap" else ("1", "2", "4"):
            name = f"experiment_{c}_w{workers}"
            _run(main, name, ["experiment", cfg, f"{name}.csv", "--workers", workers], streams)
    grid = [DESIGNS["census"], DESIGNS["sub"], DESIGNS["cov"]]
    cfg = _write("sweep.json", {**base, "grid": grid})
    for workers in ("1", "2", "4"):
        name = f"sweep_w{workers}"
        _run(main, name, ["sweep", cfg, f"{name}.csv", "--workers", workers], streams)
    for path in sorted(Path(".").iterdir()):
        streams[path.name] = path.read_bytes()
        if path.name.startswith(("experiment_", "sweep_")) and path.suffix == ".csv":
            streams[f"{path.name}.no_truth"] = _without_truth(streams[path.name])
            streams[f"{path.stem}.r10"] = _round10(streams[path.name])
        if path.name.startswith("experiment_bootstrap_") and path.suffix == ".csv":
            streams[f"{path.stem}.se6"] = _boot_se6(streams[path.name])
    return streams


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    from trialport.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        streams = run_all(cli_main)
    lines = [f"{hashlib.sha256(streams[k]).hexdigest()}  {k}" for k in sorted(streams)]
    print("\n".join(lines))
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  total ({len(lines)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
