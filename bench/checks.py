"""Output checks for each workload, and corruptions that they must reject.

Each check takes one command of the plan, one pass's outputs (file name ->
bytes) and the workload's reference, and returns the list of what is wrong
with that command's outputs. Checks run outside the timed region.
``self_test`` feeds a check one deliberately corrupted output and passes
only if the check rejects it, so a check that stops biting is caught.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

import numpy as np
from scipy import stats

LEARN = TEST = 250
# traffic-light bounds (exclusive upper bounds of green and yellow)
VAR_ZONES, ES_ZONES, Z_ZONES = (5, 10), (12, 25), (0.7, 1.8)
HEAT_CAP_T, HEAT_CAP_G = 15, 35

# Published reference table of the ES statistic, P(count < k) at n = 250;
# the same values pin acceptance criterion 3 in tests/test_acceptance.py.
TABLE_ES = {
    "normal": {11: 0.9292, 12: 0.9591, 24: 1.0000, 25: 1.0000},
    "t3": {11: 0.8944, 12: 0.9205, 24: 0.9967, 25: 0.9973},
}
ES_TABLE_TOL = 0.01
VAR_POINTS, ES_POINTS = (4, 5, 9, 10), (11, 12, 24, 25)
ALPHA_VAR = 0.01
# what a check raises on output it cannot parse; the runner counts it as a failure
UNREADABLE = (KeyError, IndexError, TypeError, ValueError)
P_4SE = 2.0 * float(stats.norm.sf(4.0))


def zone(value, bounds) -> str:
    green, yellow = bounds
    return "green" if value < green else "yellow" if value < yellow else "red"


# ---------------------------------------------------------------- desk-panel


def read_panel(path):
    """Columns and names of a dated simple_csv panel, parsed with float()."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    names = lines[0].split(",")[1:]
    values = np.array([[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]])
    return names, values


def reference_reserves(x, family, alpha):
    """Plain per-window loop: one reserve per test day, VAR and ES at ``alpha``.

    Historical reserves use the sorted tail index floor(n * alpha) and the
    tie rule of ``es_empirical`` (every value at or below the boundary);
    normal reserves use the mean and ``np.std(ddof=1)`` of the window.
    """
    var, es = np.empty(TEST), np.empty(TEST)
    k = math.floor(LEARN * alpha)
    q = float(stats.norm.ppf(alpha))
    phi = float(stats.norm.pdf(q))
    for i in range(TEST):
        w = x[i : i + LEARN]
        if family == "hist":
            boundary = np.sort(w)[k]
            var[i] = -float(boundary)
            es[i] = -float(w[w <= boundary].mean())
        else:
            mean, sd = float(w.mean()), float(w.std(ddof=1))
            var[i] = -(mean + sd * q)
            es[i] = -mean + sd * phi / alpha
    return var, es


def _counts(realized, reserve):
    y = realized + reserve
    return int((y < 0).sum()), int((np.cumsum(np.sort(y)) < 0).sum())


def reference_result(x, cmd) -> dict:
    realized = x[LEARN:]
    if cmd["kind"] == "backtest":
        family = cmd["estimator"].split("_")[1]
        var, es = reference_reserves(x, family, cmd["alpha"])
        reserve = var if cmd["estimator"].startswith("var") else es
        nt, ng = _counts(realized, reserve)
        return {"nominal_t": nt, "nominal_g": ng,
                "zone_var": zone(nt, VAR_ZONES), "zone_es": zone(ng, ES_ZONES)}
    family = cmd["family"]
    var, _ = reference_reserves(x, family, cmd["alpha_var"])
    _, es = reference_reserves(x, family, cmd["alpha_es"])
    var_z, es_z = reference_reserves(x, family, cmd["alpha_z"])
    nt, _ = _counts(realized, var)
    _, ng = _counts(realized, es)
    breach = realized + var_z < 0
    z = -(float((realized[breach] / (cmd["alpha_z"] * es_z[breach])).sum()) / TEST + 1.0)
    return {"nominal_t": nt, "nominal_g": ng, "z": z,
            "zone_var": zone(nt, VAR_ZONES), "zone_es": zone(ng, ES_ZONES),
            "zone_z": zone(z, Z_ZONES)}


def reference_desk(plan) -> dict:
    """Expected labels and per-sample results of every desk-panel command."""
    names, values = read_panel(plan["panel"])
    per_col = values.shape[0] // (LEARN + TEST)
    samples = [(f"{name}[{lo}:{lo + LEARN + TEST}]", values[lo : lo + LEARN + TEST, j])
               for j, name in enumerate(names)
               for lo in range(0, per_col * (LEARN + TEST), LEARN + TEST)]
    labels = [label for label, _ in samples]
    return {cmd["name"]: (labels, [reference_result(x, cmd) for _, x in samples])
            for cmd in plan["commands"]}


def _confusion(zones_var, zones_other):
    order = ("green", "yellow", "red")
    counts = [[0] * 3 for _ in order]
    for zv, zo in zip(zones_var, zones_other):
        counts[order.index(zo)][order.index(zv)] += 1
    return counts


def check_desk(cmd, outputs, reference) -> list[str]:
    labels, expected = reference[cmd["name"]]
    report = json.loads(outputs[cmd["outputs"][0]])
    if report["samples"] != labels or len(report["results"]) != len(labels):
        return ["sample labels differ from the panel's 500-day split"]
    fails = []
    for label, got, want in zip(labels, report["results"], expected):
        if got["n"] != TEST:
            fails.append(f"{label}: n = {got['n']}")
        for key, value in want.items():
            ok = (abs(got[key] - value) <= 1e-12 * max(1.0, abs(value))
                  if key == "z" else got[key] == value)
            if not ok:
                fails.append(f"{label}: {key} {got[key]!r}, expected {value!r}")
    zones_var = [r["zone_var"] for r in expected]
    if cmd["kind"] == "backtest":
        conf = {"confusion": _confusion(zones_var, [r["zone_es"] for r in expected])}
        cells = defaultdict(int)
        for r in expected:
            cells[(min(r["nominal_t"], HEAT_CAP_T), min(r["nominal_g"], HEAT_CAP_G))] += 1
        heat = "nt_capped,ng_capped,count\n" + "".join(
            f"{t},{g},{c}\n" for (t, g), c in sorted(cells.items()))
        if outputs[cmd["outputs"][1]].decode() != heat:
            fails.append("heatmap CSV differs from the reference counts")
    else:
        conf = {"confusion_var_es": _confusion(zones_var, [r["zone_es"] for r in expected]),
                "confusion_var_z": _confusion(zones_var, [r["zone_z"] for r in expected])}
    for key, counts in conf.items():
        if report["summary"][key]["counts"] != counts:
            fails.append(f"{key} differs from the reference zones")
    return fails


def corrupt_desk(plan, outputs):
    """Raise one nominal exception count by 1."""
    cmd = plan["commands"][0]
    name = cmd["outputs"][0]
    report = json.loads(outputs[name])
    report["results"][0]["nominal_t"] += 1
    return cmd, {**outputs, name: json.dumps(report).encode()}


# ------------------------------------------------------------------- mc-null


def read_null_csv(data: bytes):
    lines = data.decode().splitlines()
    if lines[0] != "nominal_value,pmf,cdf":
        raise ValueError(f"bad header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    return (np.array([int(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]),
            np.array([float(r[2]) for r in rows]))


def write_null_csv(counts, runs) -> bytes:
    pmf, cdf = counts / runs, np.cumsum(counts) / runs
    return ("nominal_value,pmf,cdf\n" + "".join(
        f"{k},{float(p)!r},{float(c)!r}\n" for k, (p, c) in enumerate(zip(pmf, cdf)))).encode()


def _null_counts(data: bytes, runs: int, n: int, fail) -> np.ndarray:
    """Counts behind a null-distribution CSV, after checking it is consistent."""
    ks, pmf, cdf = read_null_csv(data)
    counts = np.rint(pmf * runs).astype(np.int64)
    if not np.array_equal(ks, np.arange(n + 1)):
        fail("nominal values are not 0..n")
    if np.any(np.abs(pmf * runs - counts) > 1e-6) or counts.sum() != runs:
        fail("pmf is not a whole number of runs summing to the total")
    if not np.array_equal(cdf, np.cumsum(counts) / runs):
        fail("cdf is not the cumulative pmf")
    return counts


def check_mc(cmd, outputs, reference=None) -> list[str]:
    law, runs = cmd["law"], cmd["runs"]
    fails = []
    fail = fails.append
    summary = json.loads(outputs[f"{law}_summary.json"])
    n = cmd["n"]
    if (summary["runs"], summary["n"], summary["seed"]) != (runs, n, cmd["seed"]):
        fail("summary runs/n/seed differ from the command")
    cdf_var = np.cumsum(_null_counts(outputs[f"{law}_var.csv"], runs, n, fail)) / runs
    cdf_es = np.cumsum(_null_counts(outputs[f"{law}_es.csv"], runs, n, fail)) / runs
    for k in VAR_POINTS:
        got = summary["var"][str(k)]["p_at_most"]
        if got != cdf_var[k]:
            fail(f"VAR p_at_most({k}) {got} disagrees with the CSV {cdf_var[k]}")
        # The reserve is the true quantile (conditional under GARCH), so the
        # exception count is exactly Binomial(n, alpha_var). "Within 4 MC
        # standard errors" is tested as an exact two-sided binomial tail at
        # the normal 4-sigma level: at k = 9, 10 only a handful of runs lie
        # beyond k and the normal approximation would raise false alarms.
        exact = float(stats.binom.cdf(k, n, ALPHA_VAR))
        pvalue = stats.binomtest(round(got * runs), runs, exact).pvalue
        if pvalue < P_4SE:
            se = math.sqrt(exact * (1.0 - exact) / runs)
            fail(f"VAR p_at_most({k}) {got:.5f} vs binomial {exact:.5f} (se {se:.2g})")
    for k in ES_POINTS:
        got = summary["es"][str(k)]["p_below"]
        if got != cdf_es[k - 1]:
            fail(f"ES p_below({k}) {got} disagrees with the CSV {cdf_es[k - 1]}")
        if law in TABLE_ES and abs(got - TABLE_ES[law][k]) > ES_TABLE_TOL:
            fail(f"ES p_below({k}) {got:.4f} vs table {TABLE_ES[law][k]:.4f}")
    return fails


def corrupt_mc(plan, outputs):
    """Move one run of the first law's VAR tally from its modal bin to bin 7."""
    cmd = plan["commands"][0]
    name = f"{cmd['law']}_var.csv"
    _, pmf, _ = read_null_csv(outputs[name])
    counts = np.rint(pmf * cmd["runs"]).astype(np.int64)
    counts[int(np.argmax(counts))] -= 1
    counts[7] += 1
    return cmd, {**outputs, name: write_null_csv(counts, cmd["runs"])}


# -------------------------------------------------------------- fit-simulate


def _params_ok(p: dict) -> list[str]:
    bad = [k for k, v in p.items()
           if not isinstance(v, str) and not (isinstance(v, (int, float)) and math.isfinite(v))]
    if bad:
        return [f"non-finite parameters {bad}"]
    errs = []
    if not p["nu"] > 2:
        errs.append(f"nu = {p['nu']} <= 2")
    if not p["xi"] > 0:
        errs.append(f"xi = {p['xi']} <= 0")
    if p["model"].startswith("garch"):
        if not (p["omega"] > 0 and p["a1"] >= 0 and p["b1"] >= 0):
            errs.append("omega, a1 or b1 out of range")
        if not p["a1"] + p["b1"] < 1:
            errs.append(f"a1 + b1 = {p['a1'] + p['b1']} >= 1")
    elif not p["scale"] > 0:
        errs.append(f"scale = {p['scale']} <= 0")
    return errs


def check_fit(cmd, outputs, reference=None) -> list[str]:
    sims, fits_file = cmd["outputs"]
    fits = json.loads(outputs[fits_file])
    if fits["model"] != cmd["model"] or len(fits["fits"]) != cmd["samples"]:
        return ["fits JSON has the wrong model or number of fits"]
    fails = [f"{fit['sample']}: {e}" for fit in fits["fits"] for e in _params_ok(fit["params"])]
    lines = outputs[sims].decode().splitlines()
    header = lines[0].split(",")
    want = [f"{fit['sample']}.p{p}" for fit in fits["fits"] for p in range(cmd["picks"])]
    if header != want:
        fails.append(f"CSV header has {len(header)} columns, not {cmd['picks']} per sample")
    block = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if block.shape != (cmd["window"], len(want)) or not np.all(np.isfinite(block)):
        fails.append(f"simulated block {block.shape}, expected {cmd['window']} finite rows "
                     f"of {len(want)}")
    return fails


def corrupt_fit(plan, outputs):
    """Give the first GARCH fit a1 + b1 = 1."""
    cmd = plan["commands"][-1]
    name = cmd["outputs"][1]
    fits = json.loads(outputs[name])
    fits["fits"][0]["params"].update(a1=0.25, b1=0.75)
    return cmd, {**outputs, name: json.dumps(fits).encode()}


CHECKS = {"desk-panel": check_desk, "mc-null": check_mc, "fit-simulate": check_fit}
CORRUPT = {"desk-panel": corrupt_desk, "mc-null": corrupt_mc, "fit-simulate": corrupt_fit}


def self_test(workload, plan, outputs, reference) -> bool:
    """True when the workload's check rejects its corrupted output."""
    try:
        cmd, corrupted = CORRUPT[workload](plan, outputs)
    except UNREADABLE:
        return False  # outputs too broken to corrupt; their check has failed already
    try:
        return bool(CHECKS[workload](cmd, corrupted, reference))
    except UNREADABLE:
        return True  # an unreadable output is a rejected one
