"""Output checks: one per op kind, each independent of golden bytes.

A check takes the op, the report text and the exit code, and returns
``None`` when the output is right, else a one-line reason.  At the
default seed ``digest_problem`` additionally compares the sha256 of the
report bytes with the digest recorded from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Rows of the README pair (aab, bba) at radius 10, delta 0.  Every image
# of the pair under a signed permutation of {a, b} gives the same rows.
F2_ROWS = """\
0,1,0,18,0,0,0,1,0
1,4,0,14,0,0,0,4,0
2,12,0,16,0,0,0,12,0
3,36,0,18,0,0,0,36,0
4,108,0,17,0,0,0,108,0
5,324,0,19,0,0,0,324,0
6,972,0,21,0,0,0,972,0
7,2916,0,23,0,0,0,2916,0
8,8748,0,25,0,0,0,8748,0
9,26244,0,27,26028,215,1,0,0
10,78732,0,29,78084,645,3,0,0""".splitlines()
F2_BALL_SIZE = 1 + 4 * (3 ** 10 - 1) // 2  # |B(10)| in F_2 = 118097

RCA_TOLERANCE = 1e-3


class Report:
    """A parsed ``--format csv`` report."""

    def __init__(self, text: str):
        self.config: dict[str, str] = {}
        self.summary: dict[str, str] = {}
        self.passed: bool | None = None
        self.header: list[str] = []
        self.rows: list[list[str]] = []
        for line in text.splitlines():
            if line.startswith("# config "):
                k, _, v = line[len("# config "):].partition(" = ")
                self.config[k] = v
            elif line.startswith("# summary "):
                k, _, v = line[len("# summary "):].partition(" = ")
                self.summary[k] = v
            elif line.startswith("# passed: "):
                self.passed = line == "# passed: true"
            elif line.startswith("#"):
                continue
            elif not self.header:
                self.header = line.split(",")
            else:
                self.rows.append(line.split(","))

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


def _exit_matches(report: Report, code: int) -> str | None:
    if report.passed is None:
        return "report has no passed line"
    if code != (0 if report.passed else 1):
        return f"exit code {code} but passed: {report.passed}"
    return None


def check_prop422(op, text: str, code: int) -> str | None:
    r = Report(text)
    if code != 0 or r.passed is not True:
        return f"exit code {code}, passed {r.passed}"
    if (r.config.get("u"), r.config.get("v")) != (op.params["u"],
                                                    op.params["v"]):
        return "config echoes another pair"
    if [",".join(row) for row in r.rows] != F2_ROWS:
        return "rows differ from the README pair's rows"
    if r.summary.get("total_words") != str(F2_BALL_SIZE):
        return f"total_words {r.summary.get('total_words')}"
    if r.summary.get("total_violations") != "0":
        return "bound violations"
    if r.summary.get("selector_falsified") != "0":
        return "selector falsified"
    return None


def check_prop507(op, text: str, code: int) -> str | None:
    r = Report(text)
    if code != 0 or r.passed is not True:
        return f"exit code {code}, passed {r.passed}"
    powers = [int(p) for p in r.column("power")]
    if not powers or powers != [2 ** i for i in range(len(powers))]:
        return "powers are not 1, 2, 4, ..."
    disp = [float(x) for x in r.column("displacement")]
    if op.params["negative_control"]:
        if not all(d > 0 for d in disp):
            return "a displacement is not positive"
        # homogeneity of the Jordan projection: |lambda(g^p)| = p |lambda(g)|
        if not all(math.isclose(d, p * disp[0], rel_tol=1e-6)
                   for p, d in zip(powers, disp)):
            return "displacement is not linear in the power"
        return None
    if any(d != 0.0 for d in disp):
        return "a unipotent power has nonzero displacement"
    lower = [float(x) for x in r.column("translation_length_lower")]
    if not all(b > a for a, b in zip(lower, lower[1:])):
        return "lower bound is not strictly increasing"
    return None


def check_depth_roots(op, text: str, code: int) -> str | None:
    r = Report(text)
    if code != 0 or r.passed is not True:
        return f"exit code {code}, passed {r.passed}"
    if len(r.rows) != op.params["matrices"]:
        return f"{len(r.rows)} rows for {op.params['matrices']} matrices"
    if any(s.startswith("SOUNDNESS") for s in r.column("branch_or_status")):
        return "SOUNDNESS row"
    if r.summary.get("soundness_failures") != "0":
        return "soundness failures in summary"
    return None


def check_ams_gap(op, text: str, code: int) -> str | None:
    """``passed: false`` is a measured outcome (the bound was calibrated
    at seed 42 only), so only its agreement with the exit code and the
    maximum gap is checked."""
    r = Report(text)
    problem = _exit_matches(r, code)
    if problem:
        return problem
    samples = op.params["samples"]
    status = r.column("status")
    certified = sum(1 for s in status if s == "certified")
    if len(status) != samples:
        return f"{len(status)} rows for {samples} samples"
    try:
        counted = int(r.summary["certified"]) + int(r.summary["rejected"])
    except (KeyError, ValueError):
        return "summary lacks certified/rejected counts"
    if counted != samples or int(r.summary["certified"]) != certified:
        return "certified + rejected != samples"
    if certified:
        max_gap = max(float(g) for g in r.column("gap") if g)
        if (max_gap <= float(r.summary["gap_bound"])) != r.passed:
            return "passed flag disagrees with max gap and bound"
    return None


def check_translation_length_upper(op, text: str, code: int) -> str | None:
    """The conjugator h = I is searched too, so the bound is at most the
    word length of m, itself at most the number of generators multiplied."""
    if code != 0:
        return f"exit code {code}"
    try:
        value = int(text)
    except ValueError:
        return f"not an integer: {text.strip()!r}"
    if not 0 <= value <= op.params["generators"]:
        return f"{value} outside [0, {op.params['generators']}]"
    return None


def check_renormalized_cartan_average(op, text: str,
                                      code: int) -> str | None:
    """Compared with log eigenvalue moduli from numpy's eigvals, an
    independent route; the eigenbasis condition cap 2.7 gives 1e-3 at
    2^12 squarings."""
    if code != 0:
        return f"exit code {code}"
    try:
        got = np.array(json.loads(text), dtype=float)
    except (ValueError, TypeError):
        return "not a JSON vector"
    g = np.array(op.matrix, dtype=float)
    want = np.sort(np.log(np.abs(np.linalg.eigvals(g))))[::-1]
    if got.shape != want.shape:
        return f"shape {got.shape}"
    err = float(np.max(np.abs(got - want)))
    if not err <= RCA_TOLERANCE:
        return f"off the Jordan projection by {err:.3g}"
    return None


CHECKS = {
    "prop422": check_prop422,
    "prop507": check_prop507,
    "depth-roots": check_depth_roots,
    "ams-gap": check_ams_gap,
    "translation_length_upper": check_translation_length_upper,
    "renormalized_cartan_average": check_renormalized_cartan_average,
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str | None]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_problem(op, text: str, digests: dict) -> str | None:
    """Golden comparison at the default seed.  An op recorded as ``null``
    failed at the seed commit, so it has no digest to keep."""
    want = digests.get(op.key)
    if want is None or digest(text) == want:
        return None
    return "report bytes differ from the seed commit"
