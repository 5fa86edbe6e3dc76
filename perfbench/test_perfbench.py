"""Tests of the benchmark itself: span arithmetic, failure-aware
percentiles, seeded inputs and the output checks."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

import checks
import hostspeed
import plan
import run
import stats
import tracer
from dispgeo import experiments


# -- self time on a synthetic span tree -----------------------------------

def _spans(rows, names):
    """rows: (name index, parent, start, end, work, exc)."""
    cols = list(zip(*rows))
    return {"name": np.array(cols[0], dtype=np.int32),
            "parent": np.array(cols[1], dtype=np.int32),
            "start": np.array(cols[2], dtype=float),
            "end": np.array(cols[3], dtype=float),
            "work": np.array(cols[4], dtype=np.int64),
            "exc": np.array(cols[5], dtype=np.int32),
            "names": np.array(names),
            "exc_names": np.array(["ContractionFailed"])}


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 2.0,
                                                             1.0, 4.0]


def test_totals_sum_self_time_per_name_and_layer():
    names = ["cli.main", "hyperbolic.select_acr",
             "hyperbolic.is_almost_cyclically_reduced",
             "matgeo.certify_proximal"]
    spans = _spans([(0, -1, 0.0, 10.0, 0, -1),
                    (1, 0, 1.0, 4.0, 0, -1),
                    (2, 1, 1.5, 2.0, 0, -1),
                    (2, 1, 2.0, 3.0, 0, -1),
                    (2, 0, 4.0, 5.0, 0, -1),
                    (3, 0, 6.0, 7.0, 0, 0),
                    (3, 0, 7.0, 8.0, 0, -1)], names)
    totals = tracer.Totals()
    totals.add(spans)
    totals.add(spans)
    m = totals.metrics()
    assert m["cli.self_s"] == pytest.approx(2 * (10 - 3 - 1 - 2))
    assert m["hyperbolic.select_acr.self_s"] == pytest.approx(2 * 1.5)
    assert m["hyperbolic.self_s"] == pytest.approx(2 * (1.5 + 2.5))
    assert m["hyperbolic.is_almost_cyclically_reduced.calls"] == 6
    # two of the three ACR tests ran inside the one selection
    assert m["hyperbolic.select_acr.acr_tests_per_selection"] == 2.0
    assert m["matgeo.certify_proximal.certified_ratio"] == 0.5
    assert m["matgeo.certify_proximal.rejected.ContractionFailed"] == 2
    assert m["trace.op_s"] == pytest.approx(20.0)
    assert m["lattice.calls"] == 0


def test_recorder_links_nested_calls_and_generator_steps():
    rec = tracer.Recorder(op_id=3)
    inner = rec.wrap(lambda x: x + 1, "words.multiply")
    outer = rec.wrap(lambda x: inner(inner(x)), "hyperbolic.select_acr")
    gen = rec.wrap_generator(lambda n: iter(range(n)), "words.ball")
    assert outer(1) == 3
    assert list(gen(2)) == [0, 1]
    names = [rec.names[i] for i in rec.name]
    assert names == ["hyperbolic.select_acr", "words.multiply",
                     "words.multiply", "words.ball", "words.ball",
                     "words.ball"]
    assert list(rec.parent) == [-1, 0, 0, -1, -1, -1]
    assert list(rec.work[3:]) == [1, 1, 0]  # the last next() stopped
    assert all(e >= s for s, e in zip(rec.start, rec.end))


# -- failure-aware percentiles ---------------------------------------------

def test_failed_op_ranks_slower_than_every_completed_op():
    times = [5.0, None, 1.0, 2.0, 3.0]
    assert stats.ranked(times)[-1] == float("inf")
    lat = stats.latency(times, penalty=60.0)
    assert lat["p50"] == 3.0
    assert lat["tail"] == 3.0 and lat["n"] == 5
    assert stats.latency([None, None, 1.0], penalty=60.0)["p50"] == 60.0


def test_tail_has_ten_ops_beyond_it():
    n = 45
    k = stats.tail_rank(n)
    assert n - k == 10
    assert stats.tail_rank(12) == stats.median_rank(12)


def test_completing_a_failed_op_never_raises_a_percentile():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 40)
        times = [None if rng.random() < 0.3 else rng.uniform(0, 10)
                 for _ in range(n)]
        before = stats.latency(times, penalty=60.0)
        failed = [i for i, t in enumerate(times) if t is None]
        if not failed:
            continue
        times[rng.choice(failed)] = rng.uniform(0, 59)
        after = stats.latency(times, penalty=60.0)
        assert after["p50"] <= before["p50"]
        assert after["tail"] <= before["tail"]


# -- host-speed correction -------------------------------------------------

def test_speed_is_the_mean_share_of_the_reference_speed():
    ref = hostspeed.REF_PROBE_NS
    assert hostspeed.speed([]) == 1.0
    assert hostspeed.speed([ref, ref]) == pytest.approx(1.0)
    # half the ticks at full speed, half at half speed
    assert hostspeed.speed([ref, 2 * ref]) == pytest.approx(0.75)


def test_sampler_ticks_in_wall_time_and_stops():
    import signal
    import time

    sampler = hostspeed.Sampler()
    sampler.start()
    end = time.monotonic() + 0.1
    while time.monotonic() < end:
        pass
    count, spent = sampler.mark()
    sampler.stop()
    assert count >= 5 and len(sampler.probes) == count
    assert 0 < spent < 0.1
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_end_to_end_times_are_scaled_by_host_speed(tmp_path):
    ref = int(hostspeed.REF_PROBE_NS)
    runner = run.Runner(35, tmp_path)
    for op_s, probe in ((2.0, 2 * ref), (1.0, ref), (4.0, 4 * ref)):
        runner.outcomes.append({
            "ok": True, "op_s": op_s, "cpu_s": op_s, "setup_s": 0.3,
            "rss_mb": 40.0, "probes_op": [probe], "probes_setup": [2 * ref]})
    runner.outcomes.append({"ok": False, "error": "timed out"})
    metrics, notes = run.end_to_end(runner)
    assert metrics["op_p50_s"] == pytest.approx(1.0)
    assert metrics["op_cpu_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.15)
    assert metrics["completed_frac"] == pytest.approx(0.75)
    assert notes["raw_op_p50_s"] == pytest.approx(2.0)


# -- seeded inputs ---------------------------------------------------------

@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_inputs_repeat_per_seed_and_differ_across_seeds(workload):
    first = plan.build(workload, 7, 8)
    assert first == plan.build(workload, 7, 8)
    assert plan.build(workload, 7, 3) == first[:3]
    keys = [[op.key for op in cycle] for cycle in first]
    assert keys != [[op.key for op in cycle]
                    for cycle in plan.build(workload, 8, 8)]


def test_f2_ops_are_signed_permutation_images_of_the_readme_pair():
    images = {tuple(plan.permute(w, m) for w in plan.README_PAIR)
              for m in plan.signed_permutations()}
    assert len(images) == 8 and plan.README_PAIR in images
    for cycle in plan.build("f2-scan", 3, 10):
        (op,) = cycle
        assert (op.params["u"], op.params["v"]) in images


def test_default_seed_reproduces_readme_ams_gap_config():
    cycle = plan.build("proximal-gap", plan.DEFAULT_SEED, 1)[0]
    assert cycle[0].argv == ("ams-gap", "--dim", "2", "--samples", "1000",
                             "--seed", "42")


def test_sl3_keeps_the_default_negative_control():
    cycle = plan.build("sl3-lattice", 5, 1)[0]
    assert ("prop507", "--negative-control") in [op.argv for op in cycle]


# -- output checks reject corrupted reports ---------------------------------

def _csv(report):
    return experiments.render_report(report, "csv")


def _replace_row(text, index, column, value):
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    row = lines[data[1 + index]].rstrip("\n").split(",")
    row[column] = value
    lines[data[1 + index]] = ",".join(row) + "\n"
    return "".join(lines)


def _f2_report(u="aab", v="bba"):
    report = experiments.ExperimentReport(
        name="prop422",
        config={"radius": "10", "u": u, "v": v, "delta": "0", "alpha": "9",
                "alpha_overridden": "false"},
        columns=("length", "count", "violations", "min_slack",
                 "selector_kept_g", "selector_gu", "selector_gv",
                 "selector_skipped", "selector_falsified"),
        rows=[tuple(r.split(",")) for r in checks.F2_ROWS],
        summary={"total_words": "118097", "total_violations": "0",
                 "selector_falsified": "0", "example_violations": "none"})
    return _csv(report)


def test_prop422_check():
    op = plan.Op(key="k", check="prop422", params={"u": "AAb", "v": "bbA"})
    good = _f2_report("AAb", "bbA")
    assert checks.check_prop422(op, good, 0) is None
    assert checks.check_prop422(op, _f2_report(), 0)
    assert checks.check_prop422(op, _replace_row(good, 9, 5, "216"), 0)
    assert checks.check_prop422(op, good.replace(
        "total_words = 118097", "total_words = 118096"), 0)
    assert checks.check_prop422(op, good, 1)


def test_prop507_check():
    op = plan.Op(key="k", check="prop507",
                 params={"negative_control": False})
    good = _csv(experiments.run_prop507(n=3, power_max=64, word_radius=2))
    assert checks.check_prop507(op, good, 0) is None
    assert checks.check_prop507(op, _replace_row(good, 3, 1, "0.1"), 0)
    assert checks.check_prop507(op, _replace_row(good, 4, 2, "1"), 0)
    assert checks.check_prop507(op, good, 1)

    control = plan.Op(key="k", check="prop507",
                      params={"negative_control": True})
    good = _csv(experiments.run_prop507(n=2, power_max=16, word_radius=1,
                                        negative_control=True))
    assert checks.check_prop507(control, good, 0) is None
    assert checks.check_prop507(control, _replace_row(good, 2, 1, "5.5"), 0)
    assert checks.check_prop507(control, _replace_row(good, 0, 1, "0"), 0)


def test_depth_roots_check():
    op = plan.Op(key="k", check="depth-roots", params={"matrices": 2})
    good = _csv(experiments.run_depth_roots([((1, 1), (0, 1)),
                                             ((2, 1), (1, 1))]))
    assert checks.check_depth_roots(op, good, 0) is None
    assert checks.check_depth_roots(
        op, _replace_row(good, 1, 2, "SOUNDNESS-FAILURE:x"), 0)
    lines = good.splitlines(keepends=True)
    dropped = "".join(line for line in lines if not line.startswith("1,"))
    assert checks.check_depth_roots(op, dropped, 0)


def test_ams_gap_check():
    op = plan.Op(key="k", check="ams-gap", params={"samples": 40})
    report = experiments.run_ams_gap(dimension=2, samples=40, seed=1)
    good = _csv(report)
    code = 0 if report.passed else 1
    assert checks.check_ams_gap(op, good, code) is None
    assert checks.check_ams_gap(op, good, 1 - code)
    certified = report.summary["certified"]
    assert checks.check_ams_gap(op, good.replace(
        f"certified = {certified}", f"certified = {int(certified) + 1}"),
        code)
    assert checks.check_ams_gap(op, "\n".join(good.splitlines()[:-3]),
                                code)
    # a run over the calibrated bound is a measured outcome, not a failure
    low = _csv(experiments.run_ams_gap(dimension=2, samples=40, seed=1,
                                       gap_bound=0.0))
    assert checks.check_ams_gap(op, low, 1) is None


def test_translation_length_upper_check():
    op = plan.Op(key="k", check="translation_length_upper",
                 params={"generators": 3})
    assert checks.check_translation_length_upper(op, "3\n", 0) is None
    assert checks.check_translation_length_upper(op, "4\n", 0)
    assert checks.check_translation_length_upper(op, "None\n", 0)


def test_renormalized_cartan_average_check():
    g = ((2.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.5))
    op = plan.Op(key="k", check="renormalized_cartan_average", matrix=g)
    good = "[0.69314718056, 0, -0.69314718056]\n"
    assert checks.check_renormalized_cartan_average(op, good, 0) is None
    bad = "[0.70314718056, 0, -0.69314718056]\n"
    assert checks.check_renormalized_cartan_average(op, bad, 0)
    assert checks.check_renormalized_cartan_average(op, "[1, 2]\n", 0)


def test_digest_check_at_default_seed():
    op = plan.Op(key="k", check="ams-gap")
    table = {"k": checks.digest("report\n"), "failed": None}
    assert checks.digest_problem(op, "report\n", table) is None
    assert checks.digest_problem(op, "report \n", table)
    failed = plan.Op(key="failed", check="prop507")
    assert checks.digest_problem(failed, "anything", table) is None


def test_benchmark_json_lists_exactly_the_printed_metrics(tmp_path):
    with open(Path(run.ROOT) / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS)
    layer = run.per_layer([], [], tmp_path)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.per_layer_unit(m["name"])
               for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
