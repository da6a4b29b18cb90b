#!/usr/bin/env python3
"""Benchmark of the hlcd4 package: four seeded workloads, traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload records --seed 0 --seconds 50 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed
and nothing is written outside the checkout (scratch files and result
records go to ``.perfbench/``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the share of checked outputs that did not match
their expectation.  The line before it is the machine record.

Each run sets up three times (a fresh-interpreter import, table load, input
generation, a known-answer check of every layer, and an untimed warm-up)
and reports the median set-up time.  It then repeats the workload's timed
pass until ``--seconds`` is used up and reports medians over the passes.

``--trace 0`` reports the end-to-end metrics, all of which apply to every
workload.  Their times are host-normalised seconds (see ``probe.py``): the
shared host's speed swings 1.5-2x from minute to minute, and each interval
is scaled by the speed of a fixed reference kernel timed in it.  The raw
wall times and the host's slowdown are kept in the result record.

  pass_s        s     median time of one timed pass
  ops_per_s     1/s   search candidates examined per second of search time
                      (records, random_pool, axy_climb); minimum-distance
                      values computed per second (exact_distance)
  setup_s       s     median set-up time
  peak_rss_mib  MiB   peak resident memory of the process

``--trace 1`` runs the set-up's known-answer check and alternate passes
under the tracer in ``tracer.py``, the other passes untraced, and reports
the per-layer metrics listed in ``LAYER_METRICS`` in raw wall time, with
no host probe.  The spans are written to ``.perfbench/spans-*.json``.

``workloads.py`` defines the workloads and their checks, ``expected.json``
pins each input set's outputs (regenerated by ``pin.py`` only when the
program's outputs change on purpose), and ``selftest.py`` tests the
benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from probe import HostProbe  # noqa: E402

END_TO_END = {
    "pass_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# name -> unit, with the end-to-end metric and workload each should move.
# Counts are per traced pass.  Times per call are measured on the passes,
# or on the set-up's known-answer check when the workload's passes make no
# such call.  Ratios and shares are over the passes (0 when there is no
# denominator).  The ``<layer>.self_frac`` shares add up to 1: each is the
# layer's self time over the traced pass wall time.
LAYER_METRICS = {
    "search.candidates": "count",  # ops_per_s: records, random_pool, axy_climb
    "search.self_us_per_candidate": "us",  # pass_s: records, random_pool
    "search.survivor_frac": "ratio",  # records; must not move under a faster search
    "search.lcd_pass_frac": "ratio",  # records
    "search.cpu_over_wall": "ratio",  # pass_s: random_pool
    "search.pair_sample_us": "us",  # pass_s: axy_climb
    "search.pair_sample_calls": "count",  # axy_climb
    "search.random_lcd_calls": "count",  # axy_climb
    "code.init_us": "us",  # axy_climb, records
    "code.init_calls": "count",  # axy_climb, records
    "code.lcd_check_us": "us",  # axy_climb
    "code.min_weight_s": "s",  # pass_s: exact_distance
    "code.min_weight_calls": "count",  # exact_distance
    "code.scan_ns_per_class": "ns",  # pass_s: exact_distance (n <= 64)
    "code.scan_wide_ns_per_class": "ns",  # pass_s: exact_distance (n > 64)
    "code.summarize_s": "s",  # pass_s: exact_distance, records
    "code.exact_frac": "ratio",  # exact_distance
    "code.dual_us": "us",  # exact_distance
    "linalg.rref_us": "us",  # pass_s: axy_climb
    "linalg.rref_calls": "count",  # axy_climb
    "linalg.rank_calls": "count",  # axy_climb
    "linalg.kernel_us": "us",  # axy_climb, exact_distance
    "linalg.gram_us": "us",  # axy_climb, exact_distance
    "transform.axy_us": "us",  # pass_s: axy_climb
    "transform.axy_calls": "count",  # axy_climb
    "transform.derive_us": "us",  # records
    "gf4.hermitian_inner_calls": "count",  # axy_climb
    "cli.self_s": "s",  # cli self time per cli.main call: records, exact_distance
    "tables.load_ms": "ms",  # setup_s
    **{f"{layer}.self_frac": "ratio" for layer in (*tracing.LAYERS, "bench")},
    "trace.wall_s": "s",  # median traced pass
    "trace.untraced_wall_s": "s",  # median untraced pass of the same run
    "trace.overhead_s": "s",  # the difference of the two
    "trace.spans": "count",
}


class SetupError(Exception):
    """The checkout does not hold the program's sources."""


def load_program():
    """Import hlcd4 from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "hlcd4" / "__init__.py").is_file():
        raise SetupError(f"no hlcd4 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("hlcd4")
    if Path(package.__file__).resolve().parent != (SRC / "hlcd4").resolve():
        raise SetupError(f"hlcd4 was imported from {package.__file__}, not {SRC}")
    # ``hlcd4.search`` is the re-exported function; take modules from importlib.
    modules = {name: importlib.import_module(f"hlcd4.{name}") for name in tracing.LAYERS}
    return SimpleNamespace(package=package, modules=modules)


def import_seconds() -> float:
    """Import time of the package's command line in a fresh interpreter
    (measured inside it, so without the interpreter's own start-up)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import hlcd4.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def machine_record() -> dict:
    record = {
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "cpu_max": None,
        "loadavg_start": list(os.getloadavg()),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        record["cpu_max"] = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        pass
    return record


def load_expected(name: str, entry: int) -> dict:
    pins = json.loads((HERE / "expected.json").read_text())
    return pins[name][entry]


# ---------------------------------------------------------------------------


def run(pkg, name: str, seed: int, seconds: float, trace: bool, expected=None) -> dict:
    """One benchmark run in this process; returns the full result record.

    ``expected`` replaces the pinned entry (the self-test corrupts it).
    """
    entry = seed % workloads.POOL
    pinned = expected or load_expected(name, entry)
    tmp = OUT / f"tmp-{os.getpid()}-{name}"
    tmp.mkdir(parents=True, exist_ok=True)
    checks = workloads.Checks()
    tracer = tracing.Tracer(pkg) if trace else None
    probe = None if trace else HostProbe()
    try:
        with probe or contextlib.nullcontext():
            setups, workload = _set_up(pkg, name, entry, pinned, tmp, checks, tracer)
            passes = _timed_passes(workload, pinned, seconds, checks, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if trace:
        metrics = layer_metrics(tracer, passes, checks)
        setup_s = [s["import_s"] + s["t1"] - s["t0"] for s in setups]
    else:
        setup_s = [
            s["import_s"] / probe.slowdown(*s["import_span"]) + probe.seconds(s["t0"], s["t1"])
            for s in setups
        ]
        for p in passes:
            p["pass_s"] = probe.seconds(p["t0"], p["t1"])
            p["op_s"] = sum(probe.seconds(*span) for span in p.pop("op_spans"))
            p["slowdown"] = probe.slowdown(p["t0"], p["t1"])
        metrics = {
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "ops_per_s": statistics.median(p["ops"] / p["op_s"] for p in passes),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = LAYER_METRICS if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "entry": entry,
        "trace": int(trace),
        "host_slowdown": probe.overall_slowdown() if probe else None,
        "setups": setups,
        "setup_samples_s": setup_s,
        "passes": passes,
        "failed_checks": checks.failed,
        "result": {
            "correct": not checks.failed,
            "attempted": len(checks.results),
            "failed": len(checks.failed),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "tracer": tracer,
    }


def _set_up(pkg, name, entry, pinned, tmp, checks, tracer):
    """Set up ``SETUP_REPEATS`` times untraced, or once with the known-answer
    check traced; returns (timings of each repeat, workload).  A repeat's
    set-up time is the fresh interpreter's import time plus [t0, t1]."""
    samples = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t_import = time.perf_counter()
        imported = import_seconds()
        t0 = time.perf_counter()
        pkg.modules["tables"].BoundsTable.load()
        workload = workloads.WORKLOADS[name](pkg, pinned["inputs"], tmp)
        workload.setup()
        if tracer:
            with tracer:
                tracer.span("bench.setup", _guarded,
                            (checks, "known-answer check", workloads.smoke_check,
                             pkg, entry, tmp, checks))
        else:
            _guarded(checks, "known-answer check", workloads.smoke_check, pkg, entry, tmp, checks)
        _guarded(checks, "warm-up", workload.warm_up, checks)
        samples.append({"import_s": imported, "import_span": (t_import, t0),
                        "t0": t0, "t1": time.perf_counter()})
    return samples, workload


def _guarded(checks, label, fn, *args):
    """Run ``fn``; an exception from the program counts as a failed output."""
    try:
        fn(*args)
    except Exception as e:
        checks.expect(f"{label} raised {type(e).__name__}: {e}", False)


def _timed_passes(workload, pinned, seconds, checks, tracer):
    """Repeat the timed pass until ``seconds`` are used.  A traced run
    alternates traced and untraced passes and stops after an untraced one."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer:
                    result = tracer.span("bench.pass", workload.run)
            else:
                result = workload.run()
        except Exception as e:  # a crash in the program is a failed output
            checks.expect(f"{workload.name}: pass raised {type(e).__name__}: {e}", False)
            result = workloads.PassResult({"error": repr(e)}, 0, [(t0, time.perf_counter())])
        t1 = time.perf_counter()
        if "error" not in result.outputs:
            workload.check(result.outputs, pinned["expect"], checks)
        if passes:
            checks.equal(f"{workload.name}: pass output repeats",
                         result.outputs, passes[0]["outputs"])
        passes.append({
            "t0": t0, "t1": t1, "wall_s": t1 - t0, "ops": result.ops,
            "op_spans": result.op_spans, "traced": traced, "outputs": result.outputs,
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds and (tracer is None or not traced):
            return passes


# ---------------------------------------------------------------------------


US, NS_PER_S = 1e-3, 1e-9  # scale factors from nanoseconds


def layer_metrics(tracer, passes, checks) -> dict:
    """Per-layer metrics from the spans of one traced run."""
    self_ns = tracer.self_times()
    spans = {s[0]: s for s in tracer.spans}
    name = {sid: tracer.name_of(s) for sid, s in spans.items()}
    root = {}
    for sid in sorted(spans):  # a parent always has the smaller id
        par = spans[sid][1]
        root[sid] = sid if par == -1 else root[par]
    # Spans under a traced pass, and spans under the set-up's known-answer check.
    groups = {"pass": defaultdict(list), "setup": defaultdict(list)}
    for sid, span in spans.items():
        where = "pass" if name[root[sid]] == "bench.pass" else "setup"
        groups[where][name[sid]].append(span)
    n_pass = len(groups["pass"]["bench.pass"])

    def find(where, *names, pred=None):
        return [s for n in names for s in groups[where][n] if pred is None or pred(s)]

    def count(*names, pred=None):
        return len(find("pass", *names, pred=pred)) / n_pass

    def on_passes_else_setup(total, units):
        """total / units on the passes, or on the set-up when the passes
        have no units."""
        for where in ("pass", "setup"):
            u = units(where)
            if u:
                return total(where) / u
        return 0.0

    def per_call(*names, scale, pred=None, weight=None):
        """Mean inclusive duration per call, or per ``weight`` unit."""
        return scale * on_passes_else_setup(
            lambda w: sum(s[4] - s[3] for s in find(w, *names, pred=pred)),
            lambda w: sum(weight(s) if weight else 1 for s in find(w, *names, pred=pred)),
        )

    def parent_is(parent_name):
        return lambda s: name.get(s[1]) == parent_name

    def finished(s):
        return s[5][1] is not None

    def classes(s):
        n, k, budget = s[5]
        total = (4**k - 1) // 3
        return total if budget is None else min(total, budget)

    searches = find("pass", "search.search", pred=finished)
    candidates = sum(s[5][1].candidates_tried for s in searches)
    direct_lcd = find("pass", "code.LinearCode.is_lcd", pred=parent_is("search.search"))
    summaries = [s[5] for s in find("pass", "code.LinearCode.summarize") if s[5] is not None]
    exact = [v.d_exact for v in summaries if v.k > 0]
    exact += [v.d_dual_exact for v in summaries if v.k < v.n]

    self_by_layer = dict.fromkeys((*tracing.LAYERS, "bench"), 0.0)
    for sid in spans:
        if name[root[sid]] == "bench.pass":
            self_by_layer[name[sid].split(".", 1)[0]] += self_ns[sid]
    pass_ns = sum(s[4] - s[3] for s in groups["pass"]["bench.pass"])
    checks.expect(
        "trace: layer self times add up to the traced wall time",
        abs(sum(self_by_layer.values()) - pass_ns) <= 1e-6 * pass_ns,
    )

    def layer_self_ns(where, layer):
        return sum(self_ns[s[0]] for n, group in groups[where].items()
                   if n.startswith(layer + ".") for s in group)

    wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    mw = "code.LinearCode.min_weight"
    return {
        "search.candidates": candidates / n_pass,
        "search.self_us_per_candidate": US * on_passes_else_setup(
            lambda w: sum(self_ns[s[0]] for s in find(w, "search.search", pred=finished)),
            lambda w: sum(s[5][1].candidates_tried
                          for s in find(w, "search.search", pred=finished)),
        ),
        "search.survivor_frac": (
            count("code.LinearCode.__init__", pred=parent_is("search.search"))
            * n_pass / candidates if candidates else 0.0
        ),
        "search.lcd_pass_frac": (
            sum(bool(s[5]) for s in direct_lcd) / len(direct_lcd) if direct_lcd else 0.0
        ),
        "search.cpu_over_wall": (
            sum(s[5][0] for s in searches) / (sum(s[4] - s[3] for s in searches) * NS_PER_S)
            if searches else 0.0
        ),
        "search.pair_sample_us": per_call("search.sample_isotropic_pair", scale=US),
        "search.pair_sample_calls": count("search.sample_isotropic_pair"),
        "search.random_lcd_calls": count("search.random_lcd"),
        "code.init_us": per_call("code.LinearCode.__init__", scale=US),
        "code.init_calls": count("code.LinearCode.__init__"),
        "code.lcd_check_us": per_call(
            "code.LinearCode.is_lcd", "code.LinearCode.hull_dim", scale=US,
            pred=lambda s: name.get(s[1]) != "code.LinearCode.is_lcd",
        ),
        "code.min_weight_s": per_call(mw, scale=NS_PER_S),
        "code.min_weight_calls": count(mw),
        "code.scan_ns_per_class": per_call(
            mw, scale=1.0, pred=lambda s: s[5][0] <= 64, weight=classes),
        "code.scan_wide_ns_per_class": per_call(
            mw, scale=1.0, pred=lambda s: s[5][0] > 64, weight=classes),
        "code.summarize_s": per_call("code.LinearCode.summarize", scale=NS_PER_S),
        "code.exact_frac": sum(exact) / len(exact) if exact else 0.0,
        "code.dual_us": per_call("code.LinearCode.hermitian_dual", scale=US),
        "linalg.rref_us": per_call("linalg.rref", scale=US),
        "linalg.rref_calls": count("linalg.rref"),
        "linalg.rank_calls": count("linalg.rank"),
        "linalg.kernel_us": per_call("linalg.kernel", scale=US),
        "linalg.gram_us": per_call("linalg.gram", scale=US),
        "transform.axy_us": per_call("transform.axy_construct", scale=US),
        "transform.axy_calls": count("transform.axy_construct"),
        "transform.derive_us": per_call("transform.puncture", "transform.shorten", scale=US),
        "gf4.hermitian_inner_calls": count("gf4.hermitian_inner"),
        "cli.self_s": NS_PER_S * on_passes_else_setup(
            lambda w: layer_self_ns(w, "cli"), lambda w: len(find(w, "cli.main"))),
        "tables.load_ms": per_call("tables.BoundsTable.load", scale=1e-6),
        **{f"{layer}.self_frac": t / pass_ns for layer, t in self_by_layer.items()},
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.spans": sum(map(len, groups["pass"].values())) / n_pass,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pkg = load_program()
    except (SetupError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    machine = machine_record()
    record = run(pkg, args.workload, args.seed, args.seconds, bool(args.trace))
    machine["loadavg_end"] = list(os.getloadavg())
    machine["host_slowdown"] = record["host_slowdown"]
    record["machine"] = machine
    tracer = record.pop("tracer")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json")
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    for label in record["failed_checks"]:
        print(f"FAILED {label}", file=sys.stderr)
    print("machine " + json.dumps(machine))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
