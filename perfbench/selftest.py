#!/usr/bin/env python3
"""Self-test of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py

Checks that
  * every end-to-end and per-layer metric is emitted with its unit, on
    every workload, and the outputs pass their checks;
  * a corrupted pinned expectation is counted as a failed output;
  * a traced run followed by an untraced run in one process puts back every
    patched attribute and the host probe's signal handler and timer, and
    gives identical outputs;
  * the pinned exact minimum distances agree with ``min_weight_oracle``
    wherever the dimension is at most 10.
Takes a few minutes.
"""

from __future__ import annotations

import copy
import math
import shutil
import signal
import sys

import run
import workloads


def _attributes(pkg) -> dict:
    """Every attribute of every package module and traced class, by identity."""
    owners = [pkg.package, *pkg.modules.values(), pkg.modules["code"].LinearCode,
              pkg.modules["tables"].BoundsTable]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _outputs(record) -> list:
    return [p["outputs"] for p in record["passes"]]


def check_metrics(pkg) -> None:
    for name in workloads.WORKLOADS:
        for trace, units in ((False, run.END_TO_END), (True, run.LAYER_METRICS)):
            record = run.run(pkg, name, 0, 1.0, trace)
            result = record["result"]
            assert result["correct"] and result["failed"] == 0, record["failed_checks"]
            metrics = result["metrics"]
            assert set(metrics) == set(units), (name, trace, set(units) ^ set(metrics))
            for metric, unit in units.items():
                value = metrics[metric]["value"]
                assert metrics[metric]["unit"] == unit, (name, metric)
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)
            if not trace:
                assert all(metrics[m]["value"] > 0 for m in units), (name, metrics)
            print(f"ok   metrics: {name} trace={int(trace)}", flush=True)


def check_corrupted_pin(pkg) -> None:
    for name, corrupt in (
        ("axy_climb", lambda e: e["expect"].update(candidates_tried=3999)),
        ("exact_distance", lambda e: e["expect"]["min_weight"].__setitem__(0, 5)),
    ):
        pinned = copy.deepcopy(run.load_expected(name, 0))
        corrupt(pinned)
        result = run.run(pkg, name, 0, 1.0, False, expected=pinned)["result"]
        assert not result["correct"] and result["failed"] >= 1, result
        print(f"ok   corrupted pin counted as failed: {name} "
              f"({result['failed']}/{result['attempted']})", flush=True)


def check_restore(pkg) -> None:
    before = _attributes(pkg)
    handler = signal.getsignal(signal.SIGALRM)
    traced = run.run(pkg, "axy_climb", 0, 1.0, True)
    after = _attributes(pkg)
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed and set(before) == set(after), changed
    untraced = run.run(pkg, "axy_climb", 0, 1.0, False)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    outs = _outputs(traced) + _outputs(untraced)
    assert all(o == outs[0] for o in outs), outs
    assert any(p["traced"] for p in traced["passes"])
    print("ok   tracer and probe restore every attribute; traced and untraced "
          "outputs agree", flush=True)


def check_pins_against_oracle(pkg) -> None:
    oracle = pkg.modules["code"].min_weight_oracle
    parse = pkg.modules["cli"].parse_code_file
    tmp = run.OUT / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    compared = 0
    try:
        for entry in range(workloads.POOL):
            pinned = run.load_expected("exact_distance", entry)
            w = workloads.ExactDistance(pkg, pinned["inputs"], tmp)
            w.setup()
            want = pinned["expect"]
            assert want["min_weight"][-1] == oracle(w.codes[(100, 9)]), entry
            compared += 1
            for k, path, info in zip(workloads.INFO_DIMS, w.info_files, want["info"]):
                code = parse(path.read_text())
                if k <= 10:
                    assert info.get("d_exact", True) and info["d"] == oracle(code), (entry, k)
                    compared += 1
                if 24 - k <= 10:
                    dual = code.hermitian_dual()
                    assert info.get("d_dual_exact", True), (entry, k)
                    assert info["d_dual"] == oracle(dual), (entry, k)
                    compared += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"ok   {compared} pinned distances agree with min_weight_oracle", flush=True)


def main() -> int:
    pkg = run.load_program()
    check_pins_against_oracle(pkg)
    check_restore(pkg)
    check_corrupted_pin(pkg)
    check_metrics(pkg)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
