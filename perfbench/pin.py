#!/usr/bin/env python3
"""Choose each workload's input sets and pin the outputs the program gives.

Writes ``expected.json`` next to this file.  Set 0 of every workload is the
README recipe set; the other sets are drawn deterministically and kept only
when they do the same work (records: the [13,9,4] derivation still hits;
random_pool: the stream holds no hit within the budget; axy_climb: the same
climb in every set).  Run it from the
root of a checkout whose outputs are known good:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import itertools
import json
import shutil

import numpy as np

import run
import workloads
from workloads import POOL, POOL_BUDGET

_RECORDS_TAG = 0x7265


def _one_pass(pkg, name, inputs, tmp):
    w = workloads.WORKLOADS[name](pkg, inputs, tmp)
    w.setup()
    return w.run().outputs


def pin_records(pkg, tmp):
    out = []
    rng = np.random.default_rng(_RECORDS_TAG)
    for entry in range(POOL):
        while True:
            triple = [1, 2, 3] if entry == 0 else sorted(
                int(c) + 1 for c in rng.choice(17, size=3, replace=False))
            inputs = {"shorten": triple, "seed_14_10": 1 + entry, "seed_15_11": 1 + entry}
            got = _one_pass(pkg, "records", inputs, tmp)
            if all(rc == 0 for rc in got["search_exits"]) and got["verify_status"] == [
                "reproduced-lower"] * 4:
                break
            if entry == 0:
                raise RuntimeError(f"the README recipes no longer reproduce: {got}")
        expect = {k: got[k] for k in ("base_sha256", "candidates_tried", "record_sha256")}
        out.append({"inputs": inputs, "expect": expect})
        print("records", entry, inputs, expect["candidates_tried"], flush=True)
    return out


def pin_random_pool(pkg):
    search = pkg.modules["search"]
    out = []
    for seed in itertools.chain([15], itertools.count(16)):
        cfg = search.SearchConfig(n=12, k=8, target_d=4, seed=seed, budget=POOL_BUDGET)
        serial = search.search(cfg)
        if serial.found is None:
            expect = {"found_none": True, "candidates_tried": serial.candidates_tried}
            out.append({"inputs": {"stream_seed": seed}, "expect": expect})
            print("random_pool", len(out) - 1, seed, flush=True)
        elif seed == 15:
            raise RuntimeError("the seed-15 stream hits within the budget")
        if len(out) == POOL:
            return out


def pin_exact(pkg, tmp):
    out = []
    for entry in range(POOL):
        inputs = {"code_seed": entry}
        got = _one_pass(pkg, "exact_distance", inputs, tmp)
        out.append({"inputs": inputs, "expect": got})
        print("exact_distance", entry, got["min_weight"], flush=True)
    return out


def pin_axy(pkg, tmp):
    # Every set runs the same climb: its cost follows the climb's path, which
    # differs by up to 1.5x between search seeds, so the seed is not varied.
    inputs = {"axy_seed": 1}
    got = _one_pass(pkg, "axy_climb", inputs, tmp)
    if not got["found_none"]:
        raise RuntimeError(f"axy climb reached an unreachable target: {inputs}")
    print("axy_climb", got["candidates_tried"], flush=True)
    return [{"inputs": inputs, "expect": {"candidates_tried": got["candidates_tried"]}}] * POOL


def main() -> None:
    pkg = run.load_program()
    tmp = run.OUT / "pin"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        pins = {
            "records": pin_records(pkg, tmp),
            "random_pool": pin_random_pool(pkg),
            "exact_distance": pin_exact(pkg, tmp),
            "axy_climb": pin_axy(pkg, tmp),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
