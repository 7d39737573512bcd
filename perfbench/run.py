#!/usr/bin/env python3
"""capsim benchmark: cold-process repetitions of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a capsim checkout.  The script builds the measuring
program (perfbench/_ocaml, linked against the checkout's lib/) in
.bench_build/, then starts one fresh process per repetition until S seconds
of repetitions have run, so every repetition pays cold caches.  Each
repetition checks its simulated results against the digest pinned in
perfbench/pins.json.

The shared host's speed drifts by tens of percent within seconds, so each
repetition runs a fixed reference round (perfbench/_ocaml/calib) every
quarter second, waiting for it.  Every host time is rescaled from the
rounds: the waits are left out, and the time between two rounds is scaled
by the reference's nominal round time over the mean of their measured
times.  So every reported time is in seconds at the reference speed.

With --trace 0 the last line of stdout is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json (medians over repetitions); with
--trace 1 untraced and traced repetitions alternate and the metrics are the
per-layer ones: layer self times derived from host spans, deterministic work
counts, and the tracing overhead.  A summary with sample counts precedes the
JSON line.  perfbench/README.md documents the workloads and metrics.
"""

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WS = BUILD / "ws"
EXE = WS / "_build" / "default" / "capbench" / "main.exe"
CALIB = WS / "_build" / "default" / "calib" / "calib.exe"

WORKLOADS = ("paper_replay", "event_grid", "serve_churn", "verify_box")
COLUMNS = ("shared_central", "xbar4_central", "xbar4_shim", "hier4_shim",
           "shared_mix")
MIN_REPS = 3          # repetitions per mode, even past --seconds
DEADLINE_S = 165.0    # no repetition starts that could end past this
SERVE_SEEDS = 64      # serve_churn pins one digest per seed modulo this
ROUND_S = 0.02        # a reference round at the reference speed


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def sync_tree(src, dst):
    """Make dst a copy of src, rewriting only files whose bytes differ so
    dune sees an unchanged tree as unchanged."""
    dst.mkdir(parents=True, exist_ok=True)
    wanted = set()
    for entry in src.iterdir():
        if entry.name.startswith(("_build", ".")):
            continue
        wanted.add(entry.name)
        target = dst / entry.name
        if entry.is_dir():
            sync_tree(entry, target)
        elif not target.is_file() or not filecmp.cmp(entry, target,
                                                     shallow=False):
            shutil.copyfile(entry, target)
    for entry in dst.iterdir():
        if entry.name not in wanted and entry.name != "_build":
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink()


def build():
    """Stage lib/ and the measuring program as their own dune project and
    build it.  The staging keeps the benchmark out of the repository's own
    dune build."""
    if not (ROOT / "lib").is_dir() or not (ROOT / "dune-project").is_file():
        fail("lib/ or dune-project not found: run from a capsim checkout")
    sync_tree(HERE / "_ocaml", WS)
    sync_tree(ROOT / "lib", WS / "lib")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", str(WS), "--profile", "release",
         "./capbench/main.exe", "./calib/calib.exe"],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not EXE.is_file() or not CALIB.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def run_rep(workload, seed, traced, index, deadline):
    """One repetition in a fresh process; returns its JSON record."""
    out = BUILD / "reps" / f"{workload}-{os.getpid()}-{index}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    spawn = time.time()
    proc = subprocess.run(
        [str(EXE), workload, str(seed), repr(spawn), str(out),
         "1" if traced else "0", str(CALIB)],
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not out.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{workload} repetition exited with {proc.returncode}")
    rec = json.loads(out.read_text())
    out.unlink()
    rescale(rec)
    return rec


def reference_clock(calib):
    """Map from raw host seconds after spawn to seconds at the reference
    speed, given the repetition's reference rounds (start, end, round
    seconds).  A round's own interval maps to no time."""
    pieces = []  # (start, end, scale) of each stretch of workload time
    prev_end, prev_k = 0.0, ROUND_S / calib[0][2]
    for start, end, d in calib:
        k = ROUND_S / d
        pieces.append((prev_end, start, (prev_k + k) / 2))
        prev_end, prev_k = end, k
    pieces.append((prev_end, math.inf, prev_k))

    def clock(t):
        return sum(k * (min(t, e) - s) for s, e, k in pieces if s < t)
    return clock


def rescale(rec):
    """Express a repetition's host times at the reference speed."""
    clock = reference_clock(rec["calib"])
    rec["speed"] = statistics.median(ROUND_S / d for _, _, d in rec["calib"])
    rec["setup_s"] = clock(rec["t_first"])
    rec["wall_s"] = clock(rec["t_end"])
    rec["item_ms"] = [(clock(b) - clock(a)) * 1000 for a, b in rec["items"]]
    rec["timings"] = {n: (clock(b) - clock(a)) * 1000
                      for n, (a, b) in rec["timings"].items()}
    for s in rec["spans"]:
        s["start"] = clock(s["start"])
        s["end"] = clock(s["end"])


def quantile(xs, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def pinned_digest(workload, seed):
    pins = json.loads((HERE / "pins.json").read_text())
    if workload == "serve_churn":
        return pins[workload].get(str(seed % SERVE_SEEDS))
    return pins[workload]


# ---- per-layer metrics ------------------------------------------------

def self_times(spans):
    """Self time per span name: duration minus the part its children
    cover (children of one span never overlap: the program is serial)."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]
    out = {}
    for s in spans:
        out[s["name"]] = (out.get(s["name"], 0.0)
                          + dur[s["id"]] - child.get(s["id"], 0.0))
    return out


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(rec):
    """Per-layer metrics of one traced repetition."""
    c = rec["counts"]
    g = lambda k: c.get(k, 0.0)  # noqa: E731
    t = self_times(rec["spans"])
    items = [s for s in rec["spans"] if s["name"] == "item"]
    m = {
        "machsuite.golden_s": t.get("machsuite.golden", 0.0),
        "hls.synthesize_s": t.get("hls.synthesize", 0.0),
        "analysis.proven_s": t.get("analysis.proven", 0.0),
        "cpu.run_s": t.get("cpu.run", 0.0),
        "accel.record_s": t.get("accel.record", 0.0),
        "accel.derive_s": t.get("accel.derive", 0.0),
        "kernel.interpretations": g("kernel.interpretations"),
        "kernel.interpreted_tasks": g("kernel.interpreted_tasks"),
        "accel.traces_memoized": g("counter.traces_memoized"),
        "accel.script_hit_ratio": ratio(g("accel.script_hits"),
                                        g("accel.runs")),
        "accel.segments_replayed": g("counter.segments_replayed"),
        "capchecker.checks": g("capchecker.checks"),
        "capchecker.fast_pathed": g("counter.accesses_fast_pathed"),
        "capchecker.fast_path_ratio": ratio(g("counter.accesses_fast_pathed"),
                                            g("capchecker.checks")),
        "bus.beats": g("bus.beats"),
        "soc.runs_memoized": g("counter.runs_memoized"),
        "soc.runs_disk_cached": g("counter.runs_disk_cached"),
        "ccsim.events_coalesced": g("counter.events_coalesced"),
        "ccsim.periods_leaped.interconnect":
            g("ccsim.periods_leaped.interconnect"),
        "ccsim.periods_leaped.mix": g("ccsim.periods_leaped.mix"),
        "serve.run_s": t.get("serve.run", 0.0),
        "capchecker.installs": g("capchecker.installs"),
        "capchecker.evictions": g("capchecker.evictions"),
        "capchecker.conflicts": g("capchecker.conflicts"),
        "serve.admitted_ratio": ratio(g("serve.admitted"),
                                      g("serve.requests")),
        "serve.thrash": g("serve.thrash"),
        "gc.minor_words_per_request": ratio(g("gc.minor_words.serve"),
                                            g("serve.requests")),
        "cheri.encoding_sweep_s": t.get("cheri.encoding_sweep", 0.0),
        "verify.explore_s": t.get("verify.explore", 0.0),
        "verify.schedules": g("verify.schedules"),
        "verify.pruned": g("verify.pruned"),
        "verify.prune_ratio": ratio(
            g("verify.pruned"), g("verify.pruned") + g("verify.schedules")),
        "verify.ops": g("verify.ops"),
        "verify.ns_per_op": ratio(t.get("verify.explore", 0.0) * 1e9,
                                  g("verify.ops")),
        "gc.minor_words_per_op": ratio(g("gc.minor_words.explore"),
                                       g("verify.ops")),
        "verify.mutation_catch_ms": max(rec["timings"].values(), default=0.0),
        "gc.major_collections": float(rec["major_collections"]),
        "trace.unaccounted_s": rec["wall_s"] - rec["setup_s"]
        - sum(s["end"] - s["start"] for s in items),
    }
    for col in COLUMNS:
        run_s = t.get("soc.event_run." + col, 0.0)
        beats = g("bus.beats." + col)
        m["soc.event_run_s." + col] = run_s
        m["bus.ns_per_beat." + col] = ratio(run_s * 1e9, beats)
        m["gc.minor_words_per_beat." + col] = ratio(
            g("gc.minor_words." + col), beats)
    return m


def pin():
    """Rewrite pins.json from the checkout's current outputs: for a change
    that alters simulated results on purpose, whose pins.json diff then
    shows it."""
    build()
    deadline = time.monotonic() + 3600
    pins = {}
    for w in WORKLOADS:
        seeds = range(SERVE_SEEDS) if w == "serve_churn" else (0, 1)
        digests = {}
        for seed in seeds:
            rec = run_rep(w, seed, False, seed, deadline)
            if rec["failed"]:
                fail(f"{w} seed {seed} failed: {rec['failures'][:3]}")
            digests[str(seed)] = rec["digest"]
        if w == "serve_churn":
            pins[w] = digests
        elif len(set(digests.values())) != 1:
            fail(f"{w}: the digest depends on item order")
        else:
            pins[w] = digests["0"]
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


# ---- main -----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite pins.json from the current outputs")
    args = ap.parse_args()
    if args.pin:
        pin()
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    deadline = time.monotonic() + DEADLINE_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()

    modes = [False, True] if args.trace else [False]
    reps = {False: [], True: []}
    measure_start = time.monotonic()
    last_rep_s = 0.0
    while True:
        done = all(len(reps[m]) >= MIN_REPS for m in modes)
        elapsed = time.monotonic() - measure_start
        if done and elapsed >= args.seconds:
            break
        if time.monotonic() + 1.5 * last_rep_s > deadline:
            if done:
                break
            fail("repetitions do not fit the time limit")
        mode = min(modes, key=lambda m: len(reps[m]))
        t0 = time.monotonic()
        reps[mode].append(run_rep(args.workload, args.seed, mode,
                                  len(reps[False]) + len(reps[True]),
                                  deadline))
        last_rep_s = time.monotonic() - t0

    # ---- correctness: failures, pinned digest, deterministic counts ----
    every = reps[False] + reps[True]
    pinned = pinned_digest(args.workload, args.seed)
    attempted = sum(r["attempted"] for r in every)
    failed = 0
    problems = []
    for r in every:
        failed += r["failed"]
        problems += r["failures"]
        if pinned is None or r["digest"] != pinned:
            failed += r["attempted"] - r["failed"]
            problems.append(f"digest {r['digest']} != pinned {pinned}")
    if any(r["counts"] != every[0]["counts"] for r in every):
        problems.append("work counts differ between repetitions")
    if any(r["counts"].get("counter.runs_memoized")
           or r["counts"].get("counter.runs_disk_cached") for r in every):
        problems.append("a run was served from a memo")
    if problems:
        failed = max(failed, 1)
    failed = min(failed, attempted)

    # ---- metrics --------------------------------------------------------
    plain = reps[False]
    med = statistics.median
    if not args.trace:
        values = {
            "setup_s": med([r["setup_s"] for r in plain]),
            "wall_s": med([r["wall_s"] for r in plain]),
            "items_per_s": med([r["throughput_items"] / r["wall_s"]
                                for r in plain]),
            "sim_cycles_per_s": med([r["sim_cycles"] / r["wall_s"]
                                     for r in plain]),
        }
        declared = bench["end_to_end"]
        samples = {k: len(plain) for k in values}
    else:
        per_rep = [layer_metrics(r) for r in reps[True]]
        values = {k: med([m[k] for m in per_rep]) for k in per_rep[0]}
        samples = {k: len(per_rep) for k in values}
        # item latencies, the heap peak and the tracing overhead come from
        # the untraced repetitions of this run
        item_ms = [ms for r in plain for ms in r["item_ms"]]
        values["item_p50_ms"] = quantile(item_ms, 0.5)
        values["item_p90_ms"] = quantile(item_ms, 0.9)
        values["peak_heap_mb"] = med([r["peak_heap_mb"] for r in plain])
        values["trace.overhead_s"] = (med([r["wall_s"] for r in reps[True]])
                                      - med([r["wall_s"] for r in plain]))
        samples.update({"item_p50_ms": len(item_ms),
                        "item_p90_ms": len(item_ms),
                        "peak_heap_mb": len(plain),
                        "trace.overhead_s": len(every)})
        declared = bench["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) ^ set(values)
    if missing:
        fail("metrics do not match BENCHMARK.json: "
             + ", ".join(sorted(missing)))

    first = every[0]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plain)} untraced + {len(reps[True])} traced repetitions, "
          f"fast-path {first['fast_path']}, event-ff {first['event_ff']}, "
          f"run cache {first['runcache']}, digest {first['digest']}, "
          f"host speed {med([r['speed'] for r in every]):.3f} of the "
          f"reference (median round)")
    for p in problems[:20]:
        print("  FAIL " + p)
    for m in declared:
        print(f"  {m['name']:40s} {values[m['name']]:16.6g} {m['unit']:8s}"
              f" n={samples[m['name']]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
