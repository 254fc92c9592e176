#!/usr/bin/env python3
"""barlog benchmark: cold-process runs of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is taken from src/ there.
Each workload is a closed loop with one client: this process starts one
fresh interpreter per run of the workload, waits for it, checks its
output, and starts the next while the measured time allows.  Every run
is cold, as a command-line user's is, because barlog's caches are
module-level dicts.

Untraced (--trace 0) the last line of stdout is a JSON object with the
end-to-end metrics wall_s, setup_s and peak_rss_mb; error_rate is the
failed/attempted pair of that object.  A run of reference.py before and
after every timed child gives the machine's speed at that moment, and
wall_s and setup_s are stated at a fixed reference speed (REFERENCE_S);
the raw seconds are printed above the result line.  Traced (--trace 1) one untraced
and one traced child run, whatever --seconds says, and the object
carries the per-layer metrics of layers.py plus the tracing overhead.
--seed drives only the generated inputs; PYTHONHASHSEED is pinned so
that the same inputs give the same work.  See README.md for the
workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import product
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Import-only children per untraced run, for the median of setup_s.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150
# wall_s and setup_s are stated at the speed where one run of
# reference.py takes this many seconds, about its time on a 2-CPU
# Xeon VM.
REFERENCE_S = 0.25

# Correctness gates at each size: stdout SHA-256 of the exact commands
# (recorded at the seed commit) and structural counts.
SIZES = {
    "full": {
        "relations-d4": {
            "degree": 4, "count": 100,
            "digests": ["854bc85d9dff63506eb57ffbacca7898"
                        "0acd62b9ff5debaf4d0ea55ae0e81eef"]},
        "decompose-d4": {
            "degree": 4, "count": 100,
            "digests": ["2b15bf33888d1f9a0f7af73842a5ae59"
                        "4cacafd0aa7e954095d638aba6ebd944",
                        "410b97d7a96e6b498737f3f9642813d3"
                        "5f839c10361f2e58ebf0e81ce546eb14"]},
        "verify-d3": {"degree": 3, "count": 32, "series_terms": 2000},
        "oracles-d3": {"degree": 3, "word_quota": 24, "max_weight": 3,
                       "series_terms": 400, "mzv_terms": 25000},
    },
    # Small enough for the benchmark's own test.
    "tiny": {
        "relations-d4": {
            "degree": 3, "count": 32,
            "digests": ["f905320f88bff399cb3ab845cb59a612"
                        "cb0a26ee8777202d6e31d180092c9c8c"]},
        "decompose-d4": {
            "degree": 3, "count": 32,
            "digests": ["fe2e602475e8ef96a3e33d4be67e2d35"
                        "c0b69f47ed85bb64d11d6a86cb283da5",
                        "b8d3b1058b51d1d815d7bdb09f02b834"
                        "c79b4fdbcab1b73d462f5cfc26eea369"]},
        "verify-d3": {"degree": 2, "count": 10, "series_terms": 200},
        "oracles-d3": {"degree": 2, "word_quota": 6, "max_weight": 2,
                       "series_terms": 200, "mzv_terms": 2000},
    },
}

WORKLOADS = ("relations-d4", "decompose-d4", "verify-d3", "oracles-d3")

# Seeded points are drawn from inside the polydisc, away from the
# singular lines z1, z2 in {0, 1} and z1*z2 = 1.
POINT_BOX = (0.2, 0.45)
MID_BOX = (0.05, 0.45)
SERIES_TOL = 1e-8      # barlog's default tolerance
QUADRATURE_TOL = 1e-8
MZV_TOL = 1e-4         # as in the paper's multiple-zeta criterion


# -- seeded inputs ------------------------------------------------------------

def _point(rng, box=POINT_BOX):
    return [rng.uniform(*box), rng.uniform(*box)]


def _w0_words(letters, length):
    return [list(w) for w in product(letters, repeat=length)
            if not w or w[-1] not in ("Z1", "Z2")]


def _compositions(weight):
    if weight == 0:
        return [[]]
    return [[first] + rest for first in range(1, weight + 1)
            for rest in _compositions(weight - first)]


def make_inputs(name, seed, size):
    """The generated inputs of one workload: a pure function of
    (name, seed, size)."""
    spec = SIZES[size][name]
    rng = random.Random(f"{name}:{seed}")
    d = spec["degree"]
    if name == "relations-d4":
        return {"kind": "cli",
                "commands": [["relations", "--degree", str(d)]]}
    if name == "decompose-d4":
        return {"kind": "cli",
                "commands": [["decompose", "--degree", str(d),
                              "--direction", direction]
                             for direction in ("1x2", "2x1")]}
    if name == "verify-d3":
        z1, z2 = _point(rng)
        return {"kind": "cli",
                "commands": [["verify", "--degree", str(d), "--terms",
                              str(spec["series_terms"]),
                              "--z1", repr(z1), "--z2", repr(z2)]]}
    # oracles-d3: product-basis pairs of the 1x2 splitting in seeded
    # order, each with a contour from the origin through a seeded corner.
    pairs = [(w1, w2) for s1 in range(d + 1)
             for w1 in _w0_words(("Z1", "Z11", "Z12"), s1)
             for w2 in _w0_words(("Z2", "Z22"), d - s1)]
    rng.shuffle(pairs)
    pair_inputs = [{"w1": w1, "w2": w2,
                    "path": [[0.0, 0.0], _point(rng, MID_BOX), _point(rng)]}
                   for w1, w2 in pairs]
    indices = [c for w in range(1, spec["max_weight"] + 1)
               for c in _compositions(w)]
    index_pairs = [(k, l) for k in indices for l in indices]
    rng.shuffle(index_pairs)
    return {"kind": "oracles",
            "pairs": pair_inputs,
            "word_quota": spec["word_quota"],
            "index_pairs": [{"k": k, "l": l, "point": _point(rng)}
                            for k, l in index_pairs],
            "series_terms": spec["series_terms"],
            "mzv_terms": spec["mzv_terms"],
            "series_tol": SERIES_TOL,
            "quadrature_tol": QUADRATURE_TOL,
            "mzv_tol": MZV_TOL}


# -- one child ----------------------------------------------------------------

class Child:
    """Outcome of one child interpreter."""

    def __init__(self, returncode, wall_s, peak_rss_mb, result, out_dir,
                 stderr, t_spawn):
        self.returncode = returncode
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.result = result
        self.out_dir = out_dir
        self.stderr = stderr
        self.setup_s = (result["t_imported"] - t_spawn
                        if "t_imported" in result else None)
        self.done_s = (result["t_done"] - t_spawn
                       if "t_done" in result else None)


def _wait(argv, child_dir, stdout):
    """Start one interpreter and wait for it: (exit code, wall seconds,
    peak RSS in MB, spawn time).  Times are taken on the monotonic clock
    the child reports on too."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv],
                            stdin=subprocess.DEVNULL, stdout=stdout,
                            stderr=subprocess.STDOUT, env=env,
                            cwd=child_dir)
    # A child that hangs is killed, so that the run still ends.
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    # wait4 gives this child's own peak RSS, not the maximum over
    # every child so far that RUSAGE_CHILDREN would give.
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - t_spawn
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall_s, usage.ru_maxrss / 1024.0, t_spawn


def spawn(inputs, run_dir, tag, trace=False):
    """Run child.py on the inputs and wait for it."""
    child_dir = run_dir / tag
    child_dir.mkdir()
    inputs_path = child_dir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    result_path = child_dir / "result.json"
    with open(child_dir / "stderr.txt", "w+b") as err:
        returncode, wall_s, rss, t_spawn = _wait(
            [str(HERE / "child.py"), str(inputs_path), str(child_dir),
             "1" if trace else "0", str(result_path)], child_dir, err)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    result = {}
    if returncode == 0:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    return Child(returncode, wall_s, rss, result, child_dir, stderr, t_spawn)


def reference_s(run_dir):
    """Wall time of one run of reference.py, checked by its checksum."""
    with open(run_dir / "reference.txt", "w+b") as out:
        returncode, wall_s, _, _ = _wait([str(HERE / "reference.py")],
                                         run_dir, out)
        out.seek(0)
        text = out.read().decode("utf-8", "replace").strip()
    if returncode != 0 or text != reference.CHECKSUM:
        raise SystemExit(f"reference run failed: {text[-2000:]}")
    return wall_s


# -- correctness gates ------------------------------------------------------

def _check_cli(name, spec, inputs, child):
    """Check records (label, passed) for one CLI child's outputs."""
    checks = [("exit status 0", child.returncode == 0
               and child.result.get("returncodes")
               == [0] * len(inputs["commands"]))]
    if not checks[0][1]:
        return checks
    digests = spec.get("digests") or [None] * len(inputs["commands"])
    for i, (argv, digest) in enumerate(zip(inputs["commands"], digests)):
        raw = (child.out_dir / f"out{i}.json").read_bytes()
        if digest is not None:
            checks.append((f"sha256 of `barlog {' '.join(argv)}`",
                           hashlib.sha256(raw).hexdigest() == digest))
        try:
            out = json.loads(raw)
        except ValueError:
            checks.append((f"JSON of `barlog {' '.join(argv)}`", False))
            continue
        if name == "relations-d4":
            checks.append(("relation count", out.get("count")
                           == spec["count"] == len(out.get("relations", []))))
        elif name == "decompose-d4":
            checks.append(("pair count",
                           len(out.get("pairs", [])) == spec["count"]))
        else:
            dec = out.get("decomposition", {})
            point = [float(argv[argv.index("--z1") + 1]),
                     float(argv[argv.index("--z2") + 1])]
            checks += [
                ("relations checked", out.get("relations_checked")
                 == spec["count"]),
                ("relations ok", out.get("relations_ok") is True),
                ("point echoed", out.get("point") == point),
                ("decomposition residual within tol + bound",
                 dec.get("symbolic") is True
                 and dec.get("residual", float("inf"))
                 <= SERIES_TOL + dec.get("bound", 0.0)),
                ("verify passed", out.get("passed") is True),
            ]
    return checks


def _check_oracles(child):
    if child.returncode != 0:
        return [("exit status 0", False)]
    checks = [("exit status 0", True)]
    for rec in child.result["checks"]:
        if "passed" in rec:
            ok = rec["passed"] is True
        else:
            ok = rec["residual"] <= rec["tol"] + rec["bound"]
        checks.append((rec["kind"], ok))
    return checks


def check(name, size, inputs, child):
    if inputs["kind"] == "cli":
        return _check_cli(name, SIZES[size][name], inputs, child)
    return _check_oracles(child)


# -- statistics ---------------------------------------------------------------

def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when that is not above the median."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit, note="at reference speed"):
    text = (f"  {name:<13} {statistics.median(values):.6g} {unit} {note}"
            f"  median of {len(values)}")
    t = tail(values)
    if t is None:
        text += "; no tail percentile below 20 samples"
    else:
        text += f"; p{t[0]:.0f} {t[1]:.6g} {unit}"
    return text


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "cpu": cpu}


# -- one workload -------------------------------------------------------------

def run_workload(name, seed, seconds, trace, size="full", log=print):
    """Measure one workload and return its result object: the
    end-to-end metrics untraced, the layer metrics traced."""
    inputs = make_inputs(name, seed, size)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        return _measure(name, seed, seconds, trace, size, inputs, run_dir,
                        log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(name, seed, seconds, trace, size, inputs, run_dir, log):
    log(f"workload {name} seed {seed} size {size}: inputs "
        + json.dumps(inputs, separators=(",", ":")))
    # Untimed warm-up: the first import writes the bytecode caches a
    # user's installed copy already has.
    warm = spawn({"kind": "import"}, run_dir, "warmup")
    if warm.returncode != 0:
        raise SystemExit(f"cannot import barlog from {SRC}:\n{warm.stderr}")

    attempted = failed = 0
    children = []
    spawned = 0

    def measured(tag, traced=False):
        nonlocal attempted, failed, spawned
        spawned += 1
        child = spawn(inputs, run_dir, f"{tag}{spawned}", trace=traced)
        checks = check(name, size, inputs, child)
        attempted += len(checks)
        bad = [label for label, ok in checks if not ok]
        failed += len(bad)
        if bad:
            log(f"  {tag}: FAILED {', '.join(bad)}")
            if child.returncode != 0:
                log(child.stderr[-2000:])
        else:
            children.append(child)
        return child

    if trace:
        plain = measured("untraced")
        traced = measured("traced", traced=True)
        metrics = {}
        if plain in children and traced in children:
            metrics = _layer_metrics(name, seed, plain, traced, log)
        return {"correct": failed == 0 and bool(metrics),
                "attempted": attempted, "failed": failed,
                "metrics": metrics}

    # Every timed child is bracketed by reference runs, and its times
    # are scaled by REFERENCE_S over the mean of the two: the host's
    # speed drifts by tens of percent over minutes, and barlog's work
    # and the reference's drift together.
    refs = [reference_s(run_dir)]
    # (child, its own time scale); probes only time the import.
    timed, probes = [], []

    def bracket(child):
        refs.append(reference_s(run_dir))
        return child, REFERENCE_S / ((refs[-2] + refs[-1]) / 2)

    def probe(count):
        for _ in range(count):
            child = spawn({"kind": "import"}, run_dir,
                          f"setup{len(probes)}")
            if child.returncode != 0:
                raise SystemExit("import-only child failed")
            probes.append(bracket(child))

    # Half the import probes before the runs and half after, so that
    # setup_s samples the machine at both ends of the measured time.
    probe(SETUP_PROBES // 2)
    start = time.perf_counter()
    # Start another run only if it should end within the measured time;
    # the first always runs.
    while True:
        child = measured("run")
        if child in children:
            timed.append(bracket(child))
        elapsed = time.perf_counter() - start
        if not timed or elapsed + statistics.median(
                c.wall_s for c, _ in timed) + refs[-1] > seconds:
            break
    if not timed:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    probe(SETUP_PROBES - len(probes))
    walls = [c.wall_s * k for c, k in timed]
    setup = [c.setup_s * k for c, k in probes + timed]
    rss = [c.peak_rss_mb for c, _ in timed]
    log(describe("reference", refs, "s", "raw"))
    log(describe("raw wall", [c.wall_s for c, _ in timed], "s", "raw"))
    log(describe("raw setup", [c.setup_s for c, _ in probes + timed], "s",
                 "raw"))
    log(describe("wall_s", walls, "s"))
    log(describe("setup_s", setup, "s"))
    log(describe("peak_rss_mb", rss, "MB", ""))
    log(f"  error_rate    {failed / attempted:.6g} ratio"
        f"  ({failed} failed of {attempted} checks)")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(rss),
                                "unit": "MB"},
            }}


def _layer_metrics(name, seed, plain, traced, log):
    """Per-layer metrics of a traced child, with the tracing overhead
    against an untraced child; writes the traced child's spans out."""
    spans_path = WORK / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps(traced.result["spans"]),
                          encoding="utf-8")
    log(f"  spans written to {spans_path.relative_to(ROOT)}")
    wall = traced.done_s
    covered = traced.result["covered_s"]
    metrics = {k: {"value": v, "unit": _layer_unit(k)}
               for k, v in traced.result["trace"].items()}
    metrics.update({
        "cli.output_bytes": {"value": traced.result.get("output_bytes", 0),
                             "unit": "bytes"},
        "trace.wall_s": {"value": wall, "unit": "s"},
        "trace.untraced_wall_s": {"value": plain.done_s, "unit": "s"},
        "trace.overhead_s": {"value": wall - plain.done_s, "unit": "s"},
        "trace.gap_s": {"value": wall - covered, "unit": "s"},
        "trace.span_share": {"value": covered / wall, "unit": "ratio"},
    })
    for key in sorted(metrics):
        log(f"  {key:<36} {metrics[key]['value']:.6g} "
            f"{metrics[key]['unit']}")
    return metrics


def _layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("bits"):
        return "bits"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny is for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "barlog" / "__init__.py").is_file():
        print(f"no barlog sources under {SRC}", file=sys.stderr)
        return 2
    facts = machine_facts()
    print(f"machine: nproc={facts['nproc']} python={facts['python']} "
          f"cpu={facts['cpu']}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.size)
               for name in names}
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{name}.{key}": value
                           for name, r in results.items()
                           for key, value in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
