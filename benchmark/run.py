#!/usr/bin/env python3
"""Builds and runs upsbench, the repository's benchmark of record.

One run (the form BENCHMARK.json's command takes):
  python3 benchmark/run.py --workload W --seed N --seconds T --trace 0|1
    Builds upsbench into .bench_build, runs workload W once, checks its
    digests and prints one JSON line as the last line of stdout:
    {"correct", "attempted", "failed", "metrics"} with every end-to-end
    metric (--trace 0) or every per-layer metric (--trace 1).

A full set (interleaved runs, then one traced run per workload):
  python3 benchmark/run.py --full-set [--runs 5] [--seconds T] [--out F]
Compare two full sets against BENCHMARK.json's bounds:
  python3 benchmark/run.py --compare A.json B.json
Smoke test (every workload at 1/50 size):
  python3 benchmark/run.py --smoke [--bin PATH]

Digests: at seed 1 they must equal golden.json; at other seeds every run
of a checkout must agree with the first one (kept under .bench_build).
Any mismatch counts as a failed job.
"""
import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
GOLDEN = HERE / "golden.json"
MIN_COVERAGE = 0.90
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configures once, then (re)builds only upsbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources are missing; run from a full checkout")
    # Compiler temporaries stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "upsbench", "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, env=env)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail("build failed: " + " ".join(cmd))
    return BUILD / "upsbench"


def run_bench(binary, workload, seed, seconds, traced, smoke=False):
    """One upsbench process; returns its parsed JSON line."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={BUILD / 'work'}"]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops the dispatch workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload}: upsbench exited {proc.returncode} without a result")
    res = json.loads(lines[-1])
    res["exit_code"] = proc.returncode
    return res


def check_digests(res):
    """Returns the number of digest mismatches (0 or 1)."""
    w, seed, smoke = res["workload"], res["seed"], res["smoke"]
    got = res["digests"]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    key = "smoke" if smoke else "seed1"
    if seed == 1 and w in golden.get(key, {}):
        want = golden[key][w]
    else:
        cache = BUILD / "digests" / f"{w}-{seed}{'-smoke' if smoke else ''}.json"
        if not cache.is_file():
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.write_text(json.dumps(got))
        want = json.loads(cache.read_text())
    if got != want:
        print(f"run.py: {w} seed {seed}: digests {got} != expected {want}",
              file=sys.stderr)
        return 1
    return 0


def coverage_ok(res):
    cov = res["metrics"].get("layers.coverage", 0.0)
    if res["traced"] and cov < MIN_COVERAGE:
        print(f"run.py: {res['workload']}: layers.coverage {cov:.3f} < "
              f"{MIN_COVERAGE}", file=sys.stderr)
        return False
    return True


def verdict(res):
    """(correct, failed) after the digest and coverage checks."""
    failed = res["failed"] + check_digests(res)
    correct = failed == 0 and res["exit_code"] == 0 and coverage_ok(res)
    return correct, failed


def single_run(args):
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    binary = build()
    res = run_bench(binary, args.workload, args.seed, args.seconds,
                    args.trace == 1)
    correct, failed = verdict(res)
    wanted = s["per_layer"] if args.trace == 1 else s["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        fail(f"{args.workload}: metrics not emitted: {missing}")
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine():
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or "?",
            "compiler": "?"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            out = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout
            info["compiler"] = out.splitlines()[0] if out else cxx
    return info


def full_set(args):
    s = spec()
    e2e = s["end_to_end"]
    workloads = [w["name"] for w in s["workloads"]]
    seconds = args.seconds if args.seconds is not None else s["run_seconds"]
    binary = build()
    values = {w: {m["name"]: [] for m in e2e} for w in workloads}
    ok = True
    started = time.monotonic()
    for r in range(args.runs):
        for w in workloads:  # interleaved: W1 r1, W2 r1, ...
            res = run_bench(binary, w, r + 1, seconds, False)
            correct, _ = verdict(res)
            ok &= correct
            for m in e2e:
                values[w][m["name"]].append(res["metrics"][m["name"]])
    traced = {}
    for w in workloads:
        res = run_bench(binary, w, 1, seconds, True)
        correct, _ = verdict(res)
        ok &= correct
        traced[w] = res["metrics"]
    report = {"machine": machine(), "runs": args.runs, "seconds": seconds,
              "seeds": f"1..{args.runs}", "elapsed_s": time.monotonic() - started,
              "correct": ok, "workloads": {}}
    for w in workloads:
        print(f"{w}")
        rows = {}
        for m in e2e:
            v = values[w][m["name"]]
            q1, med, q3 = quartiles(v)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else 0.0,
                               "values": v}
            print(f"  {m['name']:<14} {med:>14.6g} {m['unit']:<6} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {rows[m['name']]['spread']:.2%}")
        print("  traced:")
        for k, v in sorted(traced[w].items()):
            print(f"    {k:<30} {v:.6g}")
        report["workloads"][w] = {"end_to_end": rows, "traced": traced[w]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if not ok:
        fail("some runs were not correct")
    return 0


def load_set(path):
    """A --full-set output, or the last set of baseline.json."""
    data = json.loads(Path(path).read_text())
    return (data["sets"][-1] if "sets" in data else data)["workloads"]


def compare(args):
    s = spec()
    a, b = (load_set(p) for p in args.compare)
    worse = False
    print(f"{'workload':<12} {'metric':<12} {'A median':>12} {'A spread':>9} "
          f"{'B median':>12} {'B spread':>9} {'worse by':>8}  verdict")
    for w in a:
        for m in s["end_to_end"]:
            ra, rb = a[w]["end_to_end"][m["name"]], b[w]["end_to_end"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (rb["median"] - ra["median"]) / ra["median"]
            if max(ra["spread"], rb["spread"]) > m["bound"]:
                better_everywhere = all(sign * (x - y) < 0 for x in rb["values"]
                                        for y in ra["values"])
                v = "within-bound" if better_everywhere else "unresolved"
            elif worse_by > m["bound"]:
                v, worse = "worse", True
            else:
                v = "within-bound"
            print(f"{w:<12} {m['name']:<12} {ra['median']:>12.6g} "
                  f"{ra['spread']:>9.2%} {rb['median']:>12.6g} "
                  f"{rb['spread']:>9.2%} {worse_by:>+8.2%}  {v}")
    return 1 if worse else 0


def smoke(args):
    s = spec()
    binary = Path(args.bin) if args.bin else build()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    ok = True
    started = time.monotonic()
    for w in (w["name"] for w in s["workloads"]):
        # A traced run also makes one plain repetition, so it emits every
        # metric the benchmark names.
        res = run_bench(binary, w, 1, 0, True, smoke=True)
        correct, _ = verdict(res)
        missing = [n for n in names if n not in res["metrics"]]
        if missing:
            print(f"run.py: {w}: metrics not emitted: {missing}", file=sys.stderr)
        ok &= correct and not missing
        print(f"{w}: {'ok' if correct and not missing else 'FAILED'} "
              f"({res['attempted']} jobs, digests {res['digests']})")
    print(f"smoke: {time.monotonic() - started:.1f} s")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full-set", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin")
    args = p.parse_args()
    if args.compare:
        return compare(args)
    if args.smoke:
        return smoke(args)
    if args.full_set:
        return full_set(args)
    if not args.workload:
        p.error("--workload is required for a single run")
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
