#!/usr/bin/env python3
"""Builds and runs the SI-Rep real-CPU benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The program is built from ../src into
.bench_build/perfbench (CMake, RelWithDebInfo); build output goes to
stderr. The benchmark's own output goes to stdout, and its last line is
the JSON result. Exits non-zero, without a result line, when the build,
a correctness check or the result's shape fails.

An untraced run measures in windows of --seconds / WINDOWS, each in its
own process on a fresh cluster, and reports the median of each figure
over WINDOWS of them: most of the run-to-run spread comes from the
process, not the window.

On a shared machine other guests (steal) and other processes take CPU
in bursts of seconds to minutes, and a window they hit measures them,
not the program. Each window reports the share of machine CPU time they
took during it (its interference). While fewer than WINDOWS windows have
at most MAX_INTERFERENCE, more are measured, as long as the run stays
within its allowance, and the WINDOWS least interfered with are
reported. A run is never failed for noise.

The allowance is RUN_BUDGET_S after the build plus what earlier runs in
the same checkout left of theirs (kept in .bench_build/time_bank.json,
at most BANK_MAX_S; a checkout starts with BANK_START_S), up to
MAX_RUN_S. A quiet run needs only WINDOWS windows and saves time; a run
in a burst can spend it to wait the burst out. So all untraced runs of
a checkout together take at most RUN_BUDGET_S each after the build,
plus BANK_START_S once, however the noise falls.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler and benchmark temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
BUILD_TIMEOUT_S = 850
WINDOWS = 3
MAX_WINDOWS = 24
MAX_INTERFERENCE = 0.02
RUN_BUDGET_S = 40
MAX_RUN_S = 150
BANK_MAX_S = 900
BANK_START_S = 150
BANK = os.path.join(ROOT, ".bench_build", "time_bank.json")
# Hard limit on the processes of any run after the build, within 180 s.
RUN_DEADLINE_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"program sources not found under {ROOT}/src")
        return False
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=ENV, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if result["correct"] is not True or result["attempted"] < 1:
        return "result is not a correct run"
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def process_timeout(seconds, trace):
    """A generous limit for one benchmark process: a traced one measures
    three windows, an untraced one a single window; each window has a
    1 s warm-up, and set-ups, loads and checks get a fixed margin."""
    return 60 + (3 if trace else 1) * (seconds + 1) * 2


def tagged_words(lines, key):
    """The words after `# <key>` in a process's output."""
    for line in lines:
        if line.startswith(f"# {key} "):
            return line.split()[2:]
    raise ValueError(f"no '# {key}' line")


def read_bank():
    if not os.path.exists(BANK):
        return BANK_START_S
    try:
        with open(BANK) as f:
            return min(BANK_MAX_S, max(0.0, float(json.load(f)["seconds"])))
    except (OSError, ValueError, KeyError, TypeError):
        return 0.0


def write_bank(seconds):
    tmp = BANK + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"seconds": min(BANK_MAX_S, max(0.0, seconds))}, f)
    os.replace(tmp, BANK)


def least_interfered(shares, keep):
    """Indices of the `keep` least-interfered windows, in measured order."""
    order = sorted(range(len(shares)), key=lambda i: (shares[i], i))
    return sorted(order[:keep])


def combine(windows):
    """One result from several windows' (interference, set-up times,
    result): the median of each metric over the least-interfered
    windows; setup_s is the median of every set-up; attempted and failed
    add up."""
    kept = least_interfered([w[0] for w in windows], WINDOWS)
    metrics = {}
    for name, m in windows[0][2]["metrics"].items():
        values = [windows[i][2]["metrics"][name]["value"] for i in kept]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    metrics["setup_s"]["value"] = statistics.median(
        [t for w in windows for t in w[1]])
    return kept, {"correct": True,
                  "attempted": sum(w[2]["attempted"] for w in windows),
                  "failed": sum(w[2]["failed"] for w in windows),
                  "metrics": metrics}


def selftest_combine():
    def window(share, tps, setups):
        return (share, setups, {"attempted": 10, "failed": 0, "metrics": {
            "commit_tps": {"value": tps, "unit": "1/s"},
            "setup_s": {"value": 0.0, "unit": "s"}}})
    # The noisy second window is dropped; set-ups of all windows count.
    kept, r = combine([window(0.0, 10.0, [1.0]), window(0.3, 1.0, [9.0]),
                       window(0.01, 30.0, [2.0]), window(0.0, 20.0, [3.0])])
    assert kept == [0, 2, 3], kept
    assert r["metrics"]["commit_tps"]["value"] == 20.0, r
    assert r["metrics"]["setup_s"]["value"] == 2.5, r
    assert r["attempted"] == 40 and r["failed"] == 0, r
    assert least_interfered([0.5, 0.1], 3) == [0, 1]
    print("run.py self-tests passed")


def run_process(cmd, timeout):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=ENV, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"benchmark process did not finish within {timeout:.0f} s")
        return 3, []
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=9)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        selftest_combine()
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              env=ENV, timeout=600).returncode
    window_s = max(1, round(args.seconds / WINDOWS))
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(window_s),
           "--trace", str(args.trace), "--source-id", source_id()]
    timeout = process_timeout(window_s, args.trace)
    start = time.monotonic()
    bank = read_bank()
    allowance = min(MAX_RUN_S, RUN_BUDGET_S + bank)
    took = 0.0  # the longest window process so far
    windows = []  # (interference, set-up times, result) per process
    while True:
        began = time.monotonic()
        rc, lines = run_process(
            cmd, min(timeout, start + RUN_DEADLINE_S - began))
        if rc != 0:
            sys.stdout.write("\n".join(lines) + "\n")
            log(f"benchmark process exited with {rc}")
            return rc if rc > 0 else 1
        error = check_result(lines[-1], bool(args.trace))
        if error:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            log(error)
            return 1
        if args.trace:
            sys.stdout.write("\n".join(lines) + "\n")
            return 0
        share = float(tagged_words(lines, "interference_share")[0])
        setups = [float(v) for v in tagged_words(lines, "setup_s_each")]
        windows.append((share, setups, json.loads(lines[-1])))
        print(f"# window {len(windows)}, interference {share:.4f}")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        quiet = sum(1 for w in windows if w[0] <= MAX_INTERFERENCE)
        took = max(took, time.monotonic() - began)
        if (quiet >= WINDOWS or len(windows) >= MAX_WINDOWS
                or (len(windows) >= WINDOWS
                    and time.monotonic() + took > start + allowance)):
            break
    used = time.monotonic() - start
    write_bank(bank + RUN_BUDGET_S - used)
    kept, result = combine(windows)
    print(f"# reported: median over windows {[i + 1 for i in kept]} "
          f"of {len(windows)}, setup_s over every set-up; {used:.1f} s "
          f"of an allowance of {allowance:.1f} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running
    # build or benchmark process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
