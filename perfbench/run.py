#!/usr/bin/env python3
"""Builds and runs the scan-system benchmark (see BENCHMARK.json).

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the repository's library, its scan_server worker and
the benchmark program from source (perfbench/CMakeLists.txt, build tree
.bench_build/perfbench), runs one workload and prints the program's lines;
the last line is the JSON result. It also checks the run's report digest
against the one recorded for the same workload by earlier runs in this
checkout (.bench_build/digests): a workload's population and probes are
fixed and the seed only orders the scans, so every run of every seed must
reproduce the same reports; a different digest marks the result incorrect.
Every result is appended, with the machine fingerprint, to
.bench_build/results.jsonl.

--smoke runs every workload at minimal size in both modes and checks that
each metric BENCHMARK.json names is printed with its unit, that every
correctness check passes, and that the traced and untraced runs (on
different seeds) agree on the report digest.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_bench(workload, seed, seconds, trace, smoke):
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        for key in ("report_digest", "fingerprint"):
            prefix = "# %s: " % key
            if line.startswith(prefix):
                info[key] = line[len(prefix):]
    if "report_digest" not in info:
        raise RuntimeError("perfbench printed no report digest")
    return lines[:-1], result, info


def digest_consistent(workload, digest):
    """Records the first digest of a workload; later runs must match."""
    directory = os.path.join(ROOT, ".bench_build", "digests")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s.txt" % workload)
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == digest
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def run(args):
    build()
    lines, result, info = run_bench(args.workload, args.seed, args.seconds, args.trace, False)
    if not digest_consistent(args.workload, info["report_digest"]):
        lines.append("# report digest differs from an earlier run of this workload")
        result["correct"] = False
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": info.get("fingerprint", ""),
              "report_digest": info["report_digest"], "result": result}
    with open(os.path.join(ROOT, ".bench_build", "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            _, result, info = run_bench(workload, 1 + trace, 1, trace, True)
            digests.add(info["report_digest"])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            metrics = result["metrics"]
            for metric in names:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (label, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: metric %s has unit %s, BENCHMARK.json says %s" % (
                        label, metric["name"], got["unit"], metric["unit"]))
            extra = set(metrics) - {m["name"] for m in names}
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s" % (
                    label, ", ".join(sorted(extra))))
            print("smoke: %s ok=%s" % (label, result["correct"]), file=sys.stderr)
        if len(digests) != 1:
            problems.append("%s: traced and untraced report digests differ" % workload)
    for problem in problems:
        print("smoke: FAIL " + problem, file=sys.stderr)
    print("smoke: %s" % ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as error:
        print("run.py: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
