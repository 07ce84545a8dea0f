#!/usr/bin/env python3
"""Benchmark of the ten SPARQL-on-Spark engines (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload shapes --seed 11 --seconds 8 --trace 0
    python3 perfbench/run.py --smoke

The first run builds the benchmark (sbt, offline) and caches the resulting
classpath under perfbench/.work/; later runs start the JVM directly. The last
line of standard output is the result JSON.
"""
import argparse
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# Sources whose change requires a rebuild: the program and the benchmark.
SOURCES = ["src/main", "jobs", "build.sbt", "project/build.properties",
           "perfbench/src", "perfbench/build.sbt", "perfbench/project/build.properties"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SMOKE_TIMEOUT_S = 600
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Spark on JDK 17 needs the same opens that spark-submit passes.
JDK_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_hash():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        if not os.path.exists(path):
            raise SystemExit(f"[perfbench] missing {rel}: run from the root of a checkout of the repository")
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_child(cmd, cwd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout or on
    any exit of ours, and waits for it."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[0]}")
        return 124, None
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()


def classpath(stamp):
    cp_file = os.path.join(WORK, "classpath.txt")
    stamp_file = os.path.join(WORK, "classpath.stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    log("building (sbt, offline) ...")
    opts = os.environ.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["SBT_OPTS"] = f"{opts} -Djava.io.tmpdir={tmp}".strip()
    os.environ.setdefault("COURSIER_MODE", "offline")
    code, out = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true",
                           "export perfbench/Runtime/fullClasspath"],
                          HERE, BUILD_TIMEOUT_S, subprocess.PIPE)
    lines = [l for l in (out or "").splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(l for l in lines[-40:] if len(l) < 2000) + "\n")
        raise SystemExit(f"[perfbench] build failed (exit {code})")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def run_jvm(args, stamp, timeout=RUN_TIMEOUT_S):
    cp = classpath(stamp)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # No hsperfdata file in the system temp directory: the run writes only
    # inside the checkout.
    cmd = [java, "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", *JDK_OPENS,
           "-cp", cp, "perfbench.Main", "--work-dir", WORK,
           "--commit", commit(), "--source-hash", stamp, *args]
    code, out = run_child(cmd, ROOT, timeout, subprocess.PIPE)
    if code != 0:
        raise SystemExit(f"[perfbench] benchmark JVM failed (exit {code})")
    return out.splitlines()


def declared():
    """BENCHMARK.json's workloads, and its metric units by name for untraced
    (False) and traced (True) runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return [w["name"] for w in b["workloads"]], {
        False: {m["name"]: m["unit"] for m in b["end_to_end"]},
        True: {m["name"]: m["unit"] for m in b["per_layer"]}}


def check_result(res, expected_units):
    """Problems with one result object, as a list of strings."""
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append(f"attempted = {res['attempted']}")
    got = res["metrics"]
    for name in sorted(set(expected_units) - set(got)):
        problems.append(f"metric {name} not emitted")
    for name in sorted(set(got) - set(expected_units)):
        problems.append(f"metric {name} not declared")
    for name, m in got.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"metric {name} value {v!r}")
        if name in expected_units and m.get("unit") != expected_units[name]:
            problems.append(f"metric {name} unit {m.get('unit')!r}, declared {expected_units[name]!r}")
    return problems


def smoke(stamp):
    """Tiny runs of every workload, traced and untraced: each declared metric
    is emitted with its unit and a well-formed name, no run fails, and a run
    given one wrong expected result counts it as a failure."""
    workloads, units = declared()
    problems = []
    for name in list(units[False]) + list(units[True]):
        if not NAME_RE.match(name):
            problems.append(f"declared metric name {name!r}")
    lines = [l for l in run_jvm(["--smoke", "--sf", "0.002", "--seconds", "1"], stamp,
                                timeout=SMOKE_TIMEOUT_S)
             if l.startswith("smoke ")]
    seen = set()
    for line in lines:
        _, label, payload = line.split(" ", 2)
        res = json.loads(payload)
        seen.add(label)
        if label.endswith("/corrupt"):
            if res["failed"] < 1 or res["correct"]:
                problems.append(f"{label}: a wrong expected row set was not counted as a failure")
            continue
        traced = label.endswith("tracetrue")
        problems += [f"{label}: {p}" for p in check_result(res, units[traced])]
        if res.get("failed") != 0:
            problems.append(f"{label}: {res.get('failed')} failed executions")
    wanted = {f"{w}/trace{t}" for w in workloads for t in ("false", "true")} | {"shapes/corrupt"}
    if seen != wanted:
        problems.append(f"smoke runs {sorted(seen)}, expected {sorted(wanted)}")
    for p in problems:
        log(f"SMOKE FAIL {p}")
    log("smoke test passed" if not problems else f"smoke test failed ({len(problems)} problems)")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own smoke test")
    a = ap.parse_args()
    stamp = source_hash()
    if a.smoke:
        return smoke(stamp)
    if not a.workload:
        ap.error("--workload is required")
    lines = run_jvm(["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                     "--trace", str(a.trace)], stamp)
    res = json.loads(lines[-1])
    problems = check_result(res, declared()[1][a.trace == 1])
    if problems:
        for p in problems:
            log(p)
        raise SystemExit("[perfbench] malformed result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
