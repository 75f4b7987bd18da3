#!/usr/bin/env python3
"""Benchmark entry point: build the program from this checkout, run one
workload once, check its output, and print the result as one JSON line.

    python3 perfbench/run.py --workload s2t-batch --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run builds the program and the
benchmark with sbt; later runs reuse the build while the sources are
unchanged. `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones. Each run also writes a result file under
perfbench/results/ with the conditions it ran under.

    python3 perfbench/run.py --selftest    # the benchmark's own unit tests
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "perfbench-classpath.txt")
RUN_LIMIT_S = 170
HEAP = "3g"
# The layers each workload calls, as metric-name prefixes. A traced run must
# measure every per-layer metric of these; a metric of another layer reads 0.
LAYERS = {
    "s2t-batch": ("traj.", "voting.", "sampling.", "clustering.", "core.s2t", "eval."),
    "insert-query": ("traj.", "retratree.", "core.qut"),
}
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "sun.nio.ch", "sun.nio.cs",
              "sun.security.action", "sun.util.calendar"]
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads from this checkout, sorted."""
    roots = [PROGRAM_SRC, os.path.join(HERE, "src", "main"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    return env


def build(src_hash):
    """Compile with sbt unless the last build was of these same sources;
    return the runtime classpath."""
    if os.path.exists(CLASSPATH):
        with open(CLASSPATH) as fh:
            stamp, cp = fh.read().split("\n", 1)
        if stamp == src_hash:
            return cp.strip()
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=800)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(src_hash + "\n" + lines[-1])
    return lines[-1]


def git_hash():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def run_jvm(cp, args, work_dir, deadline):
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)  # would override spark.local.dir
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + work_dir] + JAVA_OPENS +
           ["-cp", cp, "repro.perfbench.Main"] + args)
    proc = subprocess.Popen(cmd, cwd=work_dir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        fail("run stopped", 1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, err = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        stop()
    return proc.returncode, out, err


def cpu_times():
    """Aggregate CPU ticks from /proc/stat: (steal, total), or None."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail("no program sources at src/main/scala/repro; run from the root of a full checkout")
    if a.selftest:
        sys.exit(subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "test"],
                                cwd=HERE, env=sbt_env()).returncode)
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names or a.workload not in LAYERS:
        fail("unknown workload %r; known: %s" % (a.workload, ", ".join(names)))

    src_hash = source_hash()
    cp = build(src_hash)
    started = time.time()
    cores = len(os.sched_getaffinity(0))
    work_dir = os.path.join(HERE, "work", "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cpu0 = cpu_times()
    try:
        code, out, err = run_jvm(cp, ["--workload", a.workload, "--seed", str(a.seed),
                                      "--seconds", str(a.seconds), "--trace", str(a.trace),
                                      "--cores", str(cores), "--work-dir", work_dir],
                                 work_dir, started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    cpu1 = cpu_times()
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if code != 0 or not lines:
        sys.stderr.write(err[-4000:])
        fail("workload run failed (exit %d)" % code, 1)
    res = json.loads(lines[-1])

    kind = "per_layer" if a.trace else "end_to_end"
    measured = res[kind]
    metrics = {}
    for m in spec[kind]:
        v = measured.get(m["name"])
        if v is None or not math.isfinite(v):
            if a.trace and not m["name"].startswith(LAYERS[a.workload]):
                v = 0.0  # a layer this workload does not call
            else:
                res["correct"] = False
                res["detail"].setdefault("failures", []).append("metric %s not measured" % m["name"])
                continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    result = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
              "failed": int(res["failed"]), "metrics": metrics}
    record = dict(result)
    record["conditions"] = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "git_hash": git_hash(), "source_sha256": src_hash, "nproc": cores,
        "spark_conf": res["detail"].get("spark_conf"), "java": res["detail"].get("java"),
        "max_heap_mb": res["detail"].get("max_heap_mb"),
        "run_wall_s": round(time.time() - started, 3),
        # CPU time the hypervisor gave to other guests while this run wanted it
        "cpu_steal_frac": (cpu1[0] - cpu0[0]) / max(1, cpu1[1] - cpu0[1]) if cpu0 and cpu1 else None,
    }
    record["detail"] = res["detail"]
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    if a.trace:
        plain = os.path.join(results, "%s-seed%d-trace0.json" % (a.workload, a.seed))
        if os.path.exists(plain) and a.workload == "s2t-batch":
            with open(plain) as fh:
                untraced = json.load(fh)["metrics"]["op_ms_p50"]["value"]
            record["tracing_overhead_ms"] = measured.get("core.s2t_traced_ms", 0.0) - untraced
    with open(os.path.join(results, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
