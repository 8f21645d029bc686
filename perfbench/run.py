#!/usr/bin/env python3
"""The repository benchmark: one command over four at-scale workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `xqp` and the benchmark's own
helper (`perfbench/pb.exe`) from source with dune, generates the
workload's documents from the seed, packs them with the program (the
timed set-up), drives the workload's closed loop from outside the
program, checks every answer against the reference engine, and prints
one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, measured by a separate
traced run (spans kept in an Xqp_obs.Trace tracer owned by the benchmark
and written out as Chrome trace JSON under .perfbench/traces/). A line
before the result records the run's context: core count, OCaml version,
commit, seed, sizes, loop type and client count.

Any wrong answer, failed request or missing metric makes the command
exit non-zero.
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ["cold-3m", "warm-325k", "serve-325k", "corpus-10doc"]

# End-to-end figures printed in the context line rather than among the
# metrics (see run()).
CONTEXT_FIGURES = ("error_rate", "p99_ms")

# Which end-to-end metric (on which workload) each per-layer metric should
# move. BENCHMARK.json cannot carry this (its per_layer entries have a
# fixed key set), so it lives here and is printed with every traced run.
LAYER_TARGETS = {
    "store_io.read_ms": ("p50_ms", "cold-3m"),
    "store_io.load_ms": ("p50_ms", "cold-3m"),
    "store_io.save_ms": ("setup_s", "cold-3m"),
    "store_io.bytes_per_node": ("store_bytes_ratio", "cold-3m"),
    "session.open_ms": ("p50_ms", "cold-3m"),
    "session.rebuild_ms": ("p50_ms", "cold-3m"),
    "session.open_rss_mb": ("rss_mb", "cold-3m"),
    "executor.statistics_ms": ("p50_ms", "cold-3m"),
    "executor.store_ms": ("p50_ms", "cold-3m"),
    "executor.content_index_ms": ("p50_ms", "cold-3m"),
    "xpath.parse_us": ("p99_ms", "serve-325k"),
    "rewrite.simplify_us": ("p99_ms", "serve-325k"),
    "planner.compile_us": ("p99_ms", "serve-325k"),
    "plan_cache.hit_rate": ("p50_ms", "serve-325k"),
    "navigation.ms": ("qps", "warm-325k"),
    "nok.ms": ("qps", "warm-325k"),
    "path_stack.ms": ("qps", "warm-325k"),
    "twig_stack.ms": ("qps", "warm-325k"),
    "binary_join.default_ms": ("qps", "warm-325k"),
    "binary_join.best_ms": ("qps", "warm-325k"),
    "auto.ms": ("qps", "warm-325k"),
    "planner.auto_regret": ("qps", "warm-325k"),
    "planner.auto_misses": ("qps", "warm-325k"),
    "planner.q_error_max": ("qps", "warm-325k"),
    "executor.exec_ms": ("p50_ms", "warm-325k"),
    "pager.reads_per_query": ("p50_ms", "warm-325k"),
    "gc.minor_mb_per_query": ("p99_ms", "warm-325k"),
    "gc.major_per_1k_queries": ("p99_ms", "warm-325k"),
    "serializer.results_ms": ("p50_ms", "serve-325k"),
    "response.encode_ms": ("p50_ms", "serve-325k"),
    "xquery.run_ms": ("p50_ms", "serve-325k"),
    "server.queue_ms.p50": ("p50_ms", "serve-325k"),
    "server.queue_ms.p99": ("p99_ms", "serve-325k"),
    "server.exec_ms.p50": ("p50_ms", "serve-325k"),
    "server.overhead_ms.p50": ("p50_ms", "serve-325k"),
    "server.overhead_ms.p99": ("p99_ms", "serve-325k"),
    "server.busy_frac": ("qps", "serve-325k"),
    "server.rejected": ("qps", "serve-325k"),
    "server.cold_start_failures": ("error_rate", "serve-325k"),
    "client.cpu_frac": ("qps", "serve-325k"),
    "catalog.load_ms": ("setup_s", "corpus-10doc"),
    "scatter_gather.materialize_ms": ("p50_ms", "corpus-10doc"),
    "scatter_gather.run_ms": ("qps", "corpus-10doc"),
    "scatter_gather.shards_per_query": ("qps", "corpus-10doc"),
    "scatter_gather.pruned_frac": ("qps", "corpus-10doc"),
    "trace.overhead_frac": ("p50_ms", "warm-325k"),
}

SERVER_LAYERS = [name for name in LAYER_TARGETS if name.startswith("server.")]

# Set-up repetitions per run; the reported setup_s is their median.
# cold-3m packs 3.2M nodes (about 5 s), so it packs once per run.
SETUP_REPS = {"cold-3m": 1, "warm-325k": 9, "serve-325k": 5, "corpus-10doc": 7}

# Processes the reference answers are spread over: cold-3m's take
# seconds each on 3.2M nodes.
GEN_PARTS = {"cold-3m": 2, "warm-325k": 1, "serve-325k": 1, "corpus-10doc": 1}

P99_MIN_SAMPLES = 1000

RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 840.0

XQP = os.path.join("_build", "default", "bin", "xqp.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Children:
    """Every process the run starts, so each is stopped and reaped."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.live = []
        self.phases = {}

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def spawn(self, cmd, **kw):
        p = subprocess.Popen(cmd, **kw)
        self.live.append(p)
        return p

    def run(self, cmd, timeout=None):
        """Run to completion; returns (stdout text, wall seconds, rusage).
        Wall time accumulates per phase (the command's second word)."""
        timeout = min(timeout or RUN_BUDGET_S, self.remaining())
        t0 = time.perf_counter()
        p = self.spawn(cmd, stdout=subprocess.PIPE)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            p.stdout.close()
            self.live.remove(p)
        wall = time.perf_counter() - t0
        phase = os.path.basename(cmd[0]).split(".")[0] + " " + cmd[1]
        self.phases[phase] = self.phases.get(phase, 0.0) + wall
        if p.returncode != 0:
            raise BenchError("%s exited with %d" % (" ".join(cmd[:3]), p.returncode))
        return out.decode(), wall, usage

    def run_parallel(self, cmds):
        """Run side by side; the last JSON line of each, in order."""
        results = [None] * len(cmds)
        failures = []

        def one(k):
            try:
                results[k] = last_json(self.run(cmds[k])[0])
            except (BenchError, ValueError) as e:
                failures.append(e)

        threads = [threading.Thread(target=one, args=(k,)) for k in range(len(cmds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            raise failures[0]
        return results

    def stop(self, p, sig=signal.SIGTERM, grace=20.0):
        if p.poll() is None:
            p.send_signal(sig)
            try:
                p.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for stream in (p.stdout, p.stderr):
            if stream:
                stream.close()
        if p in self.live:
            self.live.remove(p)

    def stop_all(self):
        for p in list(self.live):
            self.stop(p, signal.SIGKILL)


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def build():
    for path in ("dune-project", os.path.join("bin", "xqp.ml"), os.path.join("perfbench", "pb.ml")):
        if not os.path.isfile(path):
            raise BenchError("run from the root of a checkout: %s is missing" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/xqp.exe", "./perfbench/pb.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("build failed")


def start_server(ch, store):
    """`xqp serve` on an ephemeral port; returns (process, port, seconds
    from spawn until /health answers 200)."""
    t0 = time.perf_counter()
    p = ch.spawn([XQP, "serve", "-f", store, "--domains", "2", "--port", "0"],
                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(min(60.0, ch.remaining()), p.kill)
    timer.start()
    try:
        line = p.stdout.readline()
    finally:
        timer.cancel()
    m = re.search(r"listening on [0-9.]+:(\d+)", line)
    if not m:
        raise BenchError("xqp serve did not start: %r" % line)
    port = int(m.group(1))
    while True:
        ch.remaining()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/health")
            resp = conn.getresponse()
            resp.read()
            conn.close()
            if resp.status == 200:
                break
        except OSError:
            pass
        time.sleep(0.005)
    return p, port, time.perf_counter() - t0


def store_bytes(work, workload):
    if workload == "corpus-10doc":
        return sum(os.path.getsize(os.path.join(work, f)) for f in os.listdir(work)
                   if f.startswith("corpus.") and (f.endswith(".xqdb") or f.endswith(".xqdbc")))
    return os.path.getsize(os.path.join(work, "doc.xqdb"))


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def e2e_metrics(setups, seg, rss_mb, ratio):
    return {
        "setup_s": statistics.median(setups),
        "p50_ms": seg["p50_ms"],
        "qps": seg["qps"],
        "rss_mb": rss_mb,
        "store_bytes_ratio": ratio,
    }


def layer_metrics(loop, layers):
    """The traced run's per-layer metrics: the probes of `pb layers`, plus
    what only the loop sees (cache outcomes, the server, the client)."""
    metrics = dict(layers["metrics"])
    untraced, traced = loop["segments"]["untraced"], loop["segments"]["traced"]
    metrics["plan_cache.hit_rate"] = untraced["hit_rate"]
    served = loop.get("server", {})
    for name in SERVER_LAYERS:
        metrics[name] = served.get(name, 0.0)
    metrics["client.cpu_frac"] = served.get("client.cpu_frac", loop["cpu_frac"])
    metrics["trace.overhead_frac"] = traced["p50_ms"] / untraced["p50_ms"] - 1.0
    return metrics


def run(args, ch, spec):
    workload, seed, traced = args.workload, args.seed, args.trace == 1
    work = os.path.join(".perfbench", "%s-s%d-p%d" % (workload, seed, os.getpid()))
    traces = os.path.join(".perfbench", "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    server = None
    try:
        parts = GEN_PARTS[workload]
        gen = ch.run_parallel([[PB, "gen", workload, str(seed), work, str(k), str(parts)]
                               for k in range(parts)])[0]
        docs = [os.path.join(work, d) for d in gen["docs"]]
        store = os.path.join(work, "corpus.xqdbc" if workload == "corpus-10doc" else "doc.xqdb")

        # set-up through the program, several times; the last one stays up
        setups, port = [], 0
        for _ in range(1 if traced else SETUP_REPS[workload]):
            if workload == "corpus-10doc":
                cmd = [XQP, "pack", "--corpus", "--shards", "4", "-o", store] + docs
            else:
                cmd = [XQP, "index", "-f", docs[0], "-o", store]
            setup = ch.run(cmd)[1]
            if workload == "serve-325k":
                if server:
                    ch.stop(server)
                server, port, started = start_server(ch, store)
                setup += started
            setups.append(setup)

        loop_cmd = [PB, "loop", workload, str(seed), work, str(args.seconds), "--xqp", XQP,
                    "--port", str(port)]
        loop_trace = os.path.join(traces, "%s-s%d-loop.json" % (workload, seed))
        if traced:
            loop_cmd += ["--trace-out", loop_trace]
        out, _, usage = ch.run(loop_cmd)
        loop = last_json(out)
        segments = list(loop["segments"].values())
        attempted = sum(s["attempted"] for s in segments)
        failed = sum(s["failed"] for s in segments)
        errors = [e for s in segments for e in s["errors"]]
        if attempted < 1:
            raise BenchError("no request was attempted: %s" % errors)

        if workload == "serve-325k":
            if loop["cold_start"]["failed"]:
                log("cold-start probe: %d of %d concurrent first requests failed: %s"
                    % (loop["cold_start"]["failed"], loop["cold_start"]["attempted"],
                       loop["cold_start"]["errors"]))
            rss_mb = vm_hwm_mb(server.pid)
            ch.stop(server)
            server = None
            for expect in ch.run_parallel([[PB, "expect", work, str(k), "2"] for k in range(2)]):
                failed += expect["mismatched_requests"]
                errors += expect["errors"]
        elif workload == "cold-3m":
            # wait4 reports the peak of the loop process and every `xqp
            # query` child it reaped; the loop process itself stays small
            rss_mb = usage.ru_maxrss / 1024.0
            if loop["rss_mb"] >= rss_mb:
                raise BenchError("loop process outgrew the queries it spawned")
        else:
            rss_mb = loop["rss_mb"]

        context = {
            "workload": workload,
            "seed": seed,
            "seconds": args.seconds,
            "traced": traced,
            "nproc": os.cpu_count(),
            "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]),
            "commit": command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
            "source_digest": source_digest(),
            "loop": "closed",
            "clients": loop["clients"],
            "documents": len(docs),
            "nodes": gen["nodes"],
            "xml_bytes": gen["xml_bytes"],
            "store_bytes": store_bytes(work, workload),
            "setup_samples_s": setups,
            "segments": loop["segments"],
            "plan_cache": loop.get("plan_cache"),
            "cold_start_probe": loop.get("cold_start"),
            "errors": errors[:10],
            "phases_s": ch.phases,
            "gen_phases_ms": gen["phases"],
        }

        if traced:
            if workload == "corpus-10doc":
                ch.run([XQP, "index", "-f", docs[0], "-o", os.path.join(work, "a0.xqdb")])
            layers_trace = os.path.join(traces, "%s-s%d-layers.json" % (workload, seed))
            layers = last_json(ch.run([PB, "layers", workload, str(seed), work,
                                       "--trace-out", layers_trace])[0])
            failed += len(layers["failures"])
            context["errors"] += layers["failures"][:10]
            dropped = loop["trace_dropped"] + layers["trace_dropped"]
            if dropped:
                raise BenchError("the tracer dropped %d spans" % dropped)
            metrics = layer_metrics(loop, layers)
            context.update({
                "trace_files": [loop_trace, layers_trace],
                "trace_spans": loop["trace_spans"] + layers["trace_spans"],
                "self_time": {"loop": loop["self_time"], "layers": layers["self_time"]},
                "tracing_overhead": {
                    "untraced": loop["segments"]["untraced"],
                    "traced": loop["segments"]["traced"],
                },
                "layer_targets": {k: {"metric": m, "workload": w} for k, (m, w) in LAYER_TARGETS.items()},
                "zero_valued": sorted(k for k, v in metrics.items() if v == 0.0),
            })
            wanted = spec["per_layer"]
        else:
            metrics = e2e_metrics(setups, loop["segments"]["untraced"], rss_mb,
                                  context["store_bytes"] / gen["xml_bytes"])
            wanted = spec["end_to_end"]
    finally:
        if server:
            ch.stop(server)
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise BenchError("metric names differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ set(names)))
    # Two end-to-end figures are printed here, not among the metrics:
    # error_rate is 0 on correct code, and a metric whose baseline is 0 has
    # no relative bound; p99_ms needs at least ten samples beyond it, which
    # cold-3m (4 requests) and serve-325k (about 600) never hold.
    context["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    untraced = context["segments"]["untraced"]
    context["p99_ms"] = {
        "value": untraced["p99_ms"] if untraced["samples"] >= P99_MIN_SAMPLES else None,
        "unit": "ms",
        "samples": untraced["samples"],
    }
    print(json.dumps({"context": context}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return failed == 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    ch = Children(time.monotonic() + RUN_BUDGET_S)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        build()
        ch.deadline = max(ch.deadline, time.monotonic() + RUN_BUDGET_S)
        ok = run(args, ch, spec)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        return 1
    finally:
        ch.stop_all()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
