#!/usr/bin/env python3
"""XingTian-CPP benchmark: one run of one workload.

    python3 perfbench/run.py --workload ppo_paper_nic --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the sources under src/ plus the perfbench_xt
measuring program) into .bench_build/perfbench; later runs only check the
build.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is the
separate traced run: an untraced and a traced end-to-end run of half the
size each, plus the layer replay, give the per-layer metrics. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is non-zero when the build fails, a process fails or
times out, or an output check fails. README.md documents every metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("ppo_paper_nic", "channel_fanin_256k")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_xt")

# One child process may take at most this long; the whole run stays
# inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 120
# Set-ups per run; their median is setup_s.
SETUP_REPS = {"ppo_paper_nic": 7, "channel_fanin_256k": 21}
# ppo_paper_nic: the learner gets 3 rollouts per iteration and a run needs
# at least 200 latency samples, so it runs at least 67 iterations.
PPO_MIN_ITERATIONS = 67
PPO_ITERATIONS_PER_S = 3.5
CHANNEL_MESSAGES_PER_SENDER_PER_S = 150


# Per-layer metrics of the traced run, with their units (README.md maps
# each one to the end-to-end metric and workload it should move).
PER_LAYER_UNITS = {
    "common.sleep_cpu_per_modelled_s": "s/s",
    "common.crc32_mb_per_s": "MB/s",
    "serial.rollout_serialize_ms": "ms",
    "serial.rollout_deserialize_ms": "ms",
    "serial.wire_frame_encode_us": "us",
    "serial.wire_frame_decode_us": "us",
    "comm.store_put_fetch_us": "us",
    "comm.local_hop_us": "us",
    "comm.send_call_us": "us",
    "netsim.pipe_overhead_us": "us",
    "netsim.link_utilization": "share",
    "compress.weights_encode_ms": "ms",
    "compress.weights_decode_ms": "ms",
    "framework.weights_delivery_ms_mean": "ms",
    "nn.mlp_forward_train_ms": "ms",
    "nn.mlp_backward_ms": "ms",
    "nn.adam_step_ms": "ms",
    "nn.infer_us": "us",
    "nn.gemm_gflops": "GFLOP/s",
    "algo.ppo_train_ms": "ms",
    "envs.step_us": "us",
    "envs.step_frame_us": "us",
    "framework.learner_train_share": "share",
    "framework.explorer_rollout_ms_mean": "ms",
    "framework.explorer_weights_wait_ms_mean": "ms",
    "framework.useful_step_ratio": "ratio",
    "framework.messages_per_item": "count",
    "framework.bytes_per_item": "B",
    "framework.gemm_flops_per_item": "flop",
    "reconcile.explained_cpu_share": "share",
    "obs.tracing_overhead": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench_xt; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def child(*args):
    """Run perfbench_xt once; its last stdout line as a dict, or None."""
    cmd = [BINARY] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("no output (exit %d): %s" % (proc.returncode, " ".join(cmd)))
        return None
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct"):
        log("output check failed (exit %d): %s: %s"
            % (proc.returncode, " ".join(cmd), result.get("errors", "")))
        result["correct"] = False
    return result


def work_for(workload, seconds):
    if workload == "ppo_paper_nic":
        return max(PPO_MIN_ITERATIONS, math.ceil(PPO_ITERATIONS_PER_S * seconds))
    return max(100, round(CHANNEL_MESSAGES_PER_SENDER_PER_S * seconds))


def window_medians(run):
    """Median items/s and CPU us per item over the run's progress windows
    (PPO: one learner iteration; channel: 30 delivered messages)."""
    wall, cpu, items = run["progress_wall"], run["progress_cpu"], run["progress_items"]
    rates, cpu_per_item = [], []
    for i in range(1, len(wall)):
        done = items[i] - items[i - 1]
        if done <= 0 or wall[i] <= wall[i - 1]:
            continue
        rates.append(done / (wall[i] - wall[i - 1]))
        cpu_per_item.append((cpu[i] - cpu[i - 1]) / done * 1e6)
    return statistics.median(rates), statistics.median(cpu_per_item)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    setups = child("setup", workload, seed, SETUP_REPS[workload])
    run = child("e2e", workload, seed, work_for(workload, seconds), 0)
    if setups is None or run is None:
        return None
    if not (setups["correct"] and run["correct"]):
        return False, run["attempted"], run["failed"], {}, {"errors": run["errors"]}
    items_per_s, cpu_us = window_medians(run)
    metrics = {
        "items_per_s": metric(items_per_s, "1/s"),
        "cpu_us_per_item": metric(cpu_us, "us"),
        "msg_latency_p50_ms": metric(run["latency_p50_ms"], "ms"),
        "msg_latency_p95_ms": metric(run["latency_p95_ms"], "ms"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MiB"),
        "setup_s": metric(statistics.median(setups["setup_s"]), "s"),
    }
    detail = {"items": run["items"], "latency_samples": run["latency_samples"],
              "setups": len(setups["setup_s"]), "rss_after_setup": run["rss_after_setup"],
              "errors": run["errors"]}
    return True, run["attempted"], run["failed"], metrics, detail


def explained_cpu_share(run, costs):
    """Replayed per-call CPU x the run's registry call counts, as a share of
    the run's measured process CPU (README.md, "Reconciliation")."""
    explained = (
        run["modelled_s"] * costs["sleep_cpu_per_modelled_s"]
        + run["messages_received"] * costs["local_hop"]
        + run["pipe_frames"] * costs["wire_frame"]
        + run["harness_s"])
    if run["workload"] == "ppo_paper_nic":
        explained += (
            run["env_steps"] * costs["explorer_step"]
            + run["rollout_messages"] * (costs["rollout_serialize"]
                                         + costs["rollout_deserialize"])
            + run["train_sessions"] * costs["ppo_train"]
            + run["weight_broadcasts"] * costs["weights_encode"]
            + run["weights_applied"] * costs["weights_decode"])
    return explained / run["run_cpu_s"]


def traced(workload, seed, seconds):
    work = max(1, work_for(workload, seconds) // 2)
    plain = child("e2e", workload, seed, work, 0)
    traced_run = child("e2e", workload, seed, work, 1)
    spans = os.path.join(BUILD_DIR, "spans-%s-%d.json" % (workload, seed))
    replay = child("replay", workload, seed, spans)
    if plain is None or traced_run is None or replay is None:
        return None
    if not (plain["correct"] and traced_run["correct"] and replay["correct"]):
        return False, plain["attempted"], plain["failed"], {}, {}
    plain_rate, _ = window_medians(plain)
    traced_rate, _ = window_medians(traced_run)

    costs = {k[2:]: v for k, v in replay.items() if k.startswith("c:")}
    values = {k[2:]: v for k, v in replay.items() if k.startswith("m:")}
    items = plain["items"]
    values.update({
        "netsim.link_utilization": plain["pipe_wire_bytes"] / plain["link_capacity_bytes"],
        "framework.weights_delivery_ms_mean": plain["weights_delivery_ms_mean"],
        "framework.learner_train_share": plain["learner_train_share"],
        "framework.explorer_rollout_ms_mean": plain["explorer_rollout_ms_mean"],
        "framework.explorer_weights_wait_ms_mean": plain["explorer_weights_wait_ms_mean"],
        "framework.useful_step_ratio": plain["useful_step_ratio"],
        "framework.messages_per_item": plain["messages_sent"] / items,
        "framework.bytes_per_item": plain["bytes_sent"] / items,
        "framework.gemm_flops_per_item": plain["gemm_flops"] / items,
        "reconcile.explained_cpu_share": explained_cpu_share(plain, costs),
        "obs.tracing_overhead": plain_rate / traced_rate,
    })
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    detail = {"spans_file": spans, "spans": replay["spans"],
              "traced_items_per_s": traced_rate, "untraced_items_per_s": plain_rate}
    return True, plain["attempted"], plain["failed"], metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1
    measure = traced if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds)
    if result is None:
        return 1
    correct, attempted, failed, metrics, detail = result
    log("detail: " + json.dumps(detail))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
