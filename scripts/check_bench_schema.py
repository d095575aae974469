#!/usr/bin/env python3
"""Schema + perf-guard checker for BENCH_campaign.json.

CI runs this right after the quick-mode e16 harness.  It fails the build if

* the file is missing a section or a required key (schema drift — somebody
  renamed a field and the dashboards downstream would silently go blank), or
* periodic trains stopped paying for themselves: on the 16-train workload,
  train ticks/s must at least match the same tasks run as self-rescheduling
  one-shots on the same queue (``periodic_trains.trains_vs_oneshots >= 1.0``).

Quick-mode numbers are medians of three paired samples after a warmup (see
the bench's module doc), so the bar is meaningful rather than noise-gated.

Usage: check_bench_schema.py [path-to-BENCH_campaign.json]
"""

import json
import sys

# section -> keys that must be present (values must be non-null).
SCHEMA = {
    "event_queue": [
        "ops_per_workload",
        "samples",
        "workloads",
    ],
    "periodic_trains": [
        "trains",
        "ops_per_workload",
        "samples",
        "oneshot_ops_per_sec",
        "train_ops_per_sec",
        "trains_vs_oneshots",
    ],
    "volume_campaign": [
        "runs",
        "ops_per_workload",
        "samples",
        "chunk_size",
        "workers",
        "serial_runs_per_sec",
        "parallel_runs_per_sec",
        "parallel_nosink_runs_per_sec",
        "large_chunk_runs_per_sec",
        "bit_identical",
        "suspect_runs",
    ],
    "checkpointing": [
        "runs",
        "ops_per_workload",
        "samples",
        "runs_per_sec",
        "relative_to_plain",
        "bit_identical",
    ],
    "mixed_campaign": [
        "runs",
        "ops_per_workload",
        "samples",
        "families",
        "runs_per_sec",
        "suspect_runs",
    ],
    "telemetry": [
        "runs",
        "ops_per_workload",
        "samples",
        "detached_runs_per_sec",
        "detached_relative_to_plain",
        "traced_runs_per_sec",
        "trace_bytes",
        "bit_identical",
    ],
}

WORKLOAD_KEYS = ["resident", "trains", "ops_per_sec"]


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_campaign.json"
    with open(path) as fh:
        doc = json.load(fh)

    errors = []

    for key in ("bench", "quick"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")

    for section, keys in SCHEMA.items():
        obj = doc.get(section)
        if not isinstance(obj, dict):
            errors.append(f"missing section {section!r}")
            continue
        for key in keys:
            if obj.get(key) is None:
                errors.append(f"{section}.{key} missing or null")

    workloads = doc.get("event_queue", {}).get("workloads") or []
    if not workloads:
        errors.append("event_queue.workloads is empty")
    for i, wl in enumerate(workloads):
        for key in WORKLOAD_KEYS:
            if not isinstance(wl, dict) or wl.get(key) is None:
                errors.append(f"event_queue.workloads[{i}].{key} missing or null")

    # Perf guard: trains must pay for themselves (see ARCHITECTURE.md,
    # "Event core").  The bar matches the full-mode assert inside the bench.
    if not errors:
        pt = doc["periodic_trains"]
        if pt["trains_vs_oneshots"] < 1.0:
            errors.append(
                f"periodic_trains.trains_vs_oneshots {pt['trains_vs_oneshots']:.2f} < 1.0: "
                f"trains ({pt['train_ops_per_sec']:.3e} ticks/s) are slower than "
                f"one-shots ({pt['oneshot_ops_per_sec']:.3e} ticks/s); "
                "schedule_periodic no longer pays for itself"
            )
        for section in ("volume_campaign", "checkpointing", "telemetry"):
            if doc[section]["bit_identical"] is not True:
                errors.append(f"{section}.bit_identical is not true")
        for section in ("volume_campaign", "mixed_campaign"):
            if doc[section]["suspect_runs"] != 0:
                errors.append(f"{section}.suspect_runs != 0")

    if errors:
        for err in errors:
            print(f"BENCH_campaign.json: {err}", file=sys.stderr)
        return 1

    print(
        f"BENCH_campaign.json ok: trains at "
        f"{doc['periodic_trains']['trains_vs_oneshots']:.2f}x one-shots"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
