#!/usr/bin/env python3
"""Folds google-benchmark JSON output into BENCH_summary.json.

CI runs several bench binaries and archives each raw JSON; this script
reduces them to the handful of headline numbers a human (or a trend
dashboard) actually tracks per commit:

  * the thread farm's wall-clock sims/sec at 1 worker and at 8 workers,
    from BM_ThreadFarmRunAll — the repo's throughput headline;
  * the fork-based process backend's wall-clock sims/sec at 1 and 8
    workers (BM_ProcessFarmRunAll) — informational, no regression gate:
    the pipe-protocol overhead is the price of crash isolation, and its
    cost profile is workload-shaped rather than code-shaped;
  * the --timeline sampling cost (BM_TimeSeriesSample);
  * one fine-grained optimizer iteration per backend (BM_EvalBatchFine:
    61 ifu points x 4 sims on 4 workers, microseconds of real time) —
    informational, when bench_eval_batch ran;
  * the process backend's pipe-frame codec at that batch's shape
    (BM_FrameCodec/request: a 61-point request, BM_FrameCodec/response:
    a 16-partial response; one encode and decode each, microseconds of
    real time) — informational, when it ran;
  * each unit kernel's microseconds of real time per simulation, from
    BM_DuvStep/<unit>'s items/sec — informational, when it ran;
  * the checkpoint journal's microseconds of real time per record, per
    stage dimension: what the optimizer waits for (serialize + append,
    BM_CheckpointJournalAppend/caller) and what a record takes until it
    is synced (append + close, BM_CheckpointJournalAppend/durable) —
    informational, when they ran;
  * per-benchmark medians (real time + items/sec) across every input
    file, so repeated or re-run benches aggregate instead of clobbering.

Stdlib only — CI must not need a pip install. Exits non-zero when a
required headline benchmark is missing from the inputs, so a silently
renamed bench fails the pipeline instead of producing a hollow summary.

Usage: bench_summary.py -o BENCH_summary.json BENCH_a.json [BENCH_b.json ...]
"""

import argparse
import json
import re
import statistics
import sys

SCHEMA = "ascdg-bench-summary-v1"

# Headline benches the summary cannot do without. The farm benches carry
# google-benchmark's /real_time suffix (UseRealTime): wall-clock sims/sec
# is the headline, not the CPU time of a caller blocked in run_all.
REQUIRED = [
    "BM_ThreadFarmRunAll/1/real_time",
    "BM_ThreadFarmRunAll/8/real_time",
    "BM_TimeSeriesSample",
]

# google-benchmark appends aggregate suffixes when repetitions are on;
# fold them into the base name and let the median handle the rest.
AGGREGATE_RE = re.compile(r"_(mean|median|stddev|cv|min|max)$")

# BM_DuvStep/<unit>/real_time: one 64-sim simulate_batch of a unit.
DUV_STEP_RE = re.compile(r"^BM_DuvStep/([^/]+)/real_time$")

# BM_CheckpointJournalAppend/<caller|durable>/<dim>[/iterations:N]/real_time.
JOURNAL_RE = re.compile(
    r"^BM_CheckpointJournalAppend/(caller|durable)/(\d+)"
    r"(?:/iterations:\d+)?/real_time$"
)

# google-benchmark time units, in microseconds.
US_PER_UNIT = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


def load_entries(paths):
    """Yields (name, entry) for every non-aggregate benchmark record."""
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        for entry in doc.get("benchmarks", []):
            if entry.get("run_type") == "aggregate":
                continue
            name = AGGREGATE_RE.sub("", entry["name"])
            yield name, entry


def median_of(entries, key):
    values = [e[key] for e in entries if key in e]
    return statistics.median(values) if values else None


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", help="benchmark JSON files")
    parser.add_argument("-o", "--output", default="BENCH_summary.json")
    args = parser.parse_args(argv)

    by_name = {}
    for name, entry in load_entries(args.inputs):
        by_name.setdefault(name, []).append(entry)
    if not by_name:
        print("bench_summary: no benchmark records in inputs", file=sys.stderr)
        return 1

    missing = [name for name in REQUIRED if name not in by_name]
    if missing:
        print(
            "bench_summary: required benchmarks missing: " + ", ".join(missing),
            file=sys.stderr,
        )
        return 1

    medians = {}
    for name in sorted(by_name):
        entries = by_name[name]
        record = {
            "runs": len(entries),
            "real_time": median_of(entries, "real_time"),
            "time_unit": entries[0].get("time_unit", "ns"),
        }
        items = median_of(entries, "items_per_second")
        if items is not None:
            record["items_per_second"] = items
        medians[name] = record

    def thread_farm(workers):
        return median_of(
            by_name["BM_ThreadFarmRunAll/%d/real_time" % workers],
            "items_per_second",
        )

    # Optional: the process backend rides along when its bench ran (it
    # is not in REQUIRED — older branches predate exec::ProcessFarm).
    def process_farm(workers):
        entries = by_name.get("BM_ProcessFarmRunAll/%d/real_time" % workers)
        return median_of(entries, "items_per_second") if entries else None

    # Optional: BM_EvalBatchFine rides along when bench_eval_batch ran.
    def eval_batch_fine(backend):
        entries = by_name.get("BM_EvalBatchFine/%s/real_time" % backend)
        return median_of(entries, "real_time") if entries else None

    # Optional: BM_FrameCodec/<side>, µs of real time per encode+decode.
    def frame_codec_us(side):
        entries = by_name.get("BM_FrameCodec/%s/real_time" % side)
        real_time = median_of(entries, "real_time") if entries else None
        if real_time is None:
            return None
        return real_time * US_PER_UNIT[entries[0].get("time_unit", "ns")]

    # Optional: kernel µs per simulation, per unit BM_DuvStep ran on.
    duv_us_per_sim = {}
    for name, entries in by_name.items():
        match = DUV_STEP_RE.match(name)
        sims_per_s = median_of(entries, "items_per_second") if match else None
        if sims_per_s:
            duv_us_per_sim[match.group(1)] = 1e6 / sims_per_s

    # Optional: checkpoint journal µs per record, per side and dimension.
    journal_us = {}
    for name, entries in by_name.items():
        match = JOURNAL_RE.match(name)
        real_time = median_of(entries, "real_time") if match else None
        if real_time is not None:
            unit = US_PER_UNIT[entries[0].get("time_unit", "ns")]
            journal_us.setdefault(match.group(1), {})[match.group(2)] = (
                real_time * unit
            )

    summary = {
        "schema": SCHEMA,
        "inputs": args.inputs,
        # The headline: wall-clock simulations per second through the
        # thread farm, serially and at the paper's 8-worker
        # configuration.
        "sims_per_sec_1_worker": thread_farm(1),
        "sims_per_sec_8_workers": thread_farm(8),
        # Fork-based process backend throughput (None when the bench did
        # not run). Tracked for trend visibility only — never gated.
        "process_sims_per_sec_1_worker": process_farm(1),
        "process_sims_per_sec_8_workers": process_farm(8),
        "timeline_sample_ns": median_of(
            by_name["BM_TimeSeriesSample"], "real_time"
        ),
        # One ifu-fine optimizer iteration's evaluate_batch, per backend
        # (None when the bench did not run). Never gated.
        "eval_batch_fine_us": {
            "thread": eval_batch_fine("thread"),
            "process": eval_batch_fine("process"),
        },
        # The process backend's frame codec, µs per encode+decode of
        # one ifu-fine batch's request and one worker's response (None
        # when the bench did not run). Never gated.
        "frame_codec_us": {
            "request": frame_codec_us("request"),
            "response": frame_codec_us("response"),
        },
        # Unit kernel µs per simulation (BM_DuvStep/<unit>; empty when
        # the bench did not run). Never gated.
        "duv_us_per_sim": dict(sorted(duv_us_per_sim.items())),
        # Checkpoint journal µs per record: "caller" (serialize + append)
        # and "durable" (append + close), keyed by stage dimension;
        # either is absent when its bench did not run. Never gated.
        "checkpoint_journal_us": {
            side: dict(sorted(by_dim.items(), key=lambda kv: int(kv[0])))
            for side, by_dim in sorted(journal_us.items())
        },
        "medians": medians,
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=False)
        handle.write("\n")
    process_8w = summary["process_sims_per_sec_8_workers"]
    print(
        "bench_summary: %d benchmarks -> %s "
        "(thread 1w %.0f sims/s, 8w %.0f sims/s%s)"
        % (
            len(medians),
            args.output,
            summary["sims_per_sec_1_worker"] or 0.0,
            summary["sims_per_sec_8_workers"] or 0.0,
            ", process 8w %.0f sims/s" % process_8w if process_8w else "",
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
