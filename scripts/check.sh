#!/usr/bin/env bash
# Full local gate: formatting, lints (deny warnings), the test suite
# (including the golden-artifact snapshots and the plan-,
# cache-equivalence, cluster-chaos, batched-GET and adaptive-planner
# differential suites), the register-conservation suite and its
# no-hand-copied-counts grep, a perfbench build + smoke run, the
# observability example (+ trace-JSON
# validity), a fast-mode repro run
# diffed against the committed reference output, a fixed-seed loadgen
# smoke run (latency tail + parallel-PE sweep) diffed the same way, the
# DRAM block-cache sweep gate, the cluster clients x devices scaling
# matrix (which also emits the machine-readable BENCH_loadgen.json and
# the merged multi-device Chrome trace), the fleet profile
# (BENCH_profile.json), the perf-regression gate against the committed
# reference artifacts, the explain subcommand, and the repro CLI's
# error paths.
# Run from anywhere; operates on the repo this script lives in.
# CHECK_SLOW=1 additionally runs the #[ignore]d long campaigns
# (queue-engine determinism sweep) via --include-ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "${CHECK_SLOW:-0}" = "1" ]; then
    echo "==> cargo test (including #[ignore]d slow campaigns)"
    cargo test --workspace -q -- --include-ignored
else
    echo "==> cargo test"
    cargo test --workspace -q
fi

echo "==> golden artifact snapshots are in sync"
# Redundant with the workspace test run above, but kept as an explicit,
# named gate: a drifted generator fails here even if someone filters
# the main test invocation.
cargo test -q -p ndp-core --test golden

echo "==> plan equivalence: every backend and stream count returns identical results"
# Also explicit and named: the planner/engine refactor is only safe
# while software, hardware, hybrid and parallel-PE plans agree with the
# BTreeMap model byte for byte.
cargo test -q -p nkv --test plan_equivalence

echo "==> cache equivalence: the block cache never changes results, only timing"
# Named for the same reason: the device-DRAM cache must stay invisible
# to every backend's bytes across clean and fault-injected runs.
cargo test -q -p nkv --test cache_equivalence

echo "==> cluster chaos: sharded reads survive device-level fault campaigns"
# Named gate for the fleet layer: hash/range-sharded clusters must stay
# byte-identical to a single device at N=1, serve survivors under
# hang/power-cut/link-loss, and walk the health FSM monotonically.
cargo test -q --test cluster_chaos

echo "==> batched-GET equivalence: key-list batches match the unbatched bytes"
# Named gate for the batched PE invocation layer: every backend x batch
# size x fault weather (ECC storms, PE hangs mid-batch, power-cut
# shards) must return the unbatched bytes with per-key typed errors,
# and a batch of one must be the legacy path.
cargo test -q --test batched_get_equivalence

echo "==> register conservation: the charged PE register traffic is the generated driver's"
# Named gate for the one register protocol (ndp_swgen::driver): job_io
# must count exactly what a real PeDriver performs, the cycle-accurate
# and fast-path engines must charge identical traffic on every PE shape,
# profile and op, and the Fig. 7(b) anchor must follow from those counts.
cargo test -q --test register_conservation

echo "==> no hand-copied register counts"
# Register counts come from the driver's protocol alone; timing
# constants restating them must not come back.
if grep -rn 'CFG_WRITES\|CFG_READS' crates/; then
    echo "error: hand-copied register counts (CFG_WRITES/CFG_READS) under crates/" >&2
    exit 1
fi

echo "==> adaptive planner equivalence: the cost-based tier choice never changes bytes"
# Named gate for the adaptive planner: whatever tier the cost model
# picks (cold or promoted, clean or under fault weather, single device
# or sharded cluster), the returned bytes must match every forced tier.
cargo test -q --test adaptive_equivalence

echo "==> perfbench builds against nkv's public API and passes a smoke run"
# The two-clock benchmark is a workspace of its own, so the workspace
# build above never compiles it; build it here and demand a correct,
# failure-free one-workload run (its last stdout line is the JSON).
cargo build --release --offline --manifest-path perfbench/Cargo.toml
perf_last=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload get-zipf --seed 101 --seconds 1 --trace 0 | tail -n 1)
echo "$perf_last" | grep -q '"correct": true'
echo "$perf_last" | grep -q '"failed": 0'

echo "==> nkv hot paths carry typed errors, not unwraps"
# The crate-level lint is the enforcement (the workspace clippy run
# above denies warnings, so any non-test unwrap/expect in nkv fails
# there); this named gate pins the attribute itself so it cannot be
# silently dropped.
grep -q 'cfg_attr(not(test), deny(clippy::unwrap_used))' crates/nkv/src/lib.rs
cargo clippy -q -p nkv --lib -- -D warnings

echo "==> profiling example + trace JSON validity"
cargo run --release --example profiling -- target/profile_trace.json > /dev/null
if command -v python3 > /dev/null; then
    python3 -m json.tool target/profile_trace.json > /dev/null
else
    # Poor man's sanity check when python3 is absent.
    head -c 16 target/profile_trace.json | grep -q '{"traceEvents":\[' \
        && tail -c 32 target/profile_trace.json | grep -q '"displayTimeUnit":"ns"}'
fi

echo "==> repro output is reproducible (observability and queues stay zero-cost)"
cargo build --release -p bench -q
./target/release/repro all --scale 0.0625 > target/repro_output.txt
diff -u repro_output.txt target/repro_output.txt

echo "==> loadgen smoke run matches the committed fixed-seed expectation"
./target/release/repro loadgen --clients 1,2,4 --depth 2 --ops 8 --seed 7 \
    --scale 0.00048828125 > target/loadgen_smoke.txt
diff -u loadgen_smoke.txt target/loadgen_smoke.txt
# The smoke output must carry the latency tail and the parallel-PE
# sweep (its in-process assertions prove serial/parallel equivalence).
grep -q 'p99.9=' target/loadgen_smoke.txt
grep -q 'parallel-PE sweep' target/loadgen_smoke.txt

echo "==> DRAM block-cache sweep warms past the acceptance hit rate"
# The smoke diff above runs without --cache-mb, so it is also the
# byte-identity proof that the cache is zero-cost when left off. This
# run turns it on; render appends the sweep with the full budget last.
./target/release/repro loadgen --clients 1 --depth 1 --ops 4 --seed 7 \
    --scale 0.00048828125 --cache-mb 8 > target/loadgen_cache.txt
grep -q 'DRAM cache sweep' target/loadgen_cache.txt
# Full-budget row: repeated scans must be served >= 50% from DRAM ...
tail -n 1 target/loadgen_cache.txt | awk '{
    if ($2 + 0 < 50) { print "error: cache hit rate below 50%: " $0; exit 1 }
}'
# ... and the warm median must beat the cache-off median.
off_p50=$(awk '$1 == "off" {print $3}' target/loadgen_cache.txt)
full_p50=$(tail -n 1 target/loadgen_cache.txt | awk '{print $3}')
awk -v off="$off_p50" -v warm="$full_p50" 'BEGIN {
    if (!(warm + 0 < off + 0)) {
        print "error: warm p50 " warm " ms not below cache-off p50 " off " ms"
        exit 1
    }
}'

echo "==> batched-GET sweep holds the queued-path speedup at the smoke seed"
# The queue engine folds adjacent GETs into key-list batches; at the
# fixed smoke seed the batch-16 row must keep >= 4x the batch-1 GET
# throughput (the serial >= 5x acceptance gate rides on
# batched_get_speedup in BENCH_profile.json below — the queued baseline
# already overlaps ops at depth 16, so its honest win is smaller).
./target/release/repro loadgen --clients 2 --depth 4 --ops 32 --seed 42 \
    --scale 0.00048828125 --batch 16 > target/loadgen_batched.txt
grep -q 'batched-GET sweep' target/loadgen_batched.txt
sed -n '/batched-GET sweep/,$p' target/loadgen_batched.txt | awk '
    $1 == 16 { spd = $6; sub(/x$/, "", spd) }
    END {
        if (spd + 0 < 4.0) {
            print "error: batch-16 queued speedup " spd "x below the 4x floor"
            exit 1
        }
    }'

echo "==> QoS sweep: priority dispatch beats FIFO on the high-priority GET tail"
# Mixed-priority sweep at the fixed smoke seed: the same bulk scan
# flood + GET workload runs FIFO (all-Normal) and prioritized; the
# sweep's in-process assertions prove the records are identical, and
# this gate holds the latency win — the priority GET p99 must come in
# below the FIFO GET p99 ($1 is the mode column, $5 is get-p99(ms)).
./target/release/repro loadgen --clients 1 --depth 1 --ops 4 --seed 42 \
    --scale 0.00048828125 --qos > target/loadgen_qos.txt
grep -q 'QoS sweep' target/loadgen_qos.txt
sed -n '/QoS sweep/,$p' target/loadgen_qos.txt | awk '
    $1 == "fifo" { fifo = $5 } $1 == "priority" { qos = $5 }
    END {
        if (fifo + 0 <= 0 || !(qos + 0 < fifo + 0)) {
            print "error: priority GET p99 " qos " ms not below FIFO GET p99 " fifo " ms"
            exit 1
        }
    }'

echo "==> cluster scaling matrix + machine-readable bench results + merged trace"
# Fixed-seed clients x devices matrix through the sharded cluster; the
# same run emits target/BENCH_loadgen.json (the machine-readable
# counterpart of the text figures; hand-rolled JSON, the workspace
# carries no serde) and the merged multi-device Chrome trace of the
# last (4-device) cell. Artifacts are emitted to target/ and
# regression-compared against the committed references below — the
# committed files are never written by this script.
rm -f target/BENCH_loadgen.json target/BENCH_profile.json target/cluster_trace.json
./target/release/repro loadgen --clients 2 --depth 4 --ops 32 --seed 42 \
    --scale 0.00048828125 --devices 1,2,4 \
    --json target/BENCH_loadgen.json \
    --trace target/cluster_trace.json > target/loadgen_cluster.txt
grep -q 'cluster matrix' target/loadgen_cluster.txt
# Device-parallel fan-out must pay off: 4 shards >= 2.5x one device at
# the fixed smoke seed ($2 is the devices column, $5 is ops/s).
sed -n '/cluster matrix/,$p' target/loadgen_cluster.txt | awk '
    $2 == 1 { one = $5 } $2 == 4 { four = $5 }
    END {
        if (one + 0 <= 0 || four + 0 < 2.5 * one) {
            print "error: 4-device ops/s " four " not >= 2.5x single-device " one
            exit 1
        }
    }'
# BENCH_loadgen.json: valid JSON when python3 is around, and every
# top-level key present either way.
if command -v python3 > /dev/null; then
    python3 - << 'EOF'
import json
with open("target/BENCH_loadgen.json") as f:
    doc = json.load(f)
keys = ("schema", "seed", "config", "points", "parallel_sweep", "cache_sweep",
        "cluster_matrix", "batched_sweep", "qos_sweep")
missing = [k for k in keys if k not in doc]
assert not missing, f"BENCH_loadgen.json missing keys: {missing}"
assert doc["schema"] == "nkv-bench-loadgen/4", doc["schema"]
assert doc["seed"] == 42, doc["seed"]
assert doc["cluster_matrix"], "cluster_matrix must not be empty with --devices"
assert doc["batched_sweep"] == [], "batched_sweep must be empty without --batch"
assert doc["qos_sweep"] == [], "qos_sweep must be empty without --qos"
EOF
else
    for key in schema seed config points parallel_sweep cache_sweep cluster_matrix \
        batched_sweep qos_sweep; do
        grep -q "\"$key\"" target/BENCH_loadgen.json
    done
fi

echo "==> merged multi-device trace is a valid Chrome export with router spans"
if command -v python3 > /dev/null; then
    python3 -m json.tool target/cluster_trace.json > /dev/null
fi
# Device pid namespaces: device 1 offsets its pids by 1000, device 2 by
# 2000 (flash channel 0 sits at +100), and the router narrates the
# fan-out on its own pid 900.
grep -q '"pid":1100' target/cluster_trace.json
grep -q '"pid":2100' target/cluster_trace.json
grep -q '"pid":900' target/cluster_trace.json
grep -q 'router_fanout' target/cluster_trace.json
grep -q 'router_merge' target/cluster_trace.json
grep -q '"dropped_spans"' target/cluster_trace.json

echo "==> fleet profile emits BENCH_profile.json (perf-journal snapshot)"
./target/release/repro profile --scale 0.00048828125 --devices 4 \
    --json target/BENCH_profile.json > target/profile_fleet.txt
grep -q 'fleet profile (4 hash-sharded devices)' target/profile_fleet.txt
grep -q 'cluster stats: 4 shards' target/profile_fleet.txt
# The batched-GET config-tax table (before/after) must render.
grep -q 'batched GET (key-list descriptors' target/profile_fleet.txt
grep -q 'key lists cut the config tax' target/profile_fleet.txt
if command -v python3 > /dev/null; then
    python3 - << 'EOF'
import json
with open("target/BENCH_profile.json") as f:
    doc = json.load(f)
keys = ("schema", "seed", "config", "config_tax_ratio", "config_tax_batched",
        "get_us_unbatched", "get_us_batched", "batched_get_speedup",
        "flash_occupancy", "cache_hit_rate", "cluster_scaling", "cluster")
missing = [k for k in keys if k not in doc]
assert not missing, f"BENCH_profile.json missing keys: {missing}"
assert doc["schema"] == "nkv-bench-profile/2", doc["schema"]
assert len(doc["cluster"]["shards"]) == 4, "fleet snapshot must carry 4 shard rows"
# Hard acceptance gates for the batched PE invocation (DESIGN.md §15):
# key lists must cut the per-key config tax at least 5x, and serial
# per-key device time must be >= 5x faster at batch 16.
tax, batched = doc["config_tax_ratio"], doc["config_tax_batched"]
assert batched <= tax / 5, (
    f"batched config tax {batched:.2f}x not <= 1/5 of unbatched {tax:.2f}x")
assert doc["batched_get_speedup"] >= 5.0, (
    f"batched GET speedup {doc['batched_get_speedup']:.2f}x below the 5x acceptance floor")
EOF
else
    for key in schema seed config_tax_ratio config_tax_batched get_us_unbatched \
        get_us_batched batched_get_speedup flash_occupancy cache_hit_rate \
        cluster_scaling cluster; do
        grep -q "\"$key\"" target/BENCH_profile.json
    done
fi

echo "==> perf-regression gate: fresh artifacts vs committed references (PERF.md)"
# The fixed-seed DES is deterministic, so the fresh artifacts normally
# match the committed ones exactly; the 15% tolerance exists so the
# gate measures performance, not bytes. Fails on a >15% throughput
# regression in any matrix cell or a cluster-scaling/occupancy drop.
# An intentional perf change regenerates the committed files (see
# PERF.md for the journal discipline).
if command -v python3 > /dev/null; then
    python3 - << 'EOF'
import json

def load(path):
    with open(path) as f:
        return json.load(f)

TOL = 0.15
ref, new = load("BENCH_loadgen.json"), load("target/BENCH_loadgen.json")
assert new["schema"] == ref["schema"], (new["schema"], ref["schema"])
ref_cells = {(r["clients"], r["devices"]): r for r in ref["cluster_matrix"]}
for row in new["cluster_matrix"]:
    base = ref_cells.get((row["clients"], row["devices"]))
    assert base, f"cell {row['clients']}x{row['devices']} missing from committed reference"
    floor = (1 - TOL) * base["ops_per_sec"]
    assert row["ops_per_sec"] >= floor, (
        f"throughput regression at {row['clients']} clients x {row['devices']} devices: "
        f"{row['ops_per_sec']:.0f} ops/s < {floor:.0f} (committed {base['ops_per_sec']:.0f})")
for row, base in zip(new["points"], ref["points"]):
    floor = (1 - TOL) * base["ops_per_sec"]
    assert row["ops_per_sec"] >= floor, (
        f"single-device throughput regression at {row['clients']} clients: "
        f"{row['ops_per_sec']:.0f} ops/s < {floor:.0f}")

refp, newp = load("BENCH_profile.json"), load("target/BENCH_profile.json")
for key in ("cluster_scaling", "flash_occupancy", "cache_hit_rate", "batched_get_speedup"):
    floor = (1 - TOL) * refp[key]
    assert newp[key] >= floor, (
        f"{key} dropped: {newp[key]:.4f} < {floor:.4f} (committed {refp[key]:.4f})")
# Lower is better for the batched config tax: regressing means creeping
# back toward the unbatched 45x.
ceil = (1 + TOL) * refp["config_tax_batched"]
assert newp["config_tax_batched"] <= ceil, (
    f"config_tax_batched rose: {newp['config_tax_batched']:.3f}x > {ceil:.3f}x "
    f"(committed {refp['config_tax_batched']:.3f}x)")
print("perf gate: all metrics within 15% of the committed baselines")
EOF
else
    # Without python3 the gate degrades to byte-identity, which the
    # deterministic DES satisfies whenever perf is unchanged.
    diff -u BENCH_loadgen.json target/BENCH_loadgen.json
    diff -u BENCH_profile.json target/BENCH_profile.json
fi

echo "==> repro CLI rejects bad --devices values"
if ./target/release/repro loadgen --devices zero > /dev/null 2>&1; then
    echo "error: non-numeric --devices must exit nonzero" >&2
    exit 1
fi
if ./target/release/repro loadgen --devices 0 > /dev/null 2>&1; then
    echo "error: --devices 0 must exit nonzero" >&2
    exit 1
fi

echo "==> repro CLI rejects bad --batch values, accepts oversized folds"
for bad in 0 banana; do
    if ./target/release/repro loadgen --batch "$bad" > /dev/null 2>&1; then
        echo "error: --batch $bad must exit nonzero" >&2
        exit 1
    fi
done
# Beyond one key-list DMA page (510 keys) is legal: the queue engine
# splits the fold into capacity-sized descriptors.
./target/release/repro loadgen --clients 1 --depth 1 --ops 2 --seed 9 \
    --scale 0.00048828125 --batch 511 > /dev/null

echo "==> repro CLI trace/json guard rails"
# --trace to an unwritable path fails up front (before simulation time).
if ./target/release/repro loadgen --devices 1,2 \
    --trace /nonexistent-dir/trace.json > /dev/null 2>&1; then
    echo "error: --trace to an unwritable path must exit nonzero" >&2
    exit 1
fi
# loadgen --trace without --devices has no cluster to trace.
if ./target/release/repro loadgen --trace target/never.json > /dev/null 2>&1; then
    echo "error: loadgen --trace without --devices must exit nonzero" >&2
    exit 1
fi
# A non-default configuration must refuse to clobber an existing --json
# artifact (this protects the committed references); --json-force is
# the explicit override, exercised by the emission runs above via
# fresh target/ paths and here against a scratch file.
echo '{"scratch": true}' > target/guard_scratch.json
if ./target/release/repro loadgen --clients 1 --depth 1 --ops 2 --seed 9 \
    --scale 0.00048828125 --json target/guard_scratch.json > /dev/null 2>&1; then
    echo "error: --json onto an existing file with non-default flags must exit nonzero" >&2
    exit 1
fi
grep -q '"scratch"' target/guard_scratch.json  # refused => untouched
./target/release/repro loadgen --clients 1 --depth 1 --ops 2 --seed 9 \
    --scale 0.00048828125 --json target/guard_scratch.json --json-force > /dev/null 2>&1
grep -q '"schema"' target/guard_scratch.json   # forced => replaced

echo "==> repro explain renders the lowered plan"
./target/release/repro explain refs 'year>=2010' --backend hybrid > target/explain.txt
grep -q 'PLAN SCAN ON refs (backend: hybrid)' target/explain.txt
grep -q 'parallel PE job stream' target/explain.txt
./target/release/repro explain refs 'year>=2010' --backend hw --cache-mb 8 \
    | grep -q 'cache=device-DRAM segmented-LRU, budget 8192 KiB'
if ./target/release/repro explain refs 'definitely_not_a_lane>=1' > /dev/null 2>&1; then
    echo "error: unknown explain lane must exit nonzero" >&2
    exit 1
fi

echo "==> repro CLI rejects unknown subcommands and flags"
if ./target/release/repro definitely-not-an-experiment > /dev/null 2>&1; then
    echo "error: unknown subcommand must exit nonzero" >&2
    exit 1
fi
if ./target/release/repro all --definitely-not-a-flag > /dev/null 2>&1; then
    echo "error: unknown flag must exit nonzero" >&2
    exit 1
fi

echo "All checks passed."
