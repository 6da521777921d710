#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repository that contains it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, -D warnings: no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> unsafe exception (one block in cwa-crypto; every other crate root forbids unsafe code)"
# The AES-NI kernel's call in cwa-crypto is the workspace's one use of
# `unsafe`: that crate's root denies unsafe_code and one item allows it.
# This keeps the exception from spreading unnoticed: exactly one allow
# under crates/, src/ and vendor/, in cwa-crypto; exactly one `unsafe`
# keyword outside comments under those and tests/, examples/ (a block,
# fn, impl, trait or extern block anywhere else fails); and every crate
# root found under crates/, vendor/ and src/ other than cwa-crypto's
# forbids unsafe code, so a crate added later is checked too.
ALLOWS="$(grep -rn --include='*.rs' 'allow(unsafe_code)' crates src vendor || true)"
if [ "$(printf '%s' "$ALLOWS" | grep -c .)" -ne 1 ] || ! printf '%s' "$ALLOWS" | grep -q '^crates/crypto/src/'; then
    echo "expected one allow(unsafe_code), in crates/crypto; found:"; echo "$ALLOWS"; exit 1
fi
UNSAFE="$(grep -rnw --include='*.rs' 'unsafe' crates src vendor tests examples \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [ "$(printf '%s' "$UNSAFE" | grep -c .)" -ne 1 ] \
    || ! printf '%s' "$UNSAFE" | grep -qE '^crates/crypto/src/[^:]+:[0-9]+:[[:space:]]*unsafe \{'; then
    echo "expected one unsafe block, in crates/crypto; found:"; echo "$UNSAFE"; exit 1
fi
grep -q '^#!\[deny(unsafe_code)\]' crates/crypto/src/lib.rs || { echo "cwa-crypto no longer denies unsafe_code"; exit 1; }
ROOTS=0
for root in crates/*/src/lib.rs crates/*/src/main.rs vendor/*/src/lib.rs src/lib.rs src/main.rs; do
    [ -f "$root" ] && [ "$root" != crates/crypto/src/lib.rs ] || continue
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || { echo "$root does not forbid unsafe_code"; exit 1; }
    ROOTS=$((ROOTS + 1))
done
echo "    one unsafe block, allowed in cwa-crypto alone; the other $ROOTS crate roots forbid unsafe_code"

echo "==> dependency edges (every [dependencies] entry of the root and crates/* has a user)"
# An edge no source names still builds, and it pins its crate in every
# lock file. An entry passes when a Rust file under its crate's src/ or
# benches/ names it as a path (`name::` or `use name`). The exceptions
# are unused edges that perfbench/Cargo.lock pins (ci.sh builds
# perfbench --locked); an exception that gains a user or leaves its
# manifest fails too, so the list cannot outlive the edges.
python3 - <<'EOF'
import pathlib, re, sys, tomllib
# Pinned by perfbench/Cargo.lock; goes with ROADMAP item 6's benchmark PR.
PINNED = {
    ("cwa-analysis", "cwa-obs"),
    ("cwa-core", "cwa-exposure"),
    ("cwa-core", "rand"),
    ("cwa-core", "rand_chacha"),
    ("cwa-exposure", "cwa-crypto"),
    ("cwa-simnet", "cwa-crypto"),
    ("cwa-simnet", "crossbeam"),
    ("cwa-simnet", "parking_lot"),
}
unused = set()
edges = 0
for manifest in [pathlib.Path("Cargo.toml"), *sorted(pathlib.Path("crates").glob("*/Cargo.toml"))]:
    doc = tomllib.loads(manifest.read_text())
    crate = doc["package"]["name"]
    sources = [p for d in ("src", "benches") for p in sorted((manifest.parent / d).rglob("*.rs"))]
    text = "\n".join(p.read_text() for p in sources)
    for dep in doc.get("dependencies", {}):
        edges += 1
        ident = re.escape(dep.replace("-", "_"))
        if not re.search(rf"\b{ident}::|\buse\s+{ident}\b", text):
            unused.add((crate, dep))
failures = [f"{c} -> {d}: no source in its src/ or benches/ names it" for c, d in sorted(unused - PINNED)]
failures += [f"{c} -> {d}: listed as pinned, but it has a user or is gone" for c, d in sorted(PINNED - unused)]
if failures:
    sys.exit("\n".join(f"    FAIL: {f}" for f in failures))
print(f"    {edges - len(unused)} of {edges} edges have a user; {len(unused)} pinned by perfbench/Cargo.lock")
EOF

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo test (perfbench)"
# perfbench is its own workspace, so the workspace build never compiles
# it; an API break in the crates it drives must fail here, not when the
# benchmark runs. --locked: a dependency edit in a crate it builds must
# fail here instead of quietly rewriting perfbench/Cargo.lock.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> streaming + sharded equivalence (batch == streaming == sharded)"
cargo test -q --test streaming
cargo test -q --test merge_prop

echo "==> sampler distribution smoke (exact Poisson/binomial/normal moments + tails)"
# The statistical regression suite of cwa-samplers pins the sampler
# distributions against exact pmf arithmetic (moments in every
# algorithm regime, tail masses, cutoff continuity, pair-cache RNG
# accounting). Release mode: the debug-mode suite is an order of
# magnitude slower and the distributions cannot differ.
cargo test -q -p cwa-samplers --release

echo "==> driver smoke (claims pass; --streaming == --shards 2 == --live --shards 2 == the pin)"
# 0.02 is the smallest scale at which every cell clears its min_support
# threshold (the full claim table evaluates). Below it, starved cells
# degrade into per-claim Starved verdicts — exit 0 without --strict —
# covered by tests/streaming.rs::starved_scale_degrades_identically_across_paths.
# One streaming driver serves all three modes, so each must write the
# same report.json once the wall-clock phase timings are dropped.
DRIVERS_DIR="$(mktemp -d /tmp/cwa-drivers.XXXXXX)"
./target/release/cwa-repro study --scale 0.02 --streaming --out "$DRIVERS_DIR/streaming" > /dev/null
./target/release/cwa-repro study --scale 0.02 --shards 2 --out "$DRIVERS_DIR/sharded" > /dev/null
./target/release/cwa-repro study --scale 0.02 --live --shards 2 --out "$DRIVERS_DIR/live" > /dev/null
# The streaming report is also pinned against the last accepted tree:
# scripts/report.sha256 holds the SHA-256 of its canonical form. A
# change that re-pins the output on purpose updates that file and says
# so in CHANGES.md.
python3 - "$DRIVERS_DIR" scripts/report.sha256 <<'EOF'
import hashlib, json, os, sys
def report(mode):
    doc = json.load(open(os.path.join(sys.argv[1], mode, "report.json")))
    del doc["manifest"]["phase_timings"]
    return json.dumps(doc, sort_keys=True)
streaming = report("streaming")
for mode in ("sharded", "live"):
    assert report(mode) == streaming, f"{mode} report.json differs from --streaming"
print("    --streaming, --shards 2 and --live --shards 2 wrote the same report.json")
pinned = open(sys.argv[2]).read().split()[0]
got = hashlib.sha256(streaming.encode()).hexdigest()
assert got == pinned, f"report.json is {got}, pinned {pinned} ({sys.argv[2]})"
print(f"    report.json matches the pinned {pinned[:16]}…")
EOF
rm -rf "$DRIVERS_DIR"
# An unknown flag must exit non-zero, not be ignored.
if ./target/release/cwa-repro study --scale 0.02 --parallel > /dev/null 2>&1; then
    echo "study accepted the unknown flag --parallel"; exit 1
fi

# A reader of stderr that stops early drops the remaining progress
# lines; the study carries on and exits 0. Under pipefail a study that
# panics on the broken pipe (exit 101) fails the smoke.
./target/release/cwa-repro study --scale 0.02 2>&1 >/dev/null | head -n 1 > /dev/null

echo "==> starved-scale degradation smoke (0.005 must degrade, not abort)"
STARVED_OUT="$(mktemp /tmp/cwa-starved.XXXXXX.txt)"
./target/release/cwa-repro study --scale 0.005 --streaming > "$STARVED_OUT"
grep -q 'starved' "$STARVED_OUT" || { echo "scale 0.005 produced no starved verdicts"; exit 1; }
# The same scale under --strict must refuse with the structured error.
if ./target/release/cwa-repro study --scale 0.0000001 --strict > /dev/null 2>&1; then
    echo "--strict accepted a fully starved scale"; exit 1
fi
rm -f "$STARVED_OUT"

echo "==> scenario sweep smoke (claim-survival matrix, starved cell expected)"
SWEEP_TOML="$(mktemp /tmp/cwa-sweep.XXXXXX.toml)"
SWEEP_JSON_A="$(mktemp /tmp/cwa-sweep-a.XXXXXX.json)"
SWEEP_JSON_B="$(mktemp /tmp/cwa-sweep-b.XXXXXX.json)"
cat > "$SWEEP_TOML" <<'EOF'
[[scenario]]
name = "baseline"

[[scenario]]
name = "coarse-sampling"
[scenario.vantage]
sampling_interval = 1000

[[scenario]]
name = "starved-tiny-scale"
scale = 0.004
EOF
SWEEP_OUT="$(./target/release/cwa-repro sweep --scenarios "$SWEEP_TOML" --scale 0.01 --json "$SWEEP_JSON_A" 2>/dev/null)"
echo "$SWEEP_OUT" | grep -q 'starved' || { echo "sweep reported no starved cell for the drained scenario"; exit 1; }
echo "$SWEEP_OUT" | grep -q 'starved-tiny-scale' || { echo "sweep dropped a scenario row"; exit 1; }
# The survival table must not depend on the shard count.
./target/release/cwa-repro sweep --scenarios "$SWEEP_TOML" --scale 0.01 --shards 2 --json "$SWEEP_JSON_B" > /dev/null 2>&1
cmp -s "$SWEEP_JSON_A" "$SWEEP_JSON_B" || { echo "sweep JSON differs between 1 and 2 shards"; exit 1; }
rm -f "$SWEEP_TOML" "$SWEEP_JSON_A" "$SWEEP_JSON_B"

echo "==> sharded smoke (2 shards at scale 0.02)"
./target/release/cwa-repro study --scale 0.02 --shards 2 > /dev/null

echo "==> flight-recorder smoke (2 shards, --trace + trace-summary)"
TRACE_TMP="$(mktemp /tmp/cwa-trace.XXXXXX.json)"
./target/release/cwa-repro study --scale 0.02 --shards 2 --trace "$TRACE_TMP" > /dev/null
python3 - "$TRACE_TMP" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = {(e["pid"], e["name"]) for e in events if e.get("ph") == "X"}
procs = {e["pid"]: e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
shards = sorted(p for p, n in procs.items() if n.startswith("shard"))
assert len(shards) == 2, f"expected 2 shard processes, got {procs}"
for pid in shards:
    for span in ("produce", "filter", "analyze"):
        assert (pid, span) in spans, f"missing {span} span for {procs[pid]}"
print(f"    {len(events)} events; {', '.join(procs[p] for p in shards)} "
      "each carry produce/filter/analyze spans")
EOF
./target/release/cwa-repro trace-summary "$TRACE_TMP" > /dev/null
rm -f "$TRACE_TMP"

echo "==> live telemetry smoke (2 shards, --serve + heartbeat jsonl)"
HB_JSONL="$(mktemp /tmp/cwa-heartbeat.XXXXXX.jsonl)"
TELEM_LOG="$(mktemp /tmp/cwa-telemetry.XXXXXX.log)"
./target/release/cwa-repro study --scale 0.02 --shards 2 \
    --serve 127.0.0.1:0 --serve-linger-ms 6000 \
    --heartbeat-ms 100 --heartbeat-jsonl "$HB_JSONL" \
    > /dev/null 2> "$TELEM_LOG" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/.*serving telemetry on \([0-9.:]*\).*/\1/p' "$TELEM_LOG" | head -n1)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "scrape server never announced its address"; exit 1; }
# The registry is empty until the pipeline wires its first metrics;
# wait for the first counter to land before asserting on content.
WARM=""
for _ in $(seq 1 100); do
    if ./target/release/cwa-repro scrape "$ADDR" /metrics 2>/dev/null | grep -q '^# TYPE '; then
        WARM=1
        break
    fi
    sleep 0.1
done
[ -n "$WARM" ] || { echo "/metrics never produced a sample"; exit 1; }
./target/release/cwa-repro scrape "$ADDR" /healthz      | grep -q '"status"'          || { echo "/healthz malformed"; exit 1; }
./target/release/cwa-repro scrape "$ADDR" /metrics      | grep -q '^# TYPE '          || { echo "/metrics malformed"; exit 1; }
./target/release/cwa-repro scrape "$ADDR" /metrics.json | grep -q '"cwa-obs/v1"'      || { echo "/metrics.json malformed"; exit 1; }
./target/release/cwa-repro scrape "$ADDR" /progress     | grep -q '"cwa-progress/v1"' || { echo "/progress malformed"; exit 1; }
wait "$SERVE_PID"
python3 - "$HB_JSONL" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) >= 3, f"heartbeat wrote only {len(lines)} samples"
last_ts = 0
last_peak = 0
for line in lines:
    doc = json.loads(line)
    assert doc["schema"] == "cwa-obs/v1", doc.get("schema")
    assert doc["ts_ms"] >= last_ts, "timestamps regressed"
    last_ts = doc["ts_ms"]
    # Every sample carries the process's memory, and the peak never falls.
    rss = doc["metrics"].get("process.rss_kib", {}).get("value", 0)
    assert rss > 0, f"heartbeat sample without a positive process.rss_kib: {rss}"
    peak = doc["metrics"].get("process.peak_rss_kib", {}).get("value", 0)
    assert peak >= last_peak, f"process.peak_rss_kib fell: {last_peak} -> {peak}"
    last_peak = peak
assert "sim.progress.done" in lines[-1], "final sample lacks completion gauge"
print(f"    {len(lines)} append-valid heartbeat samples, each with process memory "
      f"(peak {last_peak} KiB); scrape endpoints answered live")
EOF
rm -f "$HB_JSONL" "$TELEM_LOG"

echo "==> live replay smoke (--live --serve: /report day advance, verdicts, dashboard, watch --claims)"
# A paced replay publishes an interim report after every simulated day;
# two /report scrapes a moment apart must show the day counter
# advancing with well-formed claim verdicts, and `watch --claims` must
# follow the run to completion. The batch paths stay untouched by live
# mode, so the obs-diff gate below keeps guarding bit-identity.
LIVE_LOG="$(mktemp /tmp/cwa-live.XXXXXX.log)"
REPORT_A="$(mktemp /tmp/cwa-report-a.XXXXXX.json)"
REPORT_B="$(mktemp /tmp/cwa-report-b.XXXXXX.json)"
./target/release/cwa-repro study --scale 0.02 --live --replay-speed 200000 \
    --serve 127.0.0.1:0 --serve-linger-ms 4000 \
    > /dev/null 2> "$LIVE_LOG" &
LIVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/.*serving telemetry on \([0-9.:]*\).*/\1/p' "$LIVE_LOG" | head -n1)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "live run never announced its address"; exit 1; }
# /report answers 503 until the first day's report publishes.
GOT=""
for _ in $(seq 1 150); do
    if ./target/release/cwa-repro scrape "$ADDR" /report > "$REPORT_A" 2>/dev/null; then
        GOT=1
        break
    fi
    sleep 0.1
done
[ -n "$GOT" ] || { echo "/report never published"; exit 1; }
./target/release/cwa-repro scrape "$ADDR" /figures/adoption | grep -q '"cwa-live-figure/v1"' || { echo "/figures/adoption malformed"; exit 1; }
# The dashboard must be one self-contained page — no external assets —
# and must name every endpoint it polls, so a stale copy that predates
# an endpoint rename fails here rather than silently showing blanks.
DASH_HTML="$(mktemp /tmp/cwa-dash.XXXXXX.html)"
./target/release/cwa-repro scrape "$ADDR" /dashboard > "$DASH_HTML" || { echo "/dashboard scrape failed"; exit 1; }
head -n1 "$DASH_HTML" | grep -qi '<!DOCTYPE html>' || { echo "/dashboard is not an HTML document"; exit 1; }
if grep -qE 'http:|https:|src=|href=|@import|url\(' "$DASH_HTML"; then
    echo "/dashboard references external assets; it must be self-contained"; exit 1
fi
for ep in /report /figures/adoption /figures/geo /figures/outbreak /progress /metrics.json; do
    grep -q "$ep" "$DASH_HTML" || { echo "/dashboard does not poll $ep"; exit 1; }
done
rm -f "$DASH_HTML"
# Every scrape must get its whole response while the run publishes. A
# server that closes before it has read the request head resets some
# connections ("Broken pipe", "Connection reset by peer"); at ≈1.6 % of
# calls, 50 of them catch that about half the time. The server's unit
# tests are the deterministic guard.
for _ in $(seq 1 50); do
    ./target/release/cwa-repro scrape "$ADDR" /figures/adoption | grep -q '"cwa-live-figure/v1"' \
        || { echo "/figures/adoption scrape failed during the live run"; exit 1; }
done
sleep 1.5
./target/release/cwa-repro scrape "$ADDR" /report > "$REPORT_B" || { echo "second /report scrape failed"; exit 1; }
# A reader that stops early ends `watch` quietly: under pipefail a
# watch that panics on the broken pipe (exit 101) fails the smoke.
./target/release/cwa-repro watch "$ADDR" --interval-ms 50 | head -n 1 > /dev/null
# `watch --claims` follows the rest of the replay and exits 0 at done.
./target/release/cwa-repro watch --claims "$ADDR" --interval-ms 250 > /dev/null
wait "$LIVE_PID"
python3 - "$REPORT_A" "$REPORT_B" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
def check_verdicts(claims, what):
    assert claims, f"live report carries no {what}"
    for c in claims:
        v = c["verdict"]
        assert v in ("Pass", "Fail") or (isinstance(v, dict) and "Starved" in v), \
            f"malformed {what} verdict {v!r} for claim {c.get('id')}"
for doc in (a, b):
    assert doc["schema"] == "cwa-live/v1", doc.get("schema")
    check_verdicts(doc["report"]["claims"], "cumulative")
    assert doc["window_to_day"] > doc["window_from_day"], \
        f"empty window {doc['window_from_day']}..{doc['window_to_day']}"
    check_verdicts(doc["window_verdicts"], "windowed")
assert b["day"] > a["day"], f"day counter did not advance: {a['day']} -> {b['day']}"
print(f"    /report advanced day {a['day']} -> {b['day']}; "
      f"{len(b['report']['claims'])} cumulative + {len(b['window_verdicts'])} "
      "windowed well-formed verdicts per snapshot")
EOF
rm -f "$LIVE_LOG" "$REPORT_A" "$REPORT_B"

echo "==> obs-diff regression gate (same-seed streaming snapshots)"
# Wall-clock phase timers on a shared CI host are volatile, so the gate
# uses a generous threshold; it exists to catch order-of-magnitude
# regressions and exercise the nonzero-exit path wiring.
OBS_A="$(mktemp /tmp/cwa-obs-a.XXXXXX.json)"
OBS_B="$(mktemp /tmp/cwa-obs-b.XXXXXX.json)"
./target/release/cwa-repro study --scale 0.02 --streaming --metrics "$OBS_A" > /dev/null
./target/release/cwa-repro study --scale 0.02 --streaming --metrics "$OBS_B" > /dev/null
./target/release/cwa-repro obs-diff "$OBS_A" "$OBS_B" --threshold 300
# A reader that stops early ends the diff quietly: under pipefail an
# obs-diff that panics on the broken pipe (exit 101) fails the gate.
./target/release/cwa-repro obs-diff "$OBS_A" "$OBS_B" | head -n 1 > /dev/null
# A misspelt flag must fail the run, not be ignored.
if ./target/release/cwa-repro obs-diff "$OBS_A" "$OBS_B" --treshold 5 > /dev/null 2>&1; then
    echo "obs-diff accepted the unknown flag --treshold"; exit 1
fi
rm -f "$OBS_A" "$OBS_B"

echo "==> chunked-pipeline smoke (scale 0.2 streaming)"
# One order of magnitude above the bench scale: exercises the columnar
# chunk path (collector pack -> study sink select_into -> per-consumer
# observe_chunk) long enough that most Crypto-PAn lookups are /24 hits
# under a memoized /16.
./target/release/cwa-repro study --scale 0.2 --streaming > /dev/null

# The bench floors below each print every row and list every failure;
# a failing floor marks the run failed and the next section still runs,
# so one CI run reports every failing floor. The verdict comes last.
BENCH_FAILED=0

echo "==> sharded speedup guard (BENCH_sharded.json)"
# Guard against accidental serialization of the merge path: with real
# parallel hardware, 4 shards must beat the streaming run (one shard:
# the generating thread beside one worker). On a single-core host every
# shard count time-slices one CPU, so the floor is only enforced when
# the measuring host had >= 2 CPUs. Every row is printed and every
# failing one listed before the verdict, so one failure cannot hide
# another.
if [ -f BENCH_sharded.json ]; then
    if ! python3 - <<'EOF'
import json, sys
doc = json.load(open("BENCH_sharded.json"))
cpus = doc.get("host_cpus", 1)
enforce = cpus >= 2
if not enforce:
    print(f"    host_cpus={cpus}: speedup floor reported, not enforced (no parallel hardware)")
failures = []
for run in doc["runs"]:
    for row in run["sharded"]:
        print(
            f"    scale {run['scale']}, {row['shards']} shard(s): median "
            f"{row['wall']['median_ms']} ms against streaming "
            f"{run['streaming_wall']['median_ms']} ms -> {row['speedup']}x"
        )
        if enforce and row["shards"] == 4 and row["speedup"] < 1.0:
            failures.append(
                f"4-shard speedup {row['speedup']} < 1.0 at scale "
                f"{run['scale']} (host_cpus={cpus}): merge path serialized?"
            )
if failures:
    sys.exit("\n".join(f"    FAIL: {f}" for f in failures))
if enforce:
    print(f"    host_cpus={cpus}: 4-shard speedup floor holds")
EOF
    then
        BENCH_FAILED=1
    fi
else
    echo "    BENCH_sharded.json missing; run: cargo bench -p cwa-bench --bench sharded"
    exit 1
fi

echo "==> chunked record-path floor (BENCH_fullscale.json)"
# The fullscale bench replays one captured scale-0.02 record stream
# through both shapes of the record path — per-record uncached
# Crypto-PAn + per-record filter + 4 dyn observe calls (the
# pre-refactor shape) vs. chunked memoized Crypto-PAn + one column-wise
# select_into + 4 observe_chunk calls — so the ratio is attributable to
# the record path alone. The ≥2x floor guards that stage. The
# *end-to-end* streaming wall vs. the frozen BENCH_streaming.json
# baseline compounds the chunked record path with the exact-sampler
# swap in the traffic generator (the measured value is ~1.6x; the
# pre-swap chunked pipeline alone sat at ~1.1x because ~80% of wall
# was the generator) — it is held to a ≥1.3x floor. Both floors are
# only enforced when this host matches the measuring host's CPU count
# (same gate style as the sharded guard above): numbers inherited from
# different hardware are reported, not enforced.
if [ -f BENCH_fullscale.json ]; then
    if ! python3 - <<'EOF'
import json, os, sys
doc = json.load(open("BENCH_fullscale.json"))
cpus = doc.get("host_cpus", 1)
host = os.cpu_count() or 1
enforce = host == cpus
if not enforce:
    print(f"    measured on a {cpus}-cpu host, this one has {host}: floors reported, not enforced")
# Every floor is read and reported before the verdict, so one failing
# floor cannot hide another.
failures = []
rp = doc["record_path"]
print(
    f"    record path at scale {rp['scale']}: per-record {rp['per_record_ms']}ms, "
    f"chunked {rp['chunked_ms']}ms -> {rp['speedup']}x"
)
if enforce and rp["speedup"] < 2.0:
    failures.append(f"chunked record path only {rp['speedup']}x the per-record shape (< 2.0x floor)")
cmp_ = doc["comparison"]
e2e = cmp_.get("speedup_vs_baseline")
if e2e is None:
    failures.append("BENCH_fullscale.json has no baseline comparison; is BENCH_streaming.json intact?")
else:
    print(f"    end to end at scale {cmp_['scale']}: {e2e}x the pre-refactor baseline")
    if enforce and e2e < 1.3:
        failures.append(f"end-to-end streaming regressed to {e2e}x the frozen baseline (< 1.3x floor)")
prod = doc.get("producer")
if prod is None:
    failures.append("BENCH_fullscale.json has no producer section; re-run the fullscale bench")
else:
    share = prod["produce_share_of_streaming"]
    print(
        f"    producer at scale {prod['scale']}: {prod['events_per_sec']:.0f} events/s, "
        f"produce span {share * 100:.1f}% of streaming wall"
    )
    if enforce and share >= 0.5:
        failures.append(f"produce span is {share * 100:.1f}% of streaming wall (>= 50%): sampler swap regressed?")
if failures:
    sys.exit("\n".join(f"    FAIL: {f}" for f in failures))
EOF
    then
        BENCH_FAILED=1
    fi
else
    echo "    BENCH_fullscale.json missing; run: cargo bench -p cwa-bench --bench fullscale"
    exit 1
fi

if [ "$BENCH_FAILED" -ne 0 ]; then
    echo "==> bench floors failed (FAIL lines above)"
    exit 1
fi
echo "==> ci green"
