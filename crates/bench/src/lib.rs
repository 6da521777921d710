//! # cwa-bench — the benchmark harness
//!
//! The bench targets live under `benches/`: the sharded and full-scale
//! pipeline timings that write the `BENCH_*.json` files `scripts/ci.sh`
//! reads its floors from.
//! `BENCH_streaming.json` is the frozen pre-chunking baseline the
//! full-scale bench divides by; no bench rewrites it. The figures and
//! the claim table are written by `cwa-repro study --out DIR`, not by a
//! bench.

#![forbid(unsafe_code)]
