//! # cwa-bench — the benchmark harness
//!
//! The bench targets live under `benches/`: substrate microbenchmarks,
//! the ablation and seed-robustness experiments, and the sharded, sweep
//! and full-scale pipeline timings that write the `BENCH_*.json` files.
//! `BENCH_streaming.json` is the frozen pre-chunking baseline the
//! full-scale bench divides by; no bench rewrites it. The figures and
//! the claim table are written by `cwa-repro study --out DIR`, not by a
//! bench.
