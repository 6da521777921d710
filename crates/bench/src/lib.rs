//! # cwa-bench — the benchmark harness
//!
//! The bench targets live under `benches/`: substrate microbenchmarks,
//! the ablation and seed-robustness experiments, and the streaming,
//! sharded, sweep and full-scale pipeline timings that write the
//! `BENCH_*.json` files. The figures and the claim table are written by
//! `cwa-repro study --out DIR`, not by a bench.
