//! # cwa-crypto — cryptographic primitives for the CWA reproduction
//!
//! This crate implements, **from scratch**, the two primitives the rest
//! of the workspace needs:
//!
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), used for the report's config
//!   hash and perfbench's output digests.
//! * [`aes`] — AES-128 block encryption (FIPS 197), used by the
//!   Crypto-PAn prefix-preserving IP anonymizer in `cwa-netflow`: one
//!   block for its pad, on 32-bit round tables, and a batch entry that
//!   returns byte 0 of each ciphertext for its per-bit flips, on AES-NI
//!   where the CPU has it and on the round tables elsewhere.
//!
//! ## Why from scratch?
//!
//! The reproduction environment provides a fixed offline crate set
//! (`rand`, `proptest`, `serde`, …) with no crypto crates.
//! Crypto-PAn anonymization (the paper's traces are prefix-preserving
//! anonymized) requires AES and the config hash requires SHA-256, so we
//! implement both here with official test vectors.
//!
//! ## Security disclaimer
//!
//! These implementations favour clarity and testability. They are **not
//! hardened** and must not be used outside this research context. In
//! particular nothing on the table path is constant-time: the AES round
//! tables are indexed by key- and data-dependent bytes, so timing and
//! cache state leak both. That path runs every single-block encryption,
//! and every batch on a CPU without AES-NI.
//!
//! ## Unsafe code
//!
//! Other crates of the workspace forbid `unsafe` outright. This one
//! denies it and lets one item through: the call into the AES-NI kernel
//! in [`aes`], which runs only after a runtime check found AES-NI on the
//! CPU. `scripts/ci.sh` fails if a second such item appears.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod sha256;

pub use aes::Aes128;
pub use sha256::{sha256, Sha256};
