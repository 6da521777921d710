//! # cwa-crypto — cryptographic primitives for the CWA reproduction
//!
//! This crate implements, **from scratch**, the small set of cryptographic
//! primitives required by the rest of the workspace:
//!
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), used by HMAC, by the
//!   key-export signatures and for the report's config hash.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104 / FIPS 198-1), used for the
//!   RFC 6979 nonces of [`p256`].
//! * [`aes`] — AES-128 block encryption (FIPS 197), used by the
//!   Crypto-PAn prefix-preserving IP anonymizer in `cwa-netflow`: one
//!   block for its pad, on 32-bit round tables, and a batch entry that
//!   returns byte 0 of each ciphertext for its per-bit flips, on AES-NI
//!   where the CPU has it and on the round tables elsewhere.
//! * [`p256`] — ECDSA over NIST P-256 with RFC 6979 deterministic
//!   nonces (on [`u256`] fixed-width arithmetic), as used to sign the
//!   real CWA key-export files.
//!
//! ## Why from scratch?
//!
//! The reproduction environment provides a fixed offline crate set
//! (`rand`, `proptest`, `criterion`, …) with no crypto crates. Both the
//! Exposure Notification key exports (the signed files CWA phones fetch
//! from the CDN the paper measures) and Crypto-PAn anonymization (the paper's
//! traces are prefix-preserving anonymized) require these primitives, so
//! we implement them here with official test vectors.
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
pub mod hmac;
pub mod p256;
pub mod sha256;
pub mod u256;

pub use aes::Aes128;
pub use hmac::hmac_sha256;
pub use p256::{Signature, SigningKey, VerifyingKey};
pub use sha256::{sha256, Sha256};
