//! # cwa-crypto — cryptographic primitives for the CWA reproduction
//!
//! This crate implements, **from scratch**, the small set of cryptographic
//! primitives required by the rest of the workspace:
//!
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), used by HMAC/HKDF.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//! * [`hkdf`] — HKDF extract-and-expand (RFC 5869), used by the Exposure
//!   Notification key schedule (`RPIK`/`AEMK` derivation).
//! * [`aes`] — AES-128 block encryption (FIPS 197) on 32-bit round
//!   tables, used by the Exposure Notification spec for Rolling Proximity
//!   Identifier derivation and, through a batch entry that returns byte 0
//!   of each ciphertext, by the Crypto-PAn prefix-preserving IP
//!   anonymizer in `cwa-netflow`.
//! * [`ctr`] — AES-128 in CTR mode, used for Associated Encrypted
//!   Metadata (AEM) in the Exposure Notification spec.
//! * [`p256`] — ECDSA over NIST P-256 with RFC 6979 deterministic
//!   nonces (on [`u256`] fixed-width arithmetic), as used to sign the
//!   real CWA key-export files.
//!
//! ## Why from scratch?
//!
//! The reproduction environment provides a fixed offline crate set
//! (`rand`, `proptest`, `criterion`, …) with no crypto crates. Both the
//! Exposure Notification protocol (the real reason CWA phones talk to the
//! CDN the paper measures) and Crypto-PAn anonymization (the paper's
//! traces are prefix-preserving anonymized) require these primitives, so
//! we implement them here with official test vectors.
//!
//! ## Security disclaimer
//!
//! These implementations favour clarity and testability. They are **not
//! hardened** and must not be used outside this research context. In
//! particular nothing is constant-time: the AES round tables are indexed
//! by key- and data-dependent bytes, so timing and cache state leak both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod hkdf;
pub mod hmac;
pub mod p256;
pub mod sha256;
pub mod u256;

pub use aes::Aes128;
pub use ctr::aes128_ctr;
pub use hkdf::hkdf_sha256;
pub use hmac::hmac_sha256;
pub use p256::{Signature, SigningKey, VerifyingKey};
pub use sha256::{sha256, Sha256};
