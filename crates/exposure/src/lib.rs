//! # cwa-exposure — the Exposure Notification key-export path
//!
//! The part of the Google/Apple Exposure Notification protocol that the
//! Corona-Warn-App's key downloads carry, following the *Exposure
//! Notification Cryptography Specification v1.2* (April 2020) and the
//! corresponding key-export specification:
//!
//! * [`time`] — 10-minute **interval numbers** and the 144-interval
//!   (24 h) TEK rolling period.
//! * [`tek`] — **Temporary Exposure Keys** and the key schedule:
//!   `RPIK = HKDF(tek, "EN-RPIK")`, `AEMK = HKDF(tek, "EN-AEMK")`,
//!   `RPI_j = AES128(RPIK, "EN-RPI" ‖ pad ‖ ENIN_j)`,
//!   `AEM = AES128-CTR(AEMK, RPI, metadata)`.
//! * [`protobuf`] — a hand-rolled protobuf wire-format codec (varints,
//!   length-delimited fields), since no protobuf crate is available
//!   offline.
//! * [`export`] — the `TemporaryExposureKeyExport` diagnosis-key file
//!   format served by the CWA CDN (the very payload whose downloads the
//!   paper's NetFlow traces contain), including the 16-byte
//!   `"EK Export v1"` header.
//! * [`signature`] — the export.bin/export.sig pair: ECDSA-P256-signed
//!   exports with pinned-key verification, as on the real CDN.
//!
//! Role in the reproduction: the paper measures the *network traffic* this
//! protocol causes (daily diagnosis-key downloads from the CDN, §1 and
//! Fig. 1). `cwa-simnet`'s CDN model builds each day's export from
//! freshly drawn TEKs with this crate and sizes the download as the
//! signed export.bin + export.sig pair, so key-download flow sizes
//! follow the real wire format. Phones are not simulated device by
//! device: the traffic model works on prefix cohorts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod protobuf;
pub mod signature;
pub mod tek;
pub mod time;

pub use export::TemporaryExposureKeyExport;
pub use signature::{sign_export, verify_export, SignedExport};
pub use tek::{DiagnosisKey, RollingProximityIdentifier, TemporaryExposureKey};
pub use time::{EnIntervalNumber, TEK_ROLLING_PERIOD};
