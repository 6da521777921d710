//! Signed key exports — the `export.bin` / `export.sig` pair the real
//! CWA CDN serves.
//!
//! Each diagnosis-key export ships with a detached signature file: a
//! `TEKSignatureList` naming the verification key (bundle id, key id,
//! key version, algorithm OID) plus an ECDSA-P256-over-SHA256 signature
//! of the raw `export.bin` bytes. The app verifies against pinned
//! public keys before matching — preventing a compromised CDN from
//! injecting fake diagnosis keys. Fully implemented here on
//! `cwa-crypto`'s P-256.

use serde::{Deserialize, Serialize};

use bytes::Bytes;
use cwa_crypto::p256::{Signature, SigningKey, VerifyingKey};

use crate::export::{ExportError, TemporaryExposureKeyExport};
use crate::protobuf::{Reader, Writer};

/// The ECDSA-with-SHA256 algorithm OID, as the real format carries it.
pub const ALGORITHM_OID: &str = "1.2.840.10045.4.3.2";

/// Metadata identifying the verification key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureInfo {
    /// App bundle id the key is pinned for.
    pub app_bundle_id: String,
    /// Key identifier (e.g. country code).
    pub verification_key_id: String,
    /// Key version (rotations bump this).
    pub verification_key_version: String,
    /// Signature algorithm OID.
    pub signature_algorithm: String,
}

impl Default for SignatureInfo {
    fn default() -> Self {
        SignatureInfo {
            app_bundle_id: "de.rki.coronawarnapp".to_owned(),
            verification_key_id: "DE".to_owned(),
            verification_key_version: "v1".to_owned(),
            signature_algorithm: ALGORITHM_OID.to_owned(),
        }
    }
}

/// The export.bin + export.sig pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignedExport {
    /// The raw export file bytes.
    pub export_bin: Vec<u8>,
    /// The detached signature file bytes (protobuf `TEKSignatureList`).
    pub export_sig: Vec<u8>,
}

/// Signature verification failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SignatureError {
    /// export.sig did not parse.
    MalformedSignatureFile,
    /// No signature entry matched the expected key id/version.
    NoMatchingKey,
    /// The ECDSA verification failed.
    BadSignature,
    /// The export itself did not parse after successful verification.
    Export(ExportError),
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::MalformedSignatureFile => write!(f, "malformed export.sig"),
            SignatureError::NoMatchingKey => write!(f, "no signature for the pinned key"),
            SignatureError::BadSignature => write!(f, "ECDSA verification failed"),
            SignatureError::Export(e) => write!(f, "export parse error after verify: {e}"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// Signs an export, producing the bin/sig file pair.
pub fn sign_export(
    export: &TemporaryExposureKeyExport,
    key: &SigningKey,
    info: &SignatureInfo,
) -> SignedExport {
    let export_bin = export.encode();
    let signature = key.sign(&export_bin);
    SignedExport {
        export_sig: encode_signature_list(export, info, &signature.to_bytes()),
        export_bin,
    }
}

/// Encodes the export.sig file of `export`: a `TEKSignatureList` holding
/// one signature, `signature` in its `r ‖ s` form. Every P-256 signature
/// is 64 bytes, so the file's length does not depend on its value.
pub fn encode_signature_list(
    export: &TemporaryExposureKeyExport,
    info: &SignatureInfo,
    signature: &[u8; 64],
) -> Vec<u8> {
    // TEKSignatureList { repeated TEKSignature signatures = 1 }
    // TEKSignature { SignatureInfo signature_info = 1;
    //                int32 batch_num = 2; int32 batch_size = 3;
    //                bytes signature = 4 }
    let mut si = Writer::new();
    si.field_string(1, &info.app_bundle_id);
    si.field_string(3, &info.verification_key_version);
    si.field_string(4, &info.verification_key_id);
    si.field_string(5, &info.signature_algorithm);

    let mut tek_sig = Writer::new();
    tek_sig.field_message(1, &si);
    tek_sig.field_int32(2, export.batch_num);
    tek_sig.field_int32(3, export.batch_size);
    tek_sig.field_bytes(4, signature);

    let mut list = Writer::new();
    list.field_message(1, &tek_sig);
    list.finish().to_vec()
}

/// Verifies the pair against a pinned key and, on success, parses the
/// export.
pub fn verify_export(
    signed: &SignedExport,
    pinned: &VerifyingKey,
    expected: &SignatureInfo,
) -> Result<TemporaryExposureKeyExport, SignatureError> {
    let mut list = Reader::new(Bytes::copy_from_slice(&signed.export_sig));
    while !list.is_done() {
        let (field, value) = list
            .field()
            .map_err(|_| SignatureError::MalformedSignatureFile)?;
        if field != 1 {
            continue;
        }
        let tek_sig = value
            .as_bytes()
            .map_err(|_| SignatureError::MalformedSignatureFile)?
            .clone();
        let mut r = Reader::new(tek_sig);
        let mut key_id = String::new();
        let mut key_version = String::new();
        let mut sig_bytes: Option<[u8; 64]> = None;
        while !r.is_done() {
            let (f, v) = r
                .field()
                .map_err(|_| SignatureError::MalformedSignatureFile)?;
            match f {
                1 => {
                    let mut info_r = Reader::new(
                        v.as_bytes()
                            .map_err(|_| SignatureError::MalformedSignatureFile)?
                            .clone(),
                    );
                    while !info_r.is_done() {
                        let (inf, inv) = info_r
                            .field()
                            .map_err(|_| SignatureError::MalformedSignatureFile)?;
                        let text = |v: &crate::protobuf::FieldValue| {
                            v.as_bytes()
                                .ok()
                                .and_then(|b| String::from_utf8(b.to_vec()).ok())
                                .unwrap_or_default()
                        };
                        match inf {
                            3 => key_version = text(&inv),
                            4 => key_id = text(&inv),
                            _ => {}
                        }
                    }
                }
                4 => {
                    let b = v
                        .as_bytes()
                        .map_err(|_| SignatureError::MalformedSignatureFile)?;
                    if b.len() == 64 {
                        let mut arr = [0u8; 64];
                        arr.copy_from_slice(b);
                        sig_bytes = Some(arr);
                    }
                }
                _ => {}
            }
        }

        if key_id != expected.verification_key_id
            || key_version != expected.verification_key_version
        {
            continue;
        }
        let Some(sig) = sig_bytes else { continue };
        if !pinned.verify(&signed.export_bin, &Signature::from_bytes(&sig)) {
            return Err(SignatureError::BadSignature);
        }
        return TemporaryExposureKeyExport::decode(&signed.export_bin)
            .map_err(SignatureError::Export);
    }
    Err(SignatureError::NoMatchingKey)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tek::{DiagnosisKey, TemporaryExposureKey};
    use crate::time::EnIntervalNumber;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn export(n: usize) -> TemporaryExposureKeyExport {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let keys = (0..n)
            .map(|_| {
                DiagnosisKey::new(
                    TemporaryExposureKey::generate(&mut rng, EnIntervalNumber(144 * 18_400)),
                    5,
                )
            })
            .collect();
        TemporaryExposureKeyExport::new_de(0, 86_400, keys)
    }

    fn backend_key() -> SigningKey {
        let mut secret = [0u8; 32];
        secret[31] = 0x42;
        secret[0] = 0x01;
        SigningKey::from_bytes(&secret)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let export = export(12);
        let key = backend_key();
        let info = SignatureInfo::default();
        let signed = sign_export(&export, &key, &info);
        let verified = verify_export(&signed, &key.verifying_key(), &info).unwrap();
        assert_eq!(verified, export);
    }

    #[test]
    fn tampered_export_rejected() {
        let key = backend_key();
        let info = SignatureInfo::default();
        let mut signed = sign_export(&export(5), &key, &info);
        // Flip one byte inside a key record.
        let idx = signed.export_bin.len() - 5;
        signed.export_bin[idx] ^= 0x01;
        assert_eq!(
            verify_export(&signed, &key.verifying_key(), &info),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn wrong_pinned_key_rejected() {
        let key = backend_key();
        let mut other_secret = [0u8; 32];
        other_secret[31] = 0x43;
        let other = SigningKey::from_bytes(&other_secret);
        let info = SignatureInfo::default();
        let signed = sign_export(&export(3), &key, &info);
        assert_eq!(
            verify_export(&signed, &other.verifying_key(), &info),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn key_id_mismatch_is_no_matching_key() {
        let key = backend_key();
        let signed = sign_export(&export(3), &key, &SignatureInfo::default());
        let expect_at = SignatureInfo {
            verification_key_id: "AT".to_owned(),
            ..SignatureInfo::default()
        };
        assert_eq!(
            verify_export(&signed, &key.verifying_key(), &expect_at),
            Err(SignatureError::NoMatchingKey)
        );
    }

    #[test]
    fn garbage_sig_file_rejected() {
        let key = backend_key();
        let info = SignatureInfo::default();
        let mut signed = sign_export(&export(3), &key, &info);
        signed.export_sig = vec![0xff, 0xff, 0xff];
        assert!(matches!(
            verify_export(&signed, &key.verifying_key(), &info),
            Err(SignatureError::MalformedSignatureFile) | Err(SignatureError::NoMatchingKey)
        ));
    }

    #[test]
    fn signature_file_is_small() {
        let key = backend_key();
        let signed = sign_export(&export(100), &key, &SignatureInfo::default());
        assert!(
            signed.export_sig.len() < 200,
            "sig file is metadata + 64 sig bytes: {}",
            signed.export_sig.len()
        );
    }
}
