//! The `export.sig` file the real CWA CDN serves beside each
//! `export.bin`.
//!
//! Each diagnosis-key export ships with a detached signature file: a
//! `TEKSignatureList` naming the verification key (bundle id, key id,
//! key version, algorithm OID) plus an ECDSA-P256-over-SHA256 signature
//! of the raw `export.bin` bytes. The traffic study needs only the
//! file's size, so the signature is a 64-byte placeholder: every P-256
//! signature in its `r ‖ s` form has that length, whatever its value.
//! Signing and verification belong to a device-level simulation of the
//! app and are not reproduced.

use crate::export::TemporaryExposureKeyExport;
use crate::protobuf::Writer;

/// Encodes the export.sig file of `export`: a `TEKSignatureList`
/// holding one signature under CWA's pinned key (`de.rki.coronawarnapp`,
/// key id `DE`, version `v1`, ECDSA with SHA-256), its 64 signature
/// bytes zeroed.
pub fn encode_signature_list(export: &TemporaryExposureKeyExport) -> Vec<u8> {
    const APP_BUNDLE_ID: &str = "de.rki.coronawarnapp";
    const VERIFICATION_KEY_VERSION: &str = "v1";
    const VERIFICATION_KEY_ID: &str = "DE";
    // ECDSA with SHA-256, as the real format names it.
    const ALGORITHM_OID: &str = "1.2.840.10045.4.3.2";
    const SIGNATURE: [u8; 64] = [0; 64];

    // TEKSignatureList { repeated TEKSignature signatures = 1 }
    // TEKSignature { SignatureInfo signature_info = 1;
    //                int32 batch_num = 2; int32 batch_size = 3;
    //                bytes signature = 4 }
    let mut si = Writer::new();
    si.field_string(1, APP_BUNDLE_ID);
    si.field_string(3, VERIFICATION_KEY_VERSION);
    si.field_string(4, VERIFICATION_KEY_ID);
    si.field_string(5, ALGORITHM_OID);

    let mut tek_sig = Writer::new();
    tek_sig.field_message(1, &si);
    tek_sig.field_int32(2, export.batch_num);
    tek_sig.field_int32(3, export.batch_size);
    tek_sig.field_bytes(4, &SIGNATURE);

    let mut list = Writer::new();
    list.field_message(1, &tek_sig);
    list.finish().to_vec()
}
