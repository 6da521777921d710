//! The `TemporaryExposureKeyExport` diagnosis-key file format.
//!
//! This is the payload the CWA backend distributes via its CDN and that
//! every app instance downloads once per day — i.e. *the* traffic the
//! paper's NetFlow traces consist of. The format follows the Google/Apple
//! *Exposure Key Export File Format and Verification* document:
//!
//! ```text
//! export.bin := "EK Export v1" padded with spaces to 16 bytes
//!             ‖ protobuf(TemporaryExposureKeyExport)
//!
//! message TemporaryExposureKeyExport {
//!   optional fixed64 start_timestamp = 1;   // UTC seconds
//!   optional fixed64 end_timestamp   = 2;
//!   optional string  region          = 3;   // "DE" for CWA
//!   optional int32   batch_num       = 4;
//!   optional int32   batch_size      = 5;
//!   repeated SignatureInfo signature_infos = 6;
//!   repeated TemporaryExposureKey keys     = 7;
//! }
//! message TemporaryExposureKey {
//!   optional bytes key_data = 1;
//!   optional int32 transmission_risk_level = 2;
//!   optional int32 rolling_start_interval_number = 3;
//!   optional int32 rolling_period = 4; // defaults to 144
//! }
//! ```
//!
//! `SignatureInfo` is carried opaquely (the real CWA signs exports with
//! ECDSA-P256; signing and verification are out of scope for the traffic
//! study, but the field is preserved for wire compatibility).

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::protobuf::{DecodeError, FieldValue, Reader, Writer};
use crate::tek::{DiagnosisKey, TemporaryExposureKey};
use crate::time::TEK_ROLLING_PERIOD;

/// The fixed 16-byte header prefix of every export file.
pub const EXPORT_HEADER: &[u8; 16] = b"EK Export v1    ";

/// Errors specific to export-file parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// File shorter than the 16-byte header.
    TooShort,
    /// Header magic mismatch.
    BadHeader,
    /// Underlying protobuf decode failure.
    Protobuf(DecodeError),
    /// A key record was malformed.
    BadKey(&'static str),
}

impl From<DecodeError> for ExportError {
    fn from(e: DecodeError) -> Self {
        ExportError::Protobuf(e)
    }
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::TooShort => write!(f, "export file shorter than header"),
            ExportError::BadHeader => write!(f, "export header magic mismatch"),
            ExportError::Protobuf(e) => write!(f, "protobuf error: {e}"),
            ExportError::BadKey(what) => write!(f, "malformed key record: {what}"),
        }
    }
}

impl std::error::Error for ExportError {}

/// A parsed / constructible diagnosis-key export file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemporaryExposureKeyExport {
    /// Start of the time window covered by this export (UTC seconds).
    pub start_timestamp: u64,
    /// End of the time window covered by this export (UTC seconds).
    pub end_timestamp: u64,
    /// Region code; `"DE"` for the Corona-Warn-App.
    pub region: String,
    /// 1-based batch number within a multi-file export.
    pub batch_num: i32,
    /// Total number of batches in the export.
    pub batch_size: i32,
    /// Opaque signature-info blobs (kept byte-for-byte).
    pub signature_infos: Vec<Vec<u8>>,
    /// The published diagnosis keys.
    pub keys: Vec<DiagnosisKey>,
}

impl TemporaryExposureKeyExport {
    /// Builds a single-batch export for Germany covering `[start, end)`.
    pub fn new_de(start_timestamp: u64, end_timestamp: u64, keys: Vec<DiagnosisKey>) -> Self {
        TemporaryExposureKeyExport {
            start_timestamp,
            end_timestamp,
            region: "DE".to_owned(),
            batch_num: 1,
            batch_size: 1,
            signature_infos: Vec::new(),
            keys,
        }
    }

    /// Serializes to the on-the-wire file format (header + protobuf).
    pub fn encode(&self) -> Vec<u8> {
        let mut msg = Writer::new();
        msg.field_fixed64(1, self.start_timestamp);
        msg.field_fixed64(2, self.end_timestamp);
        msg.field_string(3, &self.region);
        msg.field_int32(4, self.batch_num);
        msg.field_int32(5, self.batch_size);
        for si in &self.signature_infos {
            msg.field_bytes(6, si);
        }
        for dk in &self.keys {
            let mut k = Writer::new();
            k.field_bytes(1, &dk.tek.key);
            k.field_int32(2, i32::from(dk.transmission_risk_level));
            k.field_int32(3, dk.tek.rolling_start_interval_number as i32);
            k.field_int32(4, dk.tek.rolling_period as i32);
            msg.field_message(7, &k);
        }

        let body = msg.finish();
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(EXPORT_HEADER);
        out.extend_from_slice(&body);
        out
    }

    /// Parses an export file.
    pub fn decode(data: &[u8]) -> Result<Self, ExportError> {
        if data.len() < 16 {
            return Err(ExportError::TooShort);
        }
        if &data[..16] != EXPORT_HEADER {
            return Err(ExportError::BadHeader);
        }
        let mut reader = Reader::new(Bytes::copy_from_slice(&data[16..]));

        let mut export = TemporaryExposureKeyExport {
            start_timestamp: 0,
            end_timestamp: 0,
            region: String::new(),
            batch_num: 1,
            batch_size: 1,
            signature_infos: Vec::new(),
            keys: Vec::new(),
        };

        while !reader.is_done() {
            let (field, value) = reader.field()?;
            match field {
                1 => export.start_timestamp = value.as_fixed64()?,
                2 => export.end_timestamp = value.as_fixed64()?,
                3 => {
                    export.region = String::from_utf8(value.as_bytes()?.to_vec())
                        .map_err(|_| ExportError::BadKey("region not utf-8"))?
                }
                4 => export.batch_num = value.as_int32()?,
                5 => export.batch_size = value.as_int32()?,
                6 => export.signature_infos.push(value.as_bytes()?.to_vec()),
                7 => export.keys.push(decode_key(value)?),
                _ => { /* unknown field: skip, forward-compatible */ }
            }
        }
        Ok(export)
    }

    /// Serialized size in bytes (used by the traffic model to size the
    /// daily key-download flows realistically).
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

/// Decodes one embedded `TemporaryExposureKey` message.
fn decode_key(value: FieldValue) -> Result<DiagnosisKey, ExportError> {
    let bytes = value.as_bytes()?.clone();
    let mut r = Reader::new(bytes);
    let mut key_data: Option<[u8; 16]> = None;
    let mut risk = 0u8;
    let mut start: Option<u32> = None;
    let mut period = TEK_ROLLING_PERIOD;
    while !r.is_done() {
        let (field, value) = r.field()?;
        match field {
            1 => {
                let b = value.as_bytes()?;
                if b.len() != 16 {
                    return Err(ExportError::BadKey("key_data must be 16 bytes"));
                }
                let mut k = [0u8; 16];
                k.copy_from_slice(b);
                key_data = Some(k);
            }
            2 => {
                let v = value.as_int32()?;
                if !(0..=7).contains(&v) {
                    return Err(ExportError::BadKey("transmission_risk_level out of range"));
                }
                risk = v as u8;
            }
            3 => {
                let v = value.as_int32()?;
                if v < 0 {
                    return Err(ExportError::BadKey(
                        "negative rolling_start_interval_number",
                    ));
                }
                start = Some(v as u32);
            }
            4 => {
                let v = value.as_int32()?;
                if !(1..=144).contains(&v) {
                    return Err(ExportError::BadKey("rolling_period out of range"));
                }
                period = v as u32;
            }
            _ => {}
        }
    }
    let key = key_data.ok_or(ExportError::BadKey("missing key_data"))?;
    let start = start.ok_or(ExportError::BadKey("missing rolling_start_interval_number"))?;
    Ok(DiagnosisKey {
        tek: TemporaryExposureKey {
            key,
            rolling_start_interval_number: start,
            rolling_period: period,
        },
        transmission_risk_level: risk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::EnIntervalNumber;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_keys(n: usize) -> Vec<DiagnosisKey> {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        (0..n)
            .map(|i| {
                let tek = TemporaryExposureKey::generate(
                    &mut rng,
                    EnIntervalNumber(144 * (18_400 + i as u32)),
                );
                DiagnosisKey::new(tek, (i % 8) as u8)
            })
            .collect()
    }

    #[test]
    fn header_is_sixteen_bytes() {
        assert_eq!(EXPORT_HEADER.len(), 16);
        assert!(EXPORT_HEADER.starts_with(b"EK Export v1"));
    }

    #[test]
    fn roundtrip_empty() {
        let export = TemporaryExposureKeyExport::new_de(1_592_784_000, 1_592_870_400, vec![]);
        let bytes = export.encode();
        assert_eq!(&bytes[..16], EXPORT_HEADER);
        let back = TemporaryExposureKeyExport::decode(&bytes).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn roundtrip_with_keys() {
        let export =
            TemporaryExposureKeyExport::new_de(1_592_784_000, 1_592_870_400, sample_keys(25));
        let back = TemporaryExposureKeyExport::decode(&export.encode()).unwrap();
        assert_eq!(back, export);
        assert_eq!(back.keys.len(), 25);
        assert_eq!(back.region, "DE");
    }

    #[test]
    fn roundtrip_with_signature_info() {
        let mut export = TemporaryExposureKeyExport::new_de(0, 1, sample_keys(2));
        export.signature_infos.push(vec![1, 2, 3, 4, 5]);
        let back = TemporaryExposureKeyExport::decode(&export.encode()).unwrap();
        assert_eq!(back.signature_infos, vec![vec![1, 2, 3, 4, 5]]);
    }

    #[test]
    fn rejects_short_file() {
        assert_eq!(
            TemporaryExposureKeyExport::decode(b"EK"),
            Err(ExportError::TooShort)
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = TemporaryExposureKeyExport::new_de(0, 1, vec![]).encode();
        bytes[0] = b'X';
        assert_eq!(
            TemporaryExposureKeyExport::decode(&bytes),
            Err(ExportError::BadHeader)
        );
    }

    #[test]
    fn rejects_wrong_key_length() {
        // Hand-build an export with a 15-byte key.
        let mut k = Writer::new();
        k.field_bytes(1, &[0u8; 15]);
        k.field_int32(3, 100);
        let mut msg = Writer::new();
        msg.field_message(7, &k);
        let mut bytes = EXPORT_HEADER.to_vec();
        bytes.extend_from_slice(&msg.finish());
        assert_eq!(
            TemporaryExposureKeyExport::decode(&bytes),
            Err(ExportError::BadKey("key_data must be 16 bytes"))
        );
    }

    #[test]
    fn rejects_missing_key_data() {
        let mut k = Writer::new();
        k.field_int32(3, 100);
        let mut msg = Writer::new();
        msg.field_message(7, &k);
        let mut bytes = EXPORT_HEADER.to_vec();
        bytes.extend_from_slice(&msg.finish());
        assert_eq!(
            TemporaryExposureKeyExport::decode(&bytes),
            Err(ExportError::BadKey("missing key_data"))
        );
    }

    #[test]
    fn rejects_out_of_range_risk() {
        let mut k = Writer::new();
        k.field_bytes(1, &[0u8; 16]);
        k.field_int32(2, 9);
        k.field_int32(3, 100);
        let mut msg = Writer::new();
        msg.field_message(7, &k);
        let mut bytes = EXPORT_HEADER.to_vec();
        bytes.extend_from_slice(&msg.finish());
        assert!(matches!(
            TemporaryExposureKeyExport::decode(&bytes),
            Err(ExportError::BadKey(_))
        ));
    }

    #[test]
    fn default_rolling_period_applies() {
        // Omit field 4; decoded key must default to 144.
        let mut k = Writer::new();
        k.field_bytes(1, &[7u8; 16]);
        k.field_int32(3, 2_650_000);
        let mut msg = Writer::new();
        msg.field_message(7, &k);
        let mut bytes = EXPORT_HEADER.to_vec();
        bytes.extend_from_slice(&msg.finish());
        let export = TemporaryExposureKeyExport::decode(&bytes).unwrap();
        assert_eq!(export.keys[0].tek.rolling_period, 144);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let mut msg = Writer::new();
        msg.field_fixed64(1, 10);
        msg.field_fixed64(2, 20);
        msg.field_varint(99, 12345); // unknown field
        let mut bytes = EXPORT_HEADER.to_vec();
        bytes.extend_from_slice(&msg.finish());
        let export = TemporaryExposureKeyExport::decode(&bytes).unwrap();
        assert_eq!(export.start_timestamp, 10);
        assert_eq!(export.end_timestamp, 20);
    }

    #[test]
    fn size_grows_linearly_with_keys() {
        let small = TemporaryExposureKeyExport::new_de(0, 1, sample_keys(10)).encoded_len();
        let large = TemporaryExposureKeyExport::new_de(0, 1, sample_keys(110)).encoded_len();
        let per_key = (large - small) as f64 / 100.0;
        // Each key record: 16 key bytes + tags/varints ≈ 28–32 bytes.
        assert!((24.0..40.0).contains(&per_key), "per-key size {per_key}");
    }
}
