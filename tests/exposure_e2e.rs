//! End-to-end tests of the Exposure Notification key-export path the
//! traffic model depends on: freshly generated TEKs packed into the
//! CDN's export wire format, whose size sets the key-download flow sizes
//! the paper's NetFlow traces contain.

use cwa_repro::exposure::export::TemporaryExposureKeyExport;
use cwa_repro::exposure::time::{EnIntervalNumber, TEK_ROLLING_PERIOD};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const DAY: u32 = TEK_ROLLING_PERIOD;

/// The export file size drives the paper's measured download flows; it
/// must scale like the real format (~28 bytes/key + header).
#[test]
fn export_sizes_match_expected_wire_overhead() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut sizes = Vec::new();
    for n in [0usize, 1, 10, 100, 1000] {
        let keys: Vec<_> = (0..n)
            .map(|_| {
                let tek = cwa_repro::exposure::TemporaryExposureKey::generate(
                    &mut rng,
                    EnIntervalNumber(18_300 * DAY),
                );
                cwa_repro::exposure::DiagnosisKey::new(tek, 4)
            })
            .collect();
        let export = TemporaryExposureKeyExport::new_de(0, 86_400, keys);
        sizes.push(export.encoded_len());
    }
    assert!(sizes.windows(2).all(|w| w[1] > w[0]));
    let per_key = (sizes[4] - sizes[3]) as f64 / 900.0;
    assert!(
        (24.0..36.0).contains(&per_key),
        "marginal key cost {per_key} bytes"
    );
}
