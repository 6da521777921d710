//! Pure helpers of the benchmark: sample statistics, the metric-name
//! grammar, the `/proc` CPU and RSS readers, scrape failure counting
//! and the per-layer ledger arithmetic. Everything here works on plain
//! inputs, so the unit tests below drive it with synthetic data.

use std::collections::BTreeSet;
use std::time::Duration;

/// Median of `xs` (mean of the two middle values for even counts).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Whether percentile `p` (0–100) of `n` samples has at least ten
/// samples beyond it — the rule under which a tail percentile may be
/// reported at all.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9
}

/// The highest percentile of the ladder 50, 90, 99, 99.9 that `n`
/// samples support (see [`percentile_supported`]).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| percentile_supported(n, p))
}

/// Nearest-rank percentile `p` (0–100) of `xs`: the smallest sample
/// with at least `p` % of the samples at or below it. Failed requests
/// enter as `f64::INFINITY`, so they count as missing any limit.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The metric-name grammar: starts with a letter or digit, at most 64
/// characters of letters, digits, `_`, `.` and `-`.
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit grammar: 1–16 characters of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Clock ticks per second of `/proc/*/stat` times (the kernel's fixed
/// user-space `USER_HZ`).
pub const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of a `/proc/<pid>/stat` (or
/// `/proc/thread-self/stat`) file. The command name may contain spaces
/// and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state is field 3, utime 14 and stime 15 (1-based).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (its `VmHWM` line, in KiB).
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds this process has used so far, all threads included
/// (threads that already exited too).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat is readable")
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/thread-self/stat is readable")
}

/// Peak resident memory of this process in MiB.
pub fn process_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_peak_rss_mb(&s))
        .expect("/proc/self/status has VmHWM")
}

/// What one scrape request came back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// A complete HTTP response with this status code.
    Status(u16),
    /// Connection refused or reset, timeout, or a malformed response.
    Broken,
}

/// Counts scrape failures. A request fails on a broken connection, on
/// any status other than 200 and 503, and on a 503 from a path that has
/// already answered 200: a 503 means "nothing published yet", which is
/// only legitimate before the first publish of that document.
#[derive(Debug, Default)]
pub struct FailureCounter {
    published: BTreeSet<String>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl FailureCounter {
    /// Records one request to `path`; returns whether it failed.
    pub fn record(&mut self, path: &str, reply: Reply) -> bool {
        self.attempted += 1;
        let failed = match reply {
            Reply::Status(200) => {
                self.published.insert(path.to_owned());
                false
            }
            Reply::Status(503) => self.published.contains(path),
            Reply::Status(_) | Reply::Broken => true,
        };
        if failed {
            self.failed += 1;
        }
        failed
    }
}

/// Busy time per layer from one traced run, in the order the layers
/// were first timed, beside the run's own wall clock.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    rows: Vec<(String, Duration)>,
}

impl Ledger {
    /// Adds `d` to row `name`, creating it on first use.
    pub fn add(&mut self, name: &str, d: Duration) {
        match self.rows.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += d,
            None => self.rows.push((name.to_owned(), d)),
        }
    }

    /// Seconds booked on row `name` (0 when never timed).
    pub fn seconds(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, d)| d.as_secs_f64())
    }

    /// The rows in first-use order.
    pub fn rows(&self) -> &[(String, Duration)] {
        &self.rows
    }

    /// Sum of all rows, in seconds.
    pub fn total_s(&self) -> f64 {
        self.rows.iter().map(|(_, d)| d.as_secs_f64()).sum()
    }

    /// Share of `wall_s` that no row accounts for: `(wall − Σ rows) /
    /// wall`. Negative when rows overlap (they must not).
    pub fn residual_share(&self, wall_s: f64) -> f64 {
        (wall_s - self.total_s()) / wall_s
    }
}

/// Extra time the traced run took over the untraced one, as a share of
/// the untraced wall clock.
pub fn trace_overhead_share(traced_wall_s: f64, untraced_wall_s: f64) -> f64 {
    traced_wall_s / untraced_wall_s - 1.0
}

/// Lower-case hex SHA-256 of `bytes` (output fingerprints).
pub fn sha256_hex(bytes: &[u8]) -> String {
    cwa_crypto::sha256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile_counts_failures_as_misses() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        let mut with_failures = xs.clone();
        with_failures[0] = f64::INFINITY;
        with_failures[1] = f64::INFINITY;
        assert_eq!(percentile(&with_failures, 99.0), Some(f64::INFINITY));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn metric_name_and_unit_grammar() {
        for ok in ["wall_s", "shard.00.sink_busy_s", "9lives", "a-b.c_d"] {
            assert!(is_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", long.as_str()] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        assert!(is_metric_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MiB"] {
            assert!(is_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-record", "µs"] {
            assert!(!is_unit(bad), "{bad}");
        }
    }

    #[test]
    fn cpu_reader_skips_command_names_with_spaces_and_parens() {
        let stat = "4242 (perf (bench) x) R 1 2 3 4 5 6 7 8 9 10 250 130 0 0 20 0 9 0 100 \
                    1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.8));
        assert_eq!(parse_stat_cpu_s("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_s("no parens"), None);
    }

    #[test]
    fn rss_reader_reads_the_high_water_mark() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 20480 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_status_peak_rss_mb("VmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        let busy_until = std::time::Instant::now() + Duration::from_millis(50);
        while std::time::Instant::now() < busy_until {}
        assert!(process_cpu_s() > 0.0);
        assert!(thread_cpu_s() >= 0.0);
        assert!(process_peak_rss_mb() > 0.1);
    }

    #[test]
    fn failure_counting_tolerates_503_only_before_first_publish() {
        let mut c = FailureCounter::default();
        assert!(!c.record("/report", Reply::Status(503)));
        assert!(!c.record("/report", Reply::Status(503)));
        assert!(!c.record("/report", Reply::Status(200)));
        assert!(c.record("/report", Reply::Status(503)));
        // Publication is tracked per path.
        assert!(!c.record("/figures/geo", Reply::Status(503)));
        assert!(c.record("/progress", Reply::Status(404)));
        assert!(c.record("/progress", Reply::Broken));
        assert_eq!((c.attempted, c.failed), (7, 3));
    }

    #[test]
    fn ledger_rows_accumulate_and_leave_a_residual() {
        let mut l = Ledger::default();
        l.add("traffic.generate", Duration::from_millis(600));
        l.add("vantage.route_sample", Duration::from_millis(250));
        l.add("traffic.generate", Duration::from_millis(100));
        assert_eq!(l.rows().len(), 2);
        assert_eq!(l.rows()[0].0, "traffic.generate");
        assert!((l.seconds("traffic.generate") - 0.7).abs() < 1e-12);
        assert_eq!(l.seconds("missing"), 0.0);
        assert!((l.total_s() - 0.95).abs() < 1e-12);
        assert!((l.residual_share(1.0) - 0.05).abs() < 1e-12);
        assert!(l.residual_share(0.9) < 0.0);
        assert!((trace_overhead_share(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!((trace_overhead_share(0.95, 1.0) + 0.05).abs() < 1e-12);
    }

    #[test]
    fn sha256_hex_matches_the_standard_vector() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}
