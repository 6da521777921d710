//! # cwa-analysis — the paper's measurement analysis pipeline
//!
//! Everything in this crate consumes only what the paper's authors had:
//! **anonymized, sampled flow records** plus public side data (the CDN's
//! documented service prefixes, the official download numbers, a
//! prefix-keyed geolocation table, and the per-ISP router ground truth
//! for one ISP). It never touches simulator ground truth.
//!
//! * [`filter`] — §2's data-set construction: keep HTTPS (tcp/443) IPv4
//!   flows *from* the two CWA service prefixes *to* users.
//! * [`timeseries`] — Figure 2: hourly flow/byte series normalized to
//!   the minimum, day totals, and the June-16 release jump (the "7.5×
//!   increase of flows").
//! * [`persistence`] — §3's prefix persistence: per routing prefix, the
//!   fraction of days between its first and last appearance on which it
//!   was actually observed; reported as quantiles ("50 % (75 %) of the
//!   prefixes occur in 67 % (80 %) of possible days").
//! * [`geoloc`] — Figure 3: two-source geolocation (router ground truth
//!   where available, geolocation DB otherwise), district aggregation
//!   normalized to the maximum, district coverage, and the ground-truth
//!   share ("18 % of geolocations").
//! * [`outbreak`] — §3's outbreak analysis: growth ratios around June 23
//!   per federal state (NRW vs. the rest), the Gütersloh local check,
//!   and the Berlin June-18 single-ISP check.
//! * [`stream`] — the mergeable counters of one streaming pass (records
//!   in, records matched, per-consumer deliveries); the study driver
//!   applies the §2 filter once per chunk and feeds every consumer —
//!   all analyses in **one** record pass, O(chunk) resident memory.
//! * [`windowed`] — the live view: wraps all four consumers in a
//!   [`WindowedView`](windowed::WindowedView) that keeps cumulative
//!   study-window state plus a sliding last-N-days window with tiered
//!   downsampling (raw hours → daily summaries → lifetime totals), so an
//!   endless run stays memory-bounded while serving current figures.
//! * [`figures`] — assembles the Figure-2 and Figure-3 data structures
//!   and renders them as text/CSV for the report and the examples.
//! * [`stats`] — quantiles/correlation/Gini/bootstrap CIs, and [`svg`] —
//!   self-contained SVG renderings of both figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod filter;
pub mod geoloc;
pub mod outbreak;
pub mod persistence;
pub mod stats;
pub mod stream;
pub mod svg;
pub mod timeseries;
pub mod windowed;

pub use figures::{Figure2, Figure3};
pub use filter::FlowFilter;
pub use geoloc::{GeoAttribution, GeoDayAccumulator, GeolocationPipeline};
pub use outbreak::{OutbreakAccumulator, OutbreakAnalysis};
pub use persistence::PersistenceAnalysis;
pub use stream::StreamCounts;
pub use timeseries::HourlySeries;
pub use windowed::{WindowConfig, WindowedSnapshot, WindowedView};
