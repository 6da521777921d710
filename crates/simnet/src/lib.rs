//! # cwa-simnet — the simulated measurement environment
//!
//! This crate stands in for everything the authors *had* but we cannot:
//! the live CWA CDN, sixteen million phones, the German ISP landscape,
//! and BENOCS' NetFlow vantage point in front of the backend data
//! center. It generates the HTTPS traffic the paper measured and runs it
//! through the `cwa-netflow` measurement apparatus:
//!
//! * [`cdn`] — the CWA hosting infrastructure: two IPv4 service prefixes
//!   (the paper filters §2 on "2 IPv4 prefixes mentioned in the CWA
//!   backend documentation"), HTTPS-only servers, DNS names for API and
//!   website, and daily diagnosis-key export files sized by the real
//!   export format from `cwa-exposure`.
//! * [`samplers`] / [`stats`] — seeded samplers for the traffic
//!   generator: exact constant-draw Poisson (inversion + PTRS) and
//!   Binomial (BINV + BTPE), paired Box–Muller normals and the
//!   sampling-at-generation thinning live in the shared `cwa-samplers`
//!   crate (re-exported here as [`samplers`]; [`stats`] re-exports the
//!   common draws).
//! * [`traffic`] — the prefix-cohort traffic generator: every routing
//!   prefix carries its district's share of app users and website
//!   visitors; hourly flow intensities follow adoption × diurnal ×
//!   media; flows get realistic packet/byte sizes; client addresses
//!   honour each ISP's static/dynamic assignment behaviour. Background
//!   (non-CWA) traffic is mixed in so that the analysis' filtering step
//!   has something to reject. It applies the routers' 1-in-N packet
//!   sampling itself and emits only the flows they sample.
//! * [`vantage`] — the measurement vantage point: border routers running
//!   sampled NetFlow (flow caches fed the generator's sampled packet
//!   counts), v5 export, and a
//!   collector that Crypto-PAn-anonymizes client addresses; it also
//!   produces the *side tables* (anonymized-prefix → geolocation /
//!   ISP/router info) that a mediating network operator would hand to
//!   researchers along with anonymized traces.
//! * [`dns`] — the DNS ecosystem: open-resolver query volumes for the
//!   API and website names, an Umbrella-style top-list rank model (§2:
//!   the API name entered the Umbrella Top 1M on June 24 while "the
//!   website never appeared"), and the resolver-based prefix
//!   verification the authors performed.
//! * [`sim`] — the orchestrator tying all models into one seeded,
//!   reproducible simulation run with calibration ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdn;
pub mod dns;
pub mod sim;
pub mod stats;
pub mod traffic;
pub mod vantage;

pub use cwa_samplers as samplers;

pub use cdn::{CdnConfig, CdnMigration, MIGRATION_PREFIX};
pub use dns::{DnsStudy, TopListModel};
pub use sim::{
    ExtraOutbreak, OutbreakTweaks, PreparedSim, ScenarioKind, SimConfig, SimOutput, Simulation,
    TrafficTuning,
};
pub use traffic::{GroundTruth, TrafficConfig};
pub use vantage::{
    run_sharded_into, ExportFormat, IspSideEntry, ShardKeyMode, VantageConfig, VantagePoint,
    VantageRunStats,
};
