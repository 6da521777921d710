//! # cwa-netflow — the NetFlow measurement substrate
//!
//! The paper's data set is "*sampled Netflow traces from routers
//! connecting the data center hosting the CWA backend*" (§2), with
//! prefix-preserving anonymized client addresses, and the authors note
//! that "*the routers Netflow cache eviction settings and sampling result
//! in only observing few packets for most flows*". This crate rebuilds
//! that measurement apparatus:
//!
//! * [`flow`] — flow keys and flow records (the v5 field set).
//! * [`sampling`] — the 1-in-N random packet-sampling law: the sampled
//!   count of an n-packet flow is Binomial(n, 1/N).
//! * [`cache`] — the router flow cache with **active** and **inactive**
//!   timeout eviction and size-bounded emergency expiry — the mechanism
//!   that splits long flows into several records and makes flow-size-based
//!   app/website differentiation infeasible (a limitation §2 discusses).
//! * [`v5`] — the NetFlow v5 export wire format (24-byte header,
//!   48-byte records) with a round-tripping codec.
//! * [`v9`] — the template-based NetFlow v9 format (RFC 3954) with a
//!   template-caching decoder, as modern exporters speak it.
//! * [`anonymize`] — **Crypto-PAn** prefix-preserving IPv4 anonymization
//!   (Xu et al.), built on the AES implementation in `cwa-crypto`; this is
//!   the "prefix-preserving anonymized" property of §2.
//! * [`collector`] — decodes export datagrams straight into columnar
//!   record chunks and tracks export loss via sequence numbers.
//! * [`hash`] — the fast hasher for simulator-made keys, shared by the
//!   flow cache and the analysis tables.
//! * [`sink`] — the [`FlowSink`] streaming-consumer trait: producers
//!   hand records to consumers chunk by chunk so resident memory stays
//!   O(chunk) instead of O(total records).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymize;
pub mod cache;
pub mod collector;
pub mod flow;
pub mod hash;
pub mod sampling;
pub mod sink;
pub mod v5;
pub mod v9;

pub use anonymize::{CachedCryptoPan, CryptoPan};
pub use cache::{FlowCache, FlowCacheConfig};
pub use collector::Collector;
pub use flow::{FlowKey, FlowRecord, Protocol};
pub use sink::{CountingSink, FlowChunk, FlowSink, DEFAULT_CHUNK_CAPACITY};
pub use v5::{ExportPacket, V5Header};
pub use v9::{V9Decoder, V9Exporter};
