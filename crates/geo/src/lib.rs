//! # cwa-geo — a synthetic but structurally faithful model of Germany
//!
//! The paper geolocates CWA request traffic "*within Germany … by ZIP
//! code areas*" (Fig. 3), deriving 18 % of geolocations from
//! ground-truth router locations of one ISP and the rest from a
//! Maxmind-style geolocation database applied to routing prefixes (§3).
//! This crate builds every geographic substrate that pipeline needs:
//!
//! * [`state`] — the 16 real federal states with 2020 populations.
//! * [`district`] — 401 districts (Kreise): real anchors for every state
//!   capital, the major cities, and the paper's three outbreak districts
//!   (**Berlin**, **Gütersloh**, **Warendorf**), plus synthesized rural
//!   districts that conserve each state's population; each district has
//!   coordinates, a ZIP prefix, and an urbanization class.
//! * [`germany`] — the assembled country with lookups, neighbor
//!   relations, and distance helpers.
//! * [`isp`] — a six-ISP market model with national shares, per-district
//!   IPv4 prefix pools (the "routing prefixes" of the paper), and
//!   static vs. dynamic address-assignment behaviour (DSL 24 h
//!   reconnects vs. sticky cable/fiber leases) — the mechanism behind
//!   the paper's prefix-persistence statistics. One ISP ("RegioNet",
//!   18 % share) is the ground-truth ISP whose router locations are
//!   known exactly, matching the paper's 18 % figure.
//! * [`routers`] — the ground-truth ISP's customer-facing routers, with
//!   the rural aggregation effect the paper warns about ("the router
//!   city-location can be off the clients location").
//! * [`geodb`] — a Maxmind-like geolocation database over those
//!   prefixes with a configurable city-level error model (the paper
//!   cites Poese et al. on geolocation-DB unreliability and warns about
//!   exactly these errors).
//!
//! Everything is deterministic given a seed; no external data files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod district;
pub mod geodb;
pub mod germany;
pub mod isp;
pub mod routers;
pub mod state;

pub use district::{District, DistrictId, UrbanClass};
pub use geodb::{GeoDb, GeoDbConfig, GeoEntry};
pub use germany::Germany;
pub use isp::{AccessKind, AddressPlan, AddressPlanConfig, Isp, IspId, PrefixAllocation};
pub use routers::{RouterInfo, RouterMap, RouterMapConfig};
pub use state::FederalState;
