//! Flow keys and records, following the NetFlow v5 field set.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

/// IP protocol numbers we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Protocol {
    /// TCP (6) — all CWA traffic is HTTPS over TCP.
    Tcp = 6,
    /// UDP (17) — e.g. DNS.
    Udp = 17,
    /// ICMP (1).
    Icmp = 1,
}

impl Protocol {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        self as u8
    }

    /// Parses an IANA protocol number.
    pub fn from_number(n: u8) -> Option<Self> {
        match n {
            6 => Some(Protocol::Tcp),
            17 => Some(Protocol::Udp),
            1 => Some(Protocol::Icmp),
            _ => None,
        }
    }
}

/// The 5-tuple identifying a unidirectional flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol.
    pub protocol: Protocol,
}

impl FlowKey {
    /// Convenience constructor for a TCP flow.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Tcp,
        }
    }

    /// The reverse-direction key.
    pub fn reversed(&self) -> Self {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }
}

/// An exported unidirectional flow record.
///
/// Timestamps are in **milliseconds** of simulation time (the v5 format
/// uses router uptime milliseconds; we keep absolute simulation time and
/// convert in the codec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The flow 5-tuple.
    pub key: FlowKey,
    /// Number of (sampled) packets accounted to this record.
    pub packets: u64,
    /// Number of (sampled) bytes accounted to this record.
    pub bytes: u64,
    /// Time of the first accounted packet, ms.
    pub first_ms: u64,
    /// Time of the last accounted packet, ms.
    pub last_ms: u64,
    /// Cumulative-OR of TCP flags seen (v5 `tcp_flags`).
    pub tcp_flags: u8,
}

impl FlowRecord {
    /// Flow duration in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.last_ms.saturating_sub(self.first_ms)
    }
}

/// Prefix membership test: does `addr` fall within `prefix/len`?
pub fn in_prefix(addr: Ipv4Addr, prefix: Ipv4Addr, len: u8) -> bool {
    if len == 0 {
        return true;
    }
    let len = len.min(32);
    let mask = if len == 32 {
        u32::MAX
    } else {
        !(u32::MAX >> len)
    };
    (u32::from(addr) & mask) == (u32::from(prefix) & mask)
}

/// Truncates `addr` to its `/len` network prefix.
pub fn prefix_of(addr: Ipv4Addr, len: u8) -> Ipv4Addr {
    if len == 0 {
        return Ipv4Addr::UNSPECIFIED;
    }
    let len = len.min(32);
    let mask = if len == 32 {
        u32::MAX
    } else {
        !(u32::MAX >> len)
    };
    Ipv4Addr::from(u32::from(addr) & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_numbers() {
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::from_number(6), Some(Protocol::Tcp));
        assert_eq!(Protocol::from_number(17), Some(Protocol::Udp));
        assert_eq!(Protocol::from_number(99), None);
    }

    #[test]
    fn key_reverse_is_involution() {
        let k = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            Ipv4Addr::new(192, 168, 1, 2),
            51000,
        );
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn prefix_membership() {
        let p = Ipv4Addr::new(81, 200, 16, 0);
        assert!(in_prefix(Ipv4Addr::new(81, 200, 16, 77), p, 22));
        assert!(in_prefix(Ipv4Addr::new(81, 200, 19, 255), p, 22));
        assert!(!in_prefix(Ipv4Addr::new(81, 200, 20, 0), p, 22));
        // /0 matches everything; /32 only the exact host.
        assert!(in_prefix(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::UNSPECIFIED,
            0
        ));
        assert!(in_prefix(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(1, 2, 3, 4),
            32
        ));
        assert!(!in_prefix(
            Ipv4Addr::new(1, 2, 3, 5),
            Ipv4Addr::new(1, 2, 3, 4),
            32
        ));
    }

    #[test]
    fn prefix_truncation() {
        assert_eq!(
            prefix_of(Ipv4Addr::new(93, 184, 216, 34), 24),
            Ipv4Addr::new(93, 184, 216, 0)
        );
        assert_eq!(
            prefix_of(Ipv4Addr::new(93, 184, 216, 34), 8),
            Ipv4Addr::new(93, 0, 0, 0)
        );
        assert_eq!(
            prefix_of(Ipv4Addr::new(93, 184, 216, 34), 0),
            Ipv4Addr::UNSPECIFIED
        );
        assert_eq!(
            prefix_of(Ipv4Addr::new(93, 184, 216, 34), 32),
            Ipv4Addr::new(93, 184, 216, 34)
        );
    }

    #[test]
    fn record_helpers() {
        let rec = FlowRecord {
            key: FlowKey::tcp(
                Ipv4Addr::new(81, 200, 16, 10),
                443,
                Ipv4Addr::new(93, 10, 2, 3),
                40000,
            ),
            packets: 3,
            bytes: 4096,
            first_ms: 1000,
            last_ms: 4500,
            tcp_flags: 0x1b,
        };
        assert_eq!(rec.duration_ms(), 3500);
    }
}
