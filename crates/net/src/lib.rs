//! Packet substrate for the `idsbench` replay-evaluation framework.
//!
//! This crate provides everything the higher layers need to work with raw
//! network traffic without any external capture library:
//!
//! * typed protocol headers with byte-exact parsing and serialization
//!   ([`EthernetHeader`], [`Ipv4Header`], [`Ipv6Header`], [`TcpHeader`],
//!   [`UdpHeader`], [`IcmpHeader`], [`ArpPacket`]),
//! * a zero-copy [`Packet`] record plus a fully decoded [`ParsedPacket`] view,
//! * a [`PacketBuilder`] that assembles valid frames (lengths and checksums
//!   computed for you),
//! * classic libpcap file I/O ([`pcap::PcapReader`], [`pcap::PcapWriter`])
//!   supporting both byte orders and microsecond/nanosecond resolution,
//! * fast hashing for the per-packet state maps of the layers above
//!   ([`fasthash::FxHashMap`], [`fasthash::FxHashSet`] over
//!   [`fasthash::FxHasher`]).
//!
//! # Examples
//!
//! Build a TCP SYN packet, serialize it, and parse it back:
//!
//! ```
//! use idsbench_net::{MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp};
//! use std::net::Ipv4Addr;
//!
//! # fn main() -> Result<(), idsbench_net::NetError> {
//! let packet = PacketBuilder::new()
//!     .ethernet(MacAddr::new([0, 1, 2, 3, 4, 5]), MacAddr::BROADCAST)
//!     .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
//!     .tcp(40000, 80, TcpFlags::SYN)
//!     .build(Timestamp::from_micros(1_000_000));
//!
//! let parsed = ParsedPacket::parse(&packet)?;
//! assert_eq!(parsed.src_port(), Some(40000));
//! assert_eq!(parsed.dst_port(), Some(80));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod addr;
mod arp;
mod builder;
mod checksum;
mod error;
mod ethernet;
pub mod fasthash;
mod icmp;
mod ipv4;
mod ipv6;
mod packet;
pub mod pcap;
mod tcp;
mod time;
mod udp;
pub mod wire;

pub use addr::MacAddr;
pub use arp::{ArpOperation, ArpPacket};
pub use builder::PacketBuilder;
pub use checksum::{internet_checksum, pseudo_header_checksum};
pub use error::NetError;
pub use ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
pub use icmp::{IcmpHeader, IcmpType, ICMP_HEADER_LEN};
pub use ipv4::{IpProtocol, Ipv4Header, IPV4_MIN_HEADER_LEN};
pub use ipv6::{Ipv6Header, IPV6_HEADER_LEN};
pub use packet::{NetworkLayer, Packet, ParsedPacket, TransportLayer};
pub use tcp::{TcpFlags, TcpHeader, TCP_MIN_HEADER_LEN};
pub use time::{Duration, Timestamp};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, NetError>;
