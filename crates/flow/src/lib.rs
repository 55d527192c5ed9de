//! Flow substrate for the `idsbench` replay-evaluation framework.
//!
//! Network IDSs consume traffic in one of two shapes — raw packets or
//! aggregated *flows* — and the paper identifies converting between them as a
//! major practical obstacle. This crate implements both shapes over the
//! packet substrate:
//!
//! * [`FlowKey`]/[`FlowTable`]/[`FlowRecord`]: bidirectional flow assembly
//!   with idle/active timeouts and TCP teardown detection, producing
//!   CICFlowMeter-style statistical feature vectors
//!   ([`FlowFeatures::from_record`]). The table keeps records in a slab
//!   behind a `key → slot` hash map and finds due flows through an expiry
//!   index, so a packet costs a hash lookup plus O(log n) per flow it opens
//!   or expires — never a pass over the open flows, however many a scan or
//!   flood leaves behind. What is emitted, when, and in which order is a
//!   function of the packet timestamps alone (see [`FlowTable`]).
//! * [`DampedStat`]/[`DampedPairStat`]/[`AfterImage`]: the damped incremental
//!   statistics framework from Kitsune (Mirsky et al., NDSS'18) that HELAD
//!   reuses — per-packet 100-dimensional temporal context vectors computed in
//!   O(1) per packet. The statistics run as a λ bank in structure-of-arrays
//!   form: each moment is one array across the five decay rates, one clock
//!   serves them, and a shared [`DecayBank`] computes each distinct decay
//!   interval's factors once.
//! * [`RunningStats`]: exact streaming moments used by the flow features.
//!
//! # Examples
//!
//! Assemble flows from packets:
//!
//! ```
//! use idsbench_flow::{FlowTable, FlowTableConfig};
//! use idsbench_net::{MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp};
//! use std::net::Ipv4Addr;
//!
//! # fn main() -> Result<(), idsbench_net::NetError> {
//! let mut table = FlowTable::new(FlowTableConfig::default());
//! let packet = PacketBuilder::new()
//!     .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
//!     .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
//!     .tcp(40000, 80, TcpFlags::SYN)
//!     .build(Timestamp::from_secs(1));
//! table.observe(&ParsedPacket::parse(&packet)?);
//! let flows = table.flush();
//! assert_eq!(flows.len(), 1);
//! assert_eq!(flows[0].forward_packets, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod afterimage;
mod damped;
mod features;
mod key;
mod record;
mod running;
mod table;

pub use afterimage::{AfterImage, AfterImageConfig, AFTERIMAGE_FEATURES};
pub use damped::{DampedPairStat, DampedStat, DecayBank};
pub use features::{FlowFeatures, FLOW_FEATURE_COUNT, FLOW_FEATURE_NAMES};
pub use key::{FlowDirection, FlowKey};
pub use record::{FlowRecord, FlowTermination};
pub use running::RunningStats;
pub use table::{FlowTable, FlowTableConfig};
