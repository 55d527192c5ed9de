use std::fmt;
use std::str::FromStr;

use crate::NetError;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use idsbench_net::MacAddr;
///
/// let mac: MacAddr = "02:42:ac:11:00:02".parse().unwrap();
/// assert_eq!(mac.to_string(), "02:42:ac:11:00:02");
/// assert!(mac.is_locally_administered());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address `00:00:00:00:00:00`.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// The six octets of the address.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Whether the multicast (group) bit is set.
    pub const fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Whether the locally-administered bit is set.
    pub const fn is_locally_administered(self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Derives a deterministic locally-administered unicast address from an
    /// integer identifier. Useful for synthetic hosts: distinct identifiers
    /// map to distinct addresses.
    pub const fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 prefix: locally administered, unicast.
        MacAddr([0x02, 0x1d, b[0], b[1], b[2], b[3]])
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(mac: MacAddr) -> Self {
        mac.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", o[0], o[1], o[2], o[3], o[4], o[5])
    }
}

impl FromStr for MacAddr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut count = 0;
        for part in s.split(':') {
            if count == 6 {
                return Err(NetError::invalid("mac address", "more than 6 octets"));
            }
            octets[count] = u8::from_str_radix(part, 16)
                .map_err(|_| NetError::invalid("mac address", format!("bad octet {part:?}")))?;
            count += 1;
        }
        if count != 6 {
            return Err(NetError::invalid(
                "mac address",
                format!("expected 6 octets, got {count}"),
            ));
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let mac: MacAddr = "de:ad:be:ef:00:01".parse().unwrap();
        assert_eq!(mac.octets(), [0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(mac.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn rejects_malformed_strings() {
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:01:02".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:01".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_bits() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::new([0x02, 0, 0, 0, 0, 1]).is_multicast());
        assert!(MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
    }

    #[test]
    fn host_ids_map_to_distinct_unicast_addrs() {
        let a = MacAddr::from_host_id(1);
        let b = MacAddr::from_host_id(2);
        assert_ne!(a, b);
        assert!(!a.is_multicast());
        assert!(a.is_locally_administered());
    }
}
