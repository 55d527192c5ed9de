use std::fmt;
use std::ops::{BitOr, BitOrAssign};

use crate::{NetError, Result};

/// Minimum length of a TCP header (no options) in bytes.
pub const TCP_MIN_HEADER_LEN: usize = 20;

/// TCP control flags as a typed bit set.
///
/// # Examples
///
/// ```
/// use idsbench_net::TcpFlags;
///
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert!(!synack.contains(TcpFlags::FIN));
/// assert_eq!(synack.to_string(), "SA");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender is finished.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);
    /// ECE: ECN echo.
    pub const ECE: TcpFlags = TcpFlags(0x40);
    /// CWR: congestion window reduced.
    pub const CWR: TcpFlags = TcpFlags(0x80);

    /// Builds a flag set from the raw header byte.
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits)
    }

    /// The raw header byte.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Whether every flag in `other` is also set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    /// Renders in tcpdump's compact notation (`S`, `SA`, `FPA`, ...), with
    /// `.` for the empty set.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, ".");
        }
        const NAMES: [(TcpFlags, char); 8] = [
            (TcpFlags::FIN, 'F'),
            (TcpFlags::SYN, 'S'),
            (TcpFlags::RST, 'R'),
            (TcpFlags::PSH, 'P'),
            (TcpFlags::ACK, 'A'),
            (TcpFlags::URG, 'U'),
            (TcpFlags::ECE, 'E'),
            (TcpFlags::CWR, 'C'),
        ];
        for (flag, ch) in NAMES {
            if self.contains(flag) {
                write!(f, "{ch}")?;
            }
        }
        Ok(())
    }
}

/// A TCP segment header.
///
/// Options are supported on parse (skipped, reflected in `header_len`) and
/// never emitted by [`TcpHeader::to_bytes`]. The checksum field is carried
/// verbatim on parse; [`crate::PacketBuilder`] fills it in on build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum as seen on the wire (zero before the builder fills it in).
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
    /// Header length in bytes (20 when no options are present).
    pub header_len: u8,
}

impl TcpHeader {
    /// Creates an option-less header with a zero checksum.
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags,
            window: 64_240,
            checksum: 0,
            urgent: 0,
            header_len: TCP_MIN_HEADER_LEN as u8,
        }
    }

    /// Parses a header from the front of `data`.
    ///
    /// Returns the header and the number of bytes consumed (including
    /// options).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] for short input and
    /// [`NetError::InvalidField`] when the data-offset field is below the
    /// legal minimum.
    pub fn parse(data: &[u8]) -> Result<(Self, usize)> {
        if data.len() < TCP_MIN_HEADER_LEN {
            return Err(NetError::truncated("tcp header", TCP_MIN_HEADER_LEN, data.len()));
        }
        let data_offset = (data[12] >> 4) as usize * 4;
        if data_offset < TCP_MIN_HEADER_LEN {
            return Err(NetError::invalid("tcp header", format!("data offset {data_offset} < 20")));
        }
        if data.len() < data_offset {
            return Err(NetError::truncated("tcp options", data_offset, data.len()));
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
                flags: TcpFlags::from_bits(data[13]),
                window: u16::from_be_bytes([data[14], data[15]]),
                checksum: u16::from_be_bytes([data[16], data[17]]),
                urgent: u16::from_be_bytes([data[18], data[19]]),
                header_len: data_offset as u8,
            },
            data_offset,
        ))
    }

    /// Serializes to the 20-byte option-less wire form.
    ///
    /// The stored `checksum` is written verbatim; use
    /// [`crate::pseudo_header_checksum`] to compute a real one.
    pub fn to_bytes(&self) -> [u8; TCP_MIN_HEADER_LEN] {
        let mut out = [0u8; TCP_MIN_HEADER_LEN];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = 5 << 4; // data offset 5 words
        out[13] = self.flags.bits();
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        out[18..20].copy_from_slice(&self.urgent.to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TcpHeader {
        let mut header = TcpHeader::new(443, 51234, TcpFlags::PSH | TcpFlags::ACK);
        header.seq = 0x0102_0304;
        header.ack = 0xa0b0_c0d0;
        header.window = 1024;
        header
    }

    #[test]
    fn round_trip() {
        let header = sample();
        let (parsed, consumed) = TcpHeader::parse(&header.to_bytes()).unwrap();
        assert_eq!(consumed, TCP_MIN_HEADER_LEN);
        assert_eq!(parsed, header);
    }

    #[test]
    fn parses_options_length() {
        let mut bytes = vec![0u8; 32];
        bytes[12] = 8 << 4; // 8 words = 32 bytes
        let (header, consumed) = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(consumed, 32);
        assert_eq!(header.header_len, 32);
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut bytes = sample().to_bytes();
        bytes[12] = 2 << 4;
        assert!(matches!(TcpHeader::parse(&bytes), Err(NetError::InvalidField { .. })));
    }

    #[test]
    fn rejects_truncated_options() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[12] = 10 << 4; // claims 40 bytes, only 20 present
        assert!(matches!(TcpHeader::parse(&bytes), Err(NetError::Truncated { .. })));
    }

    #[test]
    fn flag_set_operations() {
        let mut flags = TcpFlags::SYN;
        flags |= TcpFlags::ECE;
        assert!(!flags.contains(TcpFlags::SYN | TcpFlags::FIN));
        assert_eq!(flags.bits(), 0x42);
    }

    #[test]
    fn flag_display() {
        assert_eq!(TcpFlags::EMPTY.to_string(), ".");
        assert_eq!((TcpFlags::FIN | TcpFlags::PSH | TcpFlags::ACK).to_string(), "FPA");
    }
}
