//! Classic libpcap capture-file reading and writing.
//!
//! Supports the original `pcap` container (not pcapng): both byte orders,
//! microsecond (`0xa1b2c3d4`) and nanosecond (`0xa1b23c4d`) timestamp
//! resolution, Ethernet link type only. This is the format every dataset in
//! the paper ships in (when pcaps are available at all — see Table III).
//!
//! # Examples
//!
//! ```
//! use idsbench_net::pcap::{PcapReader, PcapWriter};
//! use idsbench_net::{Packet, Timestamp};
//! use std::io::Cursor;
//!
//! # fn main() -> Result<(), idsbench_net::NetError> {
//! let mut buf = Vec::new();
//! let mut writer = PcapWriter::new(&mut buf)?;
//! writer.write_packet(&Packet::new(Timestamp::from_secs(1), vec![0u8; 60]))?;
//! writer.flush()?;
//!
//! let mut reader = PcapReader::new(Cursor::new(buf))?;
//! let packet = reader.next_packet()?.expect("one packet");
//! assert_eq!(packet.ts, Timestamp::from_secs(1));
//! assert_eq!(packet.wire_len(), 60);
//! # Ok(())
//! # }
//! ```

use std::io::{Read, Write};

use bytes::Bytes;

use crate::packet::Packet;
use crate::time::Timestamp;
use crate::{NetError, Result};

const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
const MAGIC_NANOS: u32 = 0xa1b2_3c4d;
const MAGIC_MICROS_SWAPPED: u32 = 0xd4c3_b2a1;
const MAGIC_NANOS_SWAPPED: u32 = 0x4d3c_b2a1;
const LINKTYPE_ETHERNET: u32 = 1;
/// The standard maximum capture length written into the global header.
const DEFAULT_SNAPLEN: u32 = 65_535;
/// The largest capture length a record may claim, whatever the header's
/// snaplen says (libpcap's `MAXIMUM_SNAPLEN`): the header is as untrusted
/// as the records, and a record's buffer is sized before its bytes arrive.
const MAX_SNAPLEN: u32 = 262_144;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endianness {
    Native,
    Swapped,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    Micros,
    Nanos,
}

/// Streaming reader for classic pcap files.
///
/// Wraps any [`Read`] source. Note that a `&mut R` is itself a reader, so a
/// mutable reference can be passed when the caller needs the source back.
#[derive(Debug)]
pub struct PcapReader<R> {
    source: R,
    endianness: Endianness,
    resolution: Resolution,
    snaplen: u32,
    packets_read: u64,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadPcapMagic`] for an unknown magic number,
    /// [`NetError::UnsupportedLinkType`] for non-Ethernet captures, and
    /// [`NetError::Io`] for underlying read failures.
    pub fn new(mut source: R) -> Result<Self> {
        let mut header = [0u8; 24];
        source.read_exact(&mut header)?;
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let (endianness, resolution) = match magic {
            MAGIC_MICROS => (Endianness::Native, Resolution::Micros),
            MAGIC_NANOS => (Endianness::Native, Resolution::Nanos),
            MAGIC_MICROS_SWAPPED => (Endianness::Swapped, Resolution::Micros),
            MAGIC_NANOS_SWAPPED => (Endianness::Swapped, Resolution::Nanos),
            other => return Err(NetError::BadPcapMagic(other)),
        };
        let read_u32 = |bytes: &[u8]| -> u32 {
            let arr = [bytes[0], bytes[1], bytes[2], bytes[3]];
            match endianness {
                Endianness::Native => u32::from_le_bytes(arr),
                Endianness::Swapped => u32::from_be_bytes(arr),
            }
        };
        let snaplen = read_u32(&header[16..20]);
        let linktype = read_u32(&header[20..24]);
        if linktype != LINKTYPE_ETHERNET {
            return Err(NetError::UnsupportedLinkType(linktype));
        }
        Ok(PcapReader { source, endianness, resolution, snaplen, packets_read: 0 })
    }

    /// The snap length declared in the global header.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Number of packets returned so far.
    pub fn packets_read(&self) -> u64 {
        self.packets_read
    }

    /// Reads the next packet record, or `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the file ends mid-record or the underlying
    /// read fails, and [`NetError::InvalidField`] if a record claims a
    /// capture length beyond the snap length (at least 65,535) or beyond
    /// libpcap's 262,144-byte maximum (corrupt file).
    pub fn next_packet(&mut self) -> Result<Option<Packet>> {
        let mut data = Vec::new();
        Ok(self.read_record_into(&mut data)?.map(|ts| Packet { ts, data: Bytes::from(data) }))
    }

    /// [`PcapReader::next_packet`] into a caller-owned buffer: the record's
    /// frame bytes replace `data`'s contents and the capture timestamp is
    /// returned (`Ok(None)` at a clean end of file, with `data` cleared).
    ///
    /// This is the pooled-transport entry point — a feeder drawing buffers
    /// from a `PayloadArena` replays a capture without allocating a
    /// `Vec<u8>` per packet, the way [`PcapReader::next_packet`] must.
    ///
    /// # Errors
    ///
    /// Same as [`PcapReader::next_packet`].
    pub fn read_record_into(&mut self, data: &mut Vec<u8>) -> Result<Option<Timestamp>> {
        data.clear();
        let mut record = [0u8; 16];
        match self.source.read(&mut record[..1])? {
            0 => return Ok(None), // clean EOF
            _ => self.source.read_exact(&mut record[1..])?,
        }
        let read_u32 = |bytes: &[u8]| -> u32 {
            let arr = [bytes[0], bytes[1], bytes[2], bytes[3]];
            match self.endianness {
                Endianness::Native => u32::from_le_bytes(arr),
                Endianness::Swapped => u32::from_be_bytes(arr),
            }
        };
        let ts_secs = read_u32(&record[0..4]);
        let ts_frac = read_u32(&record[4..8]);
        let cap_len = read_u32(&record[8..12]);
        let limit = self.snaplen.clamp(DEFAULT_SNAPLEN, MAX_SNAPLEN);
        if cap_len > limit {
            return Err(NetError::invalid(
                "pcap record",
                format!("capture length {cap_len} exceeds {limit} (snaplen {})", self.snaplen),
            ));
        }
        let micros = match self.resolution {
            Resolution::Micros => u64::from(ts_secs) * 1_000_000 + u64::from(ts_frac),
            Resolution::Nanos => u64::from(ts_secs) * 1_000_000 + u64::from(ts_frac) / 1_000,
        };
        data.resize(cap_len as usize, 0);
        self.source.read_exact(data)?;
        self.packets_read += 1;
        Ok(Some(Timestamp::from_micros(micros)))
    }

    /// Consumes the reader and returns the underlying source.
    pub fn into_inner(self) -> R {
        self.source
    }
}

impl PcapReader<std::io::BufReader<std::fs::File>> {
    /// Opens a capture file for buffered streaming reads.
    ///
    /// The returned reader is lazy: records decode one at a time as
    /// [`PcapReader::next_packet`] (or the iterator) is driven, so captures
    /// larger than memory replay fine.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the file cannot be opened and any
    /// [`PcapReader::new`] error for a bad global header.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        PcapReader::new(std::io::BufReader::new(file))
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<Packet>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

/// Streaming writer for classic pcap files (native byte order, microsecond
/// resolution, Ethernet link type).
///
/// Wraps any [`Write`] sink; a `&mut W` can be passed when the caller needs
/// the sink back afterwards.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    sink: W,
    packets_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the header cannot be written.
    pub fn new(mut sink: W) -> Result<Self> {
        let mut header = [0u8; 24];
        header[0..4].copy_from_slice(&MAGIC_MICROS.to_le_bytes());
        header[4..6].copy_from_slice(&2u16.to_le_bytes()); // major
        header[6..8].copy_from_slice(&4u16.to_le_bytes()); // minor
                                                           // thiszone (8..12) and sigfigs (12..16) are zero.
        header[16..20].copy_from_slice(&DEFAULT_SNAPLEN.to_le_bytes());
        header[20..24].copy_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        sink.write_all(&header)?;
        Ok(PcapWriter { sink, packets_written: 0 })
    }

    /// Appends one packet record.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on write failure.
    pub fn write_packet(&mut self, packet: &Packet) -> Result<()> {
        let (secs, micros) = packet.ts.split();
        let len = packet.data.len() as u32;
        let mut record = [0u8; 16];
        record[0..4].copy_from_slice(&secs.to_le_bytes());
        record[4..8].copy_from_slice(&micros.to_le_bytes());
        record[8..12].copy_from_slice(&len.to_le_bytes());
        record[12..16].copy_from_slice(&len.to_le_bytes());
        self.sink.write_all(&record)?;
        self.sink.write_all(&packet.data)?;
        self.packets_written += 1;
        Ok(())
    }

    /// Number of packets written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on flush failure.
    pub fn flush(&mut self) -> Result<()> {
        self.sink.flush()?;
        Ok(())
    }

    /// Consumes the writer and returns the underlying sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(data: &[u8]) -> Result<Vec<Packet>> {
        PcapReader::new(data)?.collect()
    }

    fn write_all(packets: &[Packet]) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        let mut writer = PcapWriter::new(&mut buf)?;
        for packet in packets {
            writer.write_packet(packet)?;
        }
        Ok(buf)
    }

    fn sample_packets() -> Vec<Packet> {
        (0..5)
            .map(|i| {
                Packet::new(
                    Timestamp::from_micros(1_000_000 + i * 250_000),
                    vec![i as u8; 60 + i as usize],
                )
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip() {
        let packets = sample_packets();
        let image = write_all(&packets).unwrap();
        let restored = read_all(&image).unwrap();
        assert_eq!(restored, packets);
    }

    #[test]
    fn rejects_bad_magic() {
        let image = [0u8; 24];
        assert!(matches!(read_all(&image), Err(NetError::BadPcapMagic(0))));
    }

    #[test]
    fn rejects_non_ethernet_linktype() {
        let mut image = write_all(&[]).unwrap();
        image[20..24].copy_from_slice(&101u32.to_le_bytes()); // LINKTYPE_RAW
        assert!(matches!(read_all(&image), Err(NetError::UnsupportedLinkType(101))));
    }

    #[test]
    fn truncated_record_is_io_error() {
        let packets = sample_packets();
        let image = write_all(&packets).unwrap();
        let cut = &image[..image.len() - 10];
        assert!(matches!(read_all(cut), Err(NetError::Io(_))));
    }

    /// A record may not claim more than libpcap's maximum, even when the
    /// header's snaplen allows it: the reader refuses it before sizing a
    /// buffer for it.
    #[test]
    fn record_beyond_the_maximum_snaplen_is_invalid() {
        let mut image = write_all(&[]).unwrap();
        image[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        for field in [1u32, 0, MAX_SNAPLEN + 1, MAX_SNAPLEN + 1] {
            image.extend_from_slice(&field.to_le_bytes());
        }
        assert!(matches!(read_all(&image), Err(NetError::InvalidField { .. })));
    }

    #[test]
    fn reads_swapped_byte_order() {
        // Hand-build a big-endian file with one 4-byte packet.
        let mut image = Vec::new();
        image.extend_from_slice(&MAGIC_MICROS.to_be_bytes());
        image.extend_from_slice(&2u16.to_be_bytes());
        image.extend_from_slice(&4u16.to_be_bytes());
        image.extend_from_slice(&0u32.to_be_bytes());
        image.extend_from_slice(&0u32.to_be_bytes());
        image.extend_from_slice(&DEFAULT_SNAPLEN.to_be_bytes());
        image.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        image.extend_from_slice(&7u32.to_be_bytes()); // secs
        image.extend_from_slice(&9u32.to_be_bytes()); // micros
        image.extend_from_slice(&4u32.to_be_bytes()); // cap len
        image.extend_from_slice(&4u32.to_be_bytes()); // orig len
        image.extend_from_slice(&[1, 2, 3, 4]);
        let packets = read_all(&image).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].ts, Timestamp::from_micros(7_000_009));
        assert_eq!(&packets[0].data[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn reads_nanosecond_resolution() {
        let mut image = Vec::new();
        image.extend_from_slice(&MAGIC_NANOS.to_le_bytes());
        image.extend_from_slice(&2u16.to_le_bytes());
        image.extend_from_slice(&4u16.to_le_bytes());
        image.extend_from_slice(&0u32.to_le_bytes());
        image.extend_from_slice(&0u32.to_le_bytes());
        image.extend_from_slice(&DEFAULT_SNAPLEN.to_le_bytes());
        image.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        image.extend_from_slice(&1u32.to_le_bytes()); // secs
        image.extend_from_slice(&500_000_000u32.to_le_bytes()); // nanos
        image.extend_from_slice(&2u32.to_le_bytes());
        image.extend_from_slice(&2u32.to_le_bytes());
        image.extend_from_slice(&[0xaa, 0xbb]);
        let packets = read_all(&image).unwrap();
        assert_eq!(packets[0].ts, Timestamp::from_micros(1_500_000));
    }

    #[test]
    fn empty_capture_yields_no_packets() {
        let image = write_all(&[]).unwrap();
        assert!(read_all(&image).unwrap().is_empty());
    }

    #[test]
    fn iterator_interface_counts() {
        let packets = sample_packets();
        let image = write_all(&packets).unwrap();
        let mut reader = PcapReader::new(&image[..]).unwrap();
        let mut count = 0;
        for item in &mut reader {
            item.unwrap();
            count += 1;
        }
        assert_eq!(count, 5);
        assert_eq!(reader.packets_read(), 5);
    }
}
