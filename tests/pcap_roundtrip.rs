//! Integration test: scenarios survive the pcap container byte-exactly, so
//! evaluating from a replayed capture equals evaluating in memory.

use idsbench::core::preprocess::Pipeline;
use idsbench::core::runner::replay;
use idsbench::core::{Dataset, LabeledPacket};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::net::pcap::{PcapReader, PcapWriter};
use idsbench::net::{NetError, Packet};
use idsbench::slips::Slips;

/// Writes `packets` into an in-memory capture and reads every record back.
fn through_pcap(packets: &[Packet]) -> Result<Vec<Packet>, NetError> {
    let mut image = Vec::new();
    let mut writer = PcapWriter::new(&mut image)?;
    for packet in packets {
        writer.write_packet(packet)?;
    }
    PcapReader::new(&image[..])?.collect()
}

#[test]
fn every_scenario_round_trips_through_pcap() {
    for scenario in scenarios::table4_scenarios(ScenarioScale::Tiny) {
        let labeled = scenario.generate(5);
        let packets: Vec<_> = labeled.iter().map(|lp| lp.packet.clone()).collect();
        let replayed = through_pcap(&packets).unwrap();
        assert_eq!(replayed, packets, "{} must survive the container", scenario.info().name);
    }
}

#[test]
fn replayed_capture_yields_identical_scores() {
    let scenario = scenarios::unsw_nb15(ScenarioScale::Tiny);
    let labeled = scenario.generate(3);

    // In-memory path.
    let pipeline = Pipeline::new(Default::default()).unwrap();
    let input_memory = pipeline.prepare_events("mem", labeled.clone()).unwrap();
    let scores_memory = replay(&mut Slips::default(), &input_memory).unwrap().scores;

    // Pcap replay path.
    let packets: Vec<_> = labeled.iter().map(|lp| lp.packet.clone()).collect();
    let labels: Vec<_> = labeled.iter().map(|lp| lp.label).collect();
    let recovered: Vec<LabeledPacket> = through_pcap(&packets)
        .unwrap()
        .into_iter()
        .zip(labels)
        .map(|(packet, label)| LabeledPacket::new(packet, label))
        .collect();
    let input_replay = pipeline.prepare_events("replay", recovered).unwrap();
    let scores_replay = replay(&mut Slips::default(), &input_replay).unwrap().scores;

    assert_eq!(scores_memory, scores_replay);
}

#[test]
fn all_generated_packets_parse() {
    use idsbench::net::ParsedPacket;
    for scenario in scenarios::table4_scenarios(ScenarioScale::Tiny) {
        for lp in scenario.generate(11) {
            ParsedPacket::parse(&lp.packet).unwrap_or_else(|e| {
                panic!("{}: generated packet failed to parse: {e}", scenario.info().name)
            });
        }
    }
}
