use std::fmt;

use idsbench_net::Packet;

/// The attack taxonomy spanning the five evaluated datasets.
///
/// Each variant maps to an attack family present in at least one of the
/// paper's datasets (Table II); generators in `idsbench-datasets` emit
/// traffic labeled with these kinds so per-family breakdowns are possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AttackKind {
    /// TCP SYN flood (BoT-IoT, CICIDS2017, Mirai).
    SynFlood,
    /// UDP flood (BoT-IoT, Mirai).
    UdpFlood,
    /// ICMP echo flood / ping flood (BoT-IoT "DoS-ICMP" category).
    IcmpFlood,
    /// HTTP request flood / application-layer DoS (CICIDS2017).
    HttpFlood,
    /// Vertical port scan against one host (UNSW-NB15 "Reconnaissance",
    /// CICIDS2017 "PortScan").
    PortScan,
    /// Horizontal sweep of one port across a subnet (Mirai, BoT-IoT).
    AddressSweep,
    /// SSH/FTP credential brute force (CICIDS2017, UNSW-NB15).
    BruteForce,
    /// Periodic botnet command-and-control beaconing (Stratosphere, ToN-IoT).
    BotnetC2,
    /// Mirai telnet scanning and loader traffic (Mirai dataset).
    MiraiPropagation,
    /// Bulk data exfiltration to an external host (UNSW-NB15 "Backdoors",
    /// ToN-IoT "injection").
    Exfiltration,
    /// Low-rate protocol fuzzing (UNSW-NB15 "Fuzzers").
    Fuzzing,
    /// Stealthy backdoor/analysis traffic shaped like benign flows
    /// (UNSW-NB15 "Analysis"/"Backdoor").
    Stealth,
    /// Web application attack (CICIDS2017 "Web Attack" family).
    WebAttack,
}

impl AttackKind {
    /// All attack kinds, in declaration order.
    pub const ALL: [AttackKind; 13] = [
        AttackKind::SynFlood,
        AttackKind::UdpFlood,
        AttackKind::IcmpFlood,
        AttackKind::HttpFlood,
        AttackKind::PortScan,
        AttackKind::AddressSweep,
        AttackKind::BruteForce,
        AttackKind::BotnetC2,
        AttackKind::MiraiPropagation,
        AttackKind::Exfiltration,
        AttackKind::Fuzzing,
        AttackKind::Stealth,
        AttackKind::WebAttack,
    ];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::SynFlood => "syn-flood",
            AttackKind::UdpFlood => "udp-flood",
            AttackKind::IcmpFlood => "icmp-flood",
            AttackKind::HttpFlood => "http-flood",
            AttackKind::PortScan => "port-scan",
            AttackKind::AddressSweep => "address-sweep",
            AttackKind::BruteForce => "brute-force",
            AttackKind::BotnetC2 => "botnet-c2",
            AttackKind::MiraiPropagation => "mirai-propagation",
            AttackKind::Exfiltration => "exfiltration",
            AttackKind::Fuzzing => "fuzzing",
            AttackKind::Stealth => "stealth",
            AttackKind::WebAttack => "web-attack",
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ground-truth label of a packet or flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Legitimate traffic.
    Benign,
    /// Attack traffic of the given family.
    Attack(AttackKind),
}

impl Label {
    /// Whether this label marks attack traffic.
    pub fn is_attack(self) -> bool {
        matches!(self, Label::Attack(_))
    }

    /// The attack kind, if any.
    pub fn attack_kind(self) -> Option<AttackKind> {
        match self {
            Label::Benign => None,
            Label::Attack(kind) => Some(kind),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Benign => f.write_str("benign"),
            Label::Attack(kind) => write!(f, "attack:{kind}"),
        }
    }
}

/// A packet with its ground-truth label — the unit every synthetic dataset
/// produces and the replay pipeline consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPacket {
    /// The raw packet.
    pub packet: Packet,
    /// Ground truth.
    pub label: Label,
}

impl LabeledPacket {
    /// Creates a labeled packet.
    pub fn new(packet: Packet, label: Label) -> Self {
        LabeledPacket { packet, label }
    }

    /// Shorthand for `label.is_attack()`.
    pub fn is_attack(&self) -> bool {
        self.label.is_attack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_unique_names() {
        let mut names: Vec<&str> = AttackKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AttackKind::ALL.len());
    }

    #[test]
    fn label_predicates() {
        assert!(!Label::Benign.is_attack());
        assert!(Label::Attack(AttackKind::PortScan).is_attack());
        assert_eq!(Label::Attack(AttackKind::PortScan).attack_kind(), Some(AttackKind::PortScan));
        assert_eq!(Label::Benign.attack_kind(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Label::Benign.to_string(), "benign");
        assert_eq!(Label::Attack(AttackKind::UdpFlood).to_string(), "attack:udp-flood");
    }
}
