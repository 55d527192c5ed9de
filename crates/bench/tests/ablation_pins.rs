//! Pins the four Section V ablations' output: `idsbench sweep`, `sampling`,
//! `preprocessing` and `baseline` at `--scale tiny --seed 42`, stdout and
//! stderr folded into one digest per command. Each report is a projection
//! of one grid, so a change to the grid's result layout or to a report's
//! walk over it that reorders, drops or duplicates a row fails here, as
//! does any change that moves a printed figure.
//!
//! The figures rest on the same libm calls as `tests/score_digest.rs`
//! (AfterImage's decay, the scenario generators' sampling), so the pin
//! holds on `linux-gnu` only, in both profiles. If a change is *supposed*
//! to move a report, re-pin from the digests the failure prints, in the
//! same commit, with the reason in its message.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::process::Command;

/// `(command, digest)`: FNV-1a over the command's stdout, a NUL byte, then
/// its stderr.
const PINNED: [(&str, u64); 4] = [
    ("sweep", 0xef8e_dcb3_f128_6a72),
    ("sampling", 0x91d7_b4d1_04b1_b4cc),
    ("preprocessing", 0xddf6_3a74_37c0_55e5),
    ("baseline", 0x5847_ed41_cfce_8f8a),
];

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |digest, &byte| (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3))
}

/// Runs `idsbench <command> --scale tiny --seed 42` and digests its output.
fn digest_of(command: &str) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_idsbench"))
        .args([command, "--scale", "tiny", "--seed", "42"])
        .output()
        .expect("spawn idsbench");
    assert!(
        out.status.success(),
        "idsbench {command} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = fnv1a(0xcbf2_9ce4_8422_2325, &out.stdout);
    fnv1a(fnv1a(digest, &[0]), &out.stderr)
}

#[test]
fn the_four_ablations_print_pinned_reports() {
    let digests: Vec<(&str, u64)> =
        PINNED.iter().map(|&(command, _)| (command, digest_of(command))).collect();
    if digests != PINNED {
        let block: String = digests
            .iter()
            .map(|(command, digest)| format!("    (\"{command}\", {digest:#018x}),\n"))
            .collect();
        panic!(
            "an ablation report changed; if deliberate, replace PINNED's entries with:\n{block}"
        );
    }
}
