//! Captures what only the build knows for the host fingerprint: the
//! compiler version and the *effective* rustflags (Cargo hands build
//! scripts the flags it resolved from `.cargo/config.toml` and the
//! environment).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string());
    // Flags arrive separated by the unit separator; print them shell-style.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default().replace('\x1f', " ");
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
