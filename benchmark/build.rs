//! Records the toolchain and profile this binary was built with, so every
//! run can print them (provenance of the numbers).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    for (key, var) in [
        ("BENCH_PROFILE", "PROFILE"),
        ("BENCH_OPT_LEVEL", "OPT_LEVEL"),
        ("BENCH_TARGET", "TARGET"),
        ("BENCH_RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS"),
    ] {
        let value = std::env::var(var)
            .unwrap_or_default()
            .replace('\u{1f}', " ");
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
