//! Captures the toolchain version and the repository revision at build
//! time, so every benchmark result can name what produced it without
//! starting a process at run time.

use std::path::PathBuf;
use std::process::Command;

/// Trimmed stdout of a successful command, or `unknown`.
fn output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(&rustc, &["--version"]);
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");

    // A source export has no `.git`; its revision is then `unknown`.
    let root = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo")).join("..");
    let git = root.join(".git");
    let revision = if git.exists() {
        let root = root.to_string_lossy();
        output("git", &["-C", &root, "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    println!("cargo:rustc-env=PERFBENCH_GIT_REVISION={revision}");
    println!("cargo:rerun-if-changed=build.rs");
    // `logs/HEAD` grows with every commit and checkout.
    let head_log = git.join("logs").join("HEAD");
    if head_log.exists() {
        println!("cargo:rerun-if-changed={}", head_log.display());
    }
}
