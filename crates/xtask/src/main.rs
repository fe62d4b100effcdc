//! Repo automation (`cargo xtask <command>`).
//!
//! * `lint` — the sync-facade lint: fails the build when scheduler code
//!   bypasses `wool_core::sync`, uses an unjustified `Relaxed` ordering
//!   on a protocol word, or counts or traces an event outside `probe!`.
//!   Pure text analysis, no nightly needed.
//! * `loom`— runs the exhaustive model suite
//!   (`RUSTFLAGS="--cfg loom" cargo test -p wool-verify --release`).
//! * `miri` — runs the curated Miri subset (needs a nightly toolchain
//!   with the `miri` component; prints how to get one if absent).
//! * `tsan` — builds and runs the curated test subset under
//!   ThreadSanitizer (needs nightly + `rust-src`).
//!
//! See `docs/VERIFICATION.md` for what each layer proves.

mod lint;

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(),
        Some("loom") => run_loom(),
        Some("miri") => run_miri(),
        Some("tsan") => run_tsan(),
        other => {
            eprintln!("usage: cargo xtask <lint|loom|miri|tsan>");
            if let Some(cmd) = other {
                eprintln!("unknown command: {cmd}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Runs `cmd`, inheriting stdio; maps spawn failure and non-zero exit to
/// a failing exit code.
fn exec(mut cmd: Command) -> ExitCode {
    eprintln!("xtask: running {cmd:?}");
    match cmd.status() {
        Ok(st) if st.success() => ExitCode::SUCCESS,
        Ok(st) => {
            eprintln!("xtask: command failed with {st}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: failed to spawn {cmd:?}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// True when `cargo <args>` exits successfully with output suppressed —
/// used to probe for optional toolchain pieces before committing to a run.
fn cargo_probe(args: &[&str]) -> bool {
    Command::new("cargo")
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// The model suite: wool-verify's tests under `--cfg loom`, optimized
/// but with debug assertions on, so the `debug_assert!`s of exec.rs and
/// pool.rs are checked in every modeled execution.
fn run_loom() -> ExitCode {
    let mut cmd = Command::new("cargo");
    cmd.args(["test", "-p", "wool-verify", "--release"]);
    // Append to any ambient RUSTFLAGS rather than clobbering them.
    let mut flags = std::env::var("RUSTFLAGS").unwrap_or_default();
    for flag in ["--cfg loom", "-C debug-assertions"] {
        if !flags.contains(flag) {
            if !flags.is_empty() {
                flags.push(' ');
            }
            flags.push_str(flag);
        }
    }
    cmd.env("RUSTFLAGS", flags);
    exec(cmd)
}

/// The Miri subset: single- and dual-thread protocol unit tests, the
/// worker tests (`Worker::new` and its drop own the task stack's raw
/// allocation), plus the wool-verify library test, the injector probe
/// (its other models need `--cfg loom`). Excludes the stress tests
/// (thousands of iterations are impractical under the interpreter).
fn run_miri() -> ExitCode {
    if !cargo_probe(&["+nightly", "miri", "--version"]) {
        eprintln!(
            "xtask: Miri is unavailable. It needs a nightly toolchain with the\n\
             `miri` component:  rustup toolchain install nightly --component miri\n\
             The CI `miri` job runs this automatically; locally this exits with\n\
             an error rather than silently passing."
        );
        return ExitCode::FAILURE;
    }
    let mut cmd = Command::new("cargo");
    cmd.args([
        "+nightly",
        "miri",
        "test",
        "-p",
        "wool-core",
        "--lib",
        "--",
        "slot::",
        "worker::",
        "injector::",
        "spinlock::",
        "--skip",
        "concurrent_producers_and_consumers_lose_nothing",
        "--skip",
        "contended_try_lock_admits_one_holder",
    ]);
    let first = exec(cmd);
    if first != ExitCode::SUCCESS {
        return first;
    }
    let mut cmd = Command::new("cargo");
    cmd.args(["+nightly", "miri", "test", "-p", "wool-verify", "--lib"]);
    exec(cmd)
}

/// The ThreadSanitizer subset: the genuinely concurrent protocol tests
/// (slot, injector, serve, spinlock, and the region entry/exit and
/// dead-worker tests in `pool::`), built with `-Zbuild-std` so std
/// itself is instrumented.
fn run_tsan() -> ExitCode {
    if !cargo_probe(&["+nightly", "--version"]) {
        eprintln!(
            "xtask: no nightly toolchain; ThreadSanitizer needs one:\n\
             rustup toolchain install nightly --component rust-src"
        );
        return ExitCode::FAILURE;
    }
    let target = host_target();
    let mut cmd = Command::new("cargo");
    cmd.args([
        "+nightly",
        "test",
        "-Zbuild-std",
        "--target",
        &target,
        "-p",
        "wool-core",
        "--lib",
        "--release",
        "--",
        "slot::",
        "injector::",
        "serve::",
        "spinlock::",
        "pool::",
    ]);
    let mut flags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !flags.is_empty() {
        flags.push(' ');
    }
    flags.push_str("-Zsanitizer=thread");
    cmd.env("RUSTFLAGS", flags);
    exec(cmd)
}

/// Host triple from `rustc -vV` (TSan requires an explicit `--target` so
/// that RUSTFLAGS do not leak into build scripts).
fn host_target() -> String {
    let out = Command::new("rustc")
        .args(["-vV"])
        .output()
        .expect("rustc -vV");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
        .expect("host line in rustc -vV")
}
