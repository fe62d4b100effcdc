//! The sync-facade lint.
//!
//! Three rules over the scheduler crates (`wool-core`, `wool-par`,
//! `wool-verify`):
//!
//! 1. **Facade rule** — `std::sync::atomic` and `std::thread` may appear
//!    only in `sync.rs` (the facade itself). Everything else must go
//!    through `crate::sync` / `wool_core::sync` so that `--cfg loom`
//!    reroutes every synchronization operation into the model checker; a
//!    single stray `std` atomic would silently escape exploration.
//! 2. **Relaxed rule** — in the protocol files (`slot.rs`,
//!    `injector.rs`, `exec.rs`, and the serve hand-off in `serve.rs` and
//!    `serve/handle.rs`) every `Ordering::Relaxed` must carry a
//!    written justification: a `relaxed-ok` annotation on the same line
//!    or within the ten preceding lines. Relaxed on a protocol word is
//!    where fences quietly go missing; the annotation forces the
//!    happens-before argument to live next to the code.
//! 3. **Probe rule** — in `wool-core`, an event is counted and traced
//!    only through `probe!`: no `stats.<field> +=` and no ring
//!    `.record(` outside the macro's own definition. A counter bumped
//!    beside the probe would count an event the trace does not hold.
//!
//! Escapes: lines after a `#[cfg(test)]` marker are exempt (tests may
//! spawn real threads and poke counters), comment lines are exempt, and
//! `// lint-ok: <reason>` on the line silences rule 1.
//!
//! The rules are pure functions over `(file name, content)` — see the
//! unit tests — and `run` is a thin filesystem walk around them.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose `src/` trees are subject to the lint. `wool-loom` is
/// deliberately absent: it *is* the `--cfg loom` backend and implements
/// the facade with real `std` primitives.
const LINTED_CRATES: &[&str] = &["wool-core", "wool-par", "wool-verify"];

/// Files where every `Relaxed` needs a `relaxed-ok` justification.
const RELAXED_AUDITED_FILES: &[&str] =
    &["slot.rs", "injector.rs", "exec.rs", "serve.rs", "handle.rs"];

/// How far above a `Relaxed` use its `relaxed-ok` justification may sit.
const RELAXED_JUSTIFICATION_WINDOW: usize = 10;

#[derive(Debug, PartialEq, Eq)]
pub struct Finding {
    pub line: usize,
    pub message: String,
}

/// Rule 1: raw `std::sync::atomic` / `std::thread` outside the facade.
/// `file_name` is the bare file name (`exec.rs`), used to exempt the
/// facade itself.
pub fn check_facade(file_name: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if file_name == "sync.rs" {
        return findings;
    }
    let mut in_tests = false;
    for (idx, line) in content.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests || trimmed.starts_with("//") || line.contains("lint-ok") {
            continue;
        }
        for needle in ["std::sync::atomic", "std::thread"] {
            if line.contains(needle) {
                findings.push(Finding {
                    line: idx + 1,
                    message: format!(
                        "raw `{needle}` outside the sync facade; use `crate::sync` \
                         (or annotate `// lint-ok: <reason>`)"
                    ),
                });
            }
        }
    }
    findings
}

/// Rule 2: `Relaxed` in a protocol file without a nearby `relaxed-ok`
/// justification.
pub fn check_relaxed(file_name: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !RELAXED_AUDITED_FILES.contains(&file_name) {
        return findings;
    }
    let lines: Vec<&str> = content.lines().collect();
    let mut in_tests = false;
    for (idx, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests || trimmed.starts_with("//") || trimmed.starts_with("use ") {
            continue;
        }
        if !line.contains("Relaxed") {
            continue;
        }
        let window_start = idx.saturating_sub(RELAXED_JUSTIFICATION_WINDOW);
        let justified = lines[window_start..=idx]
            .iter()
            .any(|l| l.contains("relaxed-ok"));
        if !justified {
            findings.push(Finding {
                line: idx + 1,
                message: format!(
                    "`Relaxed` on a protocol word without a `relaxed-ok` justification \
                     within {RELAXED_JUSTIFICATION_WINDOW} lines"
                ),
            });
        }
    }
    findings
}

/// Rule 3: a counter bump or a ring record outside `probe!`.
pub fn check_probe_only(content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_probe = false;
    for (idx, line) in content.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("macro_rules! probe") {
            in_probe = true;
        }
        if in_probe {
            // The definition ends at its closing brace in column 0.
            in_probe = !line.starts_with('}');
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        if line.contains(".record(") || bumps_stats_field(line) {
            findings.push(Finding {
                line: idx + 1,
                message: "event counted or traced outside `probe!`; \
                          use `probe!(handle, Kind, arg)`"
                    .into(),
            });
        }
    }
    findings
}

/// Whether `line` holds `stats.<field> +=`.
fn bumps_stats_field(line: &str) -> bool {
    line.match_indices("stats.").any(|(i, m)| {
        let rest = &line[i + m.len()..];
        let after = rest.trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
        after.len() < rest.len() && after.trim_start().starts_with("+=")
    })
}

/// Applies the rules to one file of crate `krate`.
pub fn check_file(krate: &str, file_name: &str, content: &str) -> Vec<Finding> {
    let mut f = check_facade(file_name, content);
    f.extend(check_relaxed(file_name, content));
    if krate == "wool-core" {
        f.extend(check_probe_only(content));
    }
    f.sort_by_key(|x| x.line);
    f
}

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

pub fn run() -> ExitCode {
    let root = workspace_root();
    let mut total = 0usize;
    let mut files = 0usize;
    for krate in LINTED_CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut paths = Vec::new();
        if let Err(e) = rs_files_under(&src, &mut paths) {
            eprintln!("xtask lint: cannot walk {}: {e}", src.display());
            return ExitCode::FAILURE;
        }
        paths.sort();
        for path in paths {
            let content = match std::fs::read_to_string(&path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("xtask lint: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files += 1;
            for f in check_file(krate, &name, &content) {
                eprintln!("{}:{}: {}", path.display(), f.line, f.message);
                total += 1;
            }
        }
    }
    if total > 0 {
        eprintln!("xtask lint: {total} finding(s)");
        ExitCode::FAILURE
    } else {
        eprintln!("xtask lint: clean ({files} files)");
        ExitCode::SUCCESS
    }
}

/// The workspace root: parent of this crate's manifest dir, two levels up
/// (`crates/xtask`). Works both under `cargo xtask` and a direct binary
/// invocation from anywhere in the tree.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_flags_raw_atomic_import() {
        let src = "use std::sync::atomic::AtomicUsize;\nfn f() {}\n";
        let f = check_facade("exec.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn facade_flags_raw_thread_spawn() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(check_facade("pool.rs", src).len(), 1);
    }

    #[test]
    fn facade_exempts_sync_rs_comments_tests_and_lint_ok() {
        let in_sync = "pub use std::sync::atomic::AtomicUsize;\n";
        assert!(check_facade("sync.rs", in_sync).is_empty());
        let comment = "// mirrors std::thread::JoinHandle\n/// like std::sync::atomic\n";
        assert!(check_facade("handle.rs", comment).is_empty());
        let tests = "#[cfg(test)]\nmod tests {\n  use std::thread;\n  fn t() { std::thread::scope(|_| {}); }\n}\n";
        assert!(check_facade("injector.rs", tests).is_empty());
        let ok =
            "let t = std::thread::available_parallelism(); // lint-ok: capacity probe, not sync\n";
        assert!(check_facade("config.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_needs_nearby_justification() {
        let bare = "fn f(a: &A) { a.x.load(Ordering::Relaxed); }\n";
        assert_eq!(check_relaxed("slot.rs", bare).len(), 1);
        let justified =
            "// relaxed-ok: advisory statistic\nfn f(a: &A) { a.x.load(Ordering::Relaxed); }\n";
        assert!(check_relaxed("slot.rs", justified).is_empty());
        let inline = "a.x.load(Ordering::Relaxed); // relaxed-ok: value re-checked under lock\n";
        assert!(check_relaxed("injector.rs", inline).is_empty());
    }

    #[test]
    fn relaxed_window_is_bounded() {
        let far = format!(
            "// relaxed-ok: too far away\n{}a.x.load(Ordering::Relaxed);\n",
            "\n".repeat(RELAXED_JUSTIFICATION_WINDOW + 1)
        );
        assert_eq!(check_relaxed("exec.rs", &far).len(), 1);
    }

    #[test]
    fn probe_rule_flags_counter_bumps_and_ring_records() {
        let bump = "fn f(h: &mut WorkerHandle<S>) {\n    h.stats.steals += 1;\n}\n";
        let f = check_probe_only(bump);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        let spaced = "self.stats.backoffs+= 1;\n";
        assert_eq!(check_probe_only(spaced).len(), 1);
        let record = "h.trace.record(EventKind::Park, now(), 0);\n";
        assert_eq!(check_probe_only(record).len(), 1);
    }

    #[test]
    fn probe_rule_exempts_its_definition_tests_and_other_updates() {
        let definition = "macro_rules! probe {\n    ($h:expr) => {{\n        \
                          $h.trace.record(kind, ts, arg);\n    }};\n}\n";
        assert!(check_probe_only(definition).is_empty());
        let after = format!("{definition}self.stats.steals += 1;\n");
        assert_eq!(check_probe_only(&after)[0].line, 6);
        let tests = "#[cfg(test)]\nmod tests { fn t(s: &mut S) { s.stats.steals += 1; } }\n";
        assert!(check_probe_only(tests).is_empty());
        let comment = "// self.stats.steals += 1 used to live here\n";
        assert!(check_probe_only(comment).is_empty());
        let derived = "stats.spawns = stats.inlined_private + stats.rts_joins;\n";
        assert!(check_probe_only(derived).is_empty());
        let merge = "self.steals += o.steals;\n";
        assert!(check_probe_only(merge).is_empty());
    }

    #[test]
    fn probe_rule_applies_to_wool_core_only() {
        let bump = "self.stats.steals += 1;\n";
        assert_eq!(check_file("wool-core", "exec.rs", bump).len(), 1);
        assert!(check_file("wool-par", "split.rs", bump).is_empty());
    }

    #[test]
    fn relaxed_rule_scoped_to_protocol_files() {
        let bare = "a.x.load(Ordering::Relaxed);\n";
        assert!(check_relaxed("stats.rs", bare).is_empty());
        let uses = "use std::sync::atomic::Ordering::Relaxed;\n";
        assert!(check_relaxed("slot.rs", uses).is_empty());
        let tests = "#[cfg(test)]\nmod tests { fn t(a: &A) { a.x.load(Ordering::Relaxed); } }\n";
        assert!(check_relaxed("slot.rs", tests).is_empty());
        for file in ["serve.rs", "handle.rs"] {
            assert_eq!(check_relaxed(file, bare).len(), 1, "{file} is audited");
            let ok = "// relaxed-ok: a statistic\na.x.load(Ordering::Relaxed);\n";
            assert!(check_relaxed(file, ok).is_empty());
        }
    }
}
