//! Runs every table and figure in sequence (one-stop reproduction), or
//! one of them with `--only <exhibit>`.
//!
//! ```text
//! cargo run --release -p ws-bench --bin all_experiments -- --scale 0.01 --workers 4
//! cargo run --release -p ws-bench --bin all_experiments -- --only table2 --quick
//! ```
use ws_bench::experiments::EXHIBITS;
use ws_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let mut table3 = None;
    for exhibit in &EXHIBITS {
        if args.only.is_none_or(|name| name == exhibit.name) {
            exhibit.run(&args, &mut table3);
        }
    }
    ws_bench::tracing::maybe_trace(&args);
}
