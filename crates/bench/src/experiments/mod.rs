//! One module per exhibit of the paper's evaluation (§IV), plus our
//! ablation. [`EXHIBITS`] is the one list of them: `all_experiments`
//! runs them all, or one with `--only <name>`, and the integration
//! tests call each module's `run` at tiny scale.

use minijson::{Json, ToJson};
use workloads::WorkloadSpec;

use crate::cli::BenchArgs;
use crate::measure::measure_job;
use crate::report::{dump_json, fmt_sig, Table};
use crate::system::{System, SystemKind};

pub mod ablation;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// One exhibit: its name, which `--only` takes and which is the stem of
/// its JSON file, and how to run it.
pub struct Exhibit {
    /// The exhibit's name (`table1`, …, `fig6`, `ablation`).
    pub name: &'static str,
    /// Measures the exhibit, prints its tables and returns its JSON
    /// document. The Table III result is shared: Table IV's model takes
    /// its steal costs, measuring Table III first if no earlier exhibit
    /// did.
    measure: fn(&BenchArgs, &mut Option<table3::Result>) -> Json,
}

impl Exhibit {
    /// Runs the exhibit and prints its tables; with `--json DIR`, also
    /// writes `DIR/<name>.json`. `table3` carries Table III's result
    /// from one exhibit to the next.
    pub fn run(&self, args: &BenchArgs, table3: &mut Option<table3::Result>) {
        let json = (self.measure)(args, table3);
        if let Some(dir) = &args.json {
            dump_json(&format!("{dir}/{}.json", self.name), &json);
        }
    }
}

/// Every exhibit, in the order a full run measures them.
pub const EXHIBITS: [Exhibit; 9] = [
    Exhibit {
        name: "table2",
        measure: |a, _| show(&table2::run(a), |r| vec![table2::render(r)]),
    },
    Exhibit {
        name: "table3",
        measure: |a, t3| show(t3.insert(table3::run(a)), |r| vec![table3::render(r)]),
    },
    Exhibit {
        name: "table4",
        measure: |a, t3| {
            let t3 = t3.get_or_insert_with(|| table3::run(a));
            show(&table4::run(a, t3), |r| vec![table4::render(r)])
        },
    },
    Exhibit {
        name: "fig1",
        measure: |a, _| show(&fig1::run(a), |r| fig1::render(r).into()),
    },
    Exhibit {
        name: "fig4",
        measure: |a, _| show(&fig4::run(a), fig4::render),
    },
    Exhibit {
        name: "table1",
        measure: |a, _| show(&table1::run(a), |r| vec![table1::render(r)]),
    },
    Exhibit {
        name: "fig5",
        measure: |a, _| show(&fig5::run(a), fig5::render),
    },
    Exhibit {
        name: "fig6",
        measure: |a, _| show(&fig6::run(a), fig6::render),
    },
    Exhibit {
        name: "ablation",
        measure: |a, _| {
            show(&ablation::run(a), |r| {
                vec![ablation::render(r), ablation::render_join_policy(r)]
            })
        },
    },
];

/// Prints `render`'s tables of `result` and returns its JSON document.
fn show<R: ToJson>(result: &R, render: impl FnOnce(&R) -> Vec<Table>) -> Json {
    for t in render(result) {
        t.print();
    }
    result.to_json()
}

/// Speedups of `kind` on `spec` over the worker sweep: `base / t` at
/// each worker count, on a fresh system per count. Without a `base`,
/// the system's own one-worker time is the base (relative speedup).
pub fn speedups(
    args: &BenchArgs,
    kind: SystemKind,
    spec: &WorkloadSpec,
    mut base: Option<f64>,
) -> Vec<(usize, f64)> {
    args.worker_sweep()
        .into_iter()
        .map(|p| {
            let t = measure_job(&mut System::create(kind, p), spec, 1).seconds;
            (p, *base.get_or_insert(t) / t)
        })
        .collect()
}

/// Renders speedup series, one row per `(label, points)` series and one
/// `p=N` column per worker count; `first` heads the label column.
pub fn series_table<'a>(
    title: &str,
    first: &str,
    series: impl IntoIterator<Item = (&'a str, &'a [(usize, f64)])>,
) -> Table {
    let series: Vec<_> = series.into_iter().collect();
    let ps = series[0].1.iter().map(|(p, _)| format!("p={p}"));
    let header: Vec<String> = std::iter::once(first.to_string()).chain(ps).collect();
    let mut t = Table::new(title, &header);
    for (label, points) in series {
        let cells = points.iter().map(|&(_, v)| fmt_sig(v));
        t.row(std::iter::once(label.to_string()).chain(cells).collect());
    }
    t
}
