//! Smoke tests: every paper exhibit regenerates end-to-end at tiny
//! scale, producing structurally complete results.

use workloads::{WorkloadKind, WorkloadSpec};
use ws_bench::experiments::{fig1, fig4, fig5, fig6, table1, table2, table3, table4};
use ws_bench::BenchArgs;

fn tiny_args() -> BenchArgs {
    BenchArgs::parse_from(
        "--workers 2 --scale 0.0001"
            .split_whitespace()
            .map(String::from),
    )
}

#[test]
fn table2_regenerates() {
    let r = table2::run(&tiny_args());
    assert_eq!(r.rows.len(), 6, "five ladder rungs + serial");
    assert_eq!(r.rows[5].version, "Serial");
    assert!(r.rows.iter().all(|row| row.seconds > 0.0));
    // The serial row has zero overhead by definition.
    assert_eq!(r.rows[5].overhead_cycles, 0.0);
    let rendered = table2::render(&r).render();
    assert!(rendered.contains("Private tasks"));
}

#[test]
fn table3_regenerates() {
    let r = table3::run(&tiny_args());
    assert_eq!(r.rows.len(), 4, "wool, cilk-like, tbb-like, omp-like");
    let wool = &r.rows[0];
    assert_eq!(wool.system, "wool");
    assert!(wool.inlined_cycles_public.is_some(), "wool reports a range");
    assert!(r.rows.iter().all(|row| !row.steal_cycles.is_empty()));
    let rendered = table3::render(&r).render();
    assert!(rendered.contains("cilk-like"));
}

#[test]
fn table4_regenerates() {
    let args = tiny_args();
    let r = table4::run(&args, &table3::run(&args));
    assert_eq!(r.rows.len(), 4);
    for row in &r.rows {
        for &(p, predicted, measured) in &row.entries {
            assert!(p >= 2);
            assert!(predicted >= 0.0 && predicted.is_finite());
            assert!(measured > 0.0 && measured.is_finite());
        }
    }
}

#[test]
fn fig1_regenerates() {
    let r = fig1::run(&tiny_args());
    assert_eq!(r.fib.len(), 4);
    assert_eq!(r.stress.len(), 4);
    for s in r.fib.iter().chain(&r.stress) {
        assert!(!s.points.is_empty());
        assert!(s.points.iter().all(|&(_, v)| v > 0.0 && v.is_finite()));
    }
    let [l, rt] = fig1::render(&r);
    assert!(l.render().contains("wool"));
    assert!(rt.render().contains("relative"));
}

#[test]
fn fig4_regenerates() {
    let r = fig4::run(&tiny_args());
    assert_eq!(r.panels.len(), 5, "five region sizes");
    for p in &r.panels {
        assert_eq!(p.series.len(), 4, "base/peek/trylock/nolock");
        assert!(p.series.iter().any(|(n, _)| n == "nolock"));
    }
    assert_eq!(fig4::render(&r).len(), 5);
}

#[test]
fn fig5_regenerates_subset() {
    // A subset keeps the smoke test fast; full sweep is the binary's job.
    let specs = vec![
        WorkloadSpec {
            kind: WorkloadKind::Mm,
            p1: 24,
            p2: 0,
            reps: 2,
        },
        WorkloadSpec {
            kind: WorkloadKind::Stress,
            p1: 4,
            p2: 64,
            reps: 4,
        },
    ];
    let r = fig5::run_specs(&tiny_args(), &specs);
    assert_eq!(r.panels.len(), 2);
    assert!(r.panels[0].absolute, "mm uses absolute speedup");
    assert!(!r.panels[1].absolute, "stress uses relative speedup");
    for p in &r.panels {
        assert_eq!(p.series.len(), 4);
    }
}

#[test]
fn fig6_regenerates() {
    let r = fig6::run(&tiny_args());
    assert_eq!(r.panels.len(), 5, "the paper's workload selection");
    for p in &r.panels {
        for b in &p.bars {
            // NA must dominate a healthy run; all fractions finite.
            assert!(b.fractions.iter().all(|f| f.is_finite() && *f >= 0.0));
            assert!(b.fractions[1] > 0.0, "NA nonzero in {}", p.workload);
        }
    }
}

#[test]
fn table1_regenerates_with_full_row_set() {
    let r = table1::run(&tiny_args());
    assert_eq!(r.rows.len(), 24, "all Table I rows");
    for row in &r.rows {
        assert!(
            row.parallelism0 >= 0.9,
            "{}: {}",
            row.workload,
            row.parallelism0
        );
        assert!(
            row.parallelism_2000 <= row.parallelism0 + 1e-6,
            "{}: realistic model must not exceed ideal",
            row.workload
        );
        assert!(row.g_t > 0.0);
        assert!(row.rep_kcycles > 0.0);
    }
    let rendered = table1::render(&r).render();
    assert!(rendered.contains("cholesky"));
    assert!(rendered.contains("stress"));
}

#[test]
fn ablation_regenerates() {
    use ws_bench::experiments::ablation;
    let r = ablation::run(&tiny_args());
    assert_eq!(r.rows.len(), 4 * 5 + 1, "trip x batch sweep + all-public");
    assert!(r.rows.iter().all(|row| row.seconds > 0.0));
    let forced = r.rows.last().unwrap();
    assert!(forced.force_public);
    assert_eq!(
        forced.private_ratio, 0.0,
        "all-public leaves nothing private"
    );
    assert_eq!(r.join_policy.len(), 2);
    assert_eq!(r.join_policy[0].system, "wool");
    assert_eq!(r.join_policy[1].system, "wool/no-leapfrog");
    // Plain waiting performs no leap steals (modulo the long-stall
    // progress valve, which cannot fire in a healthy tiny run).
    assert_eq!(r.join_policy[1].leap_steals, 0);
    let rendered = ablation::render(&r).render();
    assert!(rendered.contains("private%"));
    assert!(ablation::render_join_policy(&r)
        .render()
        .contains("no-leapfrog"));
}
