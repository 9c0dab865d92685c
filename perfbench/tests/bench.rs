//! The benchmark's own tests: the output check passes on the current tree
//! and rejects wrong answers, metric names are well formed and match
//! `BENCHMARK.json`, and the work counts repeat exactly.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use cppll_perfbench::check::{
    atlas_certified, atlas_mismatches, check_flagship, check_fourth_d2, expected_certified,
};
use cppll_perfbench::layers::Layers;
use cppll_perfbench::{
    median, percentile, setup, traced_pass, Outcome, Reported, Setup, Traced, Workload, END_TO_END,
    PER_LAYER,
};
use cppll_verify::{run_sweep, CellStatus, TraceLevel, Tracer, ValidationReport};

/// Tests that run the verifier share the process-wide worker-thread count,
/// so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn traced(w: Workload, threads: usize) -> Traced {
    cppll_par::set_threads(threads);
    traced_pass(w, &mut BTreeSet::new()).expect("the traced pass runs")
}

fn passing(trials: usize) -> ValidationReport {
    ValidationReport {
        trials,
        monotone: trials,
        reached_ai: trials,
        locked: trials,
        worst_increase: 0.0,
    }
}

fn assert_clean(t: &Traced) {
    assert!(
        t.judgement.problems.is_empty(),
        "{:?}",
        t.judgement.problems
    );
    assert_eq!(t.judgement.failed, 0);
    assert!(t.judgement.operations >= 1);
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "duplicate metric name {name}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let json = cppll_json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_else(|| panic!("{key} entry lacks {k}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("named")
                .to_string()
        })
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn pipeline_checks_reject_wrong_answers() {
    // The flagship must be Inevitable (both parts of P proven)...
    assert!(check_flagship(2, Some(&passing(100))).is_ok());
    assert!(check_flagship(1, Some(&passing(100))).is_err());
    assert!(check_flagship(0, None).is_err());
    // ...fourth_d2 must keep at least its attractive invariant...
    assert!(check_fourth_d2(1, Some(&passing(100))).is_ok());
    assert!(check_fourth_d2(2, Some(&passing(100))).is_ok());
    assert!(check_fourth_d2(0, Some(&passing(100))).is_err());
    // ...and any validation violation, or no validation at all, fails both.
    for broken in [
        ValidationReport {
            monotone: 99,
            ..passing(100)
        },
        ValidationReport {
            reached_ai: 99,
            ..passing(100)
        },
        ValidationReport {
            locked: 99,
            ..passing(100)
        },
        passing(0),
    ] {
        assert!(check_flagship(2, Some(&broken)).is_err());
        assert!(check_fourth_d2(1, Some(&broken)).is_err());
    }
    assert!(check_flagship(2, None).is_err());
    assert!(check_fourth_d2(1, None).is_err());
}

#[test]
fn statistics_helpers() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 5.0);
    assert_eq!(percentile(&v, 0.9), 9.0);
    assert_eq!(percentile(&v, 1.0), 10.0);
    assert_eq!(percentile(&[7.0], 0.9), 7.0);
}

#[test]
fn layers_attribute_solves_attempts_and_iterations_to_stages() {
    let t = Tracer::new(TraceLevel::Iter);
    let iteration = |t: &Tracer| {
        t.instant(
            TraceLevel::Iter,
            "iteration",
            vec![
                ("schur_assembly_s", 0.5.into()),
                ("line_search_s", 0.25.into()),
            ],
        )
    };
    {
        let _stage = t.span(TraceLevel::Stage, "levelset", "");
        let _sos = t.span(TraceLevel::Solve, "sos_solve", "probe");
        for attempt in 0..2 {
            let _a = t.span(TraceLevel::Solve, "attempt", format!("attempt={attempt}"));
            let _s = t.span(TraceLevel::Solve, "sdp_solve", "m=1");
            for _ in 0..3 {
                iteration(&t);
            }
        }
    }
    {
        let _stage = t.span(TraceLevel::Stage, "advection", "");
        let _step = t.span(TraceLevel::Stage, "advection_step", "k=0");
        let _sos = t.span(TraceLevel::Solve, "sos_solve", "inclusion");
        let _a = t.span(TraceLevel::Solve, "attempt", "attempt=0");
        let _s = t.span(TraceLevel::Solve, "sdp_solve", "m=2");
        iteration(&t);
        t.counter("retry", 1);
    }
    let layers = Layers::from_events(&t.events(), 3);
    assert_eq!(layers.attempt_spans, 3);
    assert_eq!(layers.iteration_instants, 7);
    assert_eq!(layers.advection_steps, 1);
    assert_eq!(layers.counter("retry"), 1);
    assert_eq!(layers.counter("never"), 0);

    let level = layers.stage("levelset");
    assert_eq!(
        (level.sos_solves, level.attempts, level.discarded),
        (1, 2, 1)
    );
    assert_eq!(
        (level.sdp_solves, level.capped, level.iterations),
        (2, 2, 6)
    );
    assert!((level.kernels.schur_assembly - 3.0).abs() < 1e-12);
    assert!((level.kernels.total() - 4.5).abs() < 1e-12);

    let inclusion = layers.stage("inclusion");
    assert_eq!(
        (inclusion.sos_solves, inclusion.sdp_solves, inclusion.capped),
        (1, 1, 0)
    );
    assert_eq!(layers.stage("advection").sdp_solves, 0);
    assert!(layers.stage("advection").seconds >= 0.0);
    assert_eq!(layers.total().iterations, 7);

    // All three solves listed: their order depends on the clock.
    let table = layers.table(3);
    assert!(table.contains("levelset") && table.contains("slowest SDP solves"));
    assert_eq!(table.matches("(capped)").count(), 2);
}

#[test]
fn flagship_passes_its_check_and_its_counts_repeat() {
    let _g = serial();
    let a = traced(Workload::Flagship, 1);
    let b = traced(Workload::Flagship, 1);
    assert_clean(&a);
    assert_clean(&b);
    assert_eq!(a.counts.certified, 2, "the flagship is Inevitable");
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.judgement.digest, b.judgement.digest);
}

#[test]
fn fourth_d2_passes_its_check_and_its_counts_repeat() {
    let _g = serial();
    let a = traced(Workload::FourthD2, 1);
    let b = traced(Workload::FourthD2, 1);
    assert_clean(&a);
    assert_clean(&b);
    assert!(a.counts.certified >= 1, "the attractive invariant is found");
    assert_eq!(a.counts, b.counts);
}

#[test]
fn atlas_passes_its_check_and_its_counts_repeat_across_runs_and_threads() {
    let _g = serial();
    let one = traced(Workload::Atlas, 1);
    let again = traced(Workload::Atlas, 1);
    let two = traced(Workload::Atlas, 2);
    for t in [&one, &again, &two] {
        assert_clean(t);
    }
    assert_eq!(one.counts, again.counts);
    assert_eq!(one.counts, two.counts);
    assert_eq!(one.judgement.digest, two.judgement.digest);

    // The tracer-carrying cell solver counts the work of Lyapunov-infeasible
    // cells, which the program's cell ledgers leave out.
    let ledgers = Reported::of(&two.outcome);
    assert!(
        two.counts.solve_attempts > ledgers.attempts as u64,
        "{} attempt spans vs {} in the cell ledgers",
        two.counts.solve_attempts,
        ledgers.attempts
    );

    // The benchmark's solver reproduces `run_sweep`'s atlas.
    for threads in [1, 2] {
        cppll_par::set_threads(threads);
        let Setup::Atlas { spec, options } = setup(Workload::Atlas) else {
            unreachable!("the atlas workload sets up a sweep")
        };
        let atlas = run_sweep(&spec, &options).expect("run_sweep runs");
        assert_eq!(atlas.digest(), two.judgement.digest, "threads = {threads}");
    }
}

#[test]
fn atlas_check_rejects_flipped_and_unresolved_cells() {
    let _g = serial();
    let t = traced(Workload::Atlas, 1);
    let Outcome::Atlas(run) = &t.outcome else {
        unreachable!("the atlas workload returns an atlas")
    };
    let atlas = &run.atlas;
    assert!(atlas_mismatches(atlas).is_empty());
    let certified_columns = atlas
        .cells
        .iter()
        .filter(|c| expected_certified(&c.values))
        .count();
    assert_eq!(atlas_certified(atlas), certified_columns);

    let solved = atlas
        .cells
        .iter()
        .position(|c| c.status == CellStatus::Certified)
        .expect("some cell is solved and certified");
    let mut flipped = atlas.clone();
    flipped.cells[solved].status = CellStatus::Failed;
    assert_eq!(atlas_mismatches(&flipped), vec![solved]);

    let interior = atlas
        .cells
        .iter()
        .position(|c| c.status == CellStatus::Interior && c.implied == Some(false))
        .expect("some cell is implied uncertified");
    let mut flipped = atlas.clone();
    flipped.cells[interior].implied = Some(true);
    assert_eq!(atlas_mismatches(&flipped), vec![interior]);

    let mut unresolved = atlas.clone();
    unresolved.cells[interior].status = CellStatus::Unresolved;
    unresolved.cells[interior].implied = None;
    assert_eq!(atlas_mismatches(&unresolved), vec![interior]);
}
