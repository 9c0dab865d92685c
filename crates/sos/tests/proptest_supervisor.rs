//! Property: the solve supervisor is deterministic. Two supervised runs of
//! the same program with the same retry policy (same jitter seed) and the
//! same fault schedule must produce byte-identical attempt logs and the
//! same final outcome — backoff is planned, never measured, and the jitter
//! is a pure function of `(seed, attempt)`.

use std::sync::Arc;

use cppll_poly::Polynomial;
use cppll_sdp::{FaultInjector, FaultKind, FaultPlan};
use cppll_sos::{ResilienceOptions, RetryPolicy, SolveLedger, SosOptions, SosProgram};
use proptest::prelude::*;

fn kind_for(index: u8) -> FaultKind {
    match index % 3 {
        0 => FaultKind::Stall,
        1 => FaultKind::MaxIterations,
        _ => FaultKind::Cholesky,
    }
}

/// One supervised solve of a small feasible SOS program under a fresh
/// injector with `faulted_attempts` leading faulted attempts; returns the
/// success flag and the canonical attempt log.
fn supervised_run(
    seed: u64,
    retries: usize,
    kind: FaultKind,
    faulted_attempts: usize,
) -> (bool, Vec<String>) {
    let p = Polynomial::from_terms(
        2,
        &[
            (&[2, 0], 1.0),
            (&[1, 1], -2.0),
            (&[0, 2], 1.0),
            (&[0, 0], 1.0),
        ],
    );
    let mut prog = SosProgram::new(2);
    prog.require_sos(p.into());

    // Fault the first `faulted_attempts` attempts via per-call indices; the
    // supervisor recompiles per attempt, so attempt i is solve call i.
    let mut plan = FaultPlan::new();
    for call in 0..faulted_attempts {
        plan = plan.fault_at_call(call, kind);
    }
    let ledger = SolveLedger::new();
    let options = SosOptions {
        resilience: ResilienceOptions {
            retry: RetryPolicy {
                max_retries: retries,
                jitter_seed: seed,
                ..RetryPolicy::default()
            },
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ledger: Some(ledger.clone()),
            ..ResilienceOptions::default()
        },
        ..SosOptions::default()
    };
    let ok = prog.solve(&options).is_ok();
    (ok, ledger.log_lines())
}

/// Backoff is planned, never slept: with a 60 s planned backoff and an
/// already expired pipeline deadline, the retry still happens (and is
/// counted) immediately, and the plan is recorded in full.
#[test]
fn expired_deadline_still_retries_without_sleeping_the_planned_backoff() {
    use std::time::{Duration, Instant};

    let p = Polynomial::from_terms(
        2,
        &[
            (&[2, 0], 1.0),
            (&[1, 1], -2.0),
            (&[0, 2], 1.0),
            (&[0, 0], 1.0),
        ],
    );
    let mut prog = SosProgram::new(2);
    prog.require_sos(p.into());

    let recorder = cppll_trace::TraceRecorder::new(cppll_trace::TraceLevel::Solve);
    let ledger = SolveLedger::new();
    let options = SosOptions {
        resilience: ResilienceOptions {
            retry: RetryPolicy {
                max_retries: 1,
                // A backoff the test would feel if it were actually slept.
                backoff_base_ms: 60_000,
                ..RetryPolicy::default()
            },
            // The deadline has already passed when the backoff is planned.
            deadline: Some(Instant::now() - Duration::from_millis(10)),
            fault: Some(Arc::new(FaultInjector::new(
                FaultPlan::new().fault_at_call(0, FaultKind::Stall),
            ))),
            ledger: Some(ledger.clone()),
            tracer: Some(recorder.tracer()),
            ..ResilienceOptions::default()
        },
        ..SosOptions::default()
    };

    let started = Instant::now();
    let _ = prog.solve(&options);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the 60s planned backoff must not be slept, took {:?}",
        started.elapsed()
    );

    // The retry still happened and was counted.
    let stats = ledger.stats();
    assert_eq!(stats.attempts, 2, "faulted attempt plus one retry");
    assert_eq!(stats.retries, 1);
    assert_eq!(recorder.counter_total("retry"), 1);
    assert_eq!(recorder.counter_total("backoff"), 1);

    // The backoff instant records the full plan.
    let backoffs = recorder.instants_named("backoff");
    assert_eq!(backoffs.len(), 1);
    assert_eq!(backoffs[0].field_f64("planned_ms"), Some(60_000.0));

    // So does the attempt log.
    let log = ledger.log_lines();
    assert_eq!(log.len(), 2);
    assert!(
        log[0].ends_with("backoff_ms=60000"),
        "first attempt plans the full backoff: {}",
        log[0]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_and_schedule_give_identical_logs(
        seed in 0u64..u64::MAX,
        retries in 0usize..3,
        kind_index in 0u8..3,
        faulted_attempts in 0usize..3,
    ) {
        let kind = kind_for(kind_index);
        let (ok_a, log_a) = supervised_run(seed, retries, kind, faulted_attempts);
        let (ok_b, log_b) = supervised_run(seed, retries, kind, faulted_attempts);
        prop_assert_eq!(ok_a, ok_b);
        prop_assert_eq!(&log_a, &log_b);
        // The outcome is exactly "were there more attempts than faults":
        // the program itself is feasible, so the first unfaulted attempt
        // succeeds.
        prop_assert_eq!(ok_a, faulted_attempts <= retries);
        let expected_attempts = (faulted_attempts + 1).min(retries + 1);
        prop_assert_eq!(log_a.len(), expected_attempts);
    }

    #[test]
    fn different_jitter_seeds_diverge_only_in_retried_attempts(
        seed in 0u64..u64::MAX,
    ) {
        // With one faulted attempt and one retry, the retry's step fraction
        // is jittered: two different seeds agree on attempt 0 and (almost
        // surely) differ on attempt 1's step field.
        let (ok_a, log_a) = supervised_run(seed, 1, FaultKind::Stall, 1);
        let (ok_b, log_b) = supervised_run(seed ^ 0xdead_beef, 1, FaultKind::Stall, 1);
        prop_assert!(ok_a && ok_b);
        prop_assert_eq!(log_a.len(), 2);
        prop_assert_eq!(&log_a[0], &log_b[0]);
    }
}
