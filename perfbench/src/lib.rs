//! The repository benchmark: three workloads run as closed loops with one
//! verification in flight, end-to-end metrics from untraced runs, and
//! per-layer metrics from one traced run at `iter` level.
//!
//! The benchmark adds no tracing to the program. It reads the program's
//! public telemetry — [`VerificationReport`], the ledger snapshots, the
//! reduction statistics and a [`TraceRecorder`] passed through
//! [`PipelineOptions::trace`] — and times its own calls into
//! [`InevitabilityVerifier::verify`] and [`run_sweep_with`], including the
//! cell solver it passes to the latter.

pub mod check;
pub mod layers;
pub mod rusage;

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use cppll_pll::{PllModelBuilder, PllOrder, VerificationModel};
use cppll_sdp::{SdpSolution, SolverOptions};
use cppll_verify::checkpoint::fingerprint_hex;
use cppll_verify::{
    run_sweep, run_sweep_with, Atlas, CellOutcome, CellProblem, InevitabilityVerifier,
    LedgerSnapshot, PipelineOptions, Region, SweepOptions, SweepSpec, TraceLevel, TraceRecorder,
    Tracer, Verdict, VerificationReport, VerifyError,
};

use crate::layers::Layers;
use crate::rusage::CpuTime;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `pll 3 4`: the paper's headline third-order lock at degree 4.
    Flagship,
    /// `pll 4 2`: fourth order at degree 2, many small blocks.
    FourthD2,
    /// A 41×41 bisecting sweep over the `$a`/`$b` toy template.
    Atlas,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Flagship, Workload::FourthD2, Workload::Atlas];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flagship => "flagship",
            Workload::FourthD2 => "fourth_d2",
            Workload::Atlas => "atlas",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads the workload's process asks for.
    pub fn threads(self) -> usize {
        match self {
            Workload::Flagship | Workload::FourthD2 => 1,
            Workload::Atlas => 2,
        }
    }
}

/// The atlas sweep: `SweepSpec::example()`'s template and bisection on a
/// 41×41 grid. Certified exactly on the `a ≤ 0` columns.
const ATLAS_SWEEP: &str = r#"{
  "target": {
    "kind": "spec",
    "spec": {
      "states": 2,
      "modes": [
        {"name": "flow", "flow": ["$a x0", "-1 x1 + $b x1"]}
      ],
      "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
      "initial_radii": [2.0, 2.0],
      "degree": 2
    }
  },
  "axes": [
    {"name": "a", "min": -1.0, "max": 1.0, "cells": 41},
    {"name": "b", "min": -1.5, "max": -0.5, "cells": 41}
  ],
  "bisect": true
}"#;

/// Monte-Carlo trajectories per validation.
const VALIDATION_TRIALS: usize = 100;

/// Seed of every Monte-Carlo validation: fixed, as in `cppll --validate`.
const VALIDATION_SEED: u64 = 42;

/// An operation running longer than this counts as failed.
const OPERATION_CAP_S: f64 = 60.0;

/// No new timed operation starts once the run is this old, whatever
/// `--seconds` says, so the process ends well within its time limit.
const LOOP_BUDGET_S: f64 = 80.0;

/// Batches of set-ups timed for `setup_s`.
const SETUP_BATCHES: usize = 41;

/// Set-ups per timed batch.
const SETUP_REPS: usize = 100;

/// Untimed set-ups before each group of batches.
const SETUP_WARMUP_REPS: usize = 50;

/// Slowest SDP solves listed under the layer table.
const SLOWEST: usize = 8;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("certified", "count"),
    ("solve_attempts", "count"),
    ("ipm_iterations", "count"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("core.lyapunov_s", "s"),
    ("core.levelset_s", "s"),
    ("core.advection_s", "s"),
    ("core.inclusion_s", "s"),
    ("core.escape_s", "s"),
    ("core.advection_steps", "count"),
    ("sweep.cells_solved", "count"),
    ("sweep.solved_share", "ratio"),
    ("sweep.waves", "count"),
    ("sweep.warm_hits", "count"),
    ("sweep.warm_hit_share", "ratio"),
    ("sweep.cell_p50_s", "s"),
    ("sweep.cell_p90_s", "s"),
    ("sos.solves", "count"),
    ("sos.attempts", "count"),
    ("sos.retries", "count"),
    ("sos.numerical_failures", "count"),
    ("sos.answer_share", "ratio"),
    ("sos.discarded_s", "s"),
    ("sos.backoff_sleep_s", "s"),
    ("sos.legacy_fallbacks", "count"),
    ("sos.compile_s", "s"),
    ("sos.basis", "count"),
    ("sos.grams", "count"),
    ("sos.max_block", "count"),
    ("sdp.solves", "count"),
    ("sdp.iterations", "count"),
    ("sdp.iters_p50", "count"),
    ("sdp.iters_p90", "count"),
    ("sdp.capped_solves", "count"),
    ("sdp.capped_s", "s"),
    ("sdp.capped_share", "ratio"),
    ("sdp.solve_p50_s", "s"),
    ("sdp.solve_p90_s", "s"),
    ("kernel.schur_assembly_s", "s"),
    ("kernel.kkt_factor_s", "s"),
    ("kernel.kkt_solve_s", "s"),
    ("kernel.line_search_s", "s"),
    ("kernel.factorizations_s", "s"),
    ("kernel.residuals_s", "s"),
    ("kernel.schur_symbolic_s", "s"),
    ("kernel.per_iter_ms", "ms"),
    ("kernel.schur_pairs_skipped", "count"),
    ("par.efficiency", "ratio"),
    ("par.sys_share", "ratio"),
    ("par.cpu_per_wall", "ratio"),
    ("trace.overhead", "ratio"),
    ("telemetry.retry_gap", "count"),
    ("telemetry.attempt_gap", "count"),
    ("telemetry.cache_hit_gap", "count"),
];

/// Everything a workload needs before its first call into the verifier.
pub enum Setup {
    /// A built-in CP PLL model and its pipeline options.
    Pipeline {
        /// The scaled verification model.
        model: Box<VerificationModel>,
        /// Pipeline options (no tracer).
        options: Box<PipelineOptions>,
    },
    /// A parsed sweep.
    Atlas {
        /// The sweep spec.
        spec: Box<SweepSpec>,
        /// Sweep options (no tracer).
        options: Box<SweepOptions>,
    },
}

/// Builds a workload's inputs: model build and scaling, or sweep-spec parse.
pub fn setup(w: Workload) -> Setup {
    let pll = |order, degree| Setup::Pipeline {
        model: Box::new(PllModelBuilder::new(order).build()),
        options: Box::new(PipelineOptions::degree(degree)),
    };
    match w {
        Workload::Flagship => pll(PllOrder::Third, 4),
        Workload::FourthD2 => pll(PllOrder::Fourth, 2),
        Workload::Atlas => Setup::Atlas {
            spec: Box::new(SweepSpec::from_json_str(ATLAS_SWEEP).expect("the atlas sweep parses")),
            options: Box::new(SweepOptions::default()),
        },
    }
}

/// One call of the benchmark's cell solver.
#[derive(Debug, Clone)]
pub struct CellLog {
    /// Linear cell index.
    pub cell: usize,
    /// Wall seconds of the solver call.
    pub seconds: f64,
    /// Whether the sweep offered a warm-start seed.
    pub seeded: bool,
    /// Inclusion solves that accepted the seed.
    pub warm_hits: usize,
    /// The ledger the cell outcome carries (empty for Lyapunov-infeasible
    /// cells, as in the program's own cell solver).
    pub ledger: LedgerSnapshot,
}

/// A finished sweep with the benchmark's per-cell log.
pub struct AtlasRun {
    /// The atlas `run_sweep_with` returned.
    pub atlas: Atlas,
    /// One entry per cell-solver call, by cell index.
    pub cells: Vec<CellLog>,
}

/// What one execution of a workload returned.
pub enum Outcome {
    /// A pipeline report.
    Pipeline(Box<VerificationReport>),
    /// A sweep.
    Atlas(Box<AtlasRun>),
}

type Seed = Option<Vec<Option<SdpSolution>>>;

/// The benchmark's cell solver. It does what the program's in-process cell
/// solver does, from public calls, and additionally carries `tracer` into
/// every cell's pipeline (inside a `cell` span of the benchmark's own), so
/// the work of Lyapunov-infeasible cells is counted too. Each call is timed
/// and logged.
fn cell_solver<'a>(
    opt: &'a SweepOptions,
    tracer: Option<Tracer>,
    log: &'a Mutex<Vec<CellLog>>,
) -> impl Fn(usize, &CellProblem, Seed) -> Result<CellOutcome, String> + Sync + 'a {
    move |cell, problem, seed| {
        let t0 = Instant::now();
        let _span = tracer
            .as_ref()
            .map(|t| t.span(TraceLevel::Stage, "cell", format!("cell={cell}")));
        let verifier = InevitabilityVerifier::new(
            &problem.system,
            problem.boundary.clone(),
            Region::ellipsoid(&problem.initial_radii),
        );
        let mut popt = PipelineOptions::degree(problem.degree);
        popt.resilience = opt.resilience.clone();
        popt.reduction = opt.reduction;
        let fingerprint = fingerprint_hex(verifier.problem_fingerprint(&popt));
        let seeded = seed.is_some();
        popt.advection_seed = seed;
        popt.trace = tracer.clone();
        let outcome = match verifier.verify(&popt) {
            Ok(report) => {
                let reason = match &report.verdict {
                    Verdict::Inevitable { .. } => None,
                    Verdict::Inconclusive { reason } => Some(reason.clone()),
                    Verdict::Degraded { stage, reason } => {
                        Some(format!("{}: {reason}", stage.name()))
                    }
                };
                CellOutcome {
                    certified: report.verdict.is_verified(),
                    digest: Some(report.result_digest()),
                    reason,
                    fingerprint,
                    warm_hits: report.advection_warm_hits,
                    warm: report.advection_warm,
                    seconds: t0.elapsed().as_secs_f64(),
                    ledger: LedgerSnapshot {
                        stats: report.solve_stats,
                        timings: report.solve_timings,
                        reduction: report.reduction,
                    },
                }
            }
            Err(e @ VerifyError::Infeasible { .. }) => CellOutcome {
                certified: false,
                digest: None,
                reason: Some(e.to_string()),
                fingerprint,
                warm_hits: 0,
                warm: Vec::new(),
                seconds: t0.elapsed().as_secs_f64(),
                ledger: LedgerSnapshot::default(),
            },
            Err(e) => return Err(e.to_string()),
        };
        log.lock().expect("cell log lock").push(CellLog {
            cell,
            seconds: t0.elapsed().as_secs_f64(),
            seeded,
            warm_hits: outcome.warm_hits,
            ledger: outcome.ledger,
        });
        Ok(outcome)
    }
}

/// Runs a workload once. With a tracer, every pipeline run records into it.
///
/// # Errors
///
/// The verifier's or the sweep's error, as text.
fn execute(setup: &Setup, tracer: Option<Tracer>) -> Result<Outcome, String> {
    match setup {
        Setup::Pipeline { model, options } => {
            let mut opt = (**options).clone();
            opt.trace = tracer;
            InevitabilityVerifier::for_pll(model)
                .verify(&opt)
                .map(|r| Outcome::Pipeline(Box::new(r)))
                .map_err(|e| e.to_string())
        }
        Setup::Atlas { spec, options } => {
            let mut opt = (**options).clone();
            opt.trace = tracer.clone();
            let log = Mutex::new(Vec::new());
            let atlas = run_sweep_with(spec, &opt, &cell_solver(&opt, tracer, &log))
                .map_err(|e| e.to_string())?;
            let mut cells = log.into_inner().expect("cell log lock");
            cells.sort_by_key(|c| c.cell);
            Ok(Outcome::Atlas(Box::new(AtlasRun { atlas, cells })))
        }
    }
}

/// The verdict of the output check on one execution.
#[derive(Debug, Clone)]
pub struct Judgement {
    /// Operations performed: 1 per verification, 1 per solved atlas cell.
    pub operations: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
    /// The `certified` metric: parts of `P` proven, or atlas cells labelled
    /// certified.
    pub certified: u64,
    /// Result or atlas digest (information only).
    pub digest: String,
}

/// Checks one execution's answers. `validated` holds the result digests whose
/// certificates already passed validation in this process: a report with
/// one of them carries bit-identical certificates and is not simulated
/// again.
fn judge(
    w: Workload,
    setup: &Setup,
    outcome: &Outcome,
    validated: &mut BTreeSet<String>,
) -> Judgement {
    match (setup, outcome) {
        (Setup::Pipeline { model, .. }, Outcome::Pipeline(report)) => {
            let proven = check::proven_parts(report);
            let digest = report.result_digest();
            let verdict = if validated.contains(&digest) {
                Ok(())
            } else {
                let validation = InevitabilityVerifier::for_pll(model).validate(
                    report,
                    VALIDATION_TRIALS,
                    VALIDATION_SEED,
                );
                match w {
                    Workload::Flagship => check::check_flagship(proven, validation.as_ref()),
                    _ => check::check_fourth_d2(proven, validation.as_ref()),
                }
            };
            let problems: Vec<String> = verdict.err().into_iter().collect();
            if problems.is_empty() {
                validated.insert(digest.clone());
            }
            Judgement {
                operations: 1,
                failed: u64::from(!problems.is_empty()),
                problems,
                certified: u64::from(proven),
                digest,
            }
        }
        (Setup::Atlas { .. }, Outcome::Atlas(run)) => {
            let solved = run.cells.len() as u64;
            let mut problems = Vec::new();
            let wrong = check::atlas_mismatches(&run.atlas);
            if !wrong.is_empty() {
                problems.push(format!(
                    "{} atlas cell(s) differ from the expected map (first: cell {})",
                    wrong.len(),
                    wrong[0]
                ));
            }
            let failed = (wrong.len() as u64).min(solved);
            Judgement {
                operations: solved.max(1),
                failed,
                problems,
                certified: check::atlas_certified(&run.atlas) as u64,
                digest: run.atlas.digest(),
            }
        }
        _ => unreachable!("execute returns the outcome kind of its setup"),
    }
}

/// Supervised-solve telemetry as the program reports it: the ledger of a
/// pipeline report, or the sum of the atlas cells' ledgers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reported {
    /// Supervised solves.
    pub solves: usize,
    /// Attempts.
    pub attempts: usize,
    /// Retries.
    pub retries: usize,
    /// Solves that ended in a numerical failure.
    pub failures: usize,
    /// Gram basis monomials after pruning.
    pub basis: usize,
    /// Gram blocks considered.
    pub grams: usize,
    /// Largest PSD block.
    pub max_block: usize,
    /// Multiplier-basis cache hits.
    pub cache_hits: usize,
    /// One-off symbolic Schur analysis seconds.
    pub schur_symbolic_s: f64,
}

impl Reported {
    fn add(&mut self, s: &LedgerSnapshot) {
        self.solves += s.stats.solves;
        self.attempts += s.stats.attempts;
        self.retries += s.stats.retries;
        self.failures += s.stats.failures;
        self.basis += s.reduction.basis_after;
        self.grams += s.reduction.grams;
        self.max_block = self.max_block.max(s.reduction.max_block);
        self.cache_hits += s.reduction.mult_cache_hits;
        self.schur_symbolic_s += s.timings.schur_symbolic;
    }

    /// The program-reported telemetry of one outcome.
    pub fn of(outcome: &Outcome) -> Reported {
        let mut r = Reported::default();
        match outcome {
            Outcome::Pipeline(report) => r.add(&LedgerSnapshot {
                stats: report.solve_stats,
                timings: report.solve_timings,
                reduction: report.reduction,
            }),
            Outcome::Atlas(run) => run.cells.iter().for_each(|c| r.add(&c.ledger)),
        }
        r
    }
}

/// The deterministic work counts of one traced execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `certified` (see [`Judgement::certified`]).
    pub certified: u64,
    /// `attempt` spans.
    pub solve_attempts: u64,
    /// `iteration` instants.
    pub ipm_iterations: u64,
}

/// A traced execution: outcome, judgement, layer breakdown and counts.
pub struct Traced {
    /// What the execution returned.
    pub outcome: Outcome,
    /// Its output check.
    pub judgement: Judgement,
    /// The four-layer breakdown of its trace.
    pub layers: Layers,
    /// Its work counts.
    pub counts: Counts,
    /// Wall seconds from set-up to result, traced.
    pub wall_s: f64,
}

/// Sets up and runs a workload once with an `iter`-level recorder, then
/// checks its answers and breaks its trace down by layer.
///
/// # Errors
///
/// The verifier's or the sweep's error, as text.
pub fn traced_pass(w: Workload, validated: &mut BTreeSet<String>) -> Result<Traced, String> {
    let recorder = TraceRecorder::new(TraceLevel::Iter);
    let t0 = Instant::now();
    let s = setup(w);
    let outcome = execute(&s, Some(recorder.tracer()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let judgement = judge(w, &s, &outcome, validated);
    let layers = Layers::from_events(&recorder.events(), SolverOptions::default().max_iterations);
    let counts = Counts {
        certified: judgement.certified,
        solve_attempts: layers.attempt_spans as u64,
        ipm_iterations: layers.iteration_instants as u64,
    };
    Ok(Traced {
        outcome,
        judgement,
        layers,
        counts,
        wall_s,
    })
}

/// Command-line settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed. The verified problems are fixed (the gates are
    /// exact work counts of those problems), so the seed labels the run and
    /// changes no input.
    pub seed: u64,
    /// How long the timed closed loop runs.
    pub seconds: f64,
    /// Report per-layer (`true`) or end-to-end (`false`) metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line of a run plus the human-readable lines before it.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable summary (and, traced, the layer table).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result as the one-line JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One timed operation of the closed loop.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    cpu: CpuTime,
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile (`p` in 0–1); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds per set-up of batches of repeated set-ups, after a warm-up.
/// The counts are fixed, so the allocation history — and with it the peak
/// RSS — does not depend on the clock.
fn setup_batches(w: Workload) -> Vec<f64> {
    for _ in 0..SETUP_WARMUP_REPS {
        black_box(setup(w));
    }
    (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_REPS {
                black_box(setup(w));
            }
            t.elapsed().as_secs_f64() / SETUP_REPS as f64
        })
        .collect()
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Runs one benchmark invocation: set-up timing, the timed closed loop,
/// one traced pass for the counts (and, with `trace`, the layers).
pub fn run(cfg: &RunConfig) -> RunResult {
    let w = cfg.workload;
    cppll_par::set_threads(w.threads());
    let mut notes = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut digests: Vec<String> = Vec::new();
    let mut validated = BTreeSet::new();

    // Set-up is timed in batches at the start, middle and end of the run;
    // `setup_s` is the median over all of them.
    let mut setups = setup_batches(w);

    // Timed closed loop: one verification in flight, untraced, until the
    // timed operations add up to `--seconds` (output checks excluded).
    let mut samples: Vec<Sample> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut measured = 0.0;
    let start = Instant::now();
    loop {
        let cpu0 = CpuTime::now();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let s = setup(w);
            let out = execute(&s, None);
            (s, out)
        }));
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu = CpuTime::now().since(&cpu0);
        if samples.is_empty() {
            // Later operations reuse a heap the first one fragmented, so
            // their high-water mark depends on how many ran: read it once.
            peak_rss_mb = rusage::peak_rss_mb();
        }
        samples.push(Sample { wall_s, cpu });
        match result {
            Ok((s, Ok(outcome))) => {
                let j = judge(w, &s, &outcome, &mut validated);
                attempted += j.operations;
                failed += j.failed;
                problems.extend(j.problems);
                if wall_s > OPERATION_CAP_S && j.failed < j.operations {
                    failed += j.operations - j.failed;
                    problems.push(format!(
                        "operation took {wall_s:.1}s (cap {OPERATION_CAP_S}s)"
                    ));
                }
                digests.push(j.digest);
            }
            Ok((_, Err(e))) => {
                attempted += 1;
                failed += 1;
                problems.push(e);
            }
            Err(p) => {
                attempted += 1;
                failed += 1;
                problems.push(format!("panic: {}", panic_text(p)));
            }
        }
        measured += wall_s;
        if measured >= cfg.seconds || start.elapsed().as_secs_f64() + wall_s > LOOP_BUDGET_S {
            break;
        }
    }
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let wall_s = median(&walls);
    setups.extend(setup_batches(w));

    // The traced pass: counts for `--trace 0`, layers for `--trace 1`.
    let traced = match catch_unwind(AssertUnwindSafe(|| traced_pass(w, &mut validated))) {
        Ok(Ok(t)) => Some(t),
        Ok(Err(e)) => {
            problems.push(format!("traced pass: {e}"));
            None
        }
        Err(p) => {
            problems.push(format!("traced pass panicked: {}", panic_text(p)));
            None
        }
    };
    if let Some(t) = &traced {
        attempted += t.judgement.operations;
        failed += t.judgement.failed;
        problems.extend(t.judgement.problems.iter().cloned());
        digests.push(t.judgement.digest.clone());
    } else {
        attempted += 1;
        failed += 1;
    }
    digests.dedup();
    setups.extend(setup_batches(w));
    let setup_s = median(&setups);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if cfg.trace {
        if let Some(t) = &traced {
            let mut efficiency = 1.0;
            if let Outcome::Atlas(run) = &t.outcome {
                // `run_sweep` (the program's own cell solver) at one thread:
                // the efficiency baseline, and the digest the benchmark's
                // tracer-carrying solver must reproduce.
                cppll_par::set_threads(1);
                let t0 = Instant::now();
                let Setup::Atlas { spec, options } = setup(w) else {
                    unreachable!("the atlas workload sets up a sweep")
                };
                let single = run_sweep(&spec, &options);
                let wall_1 = t0.elapsed().as_secs_f64();
                cppll_par::set_threads(w.threads());
                efficiency = wall_1 / (w.threads() as f64 * wall_s);
                match single {
                    Ok(a) if a.digest() == run.atlas.digest() => {}
                    Ok(a) => {
                        failed += 1;
                        problems.push(format!(
                            "run_sweep digest {} differs from the benchmark solver's {}",
                            a.digest(),
                            run.atlas.digest()
                        ));
                    }
                    Err(e) => {
                        failed += 1;
                        problems.push(format!("run_sweep: {e}"));
                    }
                }
                attempted += 1;
            }
            layer_metrics(&mut values, t, &samples, wall_s, efficiency);
            notes.push(format!(
                "layer table ({}, traced at iter level, {} thread(s)):",
                w.name(),
                w.threads()
            ));
            notes.extend(t.layers.table(SLOWEST).lines().map(str::to_string));
        }
    } else {
        let cpu: Vec<f64> = samples.iter().map(|s| s.cpu.total()).collect();
        values.insert("wall_s", wall_s);
        values.insert("setup_s", setup_s);
        values.insert("cpu_s", median(&cpu));
        values.insert("peak_rss_mb", peak_rss_mb);
        if let Some(t) = &traced {
            values.insert("certified", t.counts.certified as f64);
            values.insert("solve_attempts", t.counts.solve_attempts as f64);
            values.insert("ipm_iterations", t.counts.ipm_iterations as f64);
        }
    }

    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
            unit,
        })
        .collect();
    if names
        .iter()
        .any(|(n, _)| !values.get(n).is_some_and(|v| v.is_finite()))
    {
        problems.push("some metrics could not be measured".into());
    }

    notes.insert(
        0,
        format!(
            "perfbench {} seed={} threads={} available_parallelism={} timed_samples={} \
             walls_s={:?} setup_s={:.3e} digest(s)={}",
            w.name(),
            cfg.seed,
            w.threads(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            samples.len(),
            walls,
            setup_s,
            digests.join(",")
        ),
    );
    for p in &problems {
        notes.push(format!("FAILED CHECK: {p}"));
    }
    RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    }
}

/// Fills the per-layer metrics of a traced pass.
fn layer_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    t: &Traced,
    samples: &[Sample],
    wall_s: f64,
    efficiency: f64,
) {
    let layers = &t.layers;
    let total = layers.total();
    let reported = Reported::of(&t.outcome);
    let mut put = |name: &'static str, v: f64| {
        values.insert(name, v);
    };

    put("core.lyapunov_s", layers.stage("lyapunov").seconds);
    put("core.levelset_s", layers.stage("levelset").seconds);
    put("core.advection_s", layers.stage("advection").seconds);
    put("core.inclusion_s", layers.stage("inclusion").seconds);
    put("core.escape_s", layers.stage("escape").seconds);
    put("core.advection_steps", layers.advection_steps as f64);

    let (mut cells_solved, mut solved_share, mut waves, mut warm_hits) = (0.0, 0.0, 0.0, 0.0);
    let (mut warm_hit_share, mut cell_p50, mut cell_p90) = (0.0, 0.0, 0.0);
    if let Outcome::Atlas(run) = &t.outcome {
        let seconds: Vec<f64> = run.cells.iter().map(|c| c.seconds).collect();
        let seeded = run.cells.iter().filter(|c| c.seeded).count();
        let took = run
            .cells
            .iter()
            .filter(|c| c.seeded && c.warm_hits > 0)
            .count();
        cells_solved = run.cells.len() as f64;
        solved_share = cells_solved / run.atlas.cells.len() as f64;
        waves = run.atlas.waves as f64;
        warm_hits = run.atlas.counters.warm_start_hits as f64;
        warm_hit_share = if seeded > 0 {
            took as f64 / seeded as f64
        } else {
            0.0
        };
        cell_p50 = percentile(&seconds, 0.5);
        cell_p90 = percentile(&seconds, 0.9);
    }
    put("sweep.cells_solved", cells_solved);
    put("sweep.solved_share", solved_share);
    put("sweep.waves", waves);
    put("sweep.warm_hits", warm_hits);
    put("sweep.warm_hit_share", warm_hit_share);
    put("sweep.cell_p50_s", cell_p50);
    put("sweep.cell_p90_s", cell_p90);

    put("sos.solves", reported.solves as f64);
    put("sos.attempts", reported.attempts as f64);
    put("sos.retries", reported.retries as f64);
    put("sos.numerical_failures", reported.failures as f64);
    put(
        "sos.answer_share",
        if reported.attempts > 0 {
            (reported.solves - reported.failures) as f64 / reported.attempts as f64
        } else {
            0.0
        },
    );
    put("sos.discarded_s", total.discarded_s);
    put("sos.backoff_sleep_s", layers.backoff_sleep_s);
    put(
        "sos.legacy_fallbacks",
        (layers.counter("support_trust_fallback") + layers.counter("levelset_legacy_rerun")) as f64,
    );
    put("sos.compile_s", total.compile_s);
    put("sos.basis", reported.basis as f64);
    put("sos.grams", reported.grams as f64);
    put("sos.max_block", reported.max_block as f64);

    let iters: Vec<f64> = layers.solves.iter().map(|s| s.iterations as f64).collect();
    let solve_s: Vec<f64> = layers.solves.iter().map(|s| s.seconds).collect();
    put("sdp.solves", layers.solves.len() as f64);
    put("sdp.iterations", layers.iteration_instants as f64);
    put("sdp.iters_p50", percentile(&iters, 0.5));
    put("sdp.iters_p90", percentile(&iters, 0.9));
    put("sdp.capped_solves", total.capped as f64);
    put("sdp.capped_s", total.capped_s);
    put(
        "sdp.capped_share",
        if total.sdp_s > 0.0 {
            total.capped_s / total.sdp_s
        } else {
            0.0
        },
    );
    put("sdp.solve_p50_s", percentile(&solve_s, 0.5));
    put("sdp.solve_p90_s", percentile(&solve_s, 0.9));

    let k = &total.kernels;
    put("kernel.schur_assembly_s", k.schur_assembly);
    put("kernel.kkt_factor_s", k.kkt_factor);
    put("kernel.kkt_solve_s", k.kkt_solve);
    put("kernel.line_search_s", k.line_search);
    put("kernel.factorizations_s", k.factorizations);
    put("kernel.residuals_s", k.residuals);
    put("kernel.schur_symbolic_s", reported.schur_symbolic_s);
    put(
        "kernel.per_iter_ms",
        if layers.iteration_instants > 0 {
            k.total() / layers.iteration_instants as f64 * 1e3
        } else {
            0.0
        },
    );
    put(
        "kernel.schur_pairs_skipped",
        layers.counter("schur_pairs_skipped") as f64,
    );

    let cpu_user: f64 = samples.iter().map(|s| s.cpu.user).sum();
    let cpu_sys: f64 = samples.iter().map(|s| s.cpu.system).sum();
    let walls: f64 = samples.iter().map(|s| s.wall_s).sum();
    put("par.efficiency", efficiency);
    put("par.sys_share", cpu_sys / (cpu_user + cpu_sys).max(1e-12));
    put("par.cpu_per_wall", (cpu_user + cpu_sys) / walls.max(1e-12));
    put("trace.overhead", t.wall_s / wall_s - 1.0);

    let gap = |a: usize, b: u64| (a as f64 - b as f64).abs();
    put(
        "telemetry.retry_gap",
        gap(reported.retries, layers.counter("retry")),
    );
    put(
        "telemetry.attempt_gap",
        gap(reported.attempts, layers.attempt_spans as u64),
    );
    put(
        "telemetry.cache_hit_gap",
        gap(
            reported.cache_hits,
            layers.counter("reduction_mult_cache_hits"),
        ),
    );
}
