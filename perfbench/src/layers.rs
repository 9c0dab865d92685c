//! The four-layer breakdown of a traced run: pipeline stage → SOS solve →
//! SDP solve → IPM iterations → kernel seconds.
//!
//! Everything here is computed from the event list of one
//! [`cppll_verify::TraceRecorder`] at `iter` level. The per-layer metrics and
//! the printed table both read the same [`Layers`] value, so the two cannot
//! drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cppll_verify::{Event, EventKind};

/// Stage rows, in pipeline order. `inclusion` is the advection stage's
/// set-inclusion solves (Table 2 books them apart from advection); `other`
/// collects solves outside every stage span.
pub const STAGES: [&str; 6] = [
    "lyapunov",
    "levelset",
    "advection",
    "inclusion",
    "escape",
    "other",
];

/// Seconds per SDP kernel, summed from `iteration` instants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Kernels {
    /// Residual and convergence-metric evaluation.
    pub residuals: f64,
    /// Per-block Cholesky factorisations.
    pub factorizations: f64,
    /// Schur-complement assembly.
    pub schur_assembly: f64,
    /// LDLᵀ factorisation of the KKT system.
    pub kkt_factor: f64,
    /// KKT solves and block recovery.
    pub kkt_solve: f64,
    /// Fraction-to-boundary line searches.
    pub line_search: f64,
}

impl Kernels {
    fn add_iteration(&mut self, e: &Event) {
        let f = |k: &str| e.field_f64(k).unwrap_or(0.0);
        self.residuals += f("residuals_s");
        self.factorizations += f("factorizations_s");
        self.schur_assembly += f("schur_assembly_s");
        self.kkt_factor += f("kkt_factor_s");
        self.kkt_solve += f("kkt_solve_s");
        self.line_search += f("line_search_s");
    }

    fn add(&mut self, o: &Kernels) {
        self.residuals += o.residuals;
        self.factorizations += o.factorizations;
        self.schur_assembly += o.schur_assembly;
        self.kkt_factor += o.kkt_factor;
        self.kkt_solve += o.kkt_solve;
        self.line_search += o.line_search;
    }

    /// Seconds across every kernel.
    pub fn total(&self) -> f64 {
        self.residuals
            + self.factorizations
            + self.schur_assembly
            + self.kkt_factor
            + self.kkt_solve
            + self.line_search
    }
}

/// One stage's share of every layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageRow {
    /// Stage wall seconds (advection excludes its inclusion solves).
    pub seconds: f64,
    /// SOS programs solved (`sos_solve` spans).
    pub sos_solves: usize,
    /// Supervisor attempts (`attempt` spans).
    pub attempts: usize,
    /// Attempts whose answer was thrown away: every attempt of an SOS solve
    /// but its last (retries, support-screen misses, legacy fallbacks).
    pub discarded: usize,
    /// Seconds of the discarded attempts.
    pub discarded_s: f64,
    /// Attempt seconds outside the SDP solve (compile and reduction).
    pub compile_s: f64,
    /// SDP solves (`sdp_solve` spans).
    pub sdp_solves: usize,
    /// SDP solves that ran to the iteration cap.
    pub capped: usize,
    /// Seconds inside SDP solves.
    pub sdp_s: f64,
    /// Seconds inside capped SDP solves.
    pub capped_s: f64,
    /// IPM iterations (`iteration` instants).
    pub iterations: usize,
    /// Kernel seconds of those iterations.
    pub kernels: Kernels,
}

impl StageRow {
    fn add(&mut self, o: &StageRow) {
        self.seconds += o.seconds;
        self.sos_solves += o.sos_solves;
        self.attempts += o.attempts;
        self.discarded += o.discarded;
        self.discarded_s += o.discarded_s;
        self.compile_s += o.compile_s;
        self.sdp_solves += o.sdp_solves;
        self.capped += o.capped;
        self.sdp_s += o.sdp_s;
        self.capped_s += o.capped_s;
        self.iterations += o.iterations;
        self.kernels.add(&o.kernels);
    }
}

/// One SDP solve, for the slowest-solves list and the solve percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRecord {
    /// Stage row the solve belongs to.
    pub stage: &'static str,
    /// Wall seconds of the solve.
    pub seconds: f64,
    /// IPM iterations it ran.
    pub iterations: usize,
    /// Whether it ran to the iteration cap.
    pub capped: bool,
    /// Label of the enclosing SOS solve (program size).
    pub sos_label: String,
    /// Label of the SDP solve (constraints, blocks, threads).
    pub sdp_label: String,
    /// Label of the enclosing supervisor attempt.
    pub attempt_label: String,
}

/// The four-layer breakdown of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// One row per entry of [`STAGES`], in that order.
    pub rows: Vec<(&'static str, StageRow)>,
    /// Every SDP solve, in trace order.
    pub solves: Vec<SolveRecord>,
    /// `advection_step` spans.
    pub advection_steps: usize,
    /// `attempt` spans: the SDP attempts of the run.
    pub attempt_spans: usize,
    /// `iteration` instants: the IPM iterations of the run.
    pub iteration_instants: usize,
    /// Sum of the `backoff` instants' `clamped_ms`, in seconds.
    pub backoff_sleep_s: f64,
    /// Totals of every counter event, by name.
    pub counters: BTreeMap<&'static str, u64>,
}

struct Span {
    name: &'static str,
    label: String,
    parent: Option<u64>,
    begin: u64,
    end: Option<u64>,
    children: Vec<u64>,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end
            .map_or(0.0, |e| e.saturating_sub(self.begin) as f64 * 1e-9)
    }
}

impl Layers {
    /// Builds the breakdown from a recorder's events. `iteration_cap` is the
    /// SDP solver's iteration limit: a solve with that many iterations ran
    /// to the cap.
    pub fn from_events(events: &[Event], iteration_cap: usize) -> Layers {
        let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
        let mut iterations: BTreeMap<u64, (usize, Kernels)> = BTreeMap::new();
        let mut out = Layers::default();
        for e in events {
            match &e.kind {
                EventKind::Begin {
                    span,
                    parent,
                    name,
                    label,
                } => {
                    spans.insert(
                        *span,
                        Span {
                            name,
                            label: label.clone(),
                            parent: *parent,
                            begin: e.ts_ns,
                            end: None,
                            children: Vec::new(),
                        },
                    );
                    if let Some(p) = parent.and_then(|p| spans.get_mut(&p)) {
                        p.children.push(*span);
                    }
                }
                EventKind::End { span, .. } => {
                    if let Some(s) = spans.get_mut(span) {
                        s.end = Some(e.ts_ns);
                    }
                }
                EventKind::Instant { span, name, .. } => match *name {
                    "iteration" => {
                        out.iteration_instants += 1;
                        let entry = iterations.entry(span.unwrap_or(0)).or_default();
                        entry.0 += 1;
                        entry.1.add_iteration(e);
                    }
                    "backoff" => {
                        out.backoff_sleep_s += e.field_f64("clamped_ms").unwrap_or(0.0) * 1e-3;
                    }
                    _ => {}
                },
                EventKind::Counter { name, delta, .. } => {
                    *out.counters.entry(name).or_default() += delta;
                }
            }
        }

        let stage_of = |mut id: Option<u64>| -> &'static str {
            let mut in_step = false;
            while let Some(s) = id.and_then(|i| spans.get(&i)) {
                match s.name {
                    "advection_step" => in_step = true,
                    "advection" => return if in_step { "inclusion" } else { "advection" },
                    n @ ("lyapunov" | "levelset" | "escape") => return n,
                    _ => {}
                }
                id = s.parent;
            }
            "other"
        };
        let ancestor = |mut id: Option<u64>, name: &str| {
            while let Some(s) = id.and_then(|i| spans.get(&i)) {
                if s.name == name {
                    return Some(s);
                }
                id = s.parent;
            }
            None
        };

        let mut rows: BTreeMap<&'static str, StageRow> =
            STAGES.iter().map(|&s| (s, StageRow::default())).collect();
        fn row<'r>(
            rows: &'r mut BTreeMap<&'static str, StageRow>,
            stage: &str,
        ) -> &'r mut StageRow {
            rows.get_mut(stage)
                .expect("stage_of returns a STAGES entry")
        }
        for (&id, s) in &spans {
            match s.name {
                "lyapunov" | "levelset" | "advection" | "escape" => {
                    row(&mut rows, s.name).seconds += s.seconds();
                }
                "advection_step" => out.advection_steps += 1,
                "sos_solve" => {
                    let stage = stage_of(Some(id));
                    let attempts: Vec<&Span> = s
                        .children
                        .iter()
                        .filter_map(|c| spans.get(c))
                        .filter(|c| c.name == "attempt")
                        .collect();
                    let r = row(&mut rows, stage);
                    r.sos_solves += 1;
                    if let Some((_, discarded)) = attempts.split_last() {
                        r.discarded += discarded.len();
                        r.discarded_s += discarded.iter().map(|a| a.seconds()).sum::<f64>();
                    }
                    // Inclusion probes run inside the advection span; book
                    // their time to the inclusion row only.
                    if stage == "inclusion" && ancestor(s.parent, "sos_solve").is_none() {
                        r.seconds += s.seconds();
                        row(&mut rows, "advection").seconds -= s.seconds();
                    }
                }
                "attempt" => {
                    out.attempt_spans += 1;
                    let r = row(&mut rows, stage_of(Some(id)));
                    r.attempts += 1;
                    let solver_s: f64 = s
                        .children
                        .iter()
                        .filter_map(|c| spans.get(c))
                        .filter(|c| c.name == "sdp_solve")
                        .map(Span::seconds)
                        .sum();
                    r.compile_s += s.seconds() - solver_s;
                }
                "sdp_solve" => {
                    let stage = stage_of(Some(id));
                    let (iters, kernels) = iterations.get(&id).copied().unwrap_or_default();
                    let capped = iters >= iteration_cap;
                    let r = row(&mut rows, stage);
                    r.sdp_solves += 1;
                    r.sdp_s += s.seconds();
                    r.iterations += iters;
                    r.kernels.add(&kernels);
                    if capped {
                        r.capped += 1;
                        r.capped_s += s.seconds();
                    }
                    let label_of =
                        |name| ancestor(s.parent, name).map_or(String::new(), |a| a.label.clone());
                    out.solves.push(SolveRecord {
                        stage,
                        seconds: s.seconds(),
                        iterations: iters,
                        capped,
                        sos_label: label_of("sos_solve"),
                        sdp_label: s.label.clone(),
                        attempt_label: label_of("attempt"),
                    });
                }
                _ => {}
            }
        }
        out.rows = STAGES
            .iter()
            .map(|&s| (s, rows.remove(s).expect("every stage has a row")))
            .collect();
        out
    }

    /// The sum of every stage row.
    pub fn total(&self) -> StageRow {
        let mut t = StageRow::default();
        for (_, r) in &self.rows {
            t.add(r);
        }
        t
    }

    /// One stage's row.
    pub fn stage(&self, name: &str) -> &StageRow {
        &self
            .rows
            .iter()
            .find(|(s, _)| *s == name)
            .expect("stage name is one of STAGES")
            .1
    }

    /// Total of one counter (0 when it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the four-layer table plus the `slowest` slowest SDP solves.
    pub fn table(&self, slowest: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>9} | {:>5} {:>6} {:>5} {:>8} {:>8} | {:>5} {:>6} {:>9} {:>9} | {:>7} | {:>9}",
            "stage",
            "wall_s",
            "sos",
            "att",
            "disc",
            "disc_s",
            "compl_s",
            "sdp",
            "capped",
            "sdp_s",
            "capped_s",
            "iters",
            "kernel_s"
        );
        let line = |out: &mut String, name: &str, r: &StageRow| {
            let _ = writeln!(
                out,
                "{:<10} {:>9.3} | {:>5} {:>6} {:>5} {:>8.3} {:>8.3} | {:>5} {:>6} {:>9.3} {:>9.3} | {:>7} | {:>9.3}",
                name,
                r.seconds,
                r.sos_solves,
                r.attempts,
                r.discarded,
                r.discarded_s,
                r.compile_s,
                r.sdp_solves,
                r.capped,
                r.sdp_s,
                r.capped_s,
                r.iterations,
                r.kernels.total()
            );
        };
        for (name, r) in &self.rows {
            line(&mut out, name, r);
        }
        let total = self.total();
        line(&mut out, "total", &total);
        let k = &total.kernels;
        let _ = writeln!(
            out,
            "kernels: schur_assembly {:.3}s, kkt_factor {:.3}s, kkt_solve {:.3}s, \
             line_search {:.3}s, factorizations {:.3}s, residuals {:.3}s",
            k.schur_assembly,
            k.kkt_factor,
            k.kkt_solve,
            k.line_search,
            k.factorizations,
            k.residuals
        );
        let mut by_time: Vec<&SolveRecord> = self.solves.iter().collect();
        by_time.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        let _ = writeln!(out, "slowest SDP solves:");
        for (i, s) in by_time.iter().take(slowest).enumerate() {
            let _ = writeln!(
                out,
                "  {:>2}. {:>8.3}s {:<9} {:>3} it{} [{}] [{}] [{}]",
                i + 1,
                s.seconds,
                s.stage,
                s.iterations,
                if s.capped { " (capped)" } else { "" },
                s.sos_label,
                s.attempt_label,
                s.sdp_label
            );
        }
        out
    }
}
