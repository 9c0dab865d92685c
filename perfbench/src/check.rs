//! Answer checks: the benchmark judges verdicts and certificates, not bytes.
//!
//! Digests are recorded for information only; a numerics change may re-pin
//! them without being wrong.

use cppll_verify::{Atlas, CellStatus, ValidationReport, VerificationReport};

/// How much of `P = P1 ∧ P2` a report proves: 2 when inevitability is
/// certified, 1 when only the attractive invariant (`P1`: Lyapunov
/// certificates with a certified level set) is, 0 when neither is.
pub fn proven_parts(report: &VerificationReport) -> u32 {
    if report.verdict.is_verified() {
        2
    } else if report.certificates.is_some()
        && report.levels.level > 0.0
        && !report.levels.ai_polys.is_empty()
    {
        1
    } else {
        0
    }
}

fn validation_holds(validation: Option<&ValidationReport>) -> Result<(), String> {
    match validation {
        None => Err("the report carries no certificates to validate".into()),
        Some(v) if v.trials == 0 => Err("validation sampled no trajectories".into()),
        Some(v) if !v.all_passed() => Err(format!(
            "validation found a violation: monotone {}/{}, reached invariant {}/{}, \
             locked {}/{}",
            v.monotone, v.trials, v.reached_ai, v.trials, v.locked, v.trials
        )),
        Some(_) => Ok(()),
    }
}

/// The flagship (`pll 3 4`) must be certified inevitable and its
/// certificates must survive Monte-Carlo validation.
pub fn check_flagship(proven: u32, validation: Option<&ValidationReport>) -> Result<(), String> {
    if proven != 2 {
        return Err(format!(
            "third-order degree-4 verdict is not Inevitable (proves {proven} of 2 parts)"
        ));
    }
    validation_holds(validation)
}

/// `pll 4 2` must be no weaker than today's verdict — `Degraded` at
/// advection with an attractive invariant found — and the certificates it
/// reports must survive Monte-Carlo validation.
pub fn check_fourth_d2(proven: u32, validation: Option<&ValidationReport>) -> Result<(), String> {
    if proven < 1 {
        return Err("fourth-order degree-2 run lost its attractive invariant".into());
    }
    validation_holds(validation)
}

/// The atlas label today's code gives a cell: certified exactly on the
/// `a ≤ 0` columns of the `$a`/`$b` toy template.
pub fn expected_certified(values: &[f64]) -> bool {
    values[0] <= 0.0
}

/// Whether a cell's final label (solved or implied) is "certified";
/// `None` for an unresolved cell, which has no label.
pub fn labelled_certified(status: CellStatus, implied: Option<bool>) -> Option<bool> {
    match status {
        CellStatus::Certified => Some(true),
        CellStatus::Failed => Some(false),
        CellStatus::Interior => implied,
        CellStatus::Unresolved => None,
    }
}

/// Linear indices of the cells whose final label differs from
/// [`expected_certified`], unresolved cells included.
pub fn atlas_mismatches(atlas: &Atlas) -> Vec<usize> {
    atlas
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            labelled_certified(c.status, c.implied) != Some(expected_certified(&c.values))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Cells labelled certified, whether solved or implied by the bisection.
pub fn atlas_certified(atlas: &Atlas) -> usize {
    atlas
        .cells
        .iter()
        .filter(|c| labelled_certified(c.status, c.implied) == Some(true))
        .count()
}
