//! Statistical early-stop evaluation for the campaign engine.
//!
//! A [`StopPolicy`](alfi_scenario::StopPolicy) asks the engine to end a
//! campaign — or retire individual per-layer strata — once the SDC/DUE
//! rate confidence interval is tighter than a target half-width. The
//! paper's validation-efficiency argument (§V) is that most of a large
//! fault matrix buys no additional precision; this module is the
//! decision procedure that makes truncation safe and reproducible.
//!
//! # Determinism contract
//!
//! Decisions depend only on classified outcome counts, and they fire
//! only at *scope boundaries*: after every `check_every`-th armed scope
//! (armed = executed + skipped — a scope whose stratum is already
//! retired still advances the boundary clock). Nothing here reads the
//! wall clock, thread count or pool schedule, so a stopped run produces
//! byte-identical artifacts for any `ALFI_POOL_THREADS`, and the
//! executed scope set of a truncated campaign-scope run is a strict
//! prefix of the equivalent unbounded run. The engine preserves the
//! contract by ending its current round of scopes whenever the clock
//! sits on a boundary: the round is merged in work order before the
//! check runs, so every thread count observes the same state there.

use crate::fault::FaultRecord;
use crate::matrix::FaultMatrix;
use crate::stats::{interval, BinomialCi};
use alfi_scenario::{StopPolicy, StopScope};
use alfi_trace::{OutcomeTallies, StopEvent, StopOutcome, StopVerdict};
use std::collections::{BTreeMap, BTreeSet};

/// What [`StopState::begin_scope`] decided for one armed scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScopeDecision {
    /// Process the scope normally.
    Execute,
    /// The scope's stratum is retired: record nothing, advance the
    /// boundary clock and move on.
    Skip,
}

/// Incremental stop-policy evaluator of the engine.
///
/// Call order per scope: [`begin_scope`](Self::begin_scope) (arms the
/// boundary clock, decides execute/skip), [`observe`](Self::observe)
/// for executed scopes, then [`boundary_check`](Self::boundary_check)
/// once every armed scope is observed — the engine may arm several
/// scopes before observing them, but ends its round at
/// [`at_boundary`](Self::at_boundary); consult
/// [`stopped`](Self::stopped) before arming the next scope.
#[derive(Debug)]
pub(crate) struct StopState {
    policy: StopPolicy,
    /// Strata that exist in the matrix (first-fault layer per slot) —
    /// the set a per-layer run must fully retire to stop.
    universe: BTreeSet<usize>,
    strata: BTreeMap<usize, OutcomeTallies>,
    total: OutcomeTallies,
    retired: BTreeSet<usize>,
    stopped: bool,
    armed: u64,
    executed: u64,
    skipped: u64,
    last_boundary: u64,
    planned: u64,
    events: Vec<StopEvent>,
}

impl StopState {
    /// Builds the evaluator for one run. The stratum universe and the
    /// planned scope budget both come from the fault matrix, which
    /// bounds the run for every injection policy.
    pub(crate) fn new(policy: StopPolicy, matrix: &FaultMatrix) -> Self {
        let universe = (0..matrix.num_slots())
            .filter_map(|slot| stratum_of(matrix.faults_for_slot(slot)))
            .collect();
        StopState {
            policy,
            universe,
            strata: BTreeMap::new(),
            total: OutcomeTallies::default(),
            retired: BTreeSet::new(),
            stopped: false,
            armed: 0,
            executed: 0,
            skipped: 0,
            last_boundary: 0,
            planned: matrix.num_slots() as u64,
            events: Vec::new(),
        }
    }

    /// Whether a stop-the-campaign decision has fired; drivers break
    /// before arming the next scope.
    pub(crate) fn stopped(&self) -> bool {
        self.stopped
    }

    /// Whether the clock sits on a `check_every` boundary, i.e. the
    /// next [`boundary_check`](Self::boundary_check) may decide.
    pub(crate) fn at_boundary(&self) -> bool {
        self.armed > 0 && self.armed.is_multiple_of(self.policy.check_every as u64)
    }

    /// Stop decisions taken so far, in the order they fired.
    pub(crate) fn events(&self) -> &[StopEvent] {
        &self.events
    }

    /// Arms one scope on the boundary clock and decides whether to
    /// execute it. Skipped scopes (retired stratum) still count toward
    /// boundary indices, so decision points stay fixed relative to the
    /// slot sequence whatever was retired earlier.
    pub(crate) fn begin_scope(&mut self, faults: &[FaultRecord]) -> ScopeDecision {
        self.armed += 1;
        let retired = matches!(stratum_of(faults), Some(s) if self.retired.contains(&s));
        if retired {
            self.skipped += 1;
            ScopeDecision::Skip
        } else {
            self.executed += 1;
            ScopeDecision::Execute
        }
    }

    /// Folds one executed scope's classified rows into its stratum and
    /// the campaign totals.
    pub(crate) fn observe(&mut self, faults: &[FaultRecord], scope: OutcomeTallies) {
        if let Some(s) = stratum_of(faults) {
            *self.strata.entry(s).or_default() += scope;
        }
        self.total += scope;
    }

    /// Runs the decision procedure if the boundary clock sits exactly
    /// on a `check_every` multiple not yet evaluated. Returns whether a
    /// boundary fired (decisions may or may not have been taken).
    pub(crate) fn boundary_check(&mut self) -> bool {
        if self.stopped
            || self.armed == 0
            || !self.armed.is_multiple_of(self.policy.check_every as u64)
            || self.armed == self.last_boundary
        {
            return false;
        }
        self.last_boundary = self.armed;
        self.evaluate();
        true
    }

    /// Finishes the run and summarizes achieved-vs-requested precision.
    pub(crate) fn finish(self) -> StopOutcome {
        let (sdc_ci, due_ci) = self.intervals(&self.total);
        StopOutcome {
            requested_half_width: self.policy.half_width,
            confidence: self.policy.confidence,
            achieved_sdc_half_width: sdc_ci.half_width(),
            achieved_due_half_width: due_ci.half_width(),
            executed_scopes: self.executed,
            skipped_scopes: self.skipped,
            planned_scopes: self.planned,
            decisions: self.events.len() as u64,
            stopped_early: self.stopped,
        }
    }

    fn evaluate(&mut self) {
        match self.policy.scope {
            StopScope::Campaign => self.evaluate_campaign(),
            StopScope::PerLayer => self.evaluate_per_layer(),
        }
    }

    fn evaluate_campaign(&mut self) {
        if self.precise_enough(&self.total) {
            self.push_event(StopVerdict::StopCampaign, None, self.total);
            self.stopped = true;
        }
    }

    fn evaluate_per_layer(&mut self) {
        // Retire qualifying strata in ascending layer order so the
        // event sequence is canonical.
        let candidates: Vec<usize> =
            self.universe.iter().filter(|s| !self.retired.contains(s)).copied().collect();
        for s in candidates {
            let tally = self.strata.get(&s).copied().unwrap_or_default();
            if self.precise_enough(&tally) {
                self.retired.insert(s);
                self.push_event(StopVerdict::RetireStratum, Some(s), tally);
            }
        }
        if !self.universe.is_empty() && self.retired.len() == self.universe.len() {
            self.push_event(StopVerdict::StopCampaign, None, self.total);
            self.stopped = true;
        }
    }

    /// Whether a tally meets the floor and both rate intervals are
    /// within the target half-width.
    fn precise_enough(&self, tally: &OutcomeTallies) -> bool {
        if tally.total() < self.policy.min_samples as u64 {
            return false;
        }
        let (sdc_ci, due_ci) = self.intervals(tally);
        sdc_ci.half_width().max(due_ci.half_width()) <= self.policy.half_width
    }

    fn intervals(&self, tally: &OutcomeTallies) -> (BinomialCi, BinomialCi) {
        let (method, confidence) = (self.policy.method, self.policy.confidence);
        let ci = |hits: u64| interval(method, hits as usize, tally.total() as usize, confidence);
        (ci(tally.sdc), ci(tally.due))
    }

    fn push_event(&mut self, verdict: StopVerdict, stratum: Option<usize>, tally: OutcomeTallies) {
        let (sdc_ci, due_ci) = self.intervals(&tally);
        self.events.push(StopEvent {
            verdict,
            stratum,
            scope_index: self.armed,
            samples: tally.total(),
            sdc: tally.sdc,
            due: tally.due,
            sdc_ci: (sdc_ci.low, sdc_ci.high),
            due_ci: (due_ci.low, due_ci.high),
            half_width: sdc_ci.half_width().max(due_ci.half_width()),
        });
    }
}

/// The stratum of a fault scope: the injectable-layer index of its
/// first fault. Fault-free scopes (`faults_per_image: 0`) have no
/// stratum — they always execute and count only toward campaign totals.
fn stratum_of(faults: &[FaultRecord]) -> Option<usize> {
    faults.first().map(|f| f.layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultValue;
    use alfi_scenario::{CiMethod, InjectionTarget};
    use alfi_trace::EffectClass;

    /// The tallies of one scope with a single row of `outcome`.
    fn one(outcome: EffectClass) -> OutcomeTallies {
        let mut t = OutcomeTallies::default();
        t.add(outcome);
        t
    }

    fn record(layer: usize) -> FaultRecord {
        FaultRecord {
            batch: 0,
            layer,
            channel: 0,
            channel_in: 0,
            depth: None,
            height: 0,
            width: 0,
            value: FaultValue::BitFlip(0),
        }
    }

    /// One single-fault slot per entry of `layers`.
    fn matrix(layers: &[usize]) -> FaultMatrix {
        FaultMatrix {
            records: layers.iter().map(|&l| record(l)).collect(),
            target: InjectionTarget::Weights,
            faults_per_image: 1,
        }
    }

    // Wilson half-width for 0/4 at 95% is ~0.245; 0.3 lets an
    // all-masked stratum retire right at the 4-sample floor.
    fn policy() -> StopPolicy {
        StopPolicy {
            half_width: 0.3,
            confidence: 0.95,
            min_samples: 4,
            check_every: 4,
            scope: StopScope::Campaign,
            method: CiMethod::Wilson,
        }
    }

    /// The decisions and the outcome of a finished run.
    struct Report {
        events: Vec<StopEvent>,
        outcome: StopOutcome,
    }

    fn finish(state: StopState) -> Report {
        Report { events: state.events().to_vec(), outcome: state.finish() }
    }

    /// Arms and observes `n` all-masked scopes on layer 0.
    fn feed_masked(state: &mut StopState, n: usize) {
        let faults = [record(0)];
        for _ in 0..n {
            assert_eq!(state.begin_scope(&faults), ScopeDecision::Execute);
            state.observe(&faults, one(EffectClass::Masked));
            state.boundary_check();
        }
    }

    #[test]
    fn campaign_scope_stops_only_at_boundaries() {
        let m = matrix(&[0; 16]);
        let mut state = StopState::new(policy(), &m);
        // 3 masked samples: below the floor and off-boundary.
        feed_masked(&mut state, 3);
        assert!(!state.stopped());
        // The 4th sample lands exactly on a boundary with a tight
        // all-masked interval -> stop.
        feed_masked(&mut state, 1);
        assert!(state.stopped());
        let report = finish(state);
        assert_eq!(report.events.len(), 1);
        let ev = &report.events[0];
        assert_eq!(ev.verdict, StopVerdict::StopCampaign);
        assert_eq!(ev.scope_index, 4);
        assert_eq!((ev.samples, ev.sdc, ev.due), (4, 0, 0));
        assert!(report.outcome.stopped_early);
        assert_eq!(report.outcome.executed_scopes, 4);
        assert_eq!(report.outcome.planned_scopes, 16);
    }

    #[test]
    fn min_samples_floor_defers_the_decision() {
        let m = matrix(&[0; 32]);
        let mut state = StopState::new(StopPolicy { min_samples: 9, ..policy() }, &m);
        feed_masked(&mut state, 8);
        assert!(!state.stopped(), "8 < floor of 9 even though the CI is tight");
        feed_masked(&mut state, 4);
        assert!(state.stopped(), "next boundary (12 samples) clears the floor");
    }

    #[test]
    fn per_layer_retires_strata_then_stops_and_skips_retired() {
        let layers: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let m = matrix(&layers);
        let pol = StopPolicy { scope: StopScope::PerLayer, check_every: 8, ..policy() };
        let mut state = StopState::new(pol, &m);
        // First 8 slots alternate layers 0/1: each stratum reaches 4
        // masked samples at the first boundary -> both retire, then the
        // exhausted universe stops the campaign.
        for &layer in layers.iter().take(8) {
            let faults = [record(layer)];
            assert_eq!(state.begin_scope(&faults), ScopeDecision::Execute);
            state.observe(&faults, one(EffectClass::Masked));
            state.boundary_check();
        }
        assert!(state.stopped());
        let report = finish(state);
        let verdicts: Vec<_> = report.events.iter().map(|e| (e.verdict, e.stratum)).collect();
        assert_eq!(
            verdicts,
            vec![
                (StopVerdict::RetireStratum, Some(0)),
                (StopVerdict::RetireStratum, Some(1)),
                (StopVerdict::StopCampaign, None),
            ],
            "ascending retirement order, campaign stop last"
        );
        assert_eq!(report.events[2].samples, 8, "campaign event carries totals");
    }

    #[test]
    fn skipped_scopes_advance_the_boundary_clock() {
        // Layer 0 retires at the first boundary; layer-0 scopes after
        // that are skipped but still count toward boundary indices.
        let layers = [0, 0, 0, 0, 0, 0, 1, 1];
        let m = matrix(&layers);
        let pol = StopPolicy { scope: StopScope::PerLayer, ..policy() };
        let mut state = StopState::new(pol, &m);
        let mut decisions = Vec::new();
        for &l in &layers {
            if state.stopped() {
                break;
            }
            let faults = [record(l)];
            let d = state.begin_scope(&faults);
            if d == ScopeDecision::Execute {
                state.observe(&faults, one(EffectClass::Masked));
            }
            decisions.push(d);
            state.boundary_check();
        }
        use ScopeDecision::{Execute as E, Skip as S};
        assert_eq!(decisions, vec![E, E, E, E, S, S, E, E]);
        let report = finish(state);
        assert_eq!(report.outcome.skipped_scopes, 2);
        // Layer 1 has only 2 samples at the final boundary (scope 8):
        // retired layer 0 only, campaign still open.
        assert_eq!(report.events.len(), 1);
        assert!(!report.outcome.stopped_early);
    }

    #[test]
    fn loose_interval_runs_to_completion() {
        let m = matrix(&[0; 8]);
        let tight = StopPolicy { half_width: 0.01, ..policy() };
        let mut state = StopState::new(tight, &m);
        for _ in 0..8 {
            let faults = [record(0)];
            state.begin_scope(&faults);
            // Alternate SDC outcomes: p ~ 0.5, tiny n -> wide interval.
            state.observe(&faults, one(EffectClass::Sdc));
            state.boundary_check();
        }
        assert!(!state.stopped());
        let report = finish(state);
        assert!(report.events.is_empty());
        assert!(!report.outcome.stopped_early);
        assert_eq!(report.outcome.executed_scopes, 8);
        assert!(report.outcome.achieved_sdc_half_width > 0.01);
    }

    #[test]
    fn boundary_is_idempotent_per_index() {
        let m = matrix(&[0; 8]);
        let mut state = StopState::new(StopPolicy { half_width: 1e-9, ..policy() }, &m);
        feed_masked(&mut state, 3);
        assert!(!state.boundary_check(), "off-boundary index never evaluates");
        let faults = [record(0)];
        state.begin_scope(&faults);
        state.observe(&faults, one(EffectClass::Due));
        assert!(state.boundary_check(), "index 4 is a boundary");
        assert!(!state.boundary_check(), "same index does not re-evaluate");
    }
}
