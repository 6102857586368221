//! The round-robin probe schedule of one tuned request.
//!
//! Iteration `i < probe_iters` runs candidate `i % n_candidates`; after
//! that the schedule is exhausted and [`ProbeSchedule::winner`] names
//! the candidate with the lowest median measured time. Medians (not
//! means) so one cold-start or preempted outlier sample cannot steal
//! the decision.

/// Measurement plan + recorded samples for one tuned request.
#[derive(Debug, Clone)]
pub struct ProbeSchedule {
    probe_iters: usize,
    samples: Vec<Vec<f64>>,
}

impl ProbeSchedule {
    /// A schedule probing `n_candidates` for `probe_iters` total
    /// iterations. Clamped up so every candidate is measured at least
    /// once — a budget below the candidate count could crown an
    /// unmeasured winner.
    pub fn new(n_candidates: usize, probe_iters: usize) -> Self {
        assert!(n_candidates > 0, "a probe schedule needs candidates");
        Self {
            probe_iters: probe_iters.max(n_candidates),
            samples: vec![Vec::new(); n_candidates],
        }
    }

    /// Number of candidates under measurement.
    pub fn n_candidates(&self) -> usize {
        self.samples.len()
    }

    /// Total probe iterations before the winner locks in.
    pub fn probe_iters(&self) -> usize {
        self.probe_iters
    }

    /// Which candidate iteration `iter` (0-based) must run, or `None`
    /// once the probe budget is spent.
    pub fn candidate_for(&self, iter: usize) -> Option<usize> {
        (iter < self.probe_iters).then_some(iter % self.samples.len())
    }

    /// True once iteration `iter` is past the probe phase.
    pub fn done(&self, iter: usize) -> bool {
        iter >= self.probe_iters
    }

    /// Record one measured start→wait duration for `candidate`.
    pub fn record(&mut self, candidate: usize, secs: f64) {
        self.samples[candidate].push(secs);
    }

    /// Per-candidate median measured seconds; `INFINITY` where no sample
    /// was recorded (a candidate that never ran must never win).
    pub fn medians(&self) -> Vec<f64> {
        self.samples.iter().map(|s| median(s)).collect()
    }

    /// Fewest samples recorded for any candidate — the confidence count
    /// behind the weakest median, and the profile cache's merge
    /// tiebreaker.
    pub fn min_samples(&self) -> usize {
        self.samples.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Index of the winning candidate: [`ProbeSchedule::argmin`] of this
    /// rank's medians.
    pub fn winner(&self) -> usize {
        Self::argmin(&self.medians())
    }

    /// Index of the lowest median, ties broken toward the lowest index
    /// (candidates arrive model-ranked, so a tie falls back to the
    /// model's preference). A later candidate must win by more than
    /// `TIE_MARGIN`: medians are differences of clock readings, and on a
    /// virtual clock two candidates with identical traffic differ by a
    /// rounding ulp that depends on where on the clock each was probed.
    pub fn argmin(medians: &[f64]) -> usize {
        let mut best = 0;
        for (i, &m) in medians.iter().enumerate().skip(1) {
            if m < medians[best] * (1.0 - TIE_MARGIN) {
                best = i;
            }
        }
        best
    }
}

/// Relative margin below which two medians are a tie — far under any
/// real clock's resolution against an iteration's length.
const TIE_MARGIN: f64 = 1e-9;

fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("probe samples are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_then_done() {
        let s = ProbeSchedule::new(3, 7);
        let order: Vec<_> = (0..7).map(|i| s.candidate_for(i).unwrap()).collect();
        assert_eq!(order, [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(s.candidate_for(7), None);
        assert!(s.done(7) && !s.done(6));
    }

    #[test]
    fn budget_clamped_to_candidate_count() {
        let s = ProbeSchedule::new(4, 1);
        assert_eq!(s.probe_iters(), 4);
        // every candidate gets exactly one probe
        let order: Vec<_> = (0..4).map(|i| s.candidate_for(i).unwrap()).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn winner_is_lowest_median_not_lowest_mean() {
        let mut s = ProbeSchedule::new(2, 6);
        // candidate 0: median 2.0 but one huge outlier → mean 35
        for t in [2.0, 2.0, 101.0] {
            s.record(0, t);
        }
        // candidate 1: median 3.0, mean 3.0
        for t in [3.0, 3.0, 3.0] {
            s.record(1, t);
        }
        assert_eq!(s.winner(), 0);
        assert_eq!(s.medians(), [2.0, 3.0]);
    }

    #[test]
    fn unmeasured_candidate_cannot_win() {
        let mut s = ProbeSchedule::new(3, 3);
        s.record(1, 5.0);
        assert_eq!(s.winner(), 1);
        assert!(s.medians()[0].is_infinite() && s.medians()[2].is_infinite());
    }

    #[test]
    fn tie_breaks_toward_model_order() {
        let mut s = ProbeSchedule::new(2, 2);
        s.record(0, 4.0);
        s.record(1, 4.0);
        assert_eq!(s.winner(), 0);
        // the same virtual-clock interval read at two clock offsets
        assert_eq!(
            ProbeSchedule::argmin(&[6.0e-5, 3.564000000000003e-5, 3.564000000000002e-5]),
            1
        );
        assert_eq!(ProbeSchedule::argmin(&[f64::INFINITY, 2.0, 1.9]), 2);
    }

    #[test]
    fn even_sample_count_takes_midpoint() {
        let mut s = ProbeSchedule::new(1, 4);
        for t in [1.0, 3.0, 2.0, 10.0] {
            s.record(0, t);
        }
        assert_eq!(s.medians(), [2.5]);
    }
}
