//! Refitting model parameters from measured phase timings.
//!
//! The analytic selection in `core` trusts the postal parameters baked
//! into [`crate::params::lassen_like`]; on a machine that is not Lassen
//! those constants mispredict and `Backend::Auto` can pick the wrong
//! protocol forever. The online autotuner measures real `start→wait`
//! durations; this module turns those observations back into postal
//! parameters so even patterns that were never probed benefit.
//!
//! The model fitted is the per-iteration aggregate of the postal form:
//!
//! ```text
//! t ≈ α·m + β·b
//! ```
//!
//! where `m` is the iteration's message count and `b` its byte volume
//! (both from the plan's static stats). Minimizing the squared residual
//! over all observations gives the 2×2 normal equations
//!
//! ```text
//! [Σm²  Σmb] [α]   [Σmt]
//! [Σmb  Σb²] [β] = [Σbt]
//! ```
//!
//! solved directly by determinant. Observations spanning a single
//! (m, b) ray are degenerate — the matrix is singular and no unique
//! (α, β) exists — and the fit reports `None` rather than invent one.

use crate::params::ClassParams;

/// One measured iteration: the plan's message count and byte volume,
/// and the wall (or virtual) seconds the iteration took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitObs {
    /// Messages the critical-path rank sends in one iteration.
    pub msgs: f64,
    /// Bytes the critical-path rank sends in one iteration.
    pub bytes: f64,
    /// Measured seconds for the iteration's start→wait.
    pub secs: f64,
}

/// Postal parameters recovered from measured timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedParams {
    /// Fitted per-message latency (seconds), clamped to ≥ 0.
    pub alpha: f64,
    /// Fitted per-byte transfer time (seconds), clamped to ≥ 0.
    pub beta: f64,
    /// Observations the fit consumed.
    pub n_obs: usize,
}

impl FittedParams {
    /// The fitted parameters as [`ClassParams`] (no rendezvous cutoff —
    /// the aggregate fit cannot see the eager/rendezvous switch).
    pub fn class_params(&self) -> ClassParams {
        ClassParams::new(self.alpha, self.beta)
    }

    /// Human-readable fitted-vs-default delta, the report surface the
    /// autotuner exposes. Ratios are `fitted / default`; a default of
    /// zero reports the absolute fitted value instead.
    pub fn delta_report(&self, default: &ClassParams) -> String {
        let ratio = |fitted: f64, def: f64| {
            if def > 0.0 {
                format!("{:.2}x default", fitted / def)
            } else {
                format!("{fitted:.3e} (default 0)")
            }
        };
        format!(
            "fitted over {} observation(s): alpha {:.3e} s/msg ({}), \
             beta {:.3e} s/byte ({})",
            self.n_obs,
            self.alpha,
            ratio(self.alpha, default.alpha),
            self.beta,
            ratio(self.beta, default.beta),
        )
    }
}

/// The normal equations' five running sums and the observation count:
/// everything [`fit_postal`] keeps of its input, so a long-lived pool of
/// observations is this fixed-size value, not a list.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitSums {
    smm: f64,
    smb: f64,
    sbb: f64,
    smt: f64,
    sbt: f64,
    n_obs: usize,
}

impl FitSums {
    /// No observations yet.
    pub const fn new() -> Self {
        FitSums {
            smm: 0.0,
            smb: 0.0,
            sbb: 0.0,
            smt: 0.0,
            sbt: 0.0,
            n_obs: 0,
        }
    }

    /// Observations accumulated so far.
    pub fn n_obs(&self) -> usize {
        self.n_obs
    }

    /// Accumulate one observation. The caller vouches that all three
    /// fields are finite ([`fit_postal`] checks; a non-finite term would
    /// poison every later solve).
    pub fn add(&mut self, o: &FitObs) {
        self.smm += o.msgs * o.msgs;
        self.smb += o.msgs * o.bytes;
        self.sbb += o.bytes * o.bytes;
        self.smt += o.msgs * o.secs;
        self.sbt += o.bytes * o.secs;
        self.n_obs += 1;
    }

    /// Solve the 2×2 system; `None` under the conditions [`fit_postal`]
    /// documents.
    pub fn solve(&self) -> Option<FittedParams> {
        if self.n_obs < 2 {
            return None;
        }
        let FitSums {
            smm,
            smb,
            sbb,
            smt,
            sbt,
            n_obs,
        } = *self;
        let det = smm * sbb - smb * smb;
        // Relative singularity test: det is a difference of same-magnitude
        // products, so compare against their scale, not an absolute epsilon.
        if det.abs() <= 1e-12 * smm.max(sbb).powi(2).max(f64::MIN_POSITIVE) {
            return None;
        }
        let alpha = (smt * sbb - sbt * smb) / det;
        let beta = (sbt * smm - smt * smb) / det;
        Some(FittedParams {
            alpha: alpha.max(0.0),
            beta: beta.max(0.0),
            n_obs,
        })
    }
}

/// Least-squares fit of `t ≈ α·m + β·b` over the observations.
///
/// Returns `None` when the system is degenerate: fewer than two
/// observations, or all observations on one (m, b) ray (the normal
/// matrix is singular — no unique parameters exist). Negative solutions
/// (possible when noise dominates) are clamped to zero: a negative
/// latency or bandwidth term is nonphysical and would invert protocol
/// rankings downstream.
pub fn fit_postal(obs: &[FitObs]) -> Option<FittedParams> {
    let mut sums = FitSums::new();
    for o in obs {
        if !(o.msgs.is_finite() && o.bytes.is_finite() && o.secs.is_finite()) {
            return None;
        }
        sums.add(o);
    }
    sums.solve()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: f64, b: f64, secs: f64) -> FitObs {
        FitObs {
            msgs: m,
            bytes: b,
            secs,
        }
    }

    #[test]
    fn recovers_exact_synthetic_parameters() {
        let (alpha, beta) = (2.5e-6, 4.0e-10);
        let pts: Vec<FitObs> = [(4.0, 1024.0), (16.0, 512.0), (64.0, 65536.0), (2.0, 8.0)]
            .iter()
            .map(|&(m, b)| obs(m, b, alpha * m + beta * b))
            .collect();
        let f = fit_postal(&pts).expect("well-conditioned system");
        assert!((f.alpha - alpha).abs() < alpha * 1e-9, "alpha={}", f.alpha);
        assert!((f.beta - beta).abs() < beta * 1e-9, "beta={}", f.beta);
        assert_eq!(f.n_obs, 4);
    }

    #[test]
    fn collinear_observations_are_degenerate() {
        // every observation on the ray b = 100·m: no unique (α, β)
        let pts: Vec<FitObs> = (1..6)
            .map(|i| obs(i as f64, 100.0 * i as f64, 1e-6 * i as f64))
            .collect();
        assert_eq!(fit_postal(&pts), None);
    }

    #[test]
    fn too_few_observations() {
        assert_eq!(fit_postal(&[]), None);
        assert_eq!(fit_postal(&[obs(1.0, 8.0, 1e-6)]), None);
    }

    #[test]
    fn noisy_negative_solution_clamps_to_zero() {
        // bytes dominate and per-message term comes out negative
        let pts = [obs(1.0, 1000.0, 1.0e-6), obs(2.0, 1000.0, 0.5e-6)];
        let f = fit_postal(&pts).expect("nonsingular");
        assert_eq!(f.alpha, 0.0);
        assert!(f.beta > 0.0);
    }

    #[test]
    fn non_finite_observation_rejected() {
        let pts = [obs(1.0, 8.0, f64::NAN), obs(2.0, 16.0, 1e-6)];
        assert_eq!(fit_postal(&pts), None);
    }

    #[test]
    fn delta_report_names_both_ratios() {
        let f = FittedParams {
            alpha: 2.0e-6,
            beta: 2.0e-10,
            n_obs: 7,
        };
        let d = ClassParams::new(1.0e-6, 1.0e-10);
        let r = f.delta_report(&d);
        assert!(r.contains("7 observation(s)"), "{r}");
        assert!(r.contains("2.00x default"), "{r}");
    }
}
