//! Process-global accumulation of measured timings for model refitting.
//!
//! Every probe a tuned request measures is also an observation of the
//! real machine: "an iteration that moves `m` messages / `b` bytes took
//! `t` seconds". Pooled here, those observations feed
//! [`perfmodel::fit_postal`] so patterns that were never probed still
//! benefit from a better-calibrated model.
//!
//! Refitting is strictly *opt-in and read-only*: nothing here mutates
//! the model `Backend::Auto` consults. Selection silently shifting
//! under a running process (or under a test suite whose parallel tests
//! would race on the global pool) is exactly the nondeterminism the
//! equivalence suite exists to rule out. Callers that want the fitted
//! parameters build a model from [`fitted_params`] explicitly.

use parking_lot::Mutex;
use perfmodel::{ClassParams, FitObs, FitSums, FittedParams};

/// The pool keeps the fit's running sums, not the observations: every
/// probe iteration of every tuned request on every rank lands here for
/// the life of the process, so its size must not depend on their number.
static OBSERVATIONS: Mutex<FitSums> = Mutex::new(FitSums::new());

/// Record one measured iteration: `msgs`/`bytes` from the plan's static
/// stats, `secs` from the probe timer. Non-finite or non-positive
/// durations are dropped (a virtual-clock world that charged nothing
/// has nothing to teach the fit).
pub fn record_observation(msgs: f64, bytes: f64, secs: f64) {
    if secs.is_finite() && secs > 0.0 && msgs.is_finite() && bytes.is_finite() {
        OBSERVATIONS.lock().add(&FitObs { msgs, bytes, secs });
    }
}

/// Observations recorded so far, process-wide.
pub fn observation_count() -> usize {
    OBSERVATIONS.lock().n_obs()
}

/// Drop all recorded observations (test isolation).
pub fn clear_observations() {
    *OBSERVATIONS.lock() = FitSums::new();
}

/// Least-squares postal parameters over everything recorded so far, or
/// `None` while the pool is too thin or degenerate to fit.
pub fn fitted_params() -> Option<FittedParams> {
    OBSERVATIONS.lock().solve()
}

/// The fitted-vs-default report (DESIGN.md §11): what the measurements
/// say the machine looks like, relative to the baked-in parameters.
pub fn refit_report(default: &ClassParams) -> String {
    match fitted_params() {
        Some(f) => f.delta_report(default),
        None => format!(
            "no refit available ({} observation(s) — need at least two \
             spanning different message/byte mixes)",
            observation_count()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole surface: the pool is process-global,
    // so separate #[test] fns would race under the parallel harness.
    #[test]
    fn record_fit_report_clear() {
        clear_observations();
        let d = ClassParams::new(1.0e-6, 1.0e-10);
        assert!(refit_report(&d).contains("no refit available"));

        record_observation(f64::NAN, 8.0, 1.0e-6); // dropped
        record_observation(4.0, 64.0, 0.0); // dropped
        record_observation(4.0, 1024.0, 2.0e-6 * 4.0 + 2.0e-10 * 1024.0);
        record_observation(16.0, 512.0, 2.0e-6 * 16.0 + 2.0e-10 * 512.0);
        record_observation(2.0, 65536.0, 2.0e-6 * 2.0 + 2.0e-10 * 65536.0);
        assert_eq!(observation_count(), 3);

        let f = fitted_params().expect("well-conditioned");
        assert!((f.alpha - 2.0e-6).abs() < 1e-12, "alpha={}", f.alpha);
        assert!((f.beta - 2.0e-10).abs() < 1e-16, "beta={}", f.beta);
        // bit-for-bit what fitting the stored observations gave before the
        // pool kept sums: same terms, same summation order
        assert_eq!(f.alpha.to_bits(), 0x3ec0_c6f7_a0b5_ed8d);
        assert_eq!(f.beta.to_bits(), 0x3deb_7cdf_d9d7_bdbc);
        assert_eq!(f.n_obs, 3);
        assert!(refit_report(&d).contains("2.00x default"));

        // the pool is a fixed-size value (`Copy` rules out any owned
        // per-observation storage), however many observations it absorbs
        fn fixed_size<T: Copy>(_: &T) -> usize {
            std::mem::size_of::<T>()
        }
        assert_eq!(fixed_size(&*OBSERVATIONS.lock()), 48);
        for i in 0..100_000 {
            record_observation(1.0 + (i % 7) as f64, 64.0 * (1 + i % 5) as f64, 1.0e-6);
        }
        assert_eq!(observation_count(), 100_003);

        clear_observations();
        assert_eq!(observation_count(), 0);
    }
}
