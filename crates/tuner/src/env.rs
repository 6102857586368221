//! Tuning policy, and the one thing about it the environment decides:
//! where the persistent profile cache lives (`MPISIM_PROFILE_DIR`, a
//! deployment setting). Everything else is the caller's: build a
//! [`TunePolicy`] with the `with_*` methods.

use std::path::PathBuf;
use std::sync::OnceLock;

/// How `Backend::Tuned` spends its measurement phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePolicy {
    /// Total probe iterations before the winner locks in (default 12).
    /// Clamped up so every candidate is measured at least once.
    pub probe_iters: usize,
    /// A candidate is probed only if the model ranks its cost within
    /// this factor of the model's best (default 2.0, must be ≥ 1.0). 1.0
    /// degenerates to trusting the model.
    pub factor: f64,
    /// Directory of the persistent profile cache
    /// (`MPISIM_PROFILE_DIR`); `None` disables persistence.
    pub profile_dir: Option<PathBuf>,
}

impl Default for TunePolicy {
    fn default() -> Self {
        Self {
            probe_iters: 12,
            factor: 2.0,
            profile_dir: None,
        }
    }
}

impl TunePolicy {
    /// The default policy with the profile cache where the environment
    /// says (`MPISIM_PROFILE_DIR`; unset = no persistence), read once. A
    /// malformed value aborts naming the variable and the token.
    pub fn from_env() -> Self {
        static POLICY: OnceLock<TunePolicy> = OnceLock::new();
        const VAR: &str = "MPISIM_PROFILE_DIR";
        let policy = POLICY.get_or_init(|| TunePolicy {
            profile_dir: std::env::var(VAR)
                .ok()
                .map(|v| parse_profile_dir(VAR, &v).unwrap_or_else(|e| panic!("{e}"))),
            ..TunePolicy::default()
        });
        policy.clone()
    }

    /// Builder: replace the probe-iteration budget.
    pub fn with_probe_iters(mut self, iters: usize) -> Self {
        self.probe_iters = iters;
        self
    }

    /// Builder: replace the candidate-admission factor.
    pub fn with_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "tune factor must be a finite value >= 1.0, got {factor}"
        );
        self.factor = factor;
        self
    }

    /// Builder: attach a profile-cache directory.
    pub fn with_profile_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.profile_dir = Some(dir.into());
        self
    }
}

/// Parse `MPISIM_PROFILE_DIR`: a non-empty directory path. Existence is
/// not checked here — the cache creates the directory on first write and
/// degrades to "no cached answer" when it cannot.
fn parse_profile_dir(var: &str, value: &str) -> Result<PathBuf, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Err(format!(
            "{var}={value:?}: expected a directory path for the persistent \
             profile cache (e.g. {var}=/tmp/mpisim-profiles); unset the \
             variable to disable persistence"
        ));
    }
    Ok(PathBuf::from(trimmed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_dir_grammar() {
        assert_eq!(
            parse_profile_dir("V", "/tmp/x"),
            Ok(PathBuf::from("/tmp/x"))
        );
        let err = parse_profile_dir("V", "   ").unwrap_err();
        assert!(err.contains("directory path"), "{err}");
        assert!(err.contains("V=\"   \""), "{err}");
    }

    #[test]
    fn builder_clamps_nothing_but_validates_factor() {
        let p = TunePolicy::default()
            .with_probe_iters(4)
            .with_factor(3.0)
            .with_profile_dir("/tmp/cache");
        assert_eq!(p.probe_iters, 4);
        assert_eq!(p.factor, 3.0);
        assert_eq!(
            p.profile_dir.as_deref(),
            Some(std::path::Path::new("/tmp/cache"))
        );
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn builder_rejects_sub_unit_factor() {
        let _ = TunePolicy::default().with_factor(0.5);
    }
}
