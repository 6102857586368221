//! The persistent profile cache: measured winners on disk.
//!
//! One JSON-lines file (`profiles.jsonl`) per cache directory; each line
//! is a flat object carrying a format version, the cache key, the
//! measured winner, and the per-candidate median timings:
//!
//! ```text
//! {"v":1,"pattern":"9a3f…","topo":"07c1…","bucket":7,"fabric":"thread",
//!  "winner":"PartialNeighbor","probes":3,"t_StandardHypre":1.2e-3,…}
//! ```
//!
//! The JSON is hand-rolled: the vendored `serde` stand-in is a no-op
//! marker (nothing serializes at runtime — see `vendor/README.md`), and
//! the flat string/number shape here needs no more than a line writer
//! and a tolerant scanner.
//!
//! Failure semantics (DESIGN.md §11): the cache is an accelerator, never
//! a dependency. An unreadable directory, a corrupt line, a partial
//! write from a crashed process, an entry from a different format
//! version — all degrade to "no cached answer" on read and a reported
//! (but non-fatal) error on write. Nothing in here panics on IO.
//!
//! Concurrent writers merge: `publish` takes a lock file, re-reads the
//! current contents, folds its entry in (same key → the entry backed by
//! more probes wins), and atomically renames a freshly written temp file
//! over the old one. Two processes publishing different keys both
//! survive; a reader never observes a half-written file.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Format version of `profiles.jsonl` lines. Entries written by any
/// other version are ignored on read (and preserved on write only if
/// they parse, which they do not — a version bump starts a fresh cache
/// in place).
pub const PROFILE_VERSION: u64 = 1;

/// What a profile entry is keyed by. Two runs agree on a key exactly
/// when the measured winner of one is meaningful for the other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// `CommPattern::pattern_signature()` — order-independent over the
    /// (src, dst, len) triples.
    pub pattern_sig: u64,
    /// Topology-shape signature (rank → region layout).
    pub topo_sig: u64,
    /// `log2` bucket of the pattern's mean per-message payload bytes
    /// (see [`size_bucket`]): timings depend on message size, but not so
    /// finely that every byte count needs its own entry.
    pub size_bucket: u32,
    /// Which fabric produced the measurement (`"thread"`/`"shm"`/`"sock"`).
    pub fabric: String,
}

/// One measured result: the winning protocol and the per-candidate
/// median seconds that crowned it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    pub key: ProfileKey,
    /// Name of the winning protocol (`Protocol::name()`).
    pub winner: String,
    /// Samples behind the weakest candidate median — the merge
    /// tiebreaker (more probes = more trustworthy entry).
    pub probes: u64,
    /// `(protocol name, median seconds)` for every probed candidate.
    pub medians: Vec<(String, f64)>,
}

/// `log2` size bucket of a mean per-message byte count (0 bytes → 0).
pub fn size_bucket(mean_msg_bytes: u64) -> u32 {
    if mean_msg_bytes == 0 {
        0
    } else {
        64 - mean_msg_bytes.leading_zeros()
    }
}

/// Handle on one on-disk cache directory.
#[derive(Debug, Clone)]
pub struct ProfileCache {
    dir: PathBuf,
}

impl ProfileCache {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    fn file(&self) -> PathBuf {
        self.dir.join("profiles.jsonl")
    }

    /// The cached entry for `key`, or `None` (not cached, unreadable
    /// file, corrupt line, other version — all the same answer).
    pub fn lookup(&self, key: &ProfileKey) -> Option<ProfileEntry> {
        read_entries(&self.file())
            .into_iter()
            .find(|e| &e.key == key)
    }

    /// Merge `entry` into the cache. Best-effort: the error names what
    /// went wrong for logs/tests, and callers must treat it as a missed
    /// optimization, not a failure.
    pub fn publish(&self, entry: &ProfileEntry) -> Result<(), String> {
        fs::create_dir_all(&self.dir)
            .map_err(|e| format!("profile cache: create {:?}: {e}", self.dir))?;
        let _lock = LockFile::acquire(&self.dir.join("profiles.lock"))?;
        let mut entries = read_entries(&self.file());
        match entries.iter_mut().find(|e| e.key == entry.key) {
            // an entry backed by at least as many probes replaces the old
            // one (later run, same confidence or better); a thinner entry
            // must not clobber a fatter one
            Some(old) if entry.probes >= old.probes => *old = entry.clone(),
            Some(_) => {}
            None => entries.push(entry.clone()),
        }
        let tmp = self
            .dir
            .join(format!("profiles.jsonl.tmp-{}", std::process::id()));
        let mut out = String::new();
        for e in &entries {
            out.push_str(&write_line(e));
            out.push('\n');
        }
        fs::write(&tmp, out).map_err(|e| format!("profile cache: write {tmp:?}: {e}"))?;
        fs::rename(&tmp, self.file()).map_err(|e| format!("profile cache: rename {tmp:?}: {e}"))?;
        Ok(())
    }
}

/// Exclusive advisory lock via `create_new`. A lock older than
/// [`STALE_LOCK`] is presumed left by a crashed process and broken;
/// failing to acquire within the retry budget is an error (the caller's
/// publish is best-effort anyway).
struct LockFile {
    path: PathBuf,
}

const STALE_LOCK: Duration = Duration::from_secs(5);

impl LockFile {
    fn acquire(path: &Path) -> Result<Self, String> {
        for _ in 0..400 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(_) => {
                    return Ok(Self {
                        path: path.to_path_buf(),
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > STALE_LOCK);
                    if stale {
                        let _ = fs::remove_file(path);
                    } else {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                Err(e) => return Err(format!("profile cache: lock {path:?}: {e}")),
            }
        }
        Err(format!("profile cache: lock {path:?}: timed out"))
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Keep written strings inside the grammar the scanner accepts (no
/// quotes, backslashes, or control characters). Protocol names and
/// fabric tags are plain identifiers, so this never fires in practice.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_graphic() && c != '"' && c != '\\' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn write_line(e: &ProfileEntry) -> String {
    let mut line = format!(
        "{{\"v\":{PROFILE_VERSION},\"pattern\":\"{:016x}\",\"topo\":\"{:016x}\",\
         \"bucket\":{},\"fabric\":\"{}\",\"winner\":\"{}\",\"probes\":{}",
        e.key.pattern_sig,
        e.key.topo_sig,
        e.key.size_bucket,
        sanitize(&e.key.fabric),
        sanitize(&e.winner),
        e.probes,
    );
    for (name, secs) in &e.medians {
        line.push_str(&format!(",\"t_{}\":{:e}", sanitize(name), secs));
    }
    line.push('}');
    line
}

#[derive(Debug, PartialEq)]
enum Val {
    Str(String),
    Num(f64),
}

/// Tolerant scan of one flat JSON object line into key/value pairs.
/// Anything outside the grammar → `None` (the line is skipped).
fn parse_line(line: &str) -> Option<Vec<(String, Val)>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut pairs = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let q = rest.find('"')?;
        let key = rest[..q].to_string();
        rest = rest[q + 1..].trim_start().strip_prefix(':')?.trim_start();
        let val = if let Some(s) = rest.strip_prefix('"') {
            let q = s.find('"')?;
            rest = &s[q + 1..];
            Val::Str(s[..q].to_string())
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let token = rest[..end].trim();
            rest = &rest[end..];
            Val::Num(token.parse::<f64>().ok()?)
        };
        pairs.push((key, val));
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            if rest.is_empty() {
                return None; // trailing comma
            }
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(pairs)
}

fn entry_of(pairs: Vec<(String, Val)>) -> Option<ProfileEntry> {
    let mut version = None;
    let mut pattern = None;
    let mut topo = None;
    let mut bucket = None;
    let mut fabric = None;
    let mut winner = None;
    let mut probes = None;
    let mut medians = Vec::new();
    for (k, v) in pairs {
        match (k.as_str(), v) {
            ("v", Val::Num(n)) => version = Some(n as u64),
            ("pattern", Val::Str(s)) => pattern = u64::from_str_radix(&s, 16).ok(),
            ("topo", Val::Str(s)) => topo = u64::from_str_radix(&s, 16).ok(),
            ("bucket", Val::Num(n)) if n >= 0.0 => bucket = Some(n as u32),
            ("fabric", Val::Str(s)) => fabric = Some(s),
            ("winner", Val::Str(s)) => winner = Some(s),
            ("probes", Val::Num(n)) if n >= 0.0 => probes = Some(n as u64),
            (t, Val::Num(n)) if t.starts_with("t_") => medians.push((t[2..].to_string(), n)),
            // unknown fields are ignored: minor-version additions must
            // not invalidate old readers
            _ => {}
        }
    }
    if version != Some(PROFILE_VERSION) {
        return None;
    }
    Some(ProfileEntry {
        key: ProfileKey {
            pattern_sig: pattern?,
            topo_sig: topo?,
            size_bucket: bucket?,
            fabric: fabric?,
        },
        winner: winner?,
        probes: probes?,
        medians,
    })
}

fn read_entries(path: &Path) -> Vec<ProfileEntry> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| parse_line(l).and_then(entry_of))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tuner-profile-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(pattern: u64, winner: &str, probes: u64) -> ProfileEntry {
        ProfileEntry {
            key: ProfileKey {
                pattern_sig: pattern,
                topo_sig: 0xfeed,
                size_bucket: 7,
                fabric: "thread".into(),
            },
            winner: winner.into(),
            probes,
            medians: vec![("StandardHypre".into(), 1.5e-3), (winner.into(), 0.9e-3)],
        }
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("roundtrip");
        let cache = ProfileCache::new(&dir);
        let e = entry(0xabc, "PartialNeighbor", 3);
        cache.publish(&e).unwrap();
        assert_eq!(cache.lookup(&e.key), Some(e.clone()));
        // a different bucket is a different key
        let mut other = e.key.clone();
        other.size_bucket = 9;
        assert_eq!(cache.lookup(&other), None);
        // a different fabric is a different key
        let mut other = e.key.clone();
        other.fabric = "shm".into();
        assert_eq!(cache.lookup(&other), None);
        // a field this build does not know (the `"fitv"` older builds
        // wrote) is skipped, the line still read
        let old = write_line(&e).replace('}', ",\"fitv\":4}");
        fs::write(dir.join("profiles.jsonl"), format!("{old}\n")).unwrap();
        assert_eq!(cache.lookup(&e.key), Some(e));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = tmpdir("corrupt");
        let cache = ProfileCache::new(&dir);
        let e = entry(0x111, "FullNeighbor", 2);
        cache.publish(&e).unwrap();
        // simulate a torn write + garbage from another tool
        let mut text = fs::read_to_string(dir.join("profiles.jsonl")).unwrap();
        text.push_str("{\"v\":1,\"pattern\":\"zz not hex\n");
        text.push_str("complete garbage\n");
        text.push_str("{\"v\":1,\"pattern\":\"22\",\"truncat");
        fs::write(dir.join("profiles.jsonl"), text).unwrap();
        assert_eq!(cache.lookup(&e.key), Some(e.clone()));
        // publishing over the corrupt file drops only the bad lines
        let e2 = entry(0x222, "PartialNeighbor", 2);
        cache.publish(&e2).unwrap();
        assert_eq!(cache.lookup(&e.key), Some(e));
        assert_eq!(cache.lookup(&e2.key), Some(e2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_ignored() {
        let dir = tmpdir("version");
        let cache = ProfileCache::new(&dir);
        let e = entry(0x333, "PartialNeighbor", 4);
        let future = write_line(&e).replacen("\"v\":1", "\"v\":999", 1);
        fs::write(dir.join("profiles.jsonl"), format!("{future}\n")).unwrap();
        assert_eq!(cache.lookup(&e.key), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_keeps_better_probed_entry() {
        let dir = tmpdir("merge");
        let cache = ProfileCache::new(&dir);
        cache.publish(&entry(0x444, "FullNeighbor", 5)).unwrap();
        // thinner entry for the same key must not clobber
        cache.publish(&entry(0x444, "StandardHypre", 2)).unwrap();
        let got = cache.lookup(&entry(0x444, "", 0).key).unwrap();
        assert_eq!(got.winner, "FullNeighbor");
        assert_eq!(got.probes, 5);
        // equally-probed (a later, same-confidence run) replaces
        cache.publish(&entry(0x444, "PartialNeighbor", 5)).unwrap();
        let got = cache.lookup(&entry(0x444, "", 0).key).unwrap();
        assert_eq!(got.winner, "PartialNeighbor");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_merge_not_clobber() {
        let dir = tmpdir("concurrent");
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    ProfileCache::new(&dir)
                        .publish(&entry(0x1000 + i, "PartialNeighbor", 1))
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let cache = ProfileCache::new(&dir);
        for i in 0..8u64 {
            assert!(
                cache.lookup(&entry(0x1000 + i, "", 0).key).is_some(),
                "entry {i} lost to a concurrent writer"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_broken() {
        let dir = tmpdir("stalelock");
        let lock = dir.join("profiles.lock");
        fs::write(&lock, b"").unwrap();
        // age the lock beyond STALE_LOCK by backdating mtime via utimes
        // is unavailable in std; instead verify the live-lock path: a
        // fresh lock blocks until released, then publish succeeds
        let cache = ProfileCache::new(&dir);
        let dir2 = dir.clone();
        let unlocker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let _ = fs::remove_file(dir2.join("profiles.lock"));
        });
        cache.publish(&entry(0x555, "FullNeighbor", 1)).unwrap();
        unlocker.join().unwrap();
        assert!(cache.lookup(&entry(0x555, "", 0).key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_lookup_is_none_and_publish_creates() {
        let dir =
            std::env::temp_dir().join(format!("tuner-profile-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ProfileCache::new(&dir);
        assert_eq!(cache.lookup(&entry(0x666, "", 0).key), None);
        cache.publish(&entry(0x666, "FullNeighbor", 1)).unwrap();
        assert!(cache.lookup(&entry(0x666, "", 0).key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_bucket_is_log2() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert_eq!(size_bucket(8), 4);
        assert_eq!(size_bucket(9), 4);
        assert_eq!(size_bucket(1 << 20), 21);
    }
}
