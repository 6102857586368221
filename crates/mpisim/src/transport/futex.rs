//! Process-shared futex parking, via the raw `futex(2)` syscall.
//!
//! Every fabric's park point ([`super::park::ParkWords`]) sleeps on a
//! 32-bit word; the shm fabric's live *inside* the shared segment, so
//! waiters and wakers may be different processes — the
//! `FUTEX_PRIVATE_FLAG` is deliberately absent. No `libc` crate is
//! vendored; the two calls we need are declared against the C library the
//! std binary already links.
//!
//! Every wait carries a bounded timeout (the fabric-wide stall period,
//! `MPISIM_STALL_MS` — see [`crate::stall::stall_ms`]): wakes are a
//! latency optimization, timeouts are the progress and death-detection
//! guarantee. Spurious returns are fine — all callers re-check their
//! condition in a loop.

use std::ffi::{c_int, c_long};
use std::sync::atomic::AtomicU32;

#[cfg(target_arch = "x86_64")]
const SYS_FUTEX: c_long = 202;
#[cfg(target_arch = "aarch64")]
const SYS_FUTEX: c_long = 98;

const FUTEX_WAIT: c_int = 0;
const FUTEX_WAKE: c_int = 1;
const ETIMEDOUT: i32 = 110;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
}

/// Sleep until `word` is observed different from `expected`, a wake
/// arrives, or `timeout_ms` elapses — whichever is first. `true` when it
/// was the timeout.
pub(crate) fn wait(word: &AtomicU32, expected: u32, timeout_ms: u64) -> bool {
    let ts = Timespec {
        tv_sec: (timeout_ms / 1000) as i64,
        tv_nsec: ((timeout_ms % 1000) * 1_000_000) as i64,
    };
    // SAFETY: `word` and `ts` are live for the whole (blocking) call, the
    // argument list is `FUTEX_WAIT`'s (uaddr, op, val, timeout), and the
    // kernel only reads the word.
    let rc = unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            FUTEX_WAIT,
            expected,
            &ts as *const Timespec,
        )
    };
    // EAGAIN (word moved) and EINTR are, like a wake, just "go re-check"
    // to our callers; only the park counters tell a timeout apart
    rc == -1 && std::io::Error::last_os_error().raw_os_error() == Some(ETIMEDOUT)
}

/// Wake every waiter parked on `word`.
pub(crate) fn wake_all(word: &AtomicU32) {
    // SAFETY: `FUTEX_WAKE` uses `word` only as the key of the wait queue
    // (uaddr, op, count); it neither reads nor writes our memory.
    unsafe {
        syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAKE, i32::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn wait_returns_on_wake() {
        let word = Arc::new(AtomicU32::new(0));
        let w2 = Arc::clone(&word);
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            // generous timeout: the wake below must cut it short
            while w2.load(Ordering::SeqCst) == 0 {
                wait(&w2, 0, 5_000);
            }
            start.elapsed()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        word.store(1, Ordering::SeqCst);
        wake_all(&word);
        let waited = t.join().unwrap();
        assert!(waited < std::time::Duration::from_secs(4), "wake was lost");
    }

    #[test]
    fn wait_times_out_when_nothing_happens() {
        let word = AtomicU32::new(7);
        let start = std::time::Instant::now();
        assert!(wait(&word, 7, 20), "reported as a timeout");
        assert!(start.elapsed() >= std::time::Duration::from_millis(15));
    }

    #[test]
    fn wait_returns_immediately_on_stale_expected() {
        let word = AtomicU32::new(3);
        let start = std::time::Instant::now();
        assert!(!wait(&word, 99, 5_000)); // EAGAIN: word != expected
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }
}
