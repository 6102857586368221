//! The process environment, read in one place.
//!
//! Every `MPISIM_*` variable this crate honours is a row of [`KNOBS`]
//! (DESIGN.md §9 prints the same table) and is parsed by [`parse`] under
//! one contract: a malformed value aborts naming the variable, the
//! offending token and a well-formed example — it is never silently
//! replaced by the default. The environment is read once, on first use
//! (the first world a process builds), so a program may still `set_var`
//! before that; worker processes of a [`crate::RemoteWorld`] re-exec with
//! the driver's environment and therefore resolve the same values.
//!
//! No other file under `crates/mpisim/src` touches `std::env` (`make lint`
//! checks), which is also why the worker re-exec command and the temp
//! directory are handed out from here.

use crate::runtime::Fabric;
use crate::transport::fault::FaultPlan;
use std::sync::OnceLock;

/// One documented variable.
pub(crate) struct Knob {
    name: &'static str,
    /// What an unset variable resolves to; `None` = it stays unset.
    default: Option<&'static str>,
    /// What a well-formed value is, and one such value, for the rejection.
    expects: &'static str,
    example: &'static str,
}

const MS: &str = "a positive integer of milliseconds";

#[rustfmt::skip] // a table reads as rows
const KNOBS: [Knob; 8] = [
    Knob { name: "MPISIM_TRANSPORT", default: Some("thread"), expects: "one of thread|shm|sock", example: "shm" },
    Knob { name: "MPISIM_STALL_MS", default: Some("50"), expects: MS, example: "50" },
    Knob { name: "MPISIM_DEADLINE_MS", default: None, expects: MS, example: "30000" },
    Knob { name: "MPISIM_FAULTS", default: None, expects: "<seed>:<op>[,<op>]*", example: "7:delay=200/300us,reorder=100" },
    Knob { name: "MPISIM_RESPAWN_MAX", default: Some("2"), expects: "a non-negative integer", example: "2" },
    Knob { name: "MPISIM_SHM_BYTES", default: None, expects: "a positive integer of bytes", example: "536870912" },
    Knob { name: "MPISIM_ATTACH_FAIL_ONCE", default: None, expects: "<rank>:<marker path>", example: "2:/tmp/mpisim-attach-fail" },
    Knob { name: "MPISIM_SOCK_ADDR", default: None, expects: "a Unix-socket path or a TCP host:port", example: "127.0.0.1:0" },
];

/// Hidden worker-mode keys, set by [`worker_command`] on the processes a
/// [`crate::RemoteWorld`] driver re-execs and never by a user. Each fabric
/// has its own rank key, so a worker can tell which world it belongs to;
/// a sock worker's rendezvous rides in `MPISIM_SOCK_ADDR`.
const WORKER_RANK: &str = "MPISIM_WORKER_RANK";
const WORKER_SEG: &str = "MPISIM_WORKER_SEG";
const SOCK_WORKER_RANK: &str = "MPISIM_SOCK_WORKER_RANK";
const SOCK_ADDR: &str = "MPISIM_SOCK_ADDR";

/// This process is a re-exec'd worker rank of a process world.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Worker {
    pub fabric: Fabric,
    pub rank: usize,
    /// Where the world is: the shm segment path, or the sock driver's
    /// listener address.
    pub rendezvous: String,
}

/// The resolved environment: a field per row of [`KNOBS`], named after it
/// (DESIGN.md §9 says what each means), and the worker mode.
#[derive(Debug, Clone)]
pub(crate) struct Env {
    pub transport: Fabric,
    pub stall_ms: u64,
    pub deadline_ms: Option<u64>,
    pub faults: Option<FaultPlan>,
    pub respawn_max: u32,
    pub shm_bytes: Option<u64>,
    /// `(rank, marker path)`.
    pub attach_fail_once: Option<(usize, String)>,
    /// A bind spec, so unset in a sock worker, where the variable carries
    /// the driver's address instead.
    pub sock_addr: Option<String>,
    /// Set in re-exec'd worker processes only.
    pub worker: Option<Worker>,
}

/// Resolve every knob from `lookup` (the process environment in
/// production, a closure over a table in tests).
pub(crate) fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Env, String> {
    // a knob's raw value (set, or its default) and how to reject it
    let raw = |name: &'static str| {
        let knob = KNOBS.iter().find(|k| k.name == name).expect("a KNOBS row");
        let reject = move |raw: &str, why: &str| {
            let Knob {
                expects, example, ..
            } = knob;
            format!("{name}={raw:?}: {why}expected {expects} (e.g. {name}={example})")
        };
        (lookup(name).or(knob.default.map(String::from)), reject)
    };
    let number = |name, min: u64| -> Result<Option<u64>, String> {
        let (raw, reject) = raw(name);
        let read = |v: &str| v.trim().parse().ok().filter(|&n| n >= min);
        raw.map(|v| read(&v).ok_or_else(|| reject(&v, "")))
            .transpose()
    };
    let rank = |key: &str| match lookup(key) {
        Some(r) => match r.trim().parse::<usize>() {
            Ok(rank) => Ok(Some(rank)),
            Err(_) => Err(format!(
                "{key}={r:?}: expected a worker rank (e.g. {key}=3)"
            )),
        },
        None => Ok(None),
    };
    let defaulted = "the table gives a default";

    let (transport, reject) = raw("MPISIM_TRANSPORT");
    let transport = transport.expect(defaulted);
    let transport = Fabric::ALL
        .into_iter()
        .find(|f| f.name() == transport.trim())
        .ok_or_else(|| reject(&transport, ""))?;
    let faults = match raw("MPISIM_FAULTS") {
        // an empty spec is "no plan", so a wrapper script can always export it
        (Some(spec), reject) if !spec.trim().is_empty() => {
            Some(FaultPlan::parse(&spec).map_err(|why| reject(&spec, &format!("{why}; ")))?)
        }
        _ => None,
    };
    let attach_fail_once = match raw("MPISIM_ATTACH_FAIL_ONCE") {
        (Some(spec), reject) => Some(
            spec.split_once(':')
                .and_then(|(rank, marker)| Some((rank.parse().ok()?, marker.to_string())))
                .ok_or_else(|| reject(&spec, ""))?,
        ),
        _ => None,
    };
    let mut sock_addr = match raw(SOCK_ADDR) {
        (Some(addr), reject) if addr.is_empty() => return Err(reject(&addr, "")),
        (addr, _) => addr,
    };
    let worker = match (rank(WORKER_RANK)?, rank(SOCK_WORKER_RANK)?) {
        (Some(_), Some(_)) => {
            return Err(format!(
                "{WORKER_RANK} and {SOCK_WORKER_RANK} are both set: a worker process \
                 belongs to exactly one world (the launcher sets these keys, never a user)"
            ))
        }
        (Some(rank), None) => Some(Worker {
            fabric: Fabric::Shm,
            rank,
            rendezvous: lookup(WORKER_SEG)
                .ok_or_else(|| format!("{WORKER_RANK} is set without {WORKER_SEG}"))?,
        }),
        (None, Some(rank)) => Some(Worker {
            fabric: Fabric::Sock,
            rank,
            rendezvous: sock_addr
                .take()
                .ok_or_else(|| format!("{SOCK_WORKER_RANK} is set without {SOCK_ADDR}"))?,
        }),
        (None, None) => None,
    };
    Ok(Env {
        transport,
        stall_ms: number("MPISIM_STALL_MS", 1)?.expect(defaulted),
        deadline_ms: number("MPISIM_DEADLINE_MS", 1)?,
        faults,
        respawn_max: number("MPISIM_RESPAWN_MAX", 0)?.expect(defaulted) as u32,
        shm_bytes: number("MPISIM_SHM_BYTES", 1)?,
        attach_fail_once,
        sock_addr,
        worker,
    })
}

/// The process environment, parsed on first use. A malformed variable
/// aborts here, whichever fabric the world at hand runs on.
pub(crate) fn get() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| parse(|key| std::env::var(key).ok()).unwrap_or_else(|e| panic!("{e}")))
}

/// The command that re-executes this program (same argv, so the worker
/// lands in the same `main` path) as worker `rank` of a `fabric` process
/// world found at `rendezvous`.
pub(crate) fn worker_command(
    fabric: Fabric,
    rank: usize,
    rendezvous: &str,
) -> std::process::Command {
    let exe = std::env::current_exe().expect("current_exe for worker re-exec");
    let mut cmd = std::process::Command::new(exe);
    let (rank_key, rendezvous_key) = match fabric {
        Fabric::Shm => (WORKER_RANK, WORKER_SEG),
        Fabric::Sock => (SOCK_WORKER_RANK, SOCK_ADDR),
        Fabric::Thread => unreachable!("thread-fabric ranks are never processes"),
    };
    cmd.args(std::env::args_os().skip(1))
        .env(rank_key, rank.to_string())
        .env(rendezvous_key, rendezvous);
    cmd
}

/// Where auto-assigned Unix-socket paths go. Not cached: it is `TMPDIR`,
/// not one of this crate's knobs.
pub(crate) fn temp_dir() -> std::path::PathBuf {
    std::env::temp_dir()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_with(vars: &[(&str, &str)]) -> Result<Env, String> {
        parse(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        })
    }

    /// Per knob, in table order: how its field renders (`None` = unset; a
    /// fault plan renders as its seed), a well-formed value with its
    /// rendering, then junk and out-of-range tokens.
    #[test]
    fn every_knob_defaults_accepts_and_rejects() {
        type Show = fn(&Env) -> Option<String>;
        type Case<'a> = (Show, (&'a str, &'a str), &'a [&'a str]);
        fn n(v: impl ToString) -> Option<String> {
            Some(v.to_string())
        }
        #[rustfmt::skip]
        let cases: [Case; 8] = [
            (|e| n(e.transport.name()), ("sock", "sock"), &["socks", "", "SHM"]),
            (|e| n(e.stall_ms), (" 75 ", "75"), &["0", "abc", "-5", ""]),
            (|e| e.deadline_ms.and_then(n), ("250", "250"), &["0", "-5", "soon"]),
            (|e| e.faults.as_ref().map(|p| p.seed().to_string()), ("9:kill=1@4", "9"), &["no-colon", "1:frob=3"]),
            (|e| n(e.respawn_max), ("0", "0"), &["-1", "many"]),
            (|e| e.shm_bytes.and_then(n), ("1048576", "1048576"), &["0", "big", "1e9"]),
            (|e| e.attach_fail_once.as_ref().map(|(r, m)| format!("{r}:{m}")), ("1:/m", "1:/m"), &["/m", "x:/m"]),
            (|e| e.sock_addr.clone(), ("/tmp/s", "/tmp/s"), &[""]),
        ];
        let defaults = parse_with(&[]).expect("an empty environment is well-formed");
        for (knob, (show, (value, shown), rejects)) in KNOBS.iter().zip(cases) {
            let name = knob.name;
            assert_eq!(show(&defaults).as_deref(), knob.default, "{name} unset");
            parse_with(&[(name, knob.example)]).expect("the example is well-formed");
            let env = parse_with(&[(name, value)]).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(show(&env).as_deref(), Some(shown), "{name}={value}");
            for junk in rejects {
                let err = parse_with(&[(name, junk)]).expect_err(junk);
                assert!(err.contains(&format!("{name}={junk:?}")), "token: {err}");
                assert!(err.contains(knob.expects), "grammar: {err}");
                let example = format!("{name}={}", knob.example);
                assert!(err.contains(&example), "example: {err}");
            }
        }
    }

    #[test]
    fn an_empty_fault_spec_is_no_plan_and_a_bad_one_says_why() {
        for empty in ["", "  "] {
            let env = parse_with(&[("MPISIM_FAULTS", empty)]).unwrap();
            assert!(env.faults.is_none());
        }
        let err = parse_with(&[("MPISIM_FAULTS", "1:frob=3")]).unwrap_err();
        assert!(err.contains("unknown fault kind \"frob\""), "{err}");
    }

    #[test]
    fn worker_keys_name_exactly_one_fabric() {
        assert_eq!(parse_with(&[]).unwrap().worker, None);
        let worker = |fabric, rank, rendezvous: &str| {
            Some(Worker {
                fabric,
                rank,
                rendezvous: rendezvous.into(),
            })
        };
        let shm = parse_with(&[(WORKER_RANK, "3"), (WORKER_SEG, "/dev/shm/mpisim-1-0")]).unwrap();
        assert_eq!(shm.worker, worker(Fabric::Shm, 3, "/dev/shm/mpisim-1-0"));
        let sock = parse_with(&[(SOCK_WORKER_RANK, "2"), (SOCK_ADDR, "127.0.0.1:9")]).unwrap();
        assert_eq!(sock.worker, worker(Fabric::Sock, 2, "127.0.0.1:9"));
        assert_eq!(sock.sock_addr, None, "the driver's address is no bind spec");
        let both = [(WORKER_RANK, "1"), (SOCK_WORKER_RANK, "1")];
        for (vars, why) in [
            (&both[..], "both set"),
            (&both[..1], "without MPISIM_WORKER_SEG"),
            (&both[1..], "without MPISIM_SOCK_ADDR"),
            (&[(WORKER_RANK, "one")][..], "MPISIM_WORKER_RANK=\"one\""),
        ] {
            let err = parse_with(vars).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
    }

    /// DESIGN.md §9 carries this table: a row per knob, with its default.
    #[test]
    fn design_md_documents_every_knob_and_its_default() {
        let design = include_str!("../../../DESIGN.md");
        for knob in &KNOBS {
            let row = format!("| `{}` | {} |", knob.name, knob.default.unwrap_or("unset"));
            assert!(design.contains(&row), "DESIGN.md §9 lacks the row {row:?}");
        }
    }
}
