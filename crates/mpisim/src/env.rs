//! The process environment, read in one place.
//!
//! Every `MPISIM_*` variable this crate honours is a row of [`KNOBS`]
//! (DESIGN.md §9 prints the same table) and is parsed by [`parse`] under
//! one contract: a malformed value aborts naming the variable, the
//! offending token and a well-formed example — it is never silently
//! replaced by the default. The environment is read once, on first use
//! (the first world a process builds), so a program may still `set_var`
//! before that; worker processes of a [`crate::RemoteWorld`] re-exec with
//! the driver's environment and therefore resolve the same values. One
//! hidden key beside the table, [`WORKER`], tells a re-exec'd process
//! which world it joins, as which rank.
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
const KNOBS: [Knob; 6] = [
    Knob { name: "MPISIM_TRANSPORT", default: Some("thread"), expects: "one of thread|shm|sock", example: "shm" },
    Knob { name: "MPISIM_STALL_MS", default: Some("50"), expects: MS, example: "50" },
    Knob { name: "MPISIM_DEADLINE_MS", default: None, expects: MS, example: "30000" },
    Knob { name: "MPISIM_FAULTS", default: None, expects: "<seed>:<op>[,<op>]*", example: "7:delay=200/300us,reorder=100" },
    Knob { name: "MPISIM_SHM_BYTES", default: None, expects: "a positive integer of bytes", example: "536870912" },
    Knob { name: "MPISIM_SOCK_ADDR", default: None, expects: "a Unix-socket path or a TCP host:port", example: "127.0.0.1:0" },
];

/// The hidden worker-mode key, set by [`worker_command`] on the processes
/// a [`crate::RemoteWorld`] driver re-execs and never by a user:
/// `<fabric>:<rank>:<rendezvous>`, split at its first two colons (a TCP
/// rendezvous holds one).
pub(crate) const WORKER: &str = "MPISIM_WORKER";

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
    pub shm_bytes: Option<u64>,
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
    let sock_addr = match raw("MPISIM_SOCK_ADDR") {
        (Some(addr), reject) if addr.is_empty() => return Err(reject(&addr, "")),
        (addr, _) => addr,
    };
    Ok(Env {
        transport,
        stall_ms: number("MPISIM_STALL_MS", 1)?.expect(defaulted),
        deadline_ms: number("MPISIM_DEADLINE_MS", 1)?,
        faults,
        shm_bytes: number("MPISIM_SHM_BYTES", 1)?,
        sock_addr,
        worker: lookup(WORKER)
            .map(|value| parse_worker(&value))
            .transpose()?,
    })
}

/// Read a [`WORKER`] value. Only a launcher writes one, so nothing in it is
/// trimmed or defaulted.
fn parse_worker(value: &str) -> Result<Worker, String> {
    let reject = |what: &str, token: &str| {
        format!(
            "{WORKER}={value:?}: bad {what} {token:?}; expected <fabric>:<rank>:<rendezvous> \
             (e.g. {WORKER}=sock:2:127.0.0.1:9), which the launcher sets, never a user"
        )
    };
    let mut parts = value.splitn(3, ':');
    let mut next = || parts.next().unwrap_or("");
    let (fabric, rank, rendezvous) = (next(), next(), next());
    Ok(Worker {
        fabric: [Fabric::Shm, Fabric::Sock]
            .into_iter()
            .find(|f| f.name() == fabric)
            .ok_or_else(|| reject("fabric", fabric))?,
        rank: rank.parse().map_err(|_| reject("rank", rank))?,
        rendezvous: (!rendezvous.is_empty())
            .then(|| rendezvous.to_string())
            .ok_or_else(|| reject("rendezvous", rendezvous))?,
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
    cmd.args(std::env::args_os().skip(1))
        .env(WORKER, format!("{}:{rank}:{rendezvous}", fabric.name()));
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
        let cases: [Case; 6] = [
            (|e| n(e.transport.name()), ("sock", "sock"), &["socks", "", "SHM"]),
            (|e| n(e.stall_ms), (" 75 ", "75"), &["0", "abc", "-5", ""]),
            (|e| e.deadline_ms.and_then(n), ("250", "250"), &["0", "-5", "soon"]),
            (|e| e.faults.as_ref().map(|p| p.seed().to_string()), ("9:kill=1@4", "9"), &["no-colon", "1:frob=3"]),
            (|e| e.shm_bytes.and_then(n), ("1048576", "1048576"), &["0", "big", "1e9"]),
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
    fn one_worker_key_names_fabric_rank_and_rendezvous() {
        assert_eq!(parse_with(&[]).unwrap().worker, None);
        let worker = |fabric, rank, rendezvous: &str| {
            Some(Worker {
                fabric,
                rank,
                rendezvous: rendezvous.into(),
            })
        };
        let shm = parse_with(&[(WORKER, "shm:3:/dev/shm/mpisim-1-0")]).unwrap();
        assert_eq!(shm.worker, worker(Fabric::Shm, 3, "/dev/shm/mpisim-1-0"));
        // a TCP rendezvous keeps its colon, and the driver's bind spec is
        // inherited as a bind spec
        let vars = [
            (WORKER, "sock:2:127.0.0.1:9"),
            ("MPISIM_SOCK_ADDR", "127.0.0.1:0"),
        ];
        let sock = parse_with(&vars).unwrap();
        assert_eq!(sock.worker, worker(Fabric::Sock, 2, "127.0.0.1:9"));
        assert_eq!(sock.sock_addr.as_deref(), Some("127.0.0.1:0"));
        for (value, why) in [
            ("thread:1:/x", "bad fabric \"thread\""),
            ("3", "bad fabric \"3\""),
            ("shm", "bad rank \"\""),
            ("shm:one:/x", "bad rank \"one\""),
            ("sock:-1:/x", "bad rank \"-1\""),
            ("sock:1", "bad rendezvous \"\""),
            ("sock:1:", "bad rendezvous \"\""),
        ] {
            let err = parse_with(&[(WORKER, value)]).unwrap_err();
            assert!(
                err.contains(&format!("{WORKER}={value:?}")),
                "{value}: {err}"
            );
            assert!(err.contains(why), "{value}: {err}");
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
