//! `perfbench`: the repo's benchmark (see `perfbench/README.md` and the
//! root `BENCHMARK.json`).
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and ends its standard output with one JSON
//! line. Without `--workload` it runs every workload, each in a fresh
//! child process so memory high-water marks do not mix.

mod calib;
mod compare;
mod exchange;
mod json;
mod layers;
mod metrics;
mod run;
mod service;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{END_TO_END, PER_LAYER};
use workloads::{Spec, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Trace {
    Off,
    On,
    Both,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    pmis_seed: u64,
    seconds: f64,
    trace: Trace,
    out: Option<PathBuf>,
    quick: bool,
}

const USAGE: &str = "usage: perfbench [--workload W] [--seed N] [--pmis-seed N] [--seconds S] [--trace [0|1|both]] [--out FILE] [--quick]
       perfbench --compare A.json B.json
       perfbench --manifest";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        pmis_seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: Trace::Off,
        out: None,
        quick: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--pmis-seed" => {
                args.pmis_seed = value(&mut i, "--pmis-seed")?
                    .parse()
                    .map_err(|e| format!("--pmis-seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        Trace::Off
                    }
                    Some("1") => {
                        i += 1;
                        Trace::On
                    }
                    Some("both") => {
                        i += 1;
                        Trace::Both
                    }
                    _ => Trace::On,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(w) = &args.workload {
        if workloads::find(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
        if args.trace == Trace::Both {
            return Err("--trace both needs every workload (no --workload)".to_string());
        }
    }
    Ok(args)
}

/// The numbers are only comparable when nothing reconfigures the runtime
/// behind the benchmark's back.
fn hermetic_env() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("MPISIM_")) {
        Some((k, _)) => Err(format!(
            "{} is set: perfbench measures the runtime's defaults, unset every MPISIM_* variable",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

/// `perfbench-run/` beside the build profile directory the executable is
/// in: `perfbench/target/perfbench-run/` unless `CARGO_TARGET_DIR` moves
/// it. Traces stay here; everything else lives in a per-process
/// directory under it that is removed on exit.
fn run_root() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| std::io::Error::other("executable is not inside a target directory"))?;
    Ok(target.join("perfbench-run"))
}

/// The per-process scratch directory: UDS paths and the tuner's profile
/// cache land here. The process works from inside it so the socket paths
/// stay short whatever the checkout's own path is.
struct Scratch(PathBuf);

impl Scratch {
    fn enter(root: &Path) -> std::io::Result<Self> {
        let dir = root.join(format!("p{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        std::env::set_current_dir(&dir)?;
        // `mpisim`'s auto-assigned socket paths go under the temp dir
        std::env::set_var("TMPDIR", ".");
        // a stalled wait aborts loudly instead of hanging the run; the
        // deadline is only looked at on the 50 ms stall probe
        std::env::set_var("MPISIM_DEADLINE_MS", "20000");
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir("/");
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result line of the driver's contract.
fn result_line(attempted: f64, failed: f64, metrics: &[(String, f64, String)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(name),
                value,
                json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0.0,
        attempted,
        failed,
        metrics.join(", ")
    )
}

fn result_json(o: &run::Outcome) -> String {
    let metrics: Vec<(String, f64, String)> = o
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect();
    result_line(o.checks.attempted as f64, o.checks.failed as f64, &metrics)
}

fn print_outcome(spec: &Spec, args: &Args, o: &run::Outcome) {
    println!(
        "# {} seed={} pmis-seed={} seconds={} trace={}{}",
        spec.name,
        args.seed,
        args.pmis_seed,
        args.seconds,
        u8::from(o.traced),
        if args.quick {
            " QUICK: not comparable"
        } else {
            ""
        }
    );
    for m in &o.metrics {
        let note = if o.traced {
            let l = PER_LAYER
                .iter()
                .find(|l| l.name == m.name)
                .expect("ledger metric");
            format!("moves {}", l.moves)
        } else {
            let e = END_TO_END
                .iter()
                .find(|e| e.name == m.name)
                .expect("ledger metric");
            format!("bound {}", e.bound)
        };
        println!(
            "{:<40} {:>16.6} {:<8} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, note
        );
    }
    println!(
        "checks: {} attempted, {} failed{}",
        o.checks.attempted,
        o.checks.failed,
        if o.checks.failed == 0 {
            ""
        } else {
            "  <-- WRONG OUTPUT"
        }
    );
}

fn one_workload(spec: &'static Spec, args: &Args) -> std::io::Result<ExitCode> {
    let root = run_root()?;
    let out = args.out.as_deref().map(std::path::absolute).transpose()?;
    let scratch = Scratch::enter(&root)?;
    let seconds = if args.quick {
        args.seconds / 20.0
    } else {
        args.seconds
    };
    let traced = args.trace == Trace::On;
    let seeds = workloads::Seeds {
        values: args.seed,
        pmis: args.pmis_seed,
    };
    let outcome = run::workload(spec, seeds, seconds, traced, &root, &scratch.0);
    drop(scratch);
    print_outcome(spec, args, &outcome);
    let line = result_json(&outcome);
    if let Some(path) = out {
        std::fs::write(path, combined_json(args, &[(spec.name, line.clone())]))?;
    }
    println!("{line}");
    Ok(if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn combined_json(args: &Args, results: &[(&str, String)]) -> String {
    let body: Vec<String> = results
        .iter()
        .map(|(name, line)| format!("\"{name}\": {line}"))
        .collect();
    format!(
        "{{\"seed\": {}, \"pmis_seed\": {}, \"seconds\": {}, \"quick\": {}, \"workloads\": {{\n{}\n}}}}\n",
        args.seed,
        args.pmis_seed,
        args.seconds,
        args.quick,
        body.join(",\n")
    )
}

/// Run one child and return its last line, echoing the rest.
fn child(spec: &Spec, args: &Args, traced: bool) -> std::io::Result<(bool, String)> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--pmis-seed", &args.pmis_seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.spawn()?.wait_with_output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("").to_string();
    for l in lines {
        println!("{l}");
    }
    Ok((output.status.success(), last))
}

/// Merge the untraced and traced result lines of one workload.
fn merge(lines: &[String]) -> Result<String, String> {
    use json::Value;
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut metrics = Vec::new();
    for line in lines {
        let v = json::parse(line)?;
        let number = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("no {key}"))
        };
        attempted += number("attempted")?;
        failed += number("failed")?;
        for (name, m) in v.get("metrics").ok_or("no metrics")?.entries() {
            let value = m.get("value").and_then(Value::as_f64).ok_or("no value")?;
            let unit = m.get("unit").and_then(Value::as_str).ok_or("no unit")?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
    }
    Ok(result_line(attempted, failed, &metrics))
}

fn every_workload(args: &Args) -> std::io::Result<ExitCode> {
    let modes: &[bool] = match args.trace {
        Trace::Off => &[false],
        Trace::On => &[true],
        Trace::Both => &[false, true],
    };
    let mut ok = true;
    let mut results = Vec::new();
    for spec in WORKLOADS {
        let mut lines = Vec::new();
        for &traced in modes {
            let (success, last) = child(spec, args, traced)?;
            if !success {
                eprintln!(
                    "perfbench: {} failed (trace={})",
                    spec.name,
                    u8::from(traced)
                );
                ok = false;
            }
            lines.push(last);
        }
        match merge(&lines) {
            Ok(line) => results.push((spec.name, line)),
            Err(e) => {
                eprintln!("perfbench: {} printed no result: {e}", spec.name);
                ok = false;
            }
        }
    }
    let combined = combined_json(args, &results);
    if let Some(path) = &args.out {
        std::fs::write(path, &combined)?;
    }
    println!("{}", combined.replace('\n', " "));
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, generated from the ledger.
fn manifest() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                json::escape(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("--manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Some("--compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::files(Path::new(a), Path::new(b)),
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv).and_then(|a| hermetic_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match args.workload.as_deref().and_then(workloads::find) {
        Some(spec) => one_workload(spec, &args),
        None => every_workload(&args),
    };
    done.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
