//! `--compare A.json B.json`: B against A, each workload in its own row.
//! Fails when an end-to-end metric is worse by more than its bound, when
//! an exact metric differs at all, or when either side failed a check.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err(format!(
            "{}: a --quick run is not comparable",
            path.display()
        ));
    }
    Ok(v)
}

fn metric(run: &Value, workload: &str, name: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    for key in ["seed", "pmis_seed", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two runs differ in {key}"));
        }
    }
    let mut ok = true;
    println!(
        "{:<20} {:<36} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for w in WORKLOADS {
        for side in [a, b] {
            let failed = side
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|r| r.get("failed"))
                .and_then(Value::as_f64);
            if failed != Some(0.0) {
                println!("{:<20} failed checks: {failed:?}  FAIL", w.name);
                ok = false;
            }
        }
        for m in END_TO_END {
            let (Some(x), Some(y)) = (metric(a, w.name, m.name), metric(b, w.name, m.name)) else {
                continue;
            };
            let worse = if m.higher_is_better { x / y } else { y / x } - 1.0;
            let pass = worse <= m.bound;
            ok &= pass;
            println!(
                "{:<20} {:<36} {:>14.4} {:>14.4} {:>9.4}  {} (bound {})",
                w.name,
                m.name,
                x,
                y,
                y / x,
                if pass { "ok" } else { "FAIL" },
                m.bound
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (Some(x), Some(y)) = (metric(a, w.name, m.name), metric(b, w.name, m.name)) else {
                continue;
            };
            let pass = x.to_bits() == y.to_bits();
            ok &= pass;
            println!(
                "{:<20} {:<36} {:>14.4} {:>14.4} {:>9.4}  {}",
                w.name,
                m.name,
                x,
                y,
                y / x,
                if pass { "equal" } else { "FAIL: must be equal" }
            );
        }
    }
    Ok(ok)
}

pub fn files(a: &Path, b: &Path) -> ExitCode {
    match load(a).and_then(|a| load(b).and_then(|b| compare(&a, &b))) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
