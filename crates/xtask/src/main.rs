//! Workspace automation tasks.
//!
//! ```text
//! cargo run -p xtask -- lint               # enforce the panic-hygiene ratchet
//! cargo run -p xtask -- lint --bless       # rewrite lint-allow.txt to current counts
//! cargo run -p xtask -- check-trace <path> # validate a --trace output file
//! ```
//!
//! `lint` counts `unwrap(`/`expect(`/`panic!(` in non-test library code and
//! compares each file against the checked-in allowlist (`lint-allow.txt` at
//! the workspace root). A file may only move *down*: any count above its
//! allowance fails the build, pushing new code toward typed errors. Counts
//! below the allowance are reported so the allowance can be ratcheted down
//! with `--bless`.
//!
//! `check-trace` parses a Chrome Trace Event file written by
//! `replay --trace` (or a figure binary's `--trace`) with the workspace JSON
//! codec and validates its structure: the `traceEvents` array is present,
//! events carry the complete-event fields (`ph:"X"`, `ts`, `dur`, `pid`,
//! `tid`), a `job` span exists and at least one event nests under a job via
//! `args.parent_id`. CI runs it after the replay trace smoke.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use telemetry::json::{self, Value};

const ALLOWLIST: &str = "lint-allow.txt";
const PATTERNS: [&str; 3] = ["unwrap(", "expect(", "panic!("];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(args.iter().any(|a| a == "--bless")),
        Some("check-trace") => match args.get(1) {
            Some(path) => check_trace(Path::new(path)),
            None => {
                eprintln!("usage: cargo run -p xtask -- check-trace <path>");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--bless] | check-trace <path>");
            ExitCode::from(2)
        }
    }
}

/// Structural validation of a Chrome Trace Event file. The telemetry
/// exporter emits one complete event (`ph:"X"`) per span with `span_id` /
/// `parent_id` args; this checks the shape a Perfetto import relies on.
fn check_trace(path: &Path) -> ExitCode {
    let checked = std::fs::read_to_string(path)
        .map_err(|err| vec![format!("cannot read it: {err}")])
        .and_then(|text| trace_problems(&text));
    let (events, jobs) = match checked {
        Ok(counts) => counts,
        Err(problems) => {
            eprintln!(
                "xtask check-trace: {} is not a valid trace:",
                path.display()
            );
            for problem in &problems {
                eprintln!("  {problem}");
            }
            return ExitCode::FAILURE;
        }
    };
    let path = path.display();
    eprintln!("xtask check-trace: ok — {events} events, {jobs} job spans in {path}");
    ExitCode::SUCCESS
}

/// Checks a trace document; `Ok((events, job spans))` when it is valid,
/// otherwise every problem found.
fn trace_problems(text: &str) -> Result<(usize, usize), Vec<String>> {
    let trace = json::parse(text).map_err(|err| vec![format!("not JSON: {err}")])?;
    let Some(events) = trace.get("traceEvents").and_then(Value::as_array) else {
        return Err(vec!["missing top-level traceEvents array".to_string()]);
    };
    let mut problems = Vec::new();
    if events.is_empty() {
        problems.push("no trace events at all".to_string());
    }
    let is_job = |e: &Value| e.get("name").and_then(Value::as_str) == Some("job");
    let arg = |e: &Value, key: &str| e.get("args")?.get(key)?.as_u64();
    // Complete events: `ph` is "X"; `ts`, `dur`, `pid` and `tid` are numbers.
    for (field, wanted) in [
        ("ph", Some("X")),
        ("ts", None),
        ("dur", None),
        ("pid", None),
        ("tid", None),
    ] {
        let n = events
            .iter()
            .filter(|e| match (e.get(field), wanted) {
                (Some(value), Some(wanted)) => value.as_str() == Some(wanted),
                (Some(value), None) => value.as_f64().is_some(),
                (None, _) => false,
            })
            .count();
        if n != events.len() {
            problems.push(format!(
                "{n} of {} events carry a valid {field:?}",
                events.len()
            ));
        }
    }
    // The span tree must be there: a job span exists and at least one other
    // event points back at a job span via parent_id.
    let job_ids: Vec<u64> = events
        .iter()
        .filter(|e| is_job(e))
        .filter_map(|e| arg(e, "span_id"))
        .collect();
    if job_ids.is_empty() {
        problems.push("no \"job\" span in the trace".to_string());
    } else if !events
        .iter()
        .filter(|e| !is_job(e))
        .filter_map(|e| arg(e, "parent_id"))
        .any(|parent| job_ids.contains(&parent))
    {
        problems.push("no event nests under a job span via parent_id".to_string());
    }
    if problems.is_empty() {
        Ok((events.len(), job_ids.len()))
    } else {
        Err(problems)
    }
}

fn lint(bless: bool) -> ExitCode {
    let root = workspace_root();
    let counts = scan_workspace(&root);
    let allow_path = root.join(ALLOWLIST);
    if bless {
        let mut out = String::from(
            "# Panic-hygiene ratchet: `<count> <file>` pairs counting unwrap(/expect(/panic!(\n\
             # in non-test library code. Counts may only decrease; regenerate with\n\
             # `cargo run -p xtask -- lint --bless` after burning one down.\n",
        );
        for (file, count) in &counts {
            out.push_str(&format!("{count} {file}\n"));
        }
        std::fs::write(&allow_path, out).expect("write allowlist");
        eprintln!(
            "xtask lint: blessed {} files, {} findings total",
            counts.len(),
            counts.values().sum::<usize>()
        );
        return ExitCode::SUCCESS;
    }

    let allowed = read_allowlist(&allow_path);
    let mut regressions = Vec::new();
    let mut slack = Vec::new();
    for (file, &count) in &counts {
        let budget = allowed.get(file).copied().unwrap_or(0);
        if count > budget {
            regressions.push(format!("{file}: {count} findings (allowance {budget})"));
        } else if count < budget {
            slack.push(format!("{file}: {count} findings (allowance {budget})"));
        }
    }
    for (file, budget) in &allowed {
        if !counts.contains_key(file) && *budget > 0 {
            slack.push(format!("{file}: 0 findings (allowance {budget})"));
        }
    }

    if !slack.is_empty() {
        eprintln!("xtask lint: allowance slack (ratchet down with --bless):");
        for line in &slack {
            eprintln!("  {line}");
        }
    }
    if regressions.is_empty() {
        eprintln!(
            "xtask lint: ok — {} findings across {} files, none over allowance",
            counts.values().sum::<usize>(),
            counts.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: panic-hygiene regressions (prefer typed errors):");
        for line in &regressions {
            eprintln!("  {line}");
        }
        ExitCode::FAILURE
    }
}

/// Counts pattern hits per workspace-relative file, library code only: every
/// `crates/*/src/**/*.rs` except binaries (`src/bin/`), this tool itself and
/// anything from the first `#[cfg(test)]` marker onward (test modules sit at
/// the end of files in this workspace).
fn scan_workspace(root: &Path) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    let crates = root.join("crates");
    let mut stack = vec![crates.clone()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                // Only descend into src/ trees; skip bin targets and xtask.
                let is_crate_root = path.parent() == Some(crates.as_path());
                let keep = if is_crate_root {
                    name != "xtask"
                } else {
                    name != "bin" && path.components().any(|c| c.as_os_str() == "src")
                        || name == "src"
                };
                if keep {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let count = count_findings(&path);
                if count > 0 {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    counts.insert(rel, count);
                }
            }
        }
    }
    counts
}

fn count_findings(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    let mut count = 0;
    for line in text.lines() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        let code = line.split("//").next().unwrap_or(line);
        count += PATTERNS
            .iter()
            .map(|p| code.matches(p).count())
            .sum::<usize>();
    }
    count
}

fn read_allowlist(path: &Path) -> BTreeMap<String, usize> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!(
            "xtask lint: missing {} — generate it with `cargo run -p xtask -- lint --bless`",
            path.display()
        );
        return BTreeMap::new();
    };
    let mut allowed = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((count, file)) = line.split_once(' ') {
            if let Ok(count) = count.parse::<usize>() {
                allowed.insert(file.trim().to_string(), count);
            }
        }
    }
    allowed
}

/// The workspace root: this file lives at `crates/xtask/src/main.rs`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask sits two levels under the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::trace_problems;
    use telemetry::json::Value;

    /// One complete event as the telemetry exporter writes it.
    fn event(name: &str, span_id: u64, parent_id: u64, args: Vec<(&str, Value)>) -> Value {
        let ids = [
            ("span_id", Value::from(span_id)),
            ("parent_id", Value::from(parent_id)),
        ];
        Value::object([
            ("name", Value::from(name)),
            ("ph", Value::from("X")),
            ("ts", Value::from(10u64)),
            ("dur", Value::from(5u64)),
            ("pid", Value::from(1u64)),
            ("tid", Value::from(2u64)),
            ("args", Value::object(ids.into_iter().chain(args))),
        ])
    }

    fn trace(events: Vec<Value>) -> String {
        Value::object([("traceEvents", Value::Array(events))]).to_string()
    }

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let text = trace(vec![
            event("compile", 2, 1, vec![]),
            event("job", 1, 0, vec![]),
        ]);
        assert_eq!(trace_problems(&text), Ok((2, 1)));
    }

    #[test]
    fn rejects_broken_traces_with_the_reason() {
        let job = || event("job", 1, 0, vec![]);
        let mut no_ph = event("compile", 2, 1, vec![]);
        if let Value::Object(fields) = &mut no_ph {
            fields.retain(|(key, _)| key != "ph");
        }
        // No real job span: "job" only appears inside a string attribute and
        // a nested args object, which a substring search would mistake for one.
        let fake_job = vec![
            ("note", Value::from(r#"{"name":"job","span_id":1}"#)),
            (
                "detail",
                Value::object([("name", Value::from("job")), ("span_id", Value::from(1u64))]),
            ),
        ];
        for (text, needle) in [
            (
                trace(vec![no_ph, job()]),
                "1 of 2 events carry a valid \"ph\"",
            ),
            (
                trace(vec![event("compile", 2, 1, vec![])]),
                "no \"job\" span",
            ),
            (
                trace(vec![event("compile", 2, 9, vec![]), job()]),
                "no event nests under a job",
            ),
            (
                trace(vec![event("compile", 2, 1, fake_job)]),
                "no \"job\" span",
            ),
            (trace(Vec::new()), "no trace events"),
            (
                "{\"events\":[]}".to_string(),
                "missing top-level traceEvents",
            ),
            ("{\"traceEvents\":[".to_string(), "not JSON"),
        ] {
            let problems = trace_problems(&text).expect_err(&text).join("\n");
            assert!(problems.contains(needle), "{text}: {problems}");
        }
    }
}
