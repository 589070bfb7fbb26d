//! Regenerates (or, with `--check`, verifies) the committed golden-trace
//! corpus under `tests/golden/`.
//!
//! ```text
//! cargo run -p netdsl-tools --bin golden             # rewrite fixtures
//! cargo run -p netdsl-tools --bin golden -- --check  # CI gate
//! ```
//!
//! The fixture set is defined once, in
//! `netdsl_protocols::golden::corpus()`; this tool records each scenario
//! under the default engine axes (compiled codec, typestate FSM — the
//! transcript is axis-independent, which
//! `tests/golden_parity.rs` proves by replaying every fixture under the
//! full engine-axis product) and serializes it canonically.
//!
//! `--check` re-records every fixture and fails on any drift from the
//! committed bytes, any missing fixture, and any stale `*.json` file
//! that no longer corresponds to a corpus entry — so both behavioural
//! changes and corpus edits must land together with regenerated
//! fixtures. Exit code 0 when clean, 1 otherwise.

use std::path::PathBuf;
use std::process::ExitCode;

use netdsl_protocols::golden::{corpus, record};

/// Nearest ancestor of the current directory holding `Cargo.lock` — the
/// workspace root, wherever the tool is invoked from.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let mut check = false;
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                println!("usage: golden [--check] [fixtures-dir]");
                return ExitCode::SUCCESS;
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let dir = dir.unwrap_or_else(|| workspace_root().join("tests/golden"));

    let fixtures = corpus();
    let mut problems: Vec<String> = Vec::new();
    let mut expected_files: Vec<String> = Vec::new();

    if !check {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("FAIL: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for scenario in &fixtures {
        let trace = match record(scenario) {
            Ok(trace) => trace,
            Err(e) => {
                problems.push(format!("{}: recording failed: {e}", scenario.name));
                continue;
            }
        };
        let text = trace.to_json_string();
        let file = format!("{}.json", scenario.name);
        let path = dir.join(&file);
        expected_files.push(file.clone());
        let existing = std::fs::read_to_string(&path).ok();
        if check {
            match existing {
                None => problems.push(format!("{file}: missing (run tools/golden to generate)")),
                Some(committed) if committed != text => problems.push(format!(
                    "{file}: drift — re-recorded transcript differs from the committed fixture \
                     ({} vs {} bytes); run tools/golden and review the diff",
                    text.len(),
                    committed.len()
                )),
                Some(_) => println!("ok   {file}: {} events", trace.events.len()),
            }
        } else if existing.as_deref() == Some(text.as_str()) {
            println!("ok   {file}: unchanged ({} events)", trace.events.len());
        } else {
            let verb = if existing.is_some() {
                "rewrote"
            } else {
                "wrote"
            };
            if let Err(e) = std::fs::write(&path, &text) {
                problems.push(format!("{file}: cannot write: {e}"));
            } else {
                println!("{verb} {file}: {} events", trace.events.len());
            }
        }
    }

    // Stale fixtures: files in the corpus directory no scenario claims.
    match std::fs::read_dir(&dir) {
        Ok(entries) => {
            for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if !name.ends_with(".json") || expected_files.iter().any(|f| f == name) {
                    continue;
                }
                if check {
                    problems.push(format!(
                        "{name}: stale fixture — no corpus entry produces it"
                    ));
                } else if let Err(e) = std::fs::remove_file(&path) {
                    problems.push(format!("{name}: stale but cannot remove: {e}"));
                } else {
                    println!("removed stale {name}");
                }
            }
        }
        Err(e) => problems.push(format!("cannot read {}: {e}", dir.display())),
    }

    if problems.is_empty() {
        println!(
            "golden corpus {}: all {} fixtures in sync",
            dir.display(),
            fixtures.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("FAIL {p}");
        }
        ExitCode::FAILURE
    }
}
