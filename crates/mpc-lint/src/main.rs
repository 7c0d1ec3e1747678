//! `mpc-lint` CLI: lint the workspace for panic-reachability and
//! allocation-free hot paths.
//!
//! ```text
//! mpc-lint [ROOT] [--deny] [--json] [--explain <rule>]
//! ```
//!
//! Exit codes: `0` clean (or warn mode), `2` findings under `--deny`,
//! `1` usage or I/O error.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool: its report is its output"
)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: mpc-lint [ROOT] [--deny] [--json] [--explain <rule>]\n\
     \n\
     ROOT              workspace root (default: auto-detected)\n\
     --deny            exit 2 when any finding survives the allowlist\n\
     --json            print the machine-readable report\n\
     --explain <rule>  print the rationale for one rule id and exit\n\
     --list            list all rule ids and exit"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--list" => {
                for (id, _) in mpc_lint::RULES {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(rule) = args.next() else {
                    eprintln!("--explain needs a rule id\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match mpc_lint::explain(&rule) {
                    Some(text) => {
                        println!("{rule}\n\n{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!(
                            "unknown rule `{rule}`; known rules:\n  {}",
                            mpc_lint::RULES
                                .iter()
                                .map(|(id, _)| *id)
                                .collect::<Vec<_>>()
                                .join("\n  ")
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    let root = mpc_lint::resolve_root(root);
    let report = match mpc_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mpc-lint: failed to walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        println!(
            "mpc-lint: {} file(s) scanned, {} finding(s), {} allow(s) applied",
            report.files_scanned,
            report.findings.len(),
            report.allows.len()
        );
        for a in &report.allows {
            println!(
                "  allow {}:{} [{}] — {}",
                a.file, a.line, a.rule, a.justification
            );
        }
    }

    if deny && !report.findings.is_empty() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
