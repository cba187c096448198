//! `repro`'s command line: a mistyped subcommand must fail loudly instead
//! of printing the run header and exiting 0.

use std::process::Command;

#[test]
fn unknown_subcommand_exits_with_status_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bogus")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing is printed before the check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand `bogus`"), "{err}");
    assert!(err.contains("ablations|summary|disasm"), "{err}");
}
