//! `papctl` end to end: `figures` prints exactly what the `pap-bench`
//! drivers return, `lint` derives its sizes from `--eager`, and bad
//! command lines fail before any work, naming the offending argument.

use std::process::{Command, Output};

fn papctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_papctl")).args(args).output().expect("run papctl")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).expect("utf-8 stderr")
}

#[test]
fn figures_print_the_driver_output() {
    for (name, expected) in [
        ("table1", pap_bench::table1()),
        ("table2", pap_bench::table2()),
        ("fig3", pap_bench::fig3()),
    ] {
        let out = papctl(&["figures", name]);
        assert!(out.status.success(), "figures {name}: {}", stderr(&out));
        assert_eq!(stdout(&out), expected, "figures {name}");
    }
}

#[test]
fn unknown_figure_lists_the_valid_names() {
    let out = papctl(&["figures", "nosuch"]);
    assert!(!out.status.success());
    for name in ["table1", "fig4", "figs789", "ext_skew_factor", "scale_table"] {
        assert!(stderr(&out).contains(name), "missing {name}: {}", stderr(&out));
    }
}

#[test]
fn fig4_rejects_an_unknown_collective() {
    let out = papctl(&["figures", "fig4", "reduc", "--ranks", "16", "--quick"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("reduc"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "no figure may be drawn: {}", stdout(&out));
}

#[test]
fn a_bad_flag_value_names_the_flag() {
    let out = papctl(&["bench", "simcluster", "reduce", "5", "1024", "--ranks", "12x"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--ranks"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "nothing may be measured: {}", stdout(&out));
}

#[test]
fn an_unknown_flag_names_the_flag() {
    let out = papctl(&["bench", "simcluster", "reduce", "5", "1024", "--rnaks", "32"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--rnaks"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "nothing may be measured: {}", stdout(&out));
}

#[test]
fn a_sweep_over_no_algorithms_fails_naming_the_collective() {
    for args in [
        &["sweep", "simcluster", "bcast", "2048", "--ranks", "4"][..],
        &["sweep", "simcluster", "bcast", "2048", "--ranks", "4", "--backend", "model"][..],
        &["sweep", "simcluster", "barrier", "0", "--ranks", "4", "--faults"][..],
    ] {
        let out = papctl(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(stderr(&out).contains("has no selectable algorithms"), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?}: no matrix may be printed: {}", stdout(&out));
    }
}

/// The grid fields both `lint --json` documents carry.
#[derive(Debug, PartialEq, serde::Deserialize)]
struct LintGrid {
    ranks: Vec<usize>,
    sizes: Vec<u64>,
    eager_threshold: u64,
}

#[test]
fn lint_sizes_straddle_the_eager_flag() {
    for (args, sizes) in [
        (&["lint", "--ranks", "4", "--eager", "4096", "--json"][..], vec![128, 4096, 4097, 32768]),
        (&["lint", "--faults", "--ranks", "4", "--eager", "4096", "--json"][..], vec![256, 32768]),
    ] {
        let out = papctl(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let grid: LintGrid = serde_json::from_str(stdout(&out)).expect("one JSON document");
        assert_eq!(grid, LintGrid { ranks: vec![4], sizes, eager_threshold: 4096 }, "{args:?}");
    }
}
