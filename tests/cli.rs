//! `papctl` end to end: `figures` prints exactly what the `pap-bench`
//! drivers return, and bad command lines fail before any work, naming the
//! offending argument.

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
