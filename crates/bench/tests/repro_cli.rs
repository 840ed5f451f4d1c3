//! The `repro` command line on paths that run no section: `--diff-bench`
//! exit codes on the golden BENCH files and on damaged copies of them
//! (0 pass, 1 mismatch, 2 unreadable or malformed), and the rejection of
//! section flags other than `--section`.

use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");

/// Run `repro` with `args` and return its exit code.
fn repro(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts");
    out.status.code().expect("repro exits with a code")
}

fn golden(section: &str) -> PathBuf {
    Path::new(GOLDEN_DIR).join(format!("BENCH_{section}.quick.json"))
}

fn golden_text(section: &str) -> String {
    std::fs::read_to_string(golden(section)).expect("golden file reads")
}

/// Write `text` as `name` in Cargo's scratch directory for integration
/// tests and diff it against `section`'s golden copy.
fn diff_against_golden(section: &str, name: &str, text: &str) -> i32 {
    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&actual, text).expect("scratch file writes");
    let golden = golden(section);
    repro(&[
        "--diff-bench",
        actual.to_str().expect("UTF-8 path"),
        golden.to_str().expect("UTF-8 path"),
    ])
}

/// `text` with the number after the first key ending in `suffix` replaced
/// by `value`.
fn set_first(text: &str, suffix: &str, value: &str) -> String {
    let key = format!("{suffix}\": ");
    let at = text.find(&key).expect("the key is present") + key.len();
    let len = text[at..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("the number ends");
    format!("{}{value}{}", &text[..at], &text[at + len..])
}

#[test]
fn every_golden_diffs_clean_against_itself() {
    let mut goldens = 0;
    for entry in std::fs::read_dir(GOLDEN_DIR).expect("golden directory reads") {
        let path = entry.expect("directory entry reads").path();
        let path = path.to_str().expect("UTF-8 path");
        assert_eq!(repro(&["--diff-bench", path, path]), 0, "{path}");
        goldens += 1;
    }
    assert_eq!(goldens, 11, "one golden per golden-gated section");
}

#[test]
fn a_truncated_or_invalid_file_exits_2() {
    let text = golden_text("fig7");
    let (cut, last) = text.trim_end().rsplit_once('\n').expect("several lines");
    assert_eq!(last, "}");
    for (name, damaged) in [
        ("truncated", cut.to_string()),
        ("double_comma", text.replacen(",\n", ",,\n", 1)),
        (
            "repeated_key",
            text.replacen('\n', "\n  \"quick\": true,\n", 1),
        ),
    ] {
        assert_ne!(damaged, text, "{name}");
        let exit = diff_against_golden("fig7", &format!("{name}.json"), &damaged);
        assert_eq!(exit, 2, "{name}");
    }
}

#[test]
fn an_exact_change_exits_1_and_a_timing_change_exits_0() {
    let text = golden_text("server_throughput");
    let exact = set_first(&text, "\"rows", "999");
    assert_ne!(exact, text);
    assert_eq!(
        diff_against_golden("server_throughput", "exact_drift.json", &exact),
        1
    );
    let timing = set_first(&text, "_micros", "987654321");
    assert_ne!(timing, text);
    assert_eq!(
        diff_against_golden("server_throughput", "timing_drift.json", &timing),
        0
    );
}

#[test]
fn legacy_figure_flags_are_rejected() {
    assert_eq!(repro(&["--fig5"]), 2);
}
