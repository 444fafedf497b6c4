//! End-to-end tests of the `nwc-cli` binary (generate → query → stats).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nwc-cli"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nwc_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn no_args_prints_usage() {
    let out = cli().output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nwc-cli"));
    assert!(text.contains("query"));
}

#[test]
fn unknown_command_fails() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_query_stats_pipeline() {
    let data = tmp("pipeline.csv");
    let out = cli()
        .args(["gen", "ca", "3000", data.to_str().unwrap(), "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 3000 points"));

    let out = cli()
        .args([
            "query",
            data.to_str().unwrap(),
            "5000",
            "5000",
            "128",
            "4",
            "nwc*",
            "max",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("NWC(") || text.contains("no 128x128 window"),
        "unexpected output: {text}"
    );

    let out = cli().args(["stats", data.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("objects:      3000"));
    assert!(text.contains("density grid"));

    let out = cli()
        .args(["maxrs", data.to_str().unwrap(), "200"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("MaxRS(200x200)"));

    let out = cli()
        .args([
            "knwc",
            data.to_str().unwrap(),
            "5000",
            "5000",
            "200",
            "4",
            "2",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("kNWC(k=2"));

    std::fs::remove_file(data).unwrap();
}

#[test]
fn knwc_rejects_overlap_bound_at_or_above_n() {
    let data = tmp("knwc_bounds.csv");
    std::fs::write(&data, "1.0,1.0\n2.0,2.0\n3.0,3.0\n").unwrap();
    let out = cli()
        .args(["knwc", data.to_str().unwrap(), "0", "0", "8", "2", "2", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("overlap bound"));
    std::fs::remove_file(data).unwrap();
}

#[test]
fn query_rejects_bad_arguments() {
    let out = cli().args(["query", "/nonexistent.csv", "0", "0", "8", "8"]).output().unwrap();
    assert!(!out.status.success());

    let data = tmp("bad_args.csv");
    std::fs::write(&data, "1.0,1.0\n2.0,2.0\n").unwrap();
    let out = cli()
        .args(["query", data.to_str().unwrap(), "0", "0", "8", "abc"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
    std::fs::remove_file(data).unwrap();
}
