//! Integration tests of the `nnlqp` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nnlqp"))
}

#[test]
fn platforms_lists_registry() {
    let out = bin().arg("platforms").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("gpu-T4-trt7.1-fp32"));
    assert!(stdout.contains("cpu-openppl-fp32"));
    assert!(stdout.lines().count() >= 12);
}

#[test]
fn export_then_query_roundtrip() {
    let dir = std::env::temp_dir().join("nnlqp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.json");
    let out = bin()
        .args([
            "export-model",
            "--family",
            "SqueezeNet",
            "--output",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    let out = bin()
        .args([
            "query",
            "--model",
            model.to_str().unwrap(),
            "--platform",
            "gpu-T4-trt7.1-fp32",
            "--reps",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"latency_ms\""), "stdout: {stdout}");
    assert!(stdout.contains("\"cache_hit\": false"));
    std::fs::remove_file(&model).ok();
}

#[test]
fn lint_family_reports_clean() {
    let out = bin()
        .args(["lint", "--family", "ResNet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 error(s)"), "stdout: {stdout}");
}

#[test]
fn lint_all_families_json_zero_errors() {
    let out = bin()
        .args(["lint", "--all-families", "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.trim_start().starts_with('['), "stdout: {stdout}");
    // One report per corpus family, each with zero errors.
    assert_eq!(
        stdout.matches("\"errors\":0").count(),
        10,
        "stdout: {stdout}"
    );
}

#[test]
fn lint_nas_sample_extends_corpus() {
    let out = bin()
        .args([
            "lint",
            "--all-families",
            "--json",
            "--nas-sample",
            "3",
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // 10 canonical families + 3 sampled NAS cells, all error-free, each
    // report stamped with the stable schema version.
    assert_eq!(
        stdout.matches("\"errors\":0").count(),
        13,
        "stdout: {stdout}"
    );
    assert_eq!(stdout.matches("\"schema_version\":2").count(), 13);
}

#[test]
fn lint_deny_warnings_is_scriptable() {
    // The clean corpus passes even under --deny-warnings...
    let out = bin()
        .args(["lint", "--family", "ResNet", "--deny-warnings"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...and a warning-carrying graph flips exit 0 -> 1 under the flag.
    let dir = std::env::temp_dir().join("nnlqp-cli-denywarn");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("warn.json");
    // A dead branch is NNL006, warn-severity: conv feeds both a consumed
    // relu chain and an unconsumed sigmoid.
    let mut b = nnlqp_ir::GraphBuilder::new("warny", nnlqp_ir::Shape::nchw(1, 3, 8, 8));
    let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    b.sigmoid(c).unwrap(); // dead
    let r = b.relu(c).unwrap();
    b.relu(r).unwrap();
    let g = b.finish().unwrap();
    std::fs::write(&model, nnlqp_ir::serialize::to_json(&g)).unwrap();
    let out = bin()
        .args(["lint", "--model", model.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "warnings alone pass by default");
    let out = bin()
        .args([
            "lint",
            "--model",
            model.to_str().unwrap(),
            "--deny-warnings",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "--deny-warnings rejects NNL006");
    std::fs::remove_file(&model).ok();
}

#[test]
fn lint_unreadable_model_exits_three() {
    let out = bin()
        .args(["lint", "--model", "/nonexistent-model.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn lint_of_a_too_deeply_nested_file_exits_three() {
    let path = std::env::temp_dir().join(format!("nnlqp-cli-nested-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(100_000)).unwrap();
    let out = bin()
        .args(["lint", "--model", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nesting deeper than 128"));
}

/// A small conv → relu model file, compactly rendered, with `edits`
/// (`from`, `to`) applied once each; lint's exit code and stderr.
fn lint_edited_model(tag: &str, edits: &[(&str, &str)]) -> (Option<i32>, String) {
    let mut b = nnlqp_ir::GraphBuilder::new("edited", nnlqp_ir::Shape::nchw(1, 3, 8, 8));
    let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
    b.relu(c).unwrap();
    let g = b.finish().unwrap();
    let mut text = nnlqp_ir::serialize::to_json(&g)
        .parse::<nnlqp_ir::json::Value>()
        .unwrap()
        .to_string();
    for (from, to) in edits {
        assert!(text.contains(from), "{from} not in {text}");
        text = text.replacen(from, to, 1);
    }
    let path = std::env::temp_dir().join(format!("nnlqp-cli-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = bin()
        .args(["lint", "--model", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn lint_of_a_file_with_out_of_range_integers_exits_three() {
    assert_eq!(lint_edited_model("in-range", &[]).0, Some(0));
    let edits = [
        ("\"kernel\":[3,3]", "\"kernel\":[4294967299,3]"),
        ("\"inputs\":[0]", "\"inputs\":[4294967296]"),
    ];
    for edit in edits {
        let (code, stderr) = lint_edited_model("out-of-range", &[edit]);
        assert_eq!(code, Some(3), "{edit:?}: {stderr}");
    }
}

#[test]
fn lint_of_a_file_json_forbids_exits_three() {
    let cases = [
        ("\"input_shape\":[1,", "\"input_shape\":[01.,"),
        ("\"input_shape\":[1,", "\"input_shape\":[1.,"),
        ("\"name\":\"edited\"", "\"name\":\"\tedited\""),
    ];
    for edit in cases {
        let (code, stderr) = lint_edited_model("forbidden", &[edit]);
        assert_eq!(code, Some(3), "{edit:?}: {stderr}");
    }
}

#[test]
fn lint_unknown_platform_fails() {
    let out = bin()
        .args(["lint", "--family", "ResNet", "--platform", "abacus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown platform"));
}

#[test]
fn bad_arguments_exit_nonzero() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let out = bin()
        .args(["query", "--model", "/nonexistent.json", "--platform", "x"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn unknown_platform_reports_error() {
    let dir = std::env::temp_dir().join("nnlqp-cli-test2");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("m.json");
    bin()
        .args([
            "export-model",
            "--family",
            "AlexNet",
            "--output",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let out = bin()
        .args([
            "query",
            "--model",
            model.to_str().unwrap(),
            "--platform",
            "quantum-accelerator",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown platform"));
    std::fs::remove_file(&model).ok();
}
