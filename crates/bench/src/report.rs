//! Text-table printing and JSON result persistence.

use std::path::Path;

/// Print a fixed-width table: `headers` then one row per entry.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<w$}", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(ToString::to_string).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write a JSON value under `<out_dir>/<name>.json` (no-op if out_dir is
/// None).
pub fn save_json(out_dir: &Option<std::path::PathBuf>, name: &str, value: &nnlqp_ir::json::Value) {
    let Some(dir) = out_dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path: std::path::PathBuf = Path::new(dir).join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.to_string_pretty()) {
        eprintln!("warning: cannot write {path:?}: {e}");
    } else {
        eprintln!("(results saved to {})", path.display());
    }
}

/// Format a percentage with two decimals, paper style.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// Format a float with `d` decimals.
pub fn num(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_num_format() {
        assert_eq!(pct(12.306), "12.31%");
        assert_eq!(num(2.99792, 2), "3.00");
    }

    #[test]
    fn save_json_noop_without_dir() {
        save_json(&None, "x", &nnlqp_ir::json!({"a": 1}));
    }

    #[test]
    fn save_json_writes_file() {
        let dir = std::env::temp_dir().join("nnlqp-bench-test");
        save_json(&Some(dir.clone()), "unit", &nnlqp_ir::json!({"ok": true}));
        let content = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        assert!(content.contains("\"ok\": true"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
