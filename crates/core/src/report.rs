//! Plain-text rendering of the paper's figure semantics (the `pap-bench`
//! drivers behind `papctl figures` print these).

use crate::matrix::BenchMatrix;

/// Render a generic table: `values[row][col]`, formatted by `fmt`, with an
/// extra mark from `mark(row, col)` appended to each cell (e.g. `*` for the
/// best algorithm, `+` for the good set).
pub(crate) fn render_table(
    title: &str,
    col_names: &[String],
    row_names: &[String],
    values: &[Vec<f64>],
    fmt: impl Fn(f64) -> String,
    mark: impl Fn(usize, usize) -> char,
) -> String {
    let mut cells: Vec<Vec<String>> = Vec::new();
    for (r, row) in values.iter().enumerate() {
        cells.push(
            row.iter()
                .enumerate()
                .map(|(c, &v)| {
                    let m = mark(r, c);
                    if m == ' ' {
                        fmt(v)
                    } else {
                        format!("{}{m}", fmt(v))
                    }
                })
                .collect(),
        );
    }
    let row_w = row_names.iter().map(|s| s.len()).max().unwrap_or(0).max(8);
    let col_w: Vec<usize> = col_names
        .iter()
        .enumerate()
        .map(|(c, name)| cells.iter().map(|row| row[c].len()).chain([name.len()]).max().unwrap_or(6))
        .collect();

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:row_w$}", ""));
    for (c, name) in col_names.iter().enumerate() {
        out.push_str(&format!("  {:>w$}", name, w = col_w[c]));
    }
    out.push('\n');
    for (r, rname) in row_names.iter().enumerate() {
        out.push_str(&format!("{rname:row_w$}"));
        for (c, cell) in cells[r].iter().enumerate() {
            out.push_str(&format!("  {:>w$}", cell, w = col_w[c]));
        }
        out.push('\n');
    }
    out
}

/// Fig. 5-style rendering: runtimes in milliseconds with `*` on the fastest
/// per row and `+` on the rest of the within-`tol` good set.
pub fn render_runtime_table(m: &BenchMatrix, tol: f64) -> String {
    let col_names: Vec<String> = m.algs.iter().map(|a| format!("A{a}")).collect();
    let good: Vec<Vec<bool>> = m
        .patterns
        .iter()
        .map(|p| {
            let set = m.good_set(p, tol).unwrap_or_default();
            m.algs.iter().map(|a| set.contains(a)).collect()
        })
        .collect();
    let best: Vec<usize> = m
        .values
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();
    render_table(
        &format!("{} {} B — mean last delay d̂ [ms] (*: fastest, +: within {:.0}%)", m.kind, m.bytes, tol * 100.0),
        &col_names,
        &m.patterns,
        &m.values,
        |v| format!("{:.3}", v * 1e3),
        |r, c| {
            if best[r] == c {
                '*'
            } else if good[r][c] {
                '+'
            } else {
                ' '
            }
        },
    )
}

/// Fig. 8-style rendering: row-normalized values with the `Avg` row
/// appended, absolute times in parentheses.
pub fn render_normalized_table(m: &BenchMatrix, exclude_from_avg: &[&str]) -> String {
    let norm = m.normalized_rows();
    let avg = m.avg_normalized(exclude_from_avg);
    let col_names: Vec<String> = m.algs.iter().map(|a| format!("A{a}")).collect();
    let mut rows = m.patterns.clone();
    rows.push(if exclude_from_avg.is_empty() {
        "Avg".to_string()
    } else {
        format!("Avg (excl. {})", exclude_from_avg.join(","))
    });
    let mut values = norm.clone();
    values.push(avg);
    let mut out = render_table(
        &format!("{} {} B — normalized d̂ (1.0 = fastest per row)", m.kind, m.bytes),
        &col_names,
        &rows,
        &values,
        |v| format!("{v:.2}"),
        |r, c| {
            if r < norm.len() && norm[r][c] <= 1.0 + 1e-12 {
                '*'
            } else {
                ' '
            }
        },
    );
    out.push_str("absolute d̂ [ms]:\n");
    for (r, p) in m.patterns.iter().enumerate() {
        let abs: Vec<String> = m.values[r].iter().map(|v| format!("{:.3}", v * 1e3)).collect();
        out.push_str(&format!("  {p}: ({})\n", abs.join(", ")));
    }
    out
}

/// Fig. 6-style rendering: robustness classes as `-` (green, absorbs skew),
/// `.` (neutral), `#` (red, degrades), with the numeric value.
pub fn render_robustness_table(m: &BenchMatrix, threshold: f64) -> Option<String> {
    let vals = m.robustness_vs_no_delay()?;
    let classes = m.robustness_classes(threshold)?;
    let col_names: Vec<String> = m.algs.iter().map(|a| format!("A{a}")).collect();
    Some(render_table(
        &format!(
            "{} {} B — robustness (d̂_pattern/d̂_no_delay − 1; -:≥{:.0}% faster, #:≥{:.0}% slower)",
            m.kind,
            m.bytes,
            threshold * 100.0,
            threshold * 100.0
        ),
        &col_names,
        &m.patterns,
        &vals,
        |v| format!("{v:+.3}"),
        |r, c| match classes[r][c] {
            -1 => '-',
            1 => '#',
            _ => ' ',
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_collectives::CollectiveKind;

    fn matrix() -> BenchMatrix {
        BenchMatrix {
            kind: CollectiveKind::Reduce,
            bytes: 8,
            algs: vec![5, 6],
            patterns: vec!["no_delay".into(), "last_delayed".into()],
            values: vec![vec![1e-5, 1.04e-5], vec![5e-5, 1.2e-5]],
        }
    }

    #[test]
    fn runtime_table_marks_best_and_good() {
        let s = render_runtime_table(&matrix(), 0.05);
        assert!(s.contains("A5") && s.contains("A6"));
        assert!(s.contains('*'));
        assert!(s.contains('+'), "alg 6 is within 5% at no_delay:\n{s}");
        assert!(s.contains("no_delay") && s.contains("last_delayed"));
    }

    #[test]
    fn normalized_table_has_avg_row() {
        let s = render_normalized_table(&matrix(), &[]);
        assert!(s.contains("Avg"));
        assert!(s.contains("1.00"));
        assert!(s.contains("absolute d̂"));
    }

    #[test]
    fn robustness_table_classifies() {
        let s = render_robustness_table(&matrix(), 0.25).unwrap();
        // Alg 5 slows 5x under last_delayed → '#' mark.
        assert!(s.contains('#'), "{s}");
        assert!(s.contains("+4.000"), "{s}");
    }

    #[test]
    fn generic_table_alignment_smoke() {
        let s = render_table(
            "t",
            &["a".into(), "bb".into()],
            &["row1".into()],
            &[vec![1.0, 2.0]],
            |v| format!("{v:.1}"),
            |_, _| ' ',
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
    }
}
