//! Terminal output helpers: aligned tables, CSV, and ASCII line plots.

/// Render rows as an aligned text table. The first row is the header.
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            out.push_str(cell);
            if i + 1 < row.len() {
                out.push_str(&" ".repeat(pad + 2));
            }
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Render rows as CSV (no quoting needed for our numeric/label content;
/// commas in cells are replaced by semicolons defensively).
pub fn render_csv(rows: &[Vec<String>]) -> String {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|c| c.replace(',', ";"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// One plot series: a label and `(x, y)` points.
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points, sorted by x.
    pub points: Vec<(f64, f64)>,
}

/// Minimal ASCII line plot: multiple series on a shared canvas, one glyph
/// per series, optional log-scale y axis (the paper's Figs. 11–12 use one).
pub fn ascii_plot(
    series: &[Series],
    width: usize,
    height: usize,
    log_y: bool,
    x_label: &str,
    y_label: &str,
) -> String {
    const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    let pts = |y: f64| if log_y { y.max(1e-300).log10() } else { y };
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(pts(y));
            ymax = ymax.max(pts(y));
        }
    }
    if !(xmin.is_finite() && ymin.is_finite()) {
        return String::from("(no data)\n");
    }
    if (xmax - xmin).abs() < 1e-300 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-300 {
        ymax = ymin + 1.0;
    }

    let mut canvas = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((pts(y) - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            canvas[row][cx.min(width - 1)] = g;
        }
    }

    let mut out = String::new();
    let y_hi = if log_y {
        format!("{:.3}", 10f64.powf(ymax))
    } else {
        format!("{ymax:.3}")
    };
    let y_lo = if log_y {
        format!("{:.3}", 10f64.powf(ymin))
    } else {
        format!("{ymin:.3}")
    };
    out.push_str(&format!(
        "{y_label}{}\n",
        if log_y { " [log scale]" } else { "" }
    ));
    for (i, row) in canvas.iter().enumerate() {
        let margin = if i == 0 {
            format!("{y_hi:>10} |")
        } else if i == height - 1 {
            format!("{y_lo:>10} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&margin);
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>12}{:<12.3}{:>width$.3}  ({x_label})\n",
        "",
        xmin,
        xmax,
        width = width.saturating_sub(12)
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "      {} {}\n",
            GLYPHS[si % GLYPHS.len()],
            s.label
        ));
    }
    out
}

/// Format a float with engineering-style precision suited to tables.
pub fn fmt_sig(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns_and_underlines_header() {
        let rows = vec![
            vec!["name".to_string(), "value".to_string()],
            vec!["alpha".to_string(), "1".to_string()],
            vec!["b".to_string(), "22".to_string()],
        ];
        let out = render_table(&rows);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value" and "1" start at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1'), Some(col));
    }

    #[test]
    fn empty_table_renders_empty() {
        assert_eq!(render_table(&[]), "");
    }

    #[test]
    fn csv_joins_and_sanitizes() {
        let rows = vec![
            vec!["a".to_string(), "b,c".to_string()],
            vec!["1".to_string(), "2".to_string()],
        ];
        assert_eq!(render_csv(&rows), "a,b;c\n1,2\n");
    }

    #[test]
    fn plot_contains_series_glyphs_and_legend() {
        let s = vec![
            Series {
                label: "one".into(),
                points: vec![(0.0, 0.0), (1.0, 1.0)],
            },
            Series {
                label: "two".into(),
                points: vec![(0.0, 1.0), (1.0, 0.0)],
            },
        ];
        let out = ascii_plot(&s, 40, 10, false, "x", "y");
        assert!(out.contains('*') && out.contains('o'));
        assert!(out.contains("one") && out.contains("two"));
        assert!(out.contains("(x)"));
    }

    #[test]
    fn plot_handles_empty_and_degenerate_input() {
        assert_eq!(ascii_plot(&[], 20, 5, false, "x", "y"), "(no data)\n");
        let s = vec![Series {
            label: "flat".into(),
            points: vec![(1.0, 5.0), (1.0, 5.0)],
        }];
        let out = ascii_plot(&s, 20, 5, false, "x", "y");
        assert!(out.contains('*'));
    }

    #[test]
    fn log_plot_labels_decades() {
        let s = vec![Series {
            label: "l".into(),
            points: vec![(0.0, 1.0), (1.0, 1000.0)],
        }];
        let out = ascii_plot(&s, 20, 5, true, "x", "y");
        assert!(out.contains("log scale"));
        assert!(out.contains("1000.000"));
    }

    #[test]
    fn fmt_sig_picks_sane_precision() {
        assert_eq!(fmt_sig(0.0), "0");
        assert_eq!(fmt_sig(6_048_057.0), "6.048e6");
        assert_eq!(fmt_sig(968.0), "968.0");
        assert_eq!(fmt_sig(1.955), "1.955");
        assert_eq!(fmt_sig(0.7), "0.7000");
        assert_eq!(fmt_sig(0.0001), "1.000e-4");
    }
}
