//! Small text-table helpers shared by the experiment harnesses.

/// Formats a row of columns with fixed widths, right-aligning numbers.
fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>width$}", width = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders a full table: header, separator, rows.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    for r in rows {
        out.push_str(&row(r, &widths));
        out.push('\n');
    }
    out
}

/// Percentage with one decimal ("98.3%").
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Bytes as human-readable GB/MB/KB.
pub fn bytes_h(b: u64) -> String {
    const GB: f64 = 1e9;
    const MB: f64 = 1e6;
    const KB: f64 = 1e3;
    let b = b as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.2} MB", b / MB)
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.983), "98.3%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn bytes_scale() {
        assert_eq!(bytes_h(500), "500 B");
        assert_eq!(bytes_h(2_500), "2.5 KB");
        assert_eq!(bytes_h(3_200_000), "3.20 MB");
        assert_eq!(bytes_h(12_260_000_000), "12.26 GB");
    }
}
