//! CSV rendering for sweeps, and the one x-value formatter.

use nsr_core::sweep::Sweep;

/// Renders a [`Sweep`] as a CSV document: one row per x value, one column
/// per configuration (events per PB-year; empty cell = infeasible).
pub fn sweep_csv(sweep: &Sweep) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} ({})", sweep.x_name, sweep.x_unit));
    for c in sweep.configs() {
        out.push(',');
        // Configuration names contain commas ("FT 2, Internal RAID 5"):
        // quote them per RFC 4180.
        out.push_str(&format!("\"{c}\""));
    }
    out.push('\n');
    for row in &sweep.rows {
        out.push_str(&trim_float(row.x));
        for cell in &row.cells {
            out.push(',');
            if let Some(r) = cell.reliability {
                out.push_str(&format!("{:.6e}", r.events_per_pb_year));
            }
        }
        out.push('\n');
    }
    out
}

/// Formats a float without trailing `.0` noise for integral values.
pub fn trim_float(x: f64) -> String {
    if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.1e}")
    } else if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsr_core::params::Params;
    use nsr_core::sweep::figure_sweep;

    #[test]
    fn csv_shape() {
        let s = figure_sweep(17, &Params::baseline(), 1).unwrap();
        let csv = sweep_csv(&s);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + s.rows.len());
        assert!(lines[0].starts_with("link speed (Gb/s)"));
        // Config names are quoted; unquoted comma counts match per line.
        assert!(lines[0].contains("\"FT 2, Internal RAID 5\""));
        let data_commas = lines[1].matches(',').count();
        assert!(lines[1..]
            .iter()
            .all(|l| l.matches(',').count() == data_commas));
        assert_eq!(data_commas, 3); // x + three configurations
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(64.0), "64");
        assert_eq!(trim_float(0.75), "0.75");
    }
}
