//! Table printers and the summary statistics the paper quotes.

use crate::runner::Row;

/// Aggregate statistics over one experiment, mirroring §V-A/§V-B's claims.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Combinations where the first mapper produced a mapping.
    pub mapped: usize,
    /// Combinations where the first mapper hit the theoretical MII.
    pub optimal: usize,
    /// Combinations within MII + 1.
    pub near_optimal: usize,
    /// Total combinations.
    pub total: usize,
    /// Geometric-mean II ratio (other / first) per comparison mapper —
    /// the paper's "performance speedup". Only combinations both mapped
    /// count.
    pub speedup_vs: Vec<(String, f64, usize)>,
    /// Geometric-mean time ratio (other / first) per comparison mapper —
    /// the paper's "compilation time reduction".
    pub time_reduction_vs: Vec<(String, f64, usize)>,
    /// Failures per mapper (name, count).
    pub failures: Vec<(String, usize)>,
}

/// Computes the summary, treating `rows[*].results[0]` as the subject
/// (Rewire in the paper's tables).
pub fn summarize(rows: &[Row]) -> Summary {
    let mut s = Summary {
        total: rows.len(),
        ..Default::default()
    };
    if rows.is_empty() {
        return s;
    }
    let num_mappers = rows[0].results.len();
    let mut fails = vec![0usize; num_mappers];
    let mut speed: Vec<(f64, usize)> = vec![(0.0, 0); num_mappers];
    let mut time: Vec<(f64, usize)> = vec![(0.0, 0); num_mappers];
    for row in rows {
        let subject = &row.results[0];
        if let Some(ii) = subject.achieved_ii {
            s.mapped += 1;
            if ii == row.mii {
                s.optimal += 1;
            }
            if ii <= row.mii + 1 {
                s.near_optimal += 1;
            }
        }
        for (i, r) in row.results.iter().enumerate() {
            if r.achieved_ii.is_none() {
                fails[i] += 1;
            }
            if i == 0 {
                continue;
            }
            if let (Some(a), Some(b)) = (subject.achieved_ii, r.achieved_ii) {
                speed[i].0 += (b as f64 / a as f64).ln();
                speed[i].1 += 1;
            }
            let ta = subject.elapsed.as_secs_f64().max(1e-6);
            let tb = r.elapsed.as_secs_f64().max(1e-6);
            time[i].0 += (tb / ta).ln();
            time[i].1 += 1;
        }
    }
    for (i, r) in rows[0].results.iter().enumerate() {
        s.failures.push((r.mapper.clone(), fails[i]));
        if i > 0 {
            let (ls, ns) = speed[i];
            let (lt, nt) = time[i];
            s.speedup_vs.push((
                r.mapper.clone(),
                if ns > 0 {
                    (ls / ns as f64).exp()
                } else {
                    f64::NAN
                },
                ns,
            ));
            s.time_reduction_vs.push((
                r.mapper.clone(),
                if nt > 0 {
                    (lt / nt as f64).exp()
                } else {
                    f64::NAN
                },
                nt,
            ));
        }
    }
    s
}

/// An achieved II, or `-` for a failed run.
pub(crate) fn fmt_ii(ii: Option<u32>) -> String {
    ii.map_or("-".into(), |x| x.to_string())
}

/// Prints a Fig-5-style quality table (II per mapper, MII reference).
pub fn print_fig5(rows: &[Row]) {
    let mut config = "";
    for row in rows {
        if row.config != config {
            config = row.config;
            println!("\n== Fig 5: {} ==", config);
            print!("{:<14} {:>4}", "kernel", "MII");
            for r in &row.results {
                print!(" {:>7}", r.mapper);
            }
            println!();
        }
        print!("{:<14} {:>4}", row.kernel, row.mii);
        for r in &row.results {
            print!(" {:>7}", fmt_ii(r.achieved_ii));
        }
        println!();
    }
    let s = summarize(rows);
    println!(
        "\nRewire: mapped {}/{}, optimal {} / near-optimal {} (gap ≤ 1)",
        s.mapped, s.total, s.optimal, s.near_optimal
    );
    for (name, ratio, n) in &s.speedup_vs {
        println!("performance speedup vs {name}: {ratio:.2}x over {n} common combinations");
    }
    for (name, fails) in &s.failures {
        println!("{name}: {fails} failures");
    }
}

/// Prints a Fig-6-style compilation-time table (seconds, log-scale in the
/// paper; raw numbers here).
pub fn print_fig6(rows: &[Row]) {
    let mut config = "";
    for row in rows {
        if row.config != config {
            config = row.config;
            println!("\n== Fig 6: {} (compilation time, s) ==", config);
            print!("{:<14}", "kernel");
            for r in &row.results {
                print!(" {:>9}", r.mapper);
            }
            println!();
        }
        print!("{:<14}", row.kernel);
        for r in &row.results {
            print!(" {:>9.2}", r.elapsed.as_secs_f64());
        }
        println!();
    }
    let s = summarize(rows);
    for (name, ratio, n) in &s.time_reduction_vs {
        println!("compilation time reduction vs {name}: {ratio:.2}x over {n} combinations");
    }
}

/// Prints Table I: average single-node remapping iterations per explored II
/// for the baseline mappers.
pub fn print_table1(rows: &[Row]) {
    let mut config = "";
    for row in rows {
        if row.config != config {
            config = row.config;
            println!("\n== Table I: {} (remapping iterations per II) ==", config);
            print!("{:<14}", "kernel");
            for r in &row.results {
                print!(" {:>9}", r.mapper);
            }
            println!();
        }
        print!("{:<14}", row.kernel);
        for r in &row.results {
            print!(" {:>9.0}", r.remap_iterations_per_ii());
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_mappers::MapStats;
    use std::time::Duration;

    fn row(mii: u32, subject: Option<u32>, other: Option<u32>) -> Row {
        Row {
            config: "test",
            kernel: "k".into(),
            mii,
            results: vec![
                MapStats {
                    mapper: "Rewire".into(),
                    achieved_ii: subject,
                    elapsed: Duration::from_secs(1),
                    ..MapStats::default()
                },
                MapStats {
                    mapper: "PF*".into(),
                    achieved_ii: other,
                    elapsed: Duration::from_secs(4),
                    ..MapStats::default()
                },
            ],
            rewire: Default::default(),
        }
    }

    #[test]
    fn summary_counts_optimal_and_near_optimal() {
        let rows = vec![
            row(3, Some(3), Some(6)),
            row(3, Some(4), Some(4)),
            row(3, None, Some(5)),
        ];
        let s = summarize(&rows);
        assert_eq!(s.mapped, 2);
        assert_eq!(s.optimal, 1);
        assert_eq!(s.near_optimal, 2);
        assert_eq!(s.total, 3);
    }

    #[test]
    fn summary_speedup_is_geomean_of_ratios() {
        // Ratios 2.0 and 1.0 => geomean sqrt(2).
        let rows = vec![row(3, Some(3), Some(6)), row(3, Some(4), Some(4))];
        let s = summarize(&rows);
        let (_, ratio, n) = &s.speedup_vs[0];
        assert_eq!(*n, 2);
        assert!((ratio - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn summary_time_reduction() {
        let rows = vec![row(3, Some(3), Some(6))];
        let s = summarize(&rows);
        let (_, ratio, _) = &s.time_reduction_vs[0];
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn summary_counts_failures() {
        let rows = vec![row(3, None, Some(5)), row(3, Some(3), None)];
        let s = summarize(&rows);
        assert_eq!(s.failures[0], ("Rewire".to_string(), 1));
        assert_eq!(s.failures[1], ("PF*".to_string(), 1));
    }

    #[test]
    fn empty_rows_are_fine() {
        let s = summarize(&[]);
        assert_eq!(s.total, 0);
    }
}
