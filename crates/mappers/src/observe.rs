//! The observe directory: one layout for every artifact a set of runs
//! leaves behind.
//!
//! `--observe DIR` on `repro`, `rewire-map` and
//! `rewire-fuzz` switches the flight recorder and the Chrome span
//! collector on before mapping starts ([`enable_collectors`]) and writes
//! DIR once the runs are done ([`write()`]). DIR always holds four files:
//!
//! * [`RUNS`] — one [`MapStats::to_json`] line per run, in run order;
//! * [`METRICS`] — the global registry's [`Snapshot`];
//! * [`FLIGHT`] — the flight recorder's log ([`FlightLog::to_json`]);
//! * [`CHROME`] — the Chrome `trace_event` timeline, with the flight
//!   events embedded as instants.
//!
//! A record's [`MapStats::scope`] (`mapper/kernel@fabric`) is also the
//! scope of its counters, histograms, spans and flight events, so the files
//! join without a manifest: every record already names its mapper,
//! kernel, fabric and seed. [`load`] reads a directory back;
//! `rewire-doctor DIR...` is the reader that joins and prints it. Like
//! the collectors themselves, writing the directory is observe-only.
//!
//! [`FlightLog::to_json`]: rewire_obs::FlightLog::to_json

use crate::MapStats;
use rewire_obs::json::{self, Json};
use rewire_obs::Snapshot;
use std::path::Path;

/// Run records: one [`MapStats::to_json`] line per run.
pub const RUNS: &str = "runs.jsonl";
/// The metrics snapshot ([`Snapshot::to_json`]).
pub const METRICS: &str = "metrics.json";
/// The flight-recorder log.
pub const FLIGHT: &str = "flight.json";
/// The Chrome `trace_event` export (load it in Perfetto).
pub const CHROME: &str = "chrome.json";

/// Switches on the process-global flight recorder and Chrome span
/// collector. Call once, before mapping starts.
pub fn enable_collectors() {
    rewire_obs::flight().enable(0);
    rewire_obs::chrome().enable(0);
}

/// Writes the four files into `dir`, creating it if needed: `runs` as run
/// records in the given order, then the global metrics snapshot, flight
/// log and Chrome trace as they stand. Call once, after every run
/// finished. An I/O error names the path it failed on.
pub fn write<'a>(dir: &Path, runs: impl IntoIterator<Item = &'a MapStats>) -> Result<(), String> {
    let flight = rewire_obs::flight().snapshot();
    let files = [
        (RUNS, runs.into_iter().map(|r| r.to_json() + "\n").collect()),
        (METRICS, rewire_obs::metrics().snapshot().to_json() + "\n"),
        (FLIGHT, flight.to_json() + "\n"),
        (
            CHROME,
            rewire_obs::chrome().export_json(Some(&flight)) + "\n",
        ),
    ];
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, text) in files {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// One observe directory, read back by [`load`].
#[derive(Clone, Debug)]
pub struct Observation {
    /// The run records, in file order.
    pub runs: Vec<MapStats>,
    /// The metrics snapshot.
    pub metrics: Snapshot,
    /// The flight-recorder log, parsed as JSON; its reader checks the
    /// fields it uses.
    pub flight: Json,
}

/// Reads back a directory written by [`write()`]. Every file the reader
/// needs must be there; a malformed file is an error naming its path, and
/// a malformed record also names its line. The Chrome trace is left for
/// `rewire-doctor --validate-chrome`.
pub fn load(dir: &Path) -> Result<Observation, String> {
    fn read<T>(path: &Path, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
    Ok(Observation {
        runs: read(&dir.join(RUNS), parse_runs)?,
        metrics: read(&dir.join(METRICS), Snapshot::from_json)?,
        flight: read(&dir.join(FLIGHT), |text| {
            json::parse(text).map_err(|e| e.to_string())
        })?,
    })
}

/// Parses run records, one per line, in file order. Blank lines are
/// skipped; a malformed line is an error naming the line (a truncated
/// file should fail its reader, not thin it out).
fn parse_runs(text: &str) -> Result<Vec<MapStats>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| MapStats::from_json(line).map_err(|e| format!("line {}: {e}", idx + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GiveUpReason;
    use std::time::Duration;

    fn record(kernel: &str, achieved_ii: Option<u32>) -> MapStats {
        MapStats {
            mapper: "PF*".into(),
            kernel: kernel.into(),
            fabric: "4x4/r4".into(),
            seed: 7,
            mii: 3,
            achieved_ii,
            gave_up: achieved_ii.is_none().then_some(GiveUpReason::MaxIiReached),
            iis_explored: 2,
            remap_iterations: 123,
            elapsed: Duration::from_micros(12_300),
            verdicts: Vec::new(),
        }
    }

    fn lines(records: &[MapStats]) -> String {
        records.iter().map(|r| r.to_json() + "\n").collect()
    }

    #[test]
    fn the_directory_holds_four_files_and_loads_back_in_run_order() {
        let records = [record("fir", Some(4)), record("atax", None)];
        let dir = std::env::temp_dir().join(format!("rewire-observe-{}", std::process::id()));
        write(&dir, &records).unwrap();
        for name in [RUNS, METRICS, FLIGHT, CHROME] {
            assert!(dir.join(name).is_file(), "{name} written");
        }
        let back = load(&dir).unwrap();
        let chrome = std::fs::read_to_string(dir.join(CHROME)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.runs, records);
        assert_eq!(back.flight.int::<u64>("version"), Ok(2));
        assert!(json::parse(&chrome).unwrap().get("traceEvents").is_some());
    }

    #[test]
    fn records_parse_in_file_order() {
        let records = vec![record("fir", Some(4)), record("atax", None)];
        let text = format!("\n{}\n", lines(&records));
        assert_eq!(parse_runs(&text).unwrap(), records);
    }

    #[test]
    fn malformed_lines_fail_with_position() {
        let good = lines(&[record("fir", Some(4))]);
        let err = parse_runs(&format!("{good}this is not json\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let out_of_range = good.replace("\"mii\":3", "\"mii\":4294967296");
        let err = parse_runs(&format!("{good}{out_of_range}")).unwrap_err();
        assert_eq!(err, "line 2: field \"mii\": 4294967296 does not fit u32");
        let missing = good.replace(",\"seed\":7", "");
        assert!(parse_runs(&missing).unwrap_err().contains("seed"));
    }
}
