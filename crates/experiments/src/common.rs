//! Shared experiment plumbing: host factories, the end-of-run audit and
//! plain-text rendering.

use std::fmt;
use xmp_netsim::{InvariantState, Sim};
use xmp_transport::{HostStack, Segment, StackConfig};
use xmp_workloads::{Driver, FlowSim, Host};

/// Standard host agent for experiments: a [`HostStack`] over the
/// statically dispatched [`xmp_core::CcKind`] controllers, stored inline
/// in the simulation (`Sim<Segment, Host>`) so the packet hot path is
/// fully devirtualized.
pub fn host_stack() -> Host {
    HostStack::new(StackConfig::default())
}

/// The audits a cell ends with — [`Sim::audit_invariants`], then
/// [`Sim::try_audit_conservation`] — as one description per failure;
/// empty when the run is sound.
pub fn end_of_run_audit(sim: &Sim<Segment, Host>) -> Vec<String> {
    let mut failures = Vec::new();
    sim.audit_invariants(&mut InvariantState::default(), &mut failures);
    failures.extend(sim.try_audit_conservation().err());
    failures
}

/// [`MpSender::check_window_bounds`](xmp_transport::MpSender::check_window_bounds)
/// over every sender `driver` still has running: cwnd finite and at least
/// one packet, ssthresh positive, `snd_una <= snd_nxt`. Each sender's
/// first violation goes onto `failures`. A cell runs it beside
/// [`end_of_run_audit`]; `simcheck` at every audit boundary.
pub fn audit_windows<S: FlowSim>(sim: &mut S, driver: &Driver, failures: &mut Vec<String>) {
    for rec in driver.records().filter(|r| r.completed.is_none()) {
        let conn = rec.conn;
        sim.with_host(rec.src_node, |stack, _| {
            if let Some(Err(e)) = stack.sender(conn).map(|s| s.check_window_bounds()) {
                failures.push(format!("conn {conn} {e}"));
            }
        });
    }
}

/// A simple aligned text table (the experiment reports are plain text, one
/// table per paper artifact).
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        TextTable {
            title: title.into(),
            ..Default::default()
        }
    }

    /// Set the header row.
    pub fn header(mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    /// Append a data row.
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .rows
            .iter()
            .chain(std::iter::once(&self.header))
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "  {}", cells.join("  "))
        };
        if !self.header.is_empty() {
            fmt_row(f, &self.header)?;
            writeln!(
                f,
                "  {}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
            )?;
        }
        for row in &self.rows {
            fmt_row(f, row)?;
        }
        Ok(())
    }
}

/// Format bits/s as Mbps with one decimal.
pub fn mbps(bps: f64) -> String {
    format!("{:.1}", bps / 1e6)
}

/// Format a 0..1 fraction with two decimals.
pub fn frac(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmp_des::{Bandwidth, SimDuration, SimTime};
    use xmp_netsim::{PortId, QdiscConfig};
    use xmp_topo::Dumbbell;
    use xmp_transport::SubflowSpec;
    use xmp_workloads::{FlowSpecBuilder, Scheme};

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("Demo").header(["scheme", "goodput"]);
        t.row(["XMP-2", "644.3"]);
        t.row(["DCTCP", "513.6"]);
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("XMP-2"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Columns align: both data lines have the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mbps(644_300_000.0), "644.3");
        assert_eq!(frac(0.5), "0.50");
    }

    /// One XMP-2 flow on a dumbbell whose hosts open every subflow at
    /// `initial_cwnd`, run for 1 µs — before the SYN-ACK that would reach
    /// the sender's own per-segment check — then both end-of-run audits.
    fn audited_cell(initial_cwnd: f64) -> Vec<String> {
        let mut sim: Sim<Segment, Host> = Sim::new(1);
        // A field, not `with_initial_cwnd`, which refuses a NaN itself.
        let stack = StackConfig {
            initial_cwnd,
            ..StackConfig::default()
        };
        let db = Dumbbell::build(
            &mut sim,
            1,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(100),
            QdiscConfig::EcnThreshold { cap: 100, k: 10 },
            |_| HostStack::new(stack.clone()),
        );
        let spec = SubflowSpec {
            local_port: PortId(0),
            src: Dumbbell::src_addr(0),
            dst: Dumbbell::dst_addr(0),
        };
        let mut driver = Driver::new();
        driver.submit(FlowSpecBuilder {
            src_node: db.sources[0],
            subflows: vec![spec, spec],
            size: u64::MAX,
            scheme: Scheme::xmp(2),
            start: SimTime::ZERO,
            category: None,
            tag: 0,
        });
        driver.run(
            &mut sim,
            SimTime::ZERO + SimDuration::from_micros(1),
            |_, _, _| {},
        );
        let mut failures = end_of_run_audit(&sim);
        audit_windows(&mut sim, &driver, &mut failures);
        failures
    }

    #[test]
    fn a_nan_cwnd_fails_the_window_audit() {
        assert_eq!(audited_cell(10.0), Vec::<String>::new());
        assert_eq!(
            audited_cell(f64::NAN),
            ["conn 1 subflow 0: cwnd NaN outside [1.0, finite) (ssthresh inf)"]
        );
    }
}
