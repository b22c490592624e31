//! Table 2 — coexistence: half the hosts run XMP-2, the other half run
//! LIA-2, TCP or DCTCP, under the Random pattern, with queue sizes 50 and
//! 100 packets.
//!
//! Expected shape (paper): XMP ≈ DCTCP (both ECN-driven, fair split);
//! XMP ≫ TCP/LIA at queue 50, with the gap narrowing at queue 100 because
//! the loss-driven schemes can then keep larger windows and their deeper
//! buffers feed more ECN marks back to XMP.

use crate::common::{mbps, TextTable};
use crate::suite::{run_suite_profiled, Pattern, SuiteConfig};
use std::fmt;
use xmp_workloads::Scheme;

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Table2Config {
    /// Queue capacities to test (paper: 50, 100).
    pub queue_caps: Vec<usize>,
    /// Schemes coexisting with XMP-2 (paper: LIA-2, TCP, DCTCP).
    pub others: Vec<Scheme>,
    /// Base suite configuration (scale, flow target, k, seed).
    pub base: SuiteConfig,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            queue_caps: vec![50, 100],
            others: vec![Scheme::lia(2), Scheme::Tcp, Scheme::Dctcp],
            base: SuiteConfig::new(Scheme::xmp(2), Pattern::Random),
        }
    }
}

impl Table2Config {
    /// Small variant for benches (full k = 8 tree — XMP's coexistence
    /// story depends on shifting away from loss-driven flows, which needs
    /// real path diversity).
    pub fn quick() -> Self {
        Table2Config {
            queue_caps: vec![50],
            others: vec![Scheme::Tcp],
            base: SuiteConfig::quick_k8(Scheme::xmp(2), Pattern::Random),
        }
    }
}

/// One cell pair of the table.
#[derive(Debug)]
pub struct CoexistCell {
    /// The competing scheme's label.
    pub other: String,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Mean goodput of the XMP-2 half (bits/s).
    pub xmp_bps: f64,
    /// Mean goodput of the other half (bits/s).
    pub other_bps: f64,
}

/// The whole table.
#[derive(Debug)]
pub struct Table2Result {
    /// All cells.
    pub cells: Vec<CoexistCell>,
    /// Every end-of-run audit failure, after its cell's pairing.
    pub audit: Vec<String>,
}

/// Run the coexistence grid.
pub fn run(cfg: &Table2Config) -> Table2Result {
    let mut cells = Vec::new();
    let mut audit = Vec::new();
    for &cap in &cfg.queue_caps {
        for &other in &cfg.others {
            let sc = SuiteConfig {
                queue_cap: cap,
                coexist_with: Some(other),
                ..cfg.base.clone()
            };
            let (r, _, failures) = run_suite_profiled(&sc);
            let cell = format!("XMP : {} / {cap} pkts", other.label());
            audit.extend(failures.into_iter().map(|f| format!("{cell}: {f}")));
            let xmp_label = cfg.base.scheme.label();
            let xmp_bps = r.goodput_by_scheme.get(&xmp_label).copied().unwrap_or(0.0);
            let other_bps = r
                .goodput_by_scheme
                .get(&other.label())
                .copied()
                .unwrap_or(0.0);
            cells.push(CoexistCell {
                other: other.label(),
                queue_cap: cap,
                xmp_bps,
                other_bps,
            });
        }
    }
    Table2Result { cells, audit }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t =
            TextTable::new("Table 2 — Average Goodput (Mbps), XMP-2 coexisting (Random pattern)")
                .header(["pairing", "queue", "XMP", "other"]);
        for c in &self.cells {
            t.row([
                format!("XMP : {}", c.other),
                format!("{} pkts", c.queue_cap),
                mbps(c.xmp_bps),
                mbps(c.other_bps),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xmp_coexists_and_beats_tcp_at_small_queue() {
        let cfg = Table2Config::quick();
        let r = run(&cfg);
        assert_eq!(r.cells.len(), 1);
        assert!(r.audit.is_empty(), "{:?}", r.audit);
        let c = &r.cells[0];
        assert!(c.xmp_bps > 0.0 && c.other_bps > 0.0);
        // The paper's Table 2 shape: XMP well above TCP at queue 50.
        assert!(
            c.xmp_bps > c.other_bps,
            "XMP {} <= TCP {}",
            c.xmp_bps,
            c.other_bps
        );
    }
}
