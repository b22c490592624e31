//! The named data-transfer schemes of the paper's evaluation.

use xmp_core::{Bos, CcKind, Xmp};
use xmp_transport::{Dctcp, Lia, Olia, Reno};

/// A congestion-control scheme plus its subflow count, as named in the
/// paper's tables ("XMP-2", "LIA-4", "DCTCP", "TCP").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Plain single-path NewReno, no ECN.
    Tcp,
    /// Single-path DCTCP.
    Dctcp,
    /// Single-path BOS (XMP's window algorithm without multipath).
    Bos {
        /// Window-reduction divisor β.
        beta: u32,
    },
    /// MPTCP with Linked Increases over `subflows` paths.
    Lia {
        /// Number of subflows per flow.
        subflows: usize,
    },
    /// MPTCP with XMP over `subflows` paths.
    Xmp {
        /// Window-reduction divisor β (paper default 4).
        beta: u32,
        /// Number of subflows per flow.
        subflows: usize,
    },
    /// Ablation: XMP with TraSh disabled (independent BOS per subflow).
    XmpUncoupled {
        /// Window-reduction divisor β.
        beta: u32,
        /// Number of subflows per flow.
        subflows: usize,
    },
    /// MPTCP with OLIA (Khalili et al., CoNEXT 2012) — the fix the paper's
    /// future-work section points to.
    Olia {
        /// Number of subflows per flow.
        subflows: usize,
    },
}

impl Scheme {
    /// The paper's default XMP-n (β = 4).
    pub fn xmp(subflows: usize) -> Scheme {
        Scheme::Xmp { beta: 4, subflows }
    }

    /// LIA-n.
    pub fn lia(subflows: usize) -> Scheme {
        Scheme::Lia { subflows }
    }

    /// Subflows a flow of this scheme establishes.
    pub fn subflow_count(&self) -> usize {
        match *self {
            Scheme::Tcp | Scheme::Dctcp | Scheme::Bos { .. } => 1,
            Scheme::Lia { subflows }
            | Scheme::Olia { subflows }
            | Scheme::Xmp { subflows, .. }
            | Scheme::XmpUncoupled { subflows, .. } => subflows,
        }
    }

    /// Instantiate the congestion controller. Every scheme maps to a
    /// [`CcKind`] enum arm, so per-flow controllers live inline in the
    /// sender (no heap box, direct dispatch).
    pub fn make_cc(&self) -> CcKind {
        match *self {
            Scheme::Tcp => CcKind::Reno(Reno::new()),
            Scheme::Dctcp => CcKind::Dctcp(Dctcp::new()),
            Scheme::Bos { beta } => CcKind::Bos(Bos::new(beta)),
            Scheme::Lia { .. } => CcKind::Lia(Lia::new()),
            Scheme::Olia { .. } => CcKind::Olia(Olia::new()),
            Scheme::Xmp { beta, .. } => CcKind::Xmp(Xmp::new(beta)),
            Scheme::XmpUncoupled { beta, .. } => CcKind::Xmp(Xmp::uncoupled(beta)),
        }
    }

    /// The fluid-model counterpart of this scheme's controller, for
    /// elephants the driver offloads to the hybrid fluid plane
    /// (`SimTuning::hybrid`). The mapping mirrors [`Scheme::make_cc`]:
    /// XMP is TraSh-coupled BOS, its uncoupled ablation and single-path
    /// BOS drop the coupling, and OLIA is approximated by LIA — their
    /// equilibria coincide on symmetric paths (DESIGN.md §18).
    pub fn fluid_cc(&self) -> xmp_netsim::FluidCc {
        use xmp_netsim::FluidCc;
        match *self {
            Scheme::Tcp => FluidCc::Reno,
            Scheme::Dctcp => FluidCc::Dctcp { g: 1.0 / 16.0 },
            Scheme::Bos { beta } | Scheme::XmpUncoupled { beta, .. } => FluidCc::Bos {
                beta: beta as f64,
                coupled: false,
            },
            Scheme::Xmp { beta, .. } => FluidCc::Bos {
                beta: beta as f64,
                coupled: true,
            },
            Scheme::Lia { .. } | Scheme::Olia { .. } => FluidCc::Lia,
        }
    }

    /// Table label, e.g. `XMP-2`.
    pub fn label(&self) -> String {
        match *self {
            Scheme::Tcp => "TCP".into(),
            Scheme::Dctcp => "DCTCP".into(),
            Scheme::Bos { beta } => format!("BOS(b{beta})"),
            Scheme::Lia { subflows } => format!("LIA-{subflows}"),
            Scheme::Olia { subflows } => format!("OLIA-{subflows}"),
            Scheme::Xmp { beta, subflows } => {
                if beta == 4 {
                    format!("XMP-{subflows}")
                } else {
                    format!("XMP-{subflows}(b{beta})")
                }
            }
            Scheme::XmpUncoupled { beta, subflows } => {
                format!("uXMP-{subflows}(b{beta})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmp_transport::segment::EchoMode;
    use xmp_transport::CongestionControl;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Scheme::Tcp.label(), "TCP");
        assert_eq!(Scheme::Dctcp.label(), "DCTCP");
        assert_eq!(Scheme::lia(4).label(), "LIA-4");
        assert_eq!(Scheme::xmp(2).label(), "XMP-2");
        assert_eq!(
            Scheme::Xmp {
                beta: 6,
                subflows: 2
            }
            .label(),
            "XMP-2(b6)"
        );
        assert_eq!(Scheme::Olia { subflows: 2 }.label(), "OLIA-2");
        assert_eq!(
            Scheme::XmpUncoupled {
                beta: 4,
                subflows: 3
            }
            .label(),
            "uXMP-3(b4)"
        );
    }

    #[test]
    fn subflow_counts() {
        assert_eq!(Scheme::Tcp.subflow_count(), 1);
        assert_eq!(Scheme::Dctcp.subflow_count(), 1);
        assert_eq!(Scheme::xmp(4).subflow_count(), 4);
        assert_eq!(Scheme::lia(2).subflow_count(), 2);
    }

    #[test]
    fn cc_echo_modes() {
        assert_eq!(Scheme::Tcp.make_cc().echo_mode(), EchoMode::None);
        assert_eq!(Scheme::Dctcp.make_cc().echo_mode(), EchoMode::Dctcp);
        assert_eq!(Scheme::xmp(2).make_cc().echo_mode(), EchoMode::CeCount);
        assert_eq!(Scheme::lia(2).make_cc().echo_mode(), EchoMode::None);
        assert_eq!(
            Scheme::Bos { beta: 2 }.make_cc().echo_mode(),
            EchoMode::CeCount
        );
    }
}
