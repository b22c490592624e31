//! Compiled forwarding tables (FIBs).
//!
//! The pattern routers ([`StaticRouter`](crate::routing::StaticRouter),
//! [`EcmpRouter`](crate::routing::EcmpRouter)) answer `route()` by scanning
//! pattern tables behind a `Box<dyn>` — fine for topology construction,
//! wasteful when the same question is asked once per packet per hop. (A
//! router whose `route()` is closed-form, like the fat tree's, has nothing
//! to gain from a table and does not compile.) Since
//! every destination a packet can carry is bound in the simulation's address
//! book *before* the run starts, the whole forwarding function of a switch
//! can be flattened at build time:
//!
//! * the sorted address book becomes a dense **destination index**
//!   ([`AddrIndex`]: address → small integer, two array loads),
//! * each switch's router compiles to a [`CompiledFib`]: one [`FibEntry`]
//!   per destination index, either a fixed port or a hash-spread group.
//!
//! A per-packet lookup is then three or four array indexations plus (for ECMP
//! entries) the same `mix64` hash the dynamic router uses — bit-identical
//! port choices by construction, pinned by the exhaustive differential
//! tests in `xmp-topo`. Destinations a router cannot compile (or addresses
//! outside the book) fall back to the dynamic router, preserving its
//! behaviour including "no route" panics.

use crate::addr::Addr;
use crate::node::PortId;
use crate::packet::FlowId;
use crate::routing::mix64;

/// Forwarding decision for one (switch, destination) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FibEntry {
    /// Deterministic next hop.
    Port(PortId),
    /// Hash-spread over `len` ports starting at `off` in the group pool:
    /// `group[mix64(flow ^ salt) % len]`. The `salt` reproduces the dynamic
    /// router's exact hash input
    /// ([`EcmpRouter`](crate::routing::EcmpRouter) salts with the
    /// destination word).
    Hash {
        /// Offset of the group in `CompiledFib::groups`.
        off: u32,
        /// Group size (ports).
        len: u16,
        /// XOR'd into the flow id before hashing.
        salt: u64,
    },
    /// No compiled route — fall back to the dynamic router.
    Miss,
}

/// A switch's flattened forwarding table, indexed by destination index.
#[derive(Clone, Debug)]
pub struct CompiledFib {
    entries: Vec<FibEntry>,
    groups: Vec<PortId>,
}

impl CompiledFib {
    /// The output port for destination index `dst_idx` and `flow`, or
    /// `None` when this destination must take the dynamic fallback.
    #[inline]
    pub fn lookup(&self, dst_idx: u32, flow: FlowId) -> Option<PortId> {
        match self.entries[dst_idx as usize] {
            FibEntry::Port(p) => Some(p),
            FibEntry::Hash { off, len, salt } => {
                let h = mix64(flow.0 ^ salt);
                Some(self.groups[off as usize + (h % u64::from(len)) as usize])
            }
            FibEntry::Miss => None,
        }
    }

    /// The raw entry for a destination index (used by tests).
    pub fn entry(&self, dst_idx: u32) -> FibEntry {
        self.entries[dst_idx as usize]
    }

    /// Demote every entry that can choose `port` to [`FibEntry::Miss`], so
    /// affected destinations take the dynamic fallback. Called when the
    /// link behind `port` fails: the compiled table must stop steering
    /// traffic at a dead port without a full (and failure-oblivious)
    /// recompile.
    pub fn invalidate_port(&mut self, port: PortId) {
        let groups = &self.groups;
        for e in &mut self.entries {
            let hit = match *e {
                FibEntry::Port(p) => p == port,
                FibEntry::Hash { off, len, .. } => {
                    groups[off as usize..off as usize + len as usize].contains(&port)
                }
                FibEntry::Miss => false,
            };
            if hit {
                *e = FibEntry::Miss;
            }
        }
    }
}

/// Incrementally builds a [`CompiledFib`] over `n` destinations.
#[derive(Debug)]
pub struct FibBuilder {
    entries: Vec<FibEntry>,
    groups: Vec<PortId>,
}

impl FibBuilder {
    /// All-miss table over `n` destination indices.
    pub fn new(n: usize) -> Self {
        FibBuilder {
            entries: vec![FibEntry::Miss; n],
            groups: Vec::new(),
        }
    }

    /// Fix destination `dst` to a single port.
    pub fn port(&mut self, dst: usize, p: PortId) {
        self.entries[dst] = FibEntry::Port(p);
    }

    /// Intern a port group in the pool; returns `(off, len)` for reuse
    /// across destinations sharing the group.
    pub fn group(&mut self, ports: &[PortId]) -> (u32, u16) {
        assert!(!ports.is_empty(), "empty ECMP group");
        assert!(ports.len() <= u16::MAX as usize, "ECMP group too large");
        let off = u32::try_from(self.groups.len()).expect("group pool overflow");
        self.groups.extend_from_slice(ports);
        (off, ports.len() as u16)
    }

    /// Hash destination `dst` over an interned group.
    pub fn hashed(&mut self, dst: usize, (off, len): (u32, u16), salt: u64) {
        self.entries[dst] = FibEntry::Hash { off, len, salt };
    }

    /// Finish the table.
    pub fn build(self) -> CompiledFib {
        CompiledFib {
            entries: self.entries,
            groups: self.groups,
        }
    }
}

/// Address → destination-index translation, built from the sorted address
/// book. Dense (two array loads) when the bound addresses span a reasonable
/// range — true for every in-tree topology — with a binary-search fallback
/// so pathological address plans stay correct.
#[derive(Clone, Debug)]
pub enum AddrIndex {
    /// A two-level table over `base..=max`, in pages of 256 addresses:
    /// `slots[pages[off / 256] + off % 256]` with `off = addr - base` is
    /// the index, or `u32::MAX` for unbound. Only pages that hold a bound
    /// address have slots, so the table's size follows the number of
    /// populated subnets, not the span (a k = 4 fat tree spans 200 k
    /// addresses and binds 16).
    Dense {
        /// Lowest bound address (big-endian u32).
        base: u32,
        /// Per page: its offset into `slots`, or `u32::MAX` for a page
        /// with no bound address.
        pages: Vec<u32>,
        /// The populated pages, 256 entries each.
        slots: Vec<u32>,
    },
    /// Sorted bound addresses; the index is the binary-search position.
    Sparse {
        /// Sorted big-endian address keys.
        keys: Vec<u32>,
    },
}

/// Spans beyond this fall back to [`AddrIndex::Sparse`] (a k = 16 fat tree
/// spans ≈ 1 M addresses, 4 k pages; unbounded growth is not fine).
const DENSE_SPAN_LIMIT: usize = 1 << 22;

/// Addresses per page of [`AddrIndex::Dense`]: one /24, the unit every
/// in-tree address plan allocates hosts in.
const PAGE: usize = 256;

impl AddrIndex {
    /// Build from sorted big-endian address keys (the address book's
    /// order); the returned index maps each key to its position.
    pub fn build(keys: &[u32]) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
        match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) if ((hi - lo) as usize) < DENSE_SPAN_LIMIT => {
                let mut pages = vec![u32::MAX; (hi - lo) as usize / PAGE + 1];
                let mut slots = Vec::new();
                for (i, &k) in keys.iter().enumerate() {
                    let off = (k - lo) as usize;
                    let page = &mut pages[off / PAGE];
                    if *page == u32::MAX {
                        *page = slots.len() as u32;
                        slots.resize(slots.len() + PAGE, u32::MAX);
                    }
                    slots[*page as usize + off % PAGE] = i as u32;
                }
                AddrIndex::Dense {
                    base: lo,
                    pages,
                    slots,
                }
            }
            _ => AddrIndex::Sparse {
                keys: keys.to_vec(),
            },
        }
    }

    /// Destination index of `addr`, or `None` if unbound.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<u32> {
        let key = u32::from_be_bytes(addr.0);
        match self {
            AddrIndex::Dense { base, pages, slots } => {
                let off = key.checked_sub(*base)? as usize;
                match pages.get(off / PAGE) {
                    Some(&page) if page != u32::MAX => {
                        Some(slots[page as usize + off % PAGE]).filter(|&idx| idx != u32::MAX)
                    }
                    _ => None,
                }
            }
            AddrIndex::Sparse { keys } => keys.binary_search(&key).ok().map(|i| i as u32),
        }
    }

    /// Number of indexed destinations.
    pub fn len(&self) -> usize {
        match self {
            AddrIndex::Dense { slots, .. } => slots.iter().filter(|&&i| i != u32::MAX).count(),
            AddrIndex::Sparse { keys } => keys.len(),
        }
    }

    /// Whether no addresses are indexed.
    pub fn is_empty(&self) -> bool {
        match self {
            AddrIndex::Dense { slots, .. } => slots.is_empty(),
            AddrIndex::Sparse { keys } => keys.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_index_dense_round_trips() {
        let keys: Vec<u32> = [(10, 0, 0, 2), (10, 0, 0, 5), (10, 1, 0, 2)]
            .iter()
            .map(|&(a, b, c, d)| u32::from_be_bytes([a, b, c, d]))
            .collect();
        let idx = AddrIndex::build(&keys);
        assert!(matches!(idx, AddrIndex::Dense { .. }));
        assert_eq!(idx.lookup(Addr::new(10, 0, 0, 2)), Some(0));
        assert_eq!(idx.lookup(Addr::new(10, 0, 0, 5)), Some(1));
        assert_eq!(idx.lookup(Addr::new(10, 1, 0, 2)), Some(2));
        assert_eq!(idx.lookup(Addr::new(10, 0, 0, 3)), None);
        assert_eq!(idx.lookup(Addr::new(9, 0, 0, 2)), None);
        assert_eq!(idx.lookup(Addr::new(10, 1, 0, 3)), None);
        // A page between the two populated ones has no slots at all.
        assert_eq!(idx.lookup(Addr::new(10, 0, 1, 2)), None);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn addr_index_sparse_fallback() {
        let keys = vec![0u32, u32::MAX - 1];
        let idx = AddrIndex::build(&keys);
        assert!(matches!(idx, AddrIndex::Sparse { .. }));
        assert_eq!(idx.lookup(Addr(0u32.to_be_bytes())), Some(0));
        assert_eq!(idx.lookup(Addr((u32::MAX - 1).to_be_bytes())), Some(1));
        assert_eq!(idx.lookup(Addr(7u32.to_be_bytes())), None);
    }

    #[test]
    fn fib_port_and_hash_entries() {
        let mut b = FibBuilder::new(3);
        b.port(0, PortId(4));
        let g = b.group(&[PortId(1), PortId(2), PortId(3)]);
        b.hashed(1, g, 0xABCD);
        let fib = b.build();
        assert_eq!(fib.lookup(0, FlowId(9)), Some(PortId(4)));
        // Hash entry reproduces the dynamic formula exactly.
        let h = mix64(9 ^ 0xABCD);
        let expect = [PortId(1), PortId(2), PortId(3)][(h % 3) as usize];
        assert_eq!(fib.lookup(1, FlowId(9)), Some(expect));
        // Miss falls through.
        assert_eq!(fib.lookup(2, FlowId(9)), None);
    }

    #[test]
    fn invalidate_port_demotes_to_miss() {
        let mut b = FibBuilder::new(4);
        b.port(0, PortId(4));
        b.port(1, PortId(5));
        let g = b.group(&[PortId(1), PortId(4)]);
        b.hashed(2, g, 0);
        let g2 = b.group(&[PortId(2), PortId(3)]);
        b.hashed(3, g2, 0);
        let mut fib = b.build();
        fib.invalidate_port(PortId(4));
        // Direct port hit and the group containing it both miss now; the
        // untouched entries keep forwarding.
        assert_eq!(fib.entry(0), FibEntry::Miss);
        assert_eq!(fib.entry(1), FibEntry::Port(PortId(5)));
        assert_eq!(fib.entry(2), FibEntry::Miss);
        assert!(matches!(fib.entry(3), FibEntry::Hash { .. }));
    }
}
