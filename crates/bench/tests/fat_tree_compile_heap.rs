//! The fat tree's routers are closed-form, so `Sim::compile_fibs` has
//! nothing to build for one: no per-switch table, no destination index, no
//! destination list. Pinned as live-heap growth across the call at k = 16
//! (31 744 bound aliases x 320 switches — 155 MiB when each switch held a
//! dense table). One test per binary: the counting allocator is
//! process-global.

use std::any::Any;
use xmp_bench::{alloc_live_bytes, CountingAlloc};
use xmp_netsim::{Agent, Ctx, Packet, PortId, QdiscConfig, Sim};
use xmp_topo::fat_tree::{FatTree, FatTreeConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Idle;
impl Agent<u64> for Idle {
    fn on_packet(&mut self, _p: Packet<u64>, _port: PortId, _c: &mut Ctx<'_, u64>) {}
    fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, u64>) {}
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn k16_compile_fibs_grows_the_heap_by_under_a_mebibyte() {
    let mut sim: Sim<u64> = Sim::new(1);
    let cfg = FatTreeConfig {
        k: 16,
        ..FatTreeConfig::paper(QdiscConfig::DropTail { cap: 100 })
    };
    let ft = FatTree::build(&mut sim, &cfg, |_| Box::new(Idle));
    assert_eq!(ft.host_count(), 1024);

    let before = alloc_live_bytes();
    sim.compile_fibs();
    let grown = alloc_live_bytes().saturating_sub(before);
    assert!(
        grown < 1 << 20,
        "compile_fibs grew the live heap by {grown} B on a k = 16 fat tree"
    );
    // ...and forwarding works off what the build already holds.
    let dst = ft.host_addr(1023, 30);
    let out = sim.route_on(ft.edges[0], dst, xmp_netsim::FlowId(1), PortId(0));
    assert!(
        (8..16).contains(&out.0),
        "inter-pod traffic leaves by an uplink"
    );
}
