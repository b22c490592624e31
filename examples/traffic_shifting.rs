//! Traffic shifting: the paper's first testbed experiment (Fig. 3a / 4).
//!
//! Flow 2 holds one subflow through bottleneck DN1 and one through DN2.
//! When a background flow appears on DN1, TraSh retunes the subflow gains
//! and the traffic moves to DN2 — and back when the background flow moves.
//! The example prints Flow 2's per-subflow rates every half second.
//!
//! Run with: `cargo run --release --example traffic_shifting`

use xmp_suite::prelude::*;
use xmp_suite::topo::testbed::{ShiftTestbed, TestbedConfig};

fn main() {
    let mut sim: Sim<Segment> = Sim::new(1);
    let cfg = TestbedConfig::default(); // 300 Mbps, RTT 1.8 ms, K = 15
    let tb = ShiftTestbed::build(&mut sim, &cfg, |_| {
        Box::new(HostStack::new(StackConfig::default()))
    });
    let cap = cfg.bandwidth.as_bps() as f64;

    let mut driver = Driver::new();
    let flow = |node, subflows, n, start_s| FlowSpecBuilder {
        src_node: node,
        subflows,
        size: u64::MAX,
        scheme: Scheme::Xmp {
            beta: 4,
            subflows: n,
        },
        start: SimTime::from_secs(start_s),
        category: None,
        tag: 0,
    };

    driver.submit(flow(tb.s[0], vec![path_spec(tb.flow1_path())], 1, 0));
    let flow2 = driver.submit(flow(
        tb.s[1],
        tb.flow2_paths().into_iter().map(path_spec).collect(),
        2,
        0,
    ));
    driver.submit(flow(tb.s[2], vec![path_spec(tb.flow3_path())], 1, 0));
    // Background on DN1 during [2 s, 4 s), on DN2 during [4 s, 6 s).
    let bg1 = driver.submit(flow(tb.bg_src[0], vec![path_spec(tb.bg_path(0))], 1, 2));
    driver.stop_at(bg1, SimTime::from_secs(4));
    let bg2 = driver.submit(flow(tb.bg_src[1], vec![path_spec(tb.bg_path(1))], 1, 4));
    driver.stop_at(bg2, SimTime::from_secs(6));

    let mut rates = RateBins::new([(flow2, 0), (flow2, 1)], SimDuration::from_millis(500));
    rates.run(&mut driver, &mut sim, SimTime::from_secs(8));

    println!("t(s)   flow2-1(DN1)  flow2-2(DN2)   phase");
    for (half, row) in (1u64..).zip(rates.rows()) {
        let phase = match half {
            1..=4 => "no background",
            5..=8 => "background on DN1 -> shift to DN2",
            9..=12 => "background on DN2 -> shift to DN1",
            _ => "background gone -> rebalance",
        };
        println!(
            "{:>4.1}   {:>12.2}  {:>12.2}   {phase}",
            SimTime::from_millis(500 * half).as_secs_f64(),
            row[0] / cap,
            row[1] / cap
        );
    }
}
