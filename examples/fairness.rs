//! Fairness: flows with different subflow counts share one bottleneck
//! (the paper's second testbed experiment, Fig. 3b / 6).
//!
//! Four XMP flows with 3 / 2 / 1 / 1 subflows compete for 300 Mbps.
//! Because TraSh couples each flow's subflows, every *flow* converges to
//! ~1/4 of the link regardless of how many subflows it opened — contrast
//! with uncoupled flows, where a 3-subflow flow would take ~3x the share.
//!
//! Run with: `cargo run --release --example fairness`

use xmp_suite::prelude::*;
use xmp_suite::topo::testbed::TestbedConfig;

fn main() {
    let mut sim: Sim<Segment> = Sim::new(3);
    // The Fig. 3b testbed: a 4-pair dumbbell with the testbed's bottleneck.
    let cfg = TestbedConfig::default();
    let (rate, rtt, queue) = (cfg.bandwidth, cfg.rtt, cfg.bottleneck_queue());
    let db = Dumbbell::build(&mut sim, 4, rate, rtt, queue, |_| {
        Box::new(HostStack::new(StackConfig::default()))
    });
    let cap = cfg.bandwidth.as_bps() as f64;

    let subflow_counts = [3usize, 2, 1, 1];
    let mut driver = Driver::new();
    let conns: Vec<_> = (0..4)
        .map(|i| {
            // Every subflow of a flow shares its pair's one path, as on the
            // real single-switch testbed.
            let spec = SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            };
            driver.submit(FlowSpecBuilder {
                src_node: db.sources[i],
                subflows: vec![spec; subflow_counts[i]],
                size: u64::MAX,
                scheme: Scheme::Xmp {
                    beta: 4,
                    subflows: subflow_counts[i],
                },
                start: SimTime::ZERO,
                category: None,
                tag: i as u64,
            })
        })
        .collect();

    // Let the flows converge, then measure over a 3 s window.
    driver.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
    let mut sampler = RateSampler::new();
    let mut shares = vec![0.0f64; 4];
    for (i, &c) in conns.iter().enumerate() {
        for r in 0..subflow_counts[i] {
            sampler.sample(&mut sim, &driver, c, r);
        }
    }
    driver.run(&mut sim, SimTime::from_secs(5), |_, _, _| {});
    for (i, &c) in conns.iter().enumerate() {
        for r in 0..subflow_counts[i] {
            shares[i] += sampler.sample(&mut sim, &driver, c, r) / cap;
        }
    }

    println!("flow   subflows   share of 300 Mbps");
    for i in 0..4 {
        println!(
            "{:>4}   {:>8}   {:>6.2}",
            i + 1,
            subflow_counts[i],
            shares[i]
        );
    }
    println!();
    println!(
        "Jain fairness index: {:.3} (1.0 = perfectly fair)",
        jain_index(&shares)
    );
    println!("aggregate utilization: {:.2}", shares.iter().sum::<f64>());
}
