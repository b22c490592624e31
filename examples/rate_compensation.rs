//! Rate compensation on the five-bottleneck torus (paper Fig. 5 / 7).
//!
//! Five XMP-2 flows ring the torus; background flows congest L3 mid-run,
//! and L3 is finally taken down. Watch the two subflows crossing L3 shrink
//! while their siblings grow ("attenuated Dominos"), and the L3 subflows
//! collapse to zero when the link dies while the flows keep running on
//! their other path.
//!
//! Run with: `cargo run --release --example rate_compensation`

use xmp_suite::prelude::*;
use xmp_suite::topo::torus::{TorusConfig, CAPACITIES_GBPS, RING};

fn main() {
    let mut sim: Sim<Segment> = Sim::new(2);
    let torus = Torus::build(&mut sim, &TorusConfig::default(), |_| {
        Box::new(HostStack::new(StackConfig::default()))
    });
    let mut driver = Driver::new();

    // All five two-subflow flows from t = 0.
    let flows: Vec<_> = (0..RING)
        .map(|i| {
            driver.submit(FlowSpecBuilder {
                src_node: torus.src[i],
                subflows: torus.flow_paths(i).into_iter().map(path_spec).collect(),
                size: u64::MAX,
                scheme: Scheme::xmp(2),
                start: SimTime::ZERO,
                category: None,
                tag: i as u64,
            })
        })
        .collect();
    // Background congestion on L3 during [2 s, 4 s); L3 dies at 5 s.
    for b in 0..4 {
        let bg = driver.submit(FlowSpecBuilder {
            src_node: torus.bg_src,
            subflows: vec![path_spec(torus.bg_path())],
            size: u64::MAX,
            scheme: Scheme::xmp(1),
            start: SimTime::from_secs(2),
            category: None,
            tag: 100 + b,
        });
        driver.stop_at(bg, SimTime::from_secs(4));
    }

    let mut rates = RateBins::new(
        flows.iter().flat_map(|&c| [(c, 0), (c, 1)]),
        SimDuration::from_secs(1),
    );
    rates.run(&mut driver, &mut sim, SimTime::from_secs(5));
    sim.set_link_drop_prob(torus.bottlenecks[2], 1.0);
    rates.run(&mut driver, &mut sim, SimTime::from_secs(7));

    println!("phase                 | subflow rates, normalized to each bottleneck");
    println!(
        "                      | {}",
        (0..RING)
            .flat_map(|i| (0..2).map(move |x| format!("{}-{}", i + 1, x + 1)))
            .collect::<Vec<_>>()
            .join("   ")
    );
    for (sec, row) in (1u64..).zip(rates.rows()) {
        let phase = match sec {
            1..=2 => "steady state        ",
            3..=4 => "bg flows congest L3 ",
            5 => "bg gone             ",
            _ => "L3 link down        ",
        };
        // Series 2i + x is flow i's subflow x, which rides L(i + x).
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(s, bps)| {
                let cap = CAPACITIES_GBPS[(s / 2 + s % 2) % RING] * 1e9;
                format!("{:.2}", bps / cap)
            })
            .collect();
        println!("{phase} | {}", cells.join("  "));
    }
    println!();
    println!("flows 2-2 and 3-1 ride L3: they dip under congestion and die with the");
    println!("link, while 2-1 and 3-2 compensate — the paper's \"attenuated Dominos\".");
}
