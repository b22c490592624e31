//! Scenario minimization: given a failing scenario, produce the smallest
//! variant that still fails, for the replay file.
//!
//! The shrinker is a fixed pipeline of reductions, each kept only if the
//! reduced scenario *still fails* (re-checked by actually running it):
//!
//! 1. **drop flows** — remove one flow at a time until no single removal
//!    preserves the failure,
//! 2. **shorten the fault plan** — drop timeline entries, loss and
//!    corruption lines the same way,
//! 3. **shrink the topology** — try smaller even `k` when every host,
//!    tag and link reference still fits,
//! 4. **bisect the event horizon** — binary-search the shortest horizon
//!    that still fails,
//! 5. **drop probes**, then
//! 6. **narrow to a single failing oracle pair** — disable every oracle
//!    leg except one that still reproduces.
//!
//! Everything is deterministic (runs are seeded, reductions are ordered),
//! so shrinking the same failure twice yields byte-identical replay files.

use crate::exec;
use crate::scenario::{LinkRef, NodeRef, Scenario};

/// Why a scenario counts as failing.
fn fails(sc: &Scenario) -> bool {
    match exec::run_scenario(sc) {
        Ok(out) => !out.passed(),
        // A scenario that no longer constructs does not reproduce the
        // original failure; treat it as passing so the reduction is
        // rejected.
        Err(_) => false,
    }
}

/// Greedily remove elements of `list(sc)` while the scenario keeps
/// failing. One pass per element, repeated until a full pass removes
/// nothing.
fn drop_elements<T: Clone>(
    sc: &mut Scenario,
    get: impl Fn(&mut Scenario) -> &mut Vec<T>,
    runs: &mut usize,
) {
    loop {
        let len = get(sc).len();
        let mut removed = false;
        for i in (0..len).rev() {
            let mut cand = sc.clone();
            get(&mut cand).remove(i);
            *runs += 1;
            if fails(&cand) {
                *sc = cand;
                removed = true;
            }
        }
        if !removed {
            break;
        }
    }
}

/// Shrink a failing scenario to a minimal failing one. Returns the
/// minimized scenario and the number of candidate runs spent. If `sc`
/// does not actually fail it is returned unchanged.
pub fn shrink(sc: &Scenario) -> (Scenario, usize) {
    let mut runs = 1;
    if !fails(sc) {
        return (sc.clone(), runs);
    }
    let mut best = sc.clone();

    // 1. Drop flows.
    drop_elements(&mut best, |s| &mut s.flows, &mut runs);

    // 2. Shorten the fault plan.
    drop_elements(&mut best, |s| &mut s.faults, &mut runs);
    drop_elements(&mut best, |s| &mut s.loss, &mut runs);
    drop_elements(&mut best, |s| &mut s.corruption, &mut runs);

    // 3. Shrink the topology (only when every reference still fits).
    let mut k = best.k;
    while k > 4 {
        k -= 2;
        if !refs_fit(&best, k) {
            continue;
        }
        let mut cand = best.clone();
        cand.k = k;
        cand.workers.retain(|&w| w <= k);
        runs += 1;
        if fails(&cand) {
            best = cand;
        }
    }

    // 4. Bisect the horizon: smallest horizon (µs, 1 ms grid) that still
    // fails.
    let mut lo = 1_000u64; // below this nothing meaningful happens
    let mut hi = best.horizon_us;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let mut cand = best.clone();
        cand.horizon_us = mid;
        runs += 1;
        if fails(&cand) {
            hi = mid;
            best = cand;
        } else {
            lo = mid + 1_000;
        }
    }

    // 5. Drop probes.
    drop_elements(&mut best, |s| &mut s.probes, &mut runs);

    // 6. Narrow to a single failing oracle pair: each candidate keeps
    // exactly one non-baseline leg enabled.
    let mut singles: Vec<Scenario> = Vec::new();
    let bare = |sc: &Scenario| {
        let mut c = sc.clone();
        c.workers.clear();
        c.inject_divergence = false;
        c
    };
    if best.inject_divergence {
        // The injected leg fails against the serial baseline on its own.
        let mut cand = bare(&best);
        cand.inject_divergence = true;
        singles.push(cand);
    }
    for &w in &best.workers {
        let mut cand = bare(&best);
        cand.workers = vec![w];
        singles.push(cand);
    }
    for cand in singles {
        runs += 1;
        if fails(&cand) {
            best = cand;
            break;
        }
    }

    (best, runs)
}

/// Whether every host index, tag, link ref and node ref in `sc` exists in
/// a smaller k-ary tree.
fn refs_fit(sc: &Scenario, k: usize) -> bool {
    let h = k / 2;
    let hosts = k * k * k / 4;
    let tags = xmp_topo::FatTree::tag_count_for(k);
    let link_ok = |l: &LinkRef| match *l {
        LinkRef::Core(i, j, p) => i < h && j < h && p < k,
        LinkRef::Agg(i) => i < k * h * h,
        LinkRef::Rack(i) => i < hosts,
        LinkRef::Bottleneck(_) => false,
    };
    let node_ok = |n: &NodeRef| match *n {
        NodeRef::Edge(i) => i < k * h,
        NodeRef::Agg(i) => i < k * h,
        NodeRef::Core(i) => i < h * h,
    };
    sc.flows
        .iter()
        .all(|f| f.src < hosts && f.dst < hosts && f.tags.iter().all(|&t| t < tags))
        && sc.faults.iter().all(|f| match f.event {
            crate::scenario::FaultSpec::Down(l) | crate::scenario::FaultSpec::Up(l) => link_ok(&l),
            crate::scenario::FaultSpec::SwitchDown(n) => node_ok(&n),
        })
        && sc.loss.iter().all(|(l, _)| link_ok(l))
        && sc.corruption.iter().all(|(l, _)| link_ok(l))
        && sc.probes.iter().all(|(l, _)| link_ok(l))
        && sc.workers.iter().all(|&w| w <= k)
}
