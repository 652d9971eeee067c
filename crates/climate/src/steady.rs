//! Priced CCM2 steps: what a step costs, without computing it.
//!
//! The paper's application experiments (Table 5, Table 6, Figure 8, the
//! FTRACE breakdown, the clock projection, PRODLOAD's rates and the
//! multi-node extension) need only a step's timing. A step's charge stream
//! depends only on the configuration and the grid shapes, never on the
//! field values, and every step of a model charges the same, the forward
//! first step included. These entry points therefore take one step of a
//! *pricing* model ([`Ccm2Proxy::pricing`]): a shape-only transform, empty
//! fields and pricing processors, which take every charge a functional
//! step takes and skip its arithmetic. The timing is bit-identical to a
//! functional model's step; the `pricing_tests` below hold both paths to
//! that.
//!
//! The pricing model stays inside this crate. Its fields are empty, so
//! what comes out of it is timings only.

use sxsim::{Ftrace, MachineModel};

use crate::model::{Ccm2Config, Ccm2Proxy, StepTiming};

/// The timing of a step on `procs` processors of `machine`: what any step
/// of a functional model with this configuration returns, bit for bit.
pub fn steady_step(config: &Ccm2Config, machine: &MachineModel, procs: usize) -> StepTiming {
    Ccm2Proxy::pricing(config.clone(), machine.clone()).step(procs)
}

/// [`steady_step`] plus the step's FTRACE phase breakdown, as
/// [`Ccm2Proxy::step_traced`] collects it.
pub fn steady_step_traced(
    config: &Ccm2Config,
    machine: &MachineModel,
    procs: usize,
) -> (StepTiming, Ftrace) {
    Ccm2Proxy::pricing(config.clone(), machine.clone()).step_traced(procs)
}

/// The timing of a step on `nodes` IXS-coupled nodes of `procs_per_node`
/// processors each, as [`Ccm2Proxy::step_multinode`] returns it.
pub fn steady_step_multinode(
    config: &Ccm2Config,
    machine: &MachineModel,
    nodes: usize,
    procs_per_node: usize,
) -> StepTiming {
    Ccm2Proxy::pricing(config.clone(), machine.clone()).step_multinode(nodes, procs_per_node)
}

#[cfg(test)]
mod pricing_tests {
    use super::*;
    use crate::Resolution;
    use sxsim::presets;

    fn assert_timing_bits(a: &StepTiming, b: &StepTiming, ctx: &str) {
        assert_eq!(a.timing.wall_cycles.to_bits(), b.timing.wall_cycles.to_bits(), "{ctx}");
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{ctx}");
        assert_eq!(a.timing.work, b.timing.work, "{ctx}");
        assert_eq!(a.timing.work.cycles.to_bits(), b.timing.work.cycles.to_bits(), "{ctx}");
        assert_eq!(
            a.bytes_per_cycle_per_proc.to_bits(),
            b.bytes_per_cycle_per_proc.to_bits(),
            "{ctx}"
        );
    }

    fn assert_ftrace_bits(a: &Ftrace, b: &Ftrace, ctx: &str) {
        assert_eq!(a.render(9.2), b.render(9.2), "{ctx}");
        assert_eq!(a.regions().len(), b.regions().len(), "{ctx}");
        for (name, x) in a.regions() {
            let y = &b.regions()[name];
            assert_eq!(x.calls, y.calls, "{ctx} {name}");
            assert_eq!(x.cost.cycles.to_bits(), y.cost.cycles.to_bits(), "{ctx} {name}");
            assert_eq!(x.cost.cray_flops.to_bits(), y.cost.cray_flops.to_bits(), "{ctx} {name}");
            assert_eq!(x.cost, y.cost, "{ctx} {name}");
            assert_eq!(x.stats, y.stats, "{ctx} {name}");
        }
    }

    /// One model of each kind takes the same three steps: a step with
    /// every processor chunk's charges traced (the traces compared run for
    /// run, each event with its exact cost), an FTRACE-traced step and a
    /// two-node step.
    fn pricing_matches_functional(config: Ccm2Config, procs: usize) {
        let machine = presets::sx4_benchmarked();
        let ctx = format!("{} adiabatic={} procs={procs}", config.resolution.name(), !config.slt);
        let mut functional = Ccm2Proxy::new(config.clone(), machine.clone());
        let mut pricing = Ccm2Proxy::pricing(config.clone(), machine.clone());

        let (first, f_chunks) = functional.step_chunk_traces(procs);
        let (pt, p_chunks) = pricing.step_chunk_traces(procs);
        assert_timing_bits(&first, &pt, &ctx);
        assert_eq!(f_chunks.len(), p_chunks.len(), "{ctx}: chunks");
        for (i, (f, p)) in f_chunks.iter().zip(&p_chunks).enumerate() {
            let (fr, pr) = (f.runs(), p.runs());
            if let Some(at) = (0..fr.len().max(pr.len())).find(|&at| fr.get(at) != pr.get(at)) {
                panic!(
                    "{ctx}: chunk {i} run {at}: functional {:?}, pricing {:?}",
                    fr.get(at),
                    pr.get(at)
                );
            }
        }

        let (ft, f_trace) = functional.step_traced(procs);
        let (pt, p_trace) = pricing.step_traced(procs);
        assert_timing_bits(&ft, &pt, &ctx);
        assert_ftrace_bits(&f_trace, &p_trace, &ctx);

        let ft = functional.step_multinode(2, procs);
        let pt = pricing.step_multinode(2, procs);
        assert_timing_bits(&ft, &pt, &format!("{ctx} on 2 nodes"));
        assert_eq!(functional.op_stats(), pricing.op_stats(), "{ctx}: op stats");

        // The public entry points are the pricing model's steps, the same
        // bits on every call.
        let entry = steady_step(&config, &machine, procs);
        assert_timing_bits(&entry, &first, &ctx);
        assert_timing_bits(&steady_step(&config, &machine, procs), &entry, &ctx);
        let (_, entry_trace) = steady_step_traced(&config, &machine, procs);
        assert_ftrace_bits(&entry_trace, &f_trace, &ctx);
        assert_timing_bits(&steady_step_multinode(&config, &machine, 2, procs), &ft, &ctx);
    }

    fn check_resolution(res: Resolution) {
        for procs in [1usize, 2, 3, 4, 8, 32] {
            pricing_matches_functional(Ccm2Config::benchmark(res), procs);
        }
        pricing_matches_functional(Ccm2Config::adiabatic(res), 4);
    }

    #[test]
    fn t42_pricing_matches_functional_steps() {
        check_resolution(Resolution::T42);
    }

    #[test]
    fn t63_pricing_matches_functional_steps() {
        check_resolution(Resolution::T63);
    }

    #[test]
    fn t85_pricing_matches_functional_steps() {
        check_resolution(Resolution::T85);
    }

    /// The two largest resolutions take seconds per functional step. Run
    /// with `cargo test -p ccm-proxy --release -- --ignored pricing_tests`.
    #[test]
    #[ignore = "minutes of functional T106/T170 steps"]
    fn t106_and_t170_pricing_matches_functional_steps() {
        check_resolution(Resolution::T106);
        check_resolution(Resolution::T170);
    }

    /// A fresh model's first (forward) step charges what every later step
    /// charges: `two_dt` moves only values. This is why one priced step
    /// stands for the steady step of Table 5, Table 6 and Figure 8, and
    /// for the `multinode` experiment's first step.
    #[test]
    fn the_first_step_charges_what_every_later_step_charges() {
        let machine = presets::sx4_benchmarked();
        for config in
            [Ccm2Config::benchmark(Resolution::T42), Ccm2Config::adiabatic(Resolution::T42)]
        {
            for procs in [1usize, 3, 4, 32] {
                let mut m = Ccm2Proxy::new(config.clone(), machine.clone());
                let first = m.step(procs);
                for n in 2..=3 {
                    let ctx = format!("slt={} procs={procs} step {n}", config.slt);
                    assert_timing_bits(&first, &m.step(procs), &ctx);
                }
            }
            let mut m = Ccm2Proxy::new(config.clone(), machine.clone());
            let first = m.step_multinode(2, 16);
            for n in 2..=3 {
                let ctx = format!("slt={} two nodes step {n}", config.slt);
                assert_timing_bits(&first, &m.step_multinode(2, 16), &ctx);
            }
        }
    }
}
