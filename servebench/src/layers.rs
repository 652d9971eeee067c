//! Direct calls into single layers, timed from outside with spans: the
//! CCM2 T42 proxy, the POP ocean model, the result journal, and the
//! router hop (the same request sent through the router and straight to
//! the member that owns it).

use std::path::Path;

use ccm_proxy::{Ccm2Config, Ccm2Proxy, Resolution};
use ocean_models::{Pop, PopConfig};
use sxd::{Client, Journal};
use sxsim::presets;

use crate::load::submit_once;
use crate::stats::{median, percentile};
use crate::trace::{Tracer, ROOT};

/// T42 step replays timed per run (the replay is fast; take a median).
const REPLAYS: usize = 5;

/// What the climate layer did for one T42 `step(4)`.
pub struct Climate {
    pub new_ms: f64,
    pub step_ms: f64,
    pub replay_ms: f64,
    /// Vector operations the step charged: hardware-independent, exact.
    pub vector_ops: u64,
    /// Simulated seconds of the step: hardware-independent, exact.
    pub sim_seconds: f64,
}

/// `Ccm2Proxy::new`, a spin-up `step(4)`, the timed `step(4)`, then
/// `record_step_program` and replays of the recorded program. A replay
/// whose timing is not bit-identical to the recorded step is an error.
pub fn climate(tracer: &mut Tracer) -> Result<Climate, String> {
    let config = Ccm2Config::benchmark(Resolution::T42);
    let (mut model, _) = tracer
        .span("climate.t42_new", ROOT, 0, || Ccm2Proxy::new(config, presets::sx4_benchmarked()));
    tracer.span("climate.t42_spinup", ROOT, 0, || model.step(4));
    let before = model.op_stats().vector_ops;
    let (step, _) = tracer.span("climate.t42_step", ROOT, 0, || model.step(4));
    let vector_ops = model.op_stats().vector_ops - before;
    let ((recorded, program), _) =
        tracer.span("climate.t42_record", ROOT, 0, || model.record_step_program(4));
    for _ in 0..REPLAYS {
        let (replayed, _) =
            tracer.span("climate.t42_replay", ROOT, 0, || model.replay_step(&program));
        if replayed.seconds.to_bits() != recorded.seconds.to_bits() {
            return Err(format!(
                "T42 replay charged {} simulated seconds, the recorded step {}",
                replayed.seconds, recorded.seconds
            ));
        }
    }
    let ms = |name: &str| median(&tracer.micros_of(name)) / 1e3;
    Ok(Climate {
        new_ms: ms("climate.t42_new"),
        step_ms: ms("climate.t42_step"),
        replay_ms: ms("climate.t42_replay"),
        vector_ops,
        sim_seconds: step.seconds,
    })
}

/// Median wall milliseconds of a POP two-degree `step(1)`, as the `pop`
/// suite runs it.
pub fn ocean(tracer: &mut Tracer) -> f64 {
    let (mut pop, _) = tracer.span("ocean.pop_new", ROOT, 0, || {
        Pop::new(PopConfig::two_degree(), presets::sx4_benchmarked())
    });
    for _ in 0..3 {
        tracer.span("ocean.pop_step", ROOT, 0, || pop.step(1));
    }
    median(&tracer.micros_of("ocean.pop_step")) / 1e3
}

/// Mean microseconds of `Journal::append` and `Journal::compact`, fed the
/// run's own payloads in `dir` with `cold_mix`'s two-entry cache policy:
/// compact whenever the journal asks, keeping the two newest entries.
pub fn journal(tracer: &mut Tracer, dir: &Path, payloads: &[String]) -> Result<(f64, f64), String> {
    let (mut journal, _) = Journal::open(dir).map_err(|e| format!("journal open: {e}"))?;
    let mut live: Vec<(u64, String)> = Vec::new();
    for round in 0..16u64 {
        for (i, p) in payloads.iter().enumerate() {
            let key = round << 8 | i as u64;
            let (res, _) = tracer.span("journal.append", ROOT, key, || journal.append(key, p));
            res.map_err(|e| format!("journal append: {e}"))?;
            live.push((key, p.clone()));
            if live.len() > 2 {
                live.remove(0);
            }
            if journal.should_compact(2) {
                let (res, _) = tracer.span("journal.compact", ROOT, key, || journal.compact(&live));
                res.map_err(|e| format!("journal compact: {e}"))?;
            }
        }
    }
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok((mean(tracer.micros_of("journal.append")), mean(tracer.micros_of("journal.compact"))))
}

/// The router's added latency: p50 of cached submits sent through
/// `endpoint` minus p50 of the same submits sent straight to their owning
/// member, alternating, `rounds` times over `probes` (suite, owner addr).
/// Against a single daemon the owner is the endpoint itself, so the two
/// paths are the same and the figure measures only their noise.
pub fn router_hop(
    tracer: &mut Tracer,
    endpoint: &str,
    probes: &[(usize, String)],
    rounds: usize,
) -> Result<f64, String> {
    let connect =
        |addr: &str| Client::connect(addr).map_err(|e| format!("probe connect {addr}: {e}"));
    let mut routed = connect(endpoint)?;
    let mut direct: Vec<(String, Client)> = Vec::new();
    for (_, owner) in probes {
        if !direct.iter().any(|(a, _)| a == owner) {
            direct.push((owner.clone(), connect(owner)?));
        }
    }
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        for (suite, owner) in probes {
            let req = (round * probes.len() + suite) as u64;
            let member = &mut direct.iter_mut().find(|(a, _)| a == owner).expect("dialed above").1;
            for (client, name, out) in
                [(&mut routed, "probe.routed", &mut via), (member, "probe.direct", &mut straight)]
            {
                let t0 = std::time::Instant::now();
                let (sub, _) = tracer.span(name, ROOT, req, || submit_once(client, *suite));
                out.push(t0.elapsed().as_secs_f64() * 1e6);
                if !sub?.cached {
                    return Err(format!("router-hop probe {name} missed the cache"));
                }
            }
        }
    }
    via.sort_by(f64::total_cmp);
    straight.sort_by(f64::total_cmp);
    Ok(percentile(&via, 0.5) - percentile(&straight, 0.5))
}
