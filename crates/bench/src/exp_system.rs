//! System experiments: PRODLOAD (§4.6), the I/O / HIPPI / NETWORK
//! benchmarks (§4.5), and the §3 comparison suites.

use ncar_suite::{Artifact, Figure, Table};
use othersuites::stream::stream_table;
use othersuites::{linpack, linpack_tpp, run_hint};
use superux::accounting::qacct_table;
use superux::iobench::{hippi_benchmark, io_table, network_table};
use superux::nqs::Nqs;
use superux::prodload::{prodload, CcmRates};
use superux::queues::QueueManager;
use sxsim::{presets, Node};

/// PRODLOAD: the production-mix benchmark. `measured` selects real model
/// measurement (slow) vs representative rates (fast).
pub fn prodload_experiment(measured: bool) -> Vec<Artifact> {
    let machine = presets::sx4_benchmarked();
    let rates = if measured { CcmRates::measure(&machine) } else { CcmRates::synthetic() };
    let node = Node::new(machine);
    let r = prodload(&node, &rates);
    let mut t = Table::new(
        "PRODLOAD: production job mix on the SX-4/32 (paper: 93 minutes 28 seconds total)",
        &["Test", "Composition", "Wall seconds"],
    );
    let desc = [
        "1 sequence of 4 jobs",
        "2 concurrent sequences of 4 jobs",
        "4 concurrent sequences of 4 jobs",
        "2 concurrent CCM2 T170 2-day runs",
    ];
    for (i, d) in desc.iter().enumerate() {
        t.row(&[format!("{}", i + 1), d.to_string(), format!("{:.0}", r.test_seconds[i])]);
    }
    t.row(&["total".into(), r.formatted(), format!("{:.0}", r.total_seconds)]);

    // Accounting view of a representative production shift: the same job
    // classes routed through the site's queue complex.
    let nqs = Nqs::whole_node(&node);
    let mut qm = QueueManager::site_default();
    let job = |name: &str, procs: usize, secs: f64| superux::nqs::JobSpec {
        name: name.into(),
        procs,
        memory_bytes: 512 << 20,
        solo_seconds: secs,
        bytes_per_cycle_per_proc: rates.bpc,
        after: vec![],
    };
    qm.submit("express", job("interactive-check", 2, 30.0)).expect("fits");
    qm.submit("premium", job("ccm2-T106", 4, 600.0)).expect("fits");
    qm.submit("regular", job("ccm2-T42-a", 4, 900.0)).expect("fits");
    qm.submit("regular", job("ccm2-T42-b", 4, 900.0)).expect("fits");
    qm.submit("standby", job("mom-spinup", 16, 400.0)).expect("fits");
    let (jobs, schedule) = qm.run(&nqs).expect("site mix is schedulable");
    vec![Artifact::Table(t), Artifact::Table(qacct_table(&jobs, &schedule))]
}

/// The I/O benchmark (§4.5.1).
pub fn io() -> Vec<Artifact> {
    vec![Artifact::Table(io_table())]
}

/// The HIPPI benchmark (§4.5.2).
pub fn hippi() -> Vec<Artifact> {
    let mut fig = Figure::new("HIPPI benchmark: aggregate throughput vs packet size");
    for s in hippi_benchmark() {
        fig.push(s);
    }
    vec![Artifact::Figure(fig)]
}

/// The NETWORK benchmark (§4.5.3).
pub fn network() -> Vec<Artifact> {
    vec![Artifact::Table(network_table())]
}

/// The §3 comparison suites: LINPACK, STREAM and the HINT curve.
pub fn other_suites() -> Vec<Artifact> {
    let sx4 = presets::sx4_benchmarked();
    let ymp = presets::cray_ymp();

    let mut lp = Table::new(
        "LINPACK (\"tends to measure peak performance\"), Mflops",
        &["Order", "NEC SX-4/1", "CRI Y-MP", "RS6K 590"],
    );
    let rs6k = presets::rs6000_590();
    for n in [100usize, 1000] {
        lp.row(&[
            format!("{n}"),
            format!("{:.0}", linpack(&sx4, n).mflops),
            format!("{:.0}", linpack(&ymp, n).mflops),
            format!("{:.0}", linpack(&rs6k, n).mflops),
        ]);
    }
    // The TPP row: blocked (BLAS-3) LU, where cache machines close the gap.
    lp.row(&[
        "1000 TPP (blocked)".into(),
        format!("{:.0}", linpack_tpp(&sx4, 1000, 32)),
        format!("{:.0}", linpack_tpp(&ymp, 1000, 32)),
        format!("{:.0}", linpack_tpp(&rs6k, 1000, 32)),
    ]);

    let mut st =
        Table::new("STREAM (fixed-size long-vector bandwidth), SX-4/1", &["Operation", "MB/s"]);
    for r in stream_table(&sx4) {
        st.row(&[r.op.name().to_string(), format!("{:.0}", r.mb_per_s)]);
    }

    let mut hint_fig =
        Figure::new("HINT QUIPS trajectory (cache machines peak early, Crays run flat)");
    for m in [presets::rs6000_590(), presets::cray_ymp()] {
        let r = run_hint(&m, 200_000);
        let mut s = ncar_suite::Series::new(m.name.clone(), "subdivisions", "MQUIPS");
        for (x, y) in r.trajectory {
            s.push(x as f64, y);
        }
        hint_fig.push(s);
    }

    vec![Artifact::Table(lp), Artifact::Table(st), Artifact::Figure(hint_fig)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prodload_fast_path_produces_all_tests() {
        let arts = prodload_experiment(false);
        let Artifact::Table(t) = &arts[0] else { panic!() };
        assert_eq!(t.rows.len(), 5);
        assert!(t.rows[4][1].contains("minutes"));
    }

    #[test]
    fn io_and_network_render() {
        let io = io();
        let net = network();
        assert!(io[0].render().contains("T170L18"));
        assert!(net[0].render().contains("ftp"));
    }

    #[test]
    fn linpack_1000_beats_100_on_sx4() {
        let arts = other_suites();
        let Artifact::Table(lp) = &arts[0] else { panic!() };
        let small: f64 = lp.rows[0][1].parse().unwrap();
        let large: f64 = lp.rows[1][1].parse().unwrap();
        assert!(large > 1.5 * small, "{small} vs {large}");
    }
}
