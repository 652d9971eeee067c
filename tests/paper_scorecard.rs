//! The executable EXPERIMENTS.md: every quantitative anchor the paper
//! publishes, measured on the simulator and checked against its claimed
//! band through one scorecard. If this test passes, the reproduction's
//! headline claims hold; its rendered output is the audit table.

use ncar_sx4::climate::{steady_step, Ccm2Config, Resolution};
use ncar_sx4::kernels::radabs::radabs_benchmark;
use ncar_sx4::ocean::{Mom, MomConfig, Pop, PopConfig};
use ncar_sx4::others::hint_mquips;
use ncar_sx4::sim::{presets, JobDemand, Node};
use ncar_sx4::suite::{PaperAnchor, Scorecard, Tolerance};

#[test]
fn scorecard_of_published_anchors() {
    let mut sc = Scorecard::new();
    let sx4 = presets::sx4_benchmarked();

    // §4.4 — the RADABS headline (calibration anchor: tight band).
    sc.record(
        PaperAnchor::new(
            "§4.4",
            "RADABS SX-4/1 Cray-equiv Mflops",
            865.9,
            Tolerance::Percent(15.0),
        ),
        radabs_benchmark(&sx4),
    );

    // Table 1 — RADABS row (calibration anchors) and HINT row (predicted).
    for (machine, name, radabs_paper, hint_paper) in [
        (presets::sparc20(), "SPARC20", 12.8, 3.5),
        (presets::rs6000_590(), "RS6K 590", 16.5, 5.2),
        (presets::cri_j90(), "J90", 60.8, 1.7),
        (presets::cray_ymp(), "Y-MP", 178.1, 3.1),
    ] {
        sc.record(
            PaperAnchor::new(
                "Table 1",
                format!("RADABS {name} Mflops"),
                radabs_paper,
                Tolerance::Percent(20.0),
            ),
            radabs_benchmark(&machine),
        );
        sc.record(
            PaperAnchor::new(
                "Table 1",
                format!("HINT {name} MQUIPS"),
                hint_paper,
                Tolerance::Factor(2.0),
            ),
            hint_mquips(&machine),
        );
    }

    // Table 6 — ensemble degradation.
    {
        let t = steady_step(&Ccm2Config::benchmark(Resolution::T42), &sx4, 4);
        let node = Node::new(sx4.clone());
        let job = JobDemand {
            solo_cycles: 0.0,
            procs: 4,
            bytes_per_cycle_per_proc: t.bytes_per_cycle_per_proc,
        };
        let deg = (node.coschedule_stretch(&[job; 8]).unwrap() - 1.0) * 100.0;
        sc.record(
            PaperAnchor::new("Table 6", "ensemble degradation %", 1.89, Tolerance::Factor(2.5)),
            deg,
        );
    }

    // Table 5 — the T63/T42 one-year ratio (per-step basis).
    {
        let day = |res: Resolution| {
            steady_step(&Ccm2Config::benchmark(res), &sx4, 32).seconds * res.steps_per_day() as f64
        };
        let ratio = day(Resolution::T63) / day(Resolution::T42);
        sc.record(
            PaperAnchor::new(
                "Table 5",
                "T63/T42 yearly time ratio",
                3452.48 / 1327.53,
                Tolerance::Percent(40.0),
            ),
            ratio,
        );
    }

    // Table 7 — MOM speedup at 32 CPUs (one diagnostics block).
    {
        let run =
            |procs: usize| Mom::priced_run(MomConfig::high_resolution(), sx4.clone(), 10, procs);
        let speedup = run(1) / run(32);
        sc.record(
            PaperAnchor::new("Table 7", "MOM speedup at 32 CPUs", 9.06, Tolerance::Percent(35.0)),
            speedup,
        );
    }

    // §4.7.3 — POP single-processor Mflops.
    {
        let mut p = Pop::new(PopConfig::two_degree(), sx4);
        sc.record(
            PaperAnchor::new("§4.7.3", "POP 2-deg 1-proc Mflops", 537.0, Tolerance::Factor(1.8)),
            p.mflops(3),
        );
    }

    let report = sc.render();
    println!("{report}");
    assert!(sc.all_pass(), "scorecard failures:\n{report}");
}
