//! The executable EXPERIMENTS.md: every quantitative anchor the paper
//! publishes, measured on the simulator and checked against its claimed
//! band through one scorecard. If this test passes, the reproduction's
//! headline claims hold; its rendered output is the audit table.

use ncar_sx4::climate::{steady_step, Ccm2Config, Resolution};
use ncar_sx4::kernels::radabs::radabs_benchmark;
use ncar_sx4::ocean::{Mom, MomConfig, Pop, PopConfig};
use ncar_sx4::others::hint_mquips;
use ncar_sx4::sim::{presets, JobDemand, Node};

/// How close a reproduction claims to land.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tolerance {
    /// Within `pct` percent of the paper's value.
    Percent(f64),
    /// Within a multiplicative factor (e.g. 2.0 = anywhere in [x/2, 2x]).
    Factor(f64),
    /// Only the ordering/sign of the comparison matters; any positive
    /// finite value passes (used where the paper gives no number).
    ShapeOnly,
}

/// One published value and the band the reproduction claims.
#[derive(Debug, Clone)]
struct PaperAnchor {
    /// Which experiment this belongs to (e.g. "Table 7").
    experiment: String,
    /// What is being measured (e.g. "MOM speedup at 32 CPUs").
    quantity: String,
    /// The paper's number.
    paper: f64,
    tolerance: Tolerance,
}

impl PaperAnchor {
    fn new(
        experiment: impl Into<String>,
        quantity: impl Into<String>,
        paper: f64,
        tolerance: Tolerance,
    ) -> PaperAnchor {
        PaperAnchor { experiment: experiment.into(), quantity: quantity.into(), paper, tolerance }
    }

    /// Does `measured` fall inside the claimed band?
    fn check(&self, measured: f64) -> bool {
        if !measured.is_finite() {
            return false;
        }
        match self.tolerance {
            Tolerance::Percent(p) => (measured - self.paper).abs() <= self.paper.abs() * p / 100.0,
            Tolerance::Factor(f) => {
                assert!(f >= 1.0, "factor tolerance must be >= 1");
                let (lo, hi) = (self.paper / f, self.paper * f);
                (lo.min(hi)..=lo.max(hi)).contains(&measured)
            }
            Tolerance::ShapeOnly => measured > 0.0,
        }
    }

    /// Ratio measured/paper (the number a reviewer asks for first).
    fn ratio(&self, measured: f64) -> f64 {
        measured / self.paper
    }
}

/// One filled-in comparison.
#[derive(Debug, Clone)]
struct Comparison {
    anchor: PaperAnchor,
    measured: f64,
    pass: bool,
}

/// The audit table.
#[derive(Debug, Clone, Default)]
struct Scorecard {
    rows: Vec<Comparison>,
}

impl Scorecard {
    fn new() -> Scorecard {
        Scorecard::default()
    }

    /// Record a measurement against an anchor; returns pass/fail.
    fn record(&mut self, anchor: PaperAnchor, measured: f64) -> bool {
        let pass = anchor.check(measured);
        self.rows.push(Comparison { anchor, measured, pass });
        pass
    }

    fn all_pass(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// Render the audit table.
    fn render(&self) -> String {
        let mut out = String::from("paper-vs-measured scorecard\n");
        out.push_str(&format!(
            "{:<12} {:<42} {:>12} {:>12} {:>7} {:>6}\n",
            "experiment", "quantity", "paper", "measured", "ratio", "pass"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:<42} {:>12.2} {:>12.2} {:>7.2} {:>6}\n",
                r.anchor.experiment,
                r.anchor.quantity,
                r.anchor.paper,
                r.measured,
                r.anchor.ratio(r.measured),
                if r.pass { "ok" } else { "FAIL" },
            ));
        }
        out
    }
}

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

#[test]
fn percent_tolerance() {
    let a = PaperAnchor::new("§4.4", "RADABS Mflops", 865.9, Tolerance::Percent(15.0));
    assert!(a.check(865.9));
    assert!(a.check(911.6));
    assert!(a.check(750.0));
    assert!(!a.check(600.0));
    assert!(!a.check(1100.0));
}

#[test]
fn factor_tolerance() {
    let a = PaperAnchor::new("Fig 8", "T170/32 Gflops", 24.0, Tolerance::Factor(2.5));
    assert!(a.check(24.0));
    assert!(a.check(11.0));
    assert!(a.check(55.0));
    assert!(!a.check(9.0));
    assert!(!a.check(65.0));
}

#[test]
fn shape_only_accepts_any_positive() {
    let a = PaperAnchor::new("Table 3", "EXP Mcalls/s", 0.0, Tolerance::ShapeOnly);
    assert!(a.check(44.4));
    assert!(!a.check(-1.0));
    assert!(!a.check(f64::NAN));
}

#[test]
fn nan_never_passes() {
    for tol in [Tolerance::Percent(1000.0), Tolerance::Factor(1000.0), Tolerance::ShapeOnly] {
        let a = PaperAnchor::new("x", "y", 1.0, tol);
        assert!(!a.check(f64::NAN));
    }
}

#[test]
fn scorecard_collects_and_renders() {
    let mut sc = Scorecard::new();
    assert!(sc.record(
        PaperAnchor::new("Table 6", "ensemble degradation %", 1.89, Tolerance::Factor(3.0)),
        1.80,
    ));
    assert!(!sc
        .record(PaperAnchor::new("Table 7", "speedup at 32", 9.06, Tolerance::Percent(5.0)), 7.2,));
    assert!(!sc.all_pass());
    assert_eq!(sc.rows.iter().filter(|r| !r.pass).count(), 1);
    let text = sc.render();
    assert!(text.contains("Table 6"));
    assert!(text.contains("FAIL"));
}

#[test]
#[should_panic(expected = "factor tolerance")]
fn sub_unit_factor_rejected() {
    let a = PaperAnchor::new("x", "y", 1.0, Tolerance::Factor(0.5));
    a.check(1.0);
}
