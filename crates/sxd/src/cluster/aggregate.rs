//! Merging member STATS/METRICS replies into one cluster-wide view.
//!
//! RZBENCH's lesson (arXiv 0712.3389) applies verbatim: a cross-node
//! benchmark matrix is only trustworthy when one harness aggregates all
//! members. The merged document keeps the exact shape of a single
//! member's reply — counters sum, occupancy gauges sum while ratio gauges
//! re-weight by served traffic, latency histograms merge bucket-wise (see
//! `ncar_suite::metrics::HistogramSnapshot::merge`),
//! per-suite rows combine with run-weighted average stretch — so every
//! existing consumer (`flood`, `ncar-bench metrics`, servebench) reads a
//! router exactly as it reads a daemon.
//!
//! The reconciliation guarantee survives the merge because it is linear:
//! each member's METRICS snapshot satisfies
//! `accepted == done + rejected + queued + running` and
//! `latency.job.count == done + rejected` *internally*, so the sums
//! satisfy both identities too, even though the member snapshots were
//! taken at different instants.

use std::collections::BTreeMap;

use ncar_suite::metrics::HistogramSnapshot;
use ncar_suite::Json;

/// Sum one top-level counter across member docs (absent fields count 0).
fn sum_u64(members: &[Json], key: &str) -> u64 {
    members.iter().filter_map(|m| m.get(key).and_then(Json::as_u64)).sum()
}

fn sum_nested_u64(members: &[Json], outer: &str, key: &str) -> u64 {
    members
        .iter()
        .filter_map(|m| m.get(outer).and_then(|o| o.get(key)).and_then(Json::as_u64))
        .sum()
}

fn any_true(members: &[Json], key: &str) -> bool {
    members.iter().any(|m| m.get(key).and_then(Json::as_bool) == Some(true))
}

/// Merge member `stats` documents into one cluster `stats` document with
/// the same fields (plus `members`, the count merged over). Counters and
/// cache tallies sum; `draining`/`shutting_down` are true when any member
/// says so; `journal` sums across the durable members, or is `null` when
/// no member has one.
pub fn merge_stats(members: &[Json]) -> String {
    let mut suite_seconds: BTreeMap<String, f64> = BTreeMap::new();
    for m in members {
        if let Some(obj) = m.get("suite_seconds").and_then(Json::as_obj) {
            for (k, v) in obj {
                if let Some(x) = v.as_f64() {
                    *suite_seconds.entry(k.clone()).or_insert(0.0) += x;
                }
            }
        }
    }
    let suite_json =
        Json::Obj(suite_seconds.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()).to_string();

    let journals: Vec<&Json> = members
        .iter()
        .filter_map(|m| m.get("journal"))
        .filter(|j| !matches!(j, Json::Null))
        .collect();
    let journal = if journals.is_empty() {
        "null".to_string()
    } else {
        let jn = |k: &str| -> u64 {
            journals.iter().filter_map(|j| j.get(k).and_then(Json::as_u64)).sum()
        };
        format!(
            "{{\"appended\":{},\"replayed\":{},\"compactions\":{},\
             \"truncated_bytes\":{},\"io_errors\":{}}}",
            jn("appended"),
            jn("replayed"),
            jn("compactions"),
            jn("truncated_bytes"),
            jn("io_errors"),
        )
    };

    let cn = |k: &str| sum_nested_u64(members, "cache", k);
    let xn = |k: &str| sum_nested_u64(members, "conns", k);
    format!(
        "{{\"accepted\":{},\"rejected\":{},\"queued\":{},\
         \"running\":{},\"done\":{},\"bad_requests\":{},\"coalesced\":{},\
         \"checkpointed\":{},\"absorbed\":{},\"fastpath_hits\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{},\
         \"evictions\":{},\"entries\":{},\"cap\":{}}},\
         \"conns\":{{\"open\":{},\"accepted\":{},\"idle_closed\":{}}},\
         \"suite_seconds\":{},\"workers\":{},\"journal\":{},\
         \"draining\":{},\"shutting_down\":{},\"members\":{}}}",
        sum_u64(members, "accepted"),
        sum_u64(members, "rejected"),
        sum_u64(members, "queued"),
        sum_u64(members, "running"),
        sum_u64(members, "done"),
        sum_u64(members, "bad_requests"),
        sum_u64(members, "coalesced"),
        sum_u64(members, "checkpointed"),
        sum_u64(members, "absorbed"),
        sum_u64(members, "fastpath_hits"),
        cn("hits"),
        cn("misses"),
        cn("evictions"),
        cn("entries"),
        cn("cap"),
        xn("open"),
        xn("accepted"),
        xn("idle_closed"),
        suite_json,
        sum_u64(members, "workers"),
        journal,
        any_true(members, "draining"),
        any_true(members, "shutting_down"),
        members.len(),
    )
}

/// Merge the latency histogram objects of every member. Buckets add
/// exactly (the property `core/tests/metrics_merge.rs` pins: merged
/// percentiles equal percentiles of the concatenated stream); a member
/// whose histogram is missing or shaped differently is skipped rather
/// than poisoning the merge.
fn merge_latency(members: &[Json]) -> Json {
    let mut merged: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for m in members {
        let Some(obj) = m.get("latency").and_then(Json::as_obj) else { continue };
        for (name, doc) in obj {
            let Some(snap) = HistogramSnapshot::from_json(doc) else { continue };
            match merged.get_mut(name) {
                None => {
                    merged.insert(name.clone(), snap);
                }
                Some(acc) => {
                    acc.merge(&snap);
                }
            }
        }
    }
    Json::Obj(merged.into_iter().map(|(k, s)| (k, s.to_json())).collect())
}

/// Merge the per-suite breakdowns: runs and simulated seconds sum, the
/// average stretch re-weights by each member's run count.
fn merge_suites(members: &[Json]) -> Json {
    #[derive(Default)]
    struct Row {
        runs: u64,
        sim_seconds: f64,
        stretch_weighted: f64,
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for m in members {
        let Some(obj) = m.get("suites").and_then(Json::as_obj) else { continue };
        for (name, s) in obj {
            let runs = s.get("runs").and_then(Json::as_u64).unwrap_or(0);
            let row = rows.entry(name.clone()).or_default();
            row.runs += runs;
            row.sim_seconds += s.get("sim_seconds").and_then(Json::as_f64).unwrap_or(0.0);
            row.stretch_weighted +=
                s.get("avg_stretch").and_then(Json::as_f64).unwrap_or(0.0) * runs as f64;
        }
    }
    Json::Obj(
        rows.into_iter()
            .map(|(name, r)| {
                let avg = if r.runs > 0 { r.stretch_weighted / r.runs as f64 } else { 0.0 };
                (
                    name,
                    Json::Obj(vec![
                        ("runs".into(), Json::Num(r.runs as f64)),
                        ("sim_seconds".into(), Json::Num(r.sim_seconds)),
                        ("avg_stretch".into(), Json::Num(avg)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Gauges that are ratios (instantaneous rates), not occupancy counts.
/// Summing them across members is meaningless — a cluster of N equally
/// loaded members would report N× the stretch any one of them sees — so
/// they merge as run-weighted means instead (see [`merge_metrics`]).
const RATIO_GAUGES: &[&str] = &["admission_stretch"];

/// Merge full member `metrics` documents into one cluster `metrics`
/// document: merged stats, merged gauges, merged latency histograms,
/// merged suite breakdown. Occupancy gauges (queue depths, busy workers,
/// cache entries) sum; ratio gauges ([`RATIO_GAUGES`]) merge as the mean
/// weighted by each member's completed-job count, falling back to a plain
/// mean when no member has completed anything. The cluster is
/// `reconciled` when every member reported itself reconciled *and* the
/// merged `job` histogram count equals the merged `done + rejected` — the
/// cross-member restatement of the single-node guarantee.
pub fn merge_metrics(members: &[Json]) -> String {
    let stats_docs: Vec<Json> = members.iter().filter_map(|m| m.get("stats").cloned()).collect();
    let stats = merge_stats(&stats_docs);

    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    // Ratio-gauge accumulator: (run-weighted sum, weight, plain sum, count).
    let mut ratios: BTreeMap<String, (f64, f64, f64, f64)> = BTreeMap::new();
    for m in members {
        let runs =
            m.get("stats").and_then(|s| s.get("done")).and_then(Json::as_u64).unwrap_or(0) as f64;
        if let Some(obj) = m.get("gauges").and_then(Json::as_obj) {
            for (k, v) in obj {
                let x = v.as_f64().unwrap_or(0.0);
                if RATIO_GAUGES.contains(&k.as_str()) {
                    let acc = ratios.entry(k.clone()).or_insert((0.0, 0.0, 0.0, 0.0));
                    acc.0 += x * runs;
                    acc.1 += runs;
                    acc.2 += x;
                    acc.3 += 1.0;
                } else {
                    *gauges.entry(k.clone()).or_insert(0.0) += x;
                }
            }
        }
    }
    for (k, (weighted, weight, plain, count)) in ratios {
        let mean = if weight > 0.0 {
            weighted / weight
        } else if count > 0.0 {
            plain / count
        } else {
            0.0
        };
        gauges.insert(k, mean);
    }
    let gauges = Json::Obj(gauges.into_iter().map(|(k, v)| (k, Json::Num(v))).collect());

    let latency = merge_latency(members);
    let suites = merge_suites(members);

    let each_reconciled = !members.is_empty()
        && members.iter().all(|m| m.get("reconciled").and_then(Json::as_bool) == Some(true));
    let job_count =
        latency.get("job").and_then(|h| h.get("count")).and_then(Json::as_u64).unwrap_or(0);
    let done = sum_nested_u64(members, "stats", "done");
    let rejected = sum_nested_u64(members, "stats", "rejected");
    let reconciled = each_reconciled && job_count == done + rejected;

    format!(
        "{{\"stats\":{stats},\"gauges\":{gauges},\"latency\":{latency},\
         \"suites\":{suites},\"reconciled\":{reconciled}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member_stats(accepted: u64, done: u64, queued: u64, hits: u64) -> Json {
        Json::parse(&format!(
            "{{\"accepted\":{accepted},\"rejected\":0,\"queued\":{queued},\"running\":0,\
             \"done\":{done},\"bad_requests\":1,\"coalesced\":2,\"checkpointed\":0,\
             \"absorbed\":0,\"fastpath_hits\":{hits},\
             \"cache\":{{\"hits\":{hits},\"misses\":3,\"evictions\":0,\"entries\":4,\"cap\":256}},\
             \"conns\":{{\"open\":1,\"accepted\":{accepted},\"idle_closed\":2}},\
             \"suite_seconds\":{{\"fig5\":1.5}},\"workers\":4,\
             \"journal\":{{\"appended\":5,\"replayed\":0,\"compactions\":1,\
             \"truncated_bytes\":0,\"io_errors\":0}},\
             \"draining\":false,\"shutting_down\":false}}"
        ))
        .unwrap()
    }

    #[test]
    fn merged_stats_sum_counters_and_keep_the_member_shape() {
        let merged = merge_stats(&[member_stats(5, 3, 2, 7), member_stats(10, 10, 0, 1)]);
        let doc = Json::parse(&merged).expect("merged stats must be valid JSON");
        let n = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(n("accepted"), 15);
        assert_eq!(n("done"), 13);
        assert_eq!(n("queued"), 2);
        assert_eq!(n("bad_requests"), 2);
        assert_eq!(n("fastpath_hits"), 8);
        assert_eq!(n("workers"), 8);
        assert_eq!(n("members"), 2);
        assert_eq!(doc.get("cache").unwrap().get("hits").unwrap().as_u64(), Some(8));
        let conns = doc.get("conns").unwrap();
        assert_eq!(conns.get("open").unwrap().as_u64(), Some(2));
        assert_eq!(conns.get("accepted").unwrap().as_u64(), Some(15));
        assert_eq!(conns.get("idle_closed").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("suite_seconds").unwrap().get("fig5").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("journal").unwrap().get("appended").unwrap().as_u64(), Some(10));
        // Each member satisfies the invariant, so the sum does too.
        assert_eq!(n("accepted"), n("done") + n("rejected") + n("queued") + n("running"));
    }

    #[test]
    fn memory_only_members_merge_to_a_null_journal() {
        let mut a = member_stats(1, 1, 0, 0);
        let mut b = member_stats(1, 1, 0, 0);
        for m in [&mut a, &mut b] {
            if let Json::Obj(fields) = m {
                for (k, v) in fields.iter_mut() {
                    if k == "journal" {
                        *v = Json::Null;
                    }
                }
            }
        }
        let doc = Json::parse(&merge_stats(&[a, b])).unwrap();
        assert!(matches!(doc.get("journal"), Some(Json::Null)));
    }

    #[test]
    fn merged_metrics_reconcile_and_reweight_stretch() {
        let member = |done: u64, runs: u64, stretch: f64| {
            Json::parse(&format!(
                "{{\"stats\":{{\"accepted\":{done},\"rejected\":0,\"queued\":0,\"running\":0,\
                 \"done\":{done},\"bad_requests\":0,\"coalesced\":0,\"checkpointed\":0,\
                 \"absorbed\":0,\
                 \"cache\":{{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0,\"cap\":8}},\
                 \"suite_seconds\":{{}},\"workers\":1,\"journal\":null,\
                 \"draining\":false,\"shutting_down\":false}},\
                 \"gauges\":{{\"pool_queue_depth\":1.0}},\
                 \"latency\":{{\"job\":{{\"le\":[1.0,2.0],\"n\":[{done},0,0],\
                 \"count\":{done},\"sum\":0.5}}}},\
                 \"suites\":{{\"toy\":{{\"runs\":{runs},\"sim_seconds\":1.0,\
                 \"avg_stretch\":{stretch}}}}},\
                 \"reconciled\":true}}"
            ))
            .unwrap()
        };
        let merged = merge_metrics(&[member(2, 2, 1.0), member(6, 6, 2.0)]);
        let doc = Json::parse(&merged).expect("merged metrics must be valid JSON");
        assert_eq!(doc.get("reconciled").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("stats").unwrap().get("done").unwrap().as_u64(), Some(8));
        let job = doc.get("latency").unwrap().get("job").unwrap();
        assert_eq!(job.get("count").unwrap().as_u64(), Some(8));
        assert_eq!(doc.get("gauges").unwrap().get("pool_queue_depth").unwrap().as_f64(), Some(2.0));
        let toy = doc.get("suites").unwrap().get("toy").unwrap();
        assert_eq!(toy.get("runs").unwrap().as_u64(), Some(8));
        // (2·1.0 + 6·2.0) / 8 = 1.75 — run-weighted, not a plain average.
        assert_eq!(toy.get("avg_stretch").unwrap().as_f64(), Some(1.75));
    }

    #[test]
    fn ratio_gauges_merge_as_run_weighted_means_not_sums() {
        let member = |done: u64, stretch: f64, depth: f64| {
            Json::parse(&format!(
                "{{\"stats\":{{\"accepted\":{done},\"rejected\":0,\"queued\":0,\"running\":0,\
                 \"done\":{done},\
                 \"cache\":{{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0,\"cap\":8}},\
                 \"suite_seconds\":{{}},\"workers\":1,\"journal\":null,\
                 \"draining\":false,\"shutting_down\":false}},\
                 \"gauges\":{{\"admission_stretch\":{stretch},\"pool_queue_depth\":{depth}}},\
                 \"latency\":{{}},\"suites\":{{}},\"reconciled\":true}}"
            ))
            .unwrap()
        };
        // A busy member at stretch 2.0 and a lightly loaded one at 1.0:
        // the cluster stretch is (6·2.0 + 2·1.0) / 8 = 1.75, never the
        // 3.0 a plain sum would claim; occupancy gauges still sum.
        let doc = Json::parse(&merge_metrics(&[member(6, 2.0, 3.0), member(2, 1.0, 1.0)])).unwrap();
        let g = |k: &str| doc.get("gauges").unwrap().get(k).unwrap().as_f64().unwrap();
        assert_eq!(g("admission_stretch"), 1.75);
        assert_eq!(g("pool_queue_depth"), 4.0);

        // Idle members (zero completed jobs) fall back to the plain mean.
        let doc = Json::parse(&merge_metrics(&[member(0, 2.0, 0.0), member(0, 1.0, 0.0)])).unwrap();
        let stretch =
            doc.get("gauges").unwrap().get("admission_stretch").unwrap().as_f64().unwrap();
        assert_eq!(stretch, 1.5);
    }

    #[test]
    fn a_lying_member_breaks_cluster_reconciliation() {
        let bad = Json::parse(
            "{\"stats\":{\"accepted\":1,\"rejected\":0,\"queued\":0,\"running\":0,\"done\":1,\
             \"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0,\"cap\":8},\
             \"suite_seconds\":{},\"workers\":1,\"journal\":null,\
             \"draining\":false,\"shutting_down\":false},\
             \"gauges\":{},\"latency\":{\"job\":{\"le\":[1.0],\"n\":[9,0],\"count\":9,\"sum\":0.0}},\
             \"suites\":{},\"reconciled\":false}",
        )
        .unwrap();
        let doc = Json::parse(&merge_metrics(&[bad])).unwrap();
        assert_eq!(doc.get("reconciled").unwrap().as_bool(), Some(false));
    }
}
