//! The I/O, HIPPI and NETWORK benchmarks of §4.5.
//!
//! - I/O (§4.5.1): reads initial climate-model data and writes the
//!   simulated header + "history tape" — an unformatted direct-access file
//!   with one record per latitude, run for multiple model resolutions;
//! - HIPPI (§4.5.2): raw HIPPI packets of varying sizes, single and
//!   multiple concurrent transfers;
//! - NETWORK (§4.5.3): FDDI/IP data-transfer and non-data-transfer
//!   commands.
//!
//! The paper omits its results as "voluminous"; these drivers regenerate
//! representative tables against the modelled channels.

use crate::chan::Channel;
use crate::sfs::Sfs;
use ccm_proxy::Resolution;
use ncar_suite::{Series, Table};

/// One I/O-benchmark row: a resolution's history-tape write.
#[derive(Debug, Clone, Copy)]
pub struct IoPoint {
    pub(crate) resolution: Resolution,
    pub(crate) bytes: u64,
    pub(crate) records: usize,
    pub(crate) write_blocked_s: f64,
    pub(crate) durable_s: f64,
    pub(crate) read_s: f64,
}

/// History-tape geometry for one resolution: one direct-access record per
/// latitude ("different processors could write different records
/// representing data associated with a specific latitude").
pub(crate) fn history_tape(res: Resolution) -> (u64, usize) {
    let fields = 8 * res.nlev() + 16;
    let bytes = (fields * res.ncols() * 8) as u64;
    (bytes, res.nlat())
}

/// Run the I/O benchmark across the Table 4 resolutions.
pub fn io_benchmark() -> Vec<IoPoint> {
    Resolution::ALL
        .iter()
        .map(|&res| {
            let mut fs = Sfs::benchmarked();
            let (bytes, records) = history_tape(res);
            // Header file first (small, synchronous by nature).
            let header = fs.write(0.0, 64 * 1024, 1);
            let w = fs.write(header.blocked_s, bytes, records);
            let read_s = fs.read(bytes, records, false);
            IoPoint {
                resolution: res,
                bytes,
                records,
                write_blocked_s: header.blocked_s + w.blocked_s,
                durable_s: w.durable_s,
                read_s,
            }
        })
        .collect()
}

/// Render the I/O benchmark as a table.
pub fn io_table() -> Table {
    let mut t = Table::new(
        "I/O benchmark: history-tape write/read per resolution (SFS, async write-back through the XMU)",
        &["Resolution", "MB", "Records", "App-blocked s", "Durable s", "Read s", "App MB/s"],
    );
    for p in io_benchmark() {
        let mb = p.bytes as f64 / 1e6;
        t.row(&[
            p.resolution.name(),
            format!("{mb:.1}"),
            format!("{}", p.records),
            format!("{:.3}", p.write_blocked_s),
            format!("{:.2}", p.durable_s),
            format!("{:.2}", p.read_s),
            format!("{:.0}", mb / p.write_blocked_s),
        ]);
    }
    t
}

/// HIPPI benchmark: throughput vs packet size for 1 and 4 concurrent
/// transfers of a fixed 256 MB volume.
pub fn hippi_benchmark() -> Vec<Series> {
    let ch = Channel::hippi();
    let volume: u64 = 256 << 20;
    let mut out = Vec::new();
    for &streams in &[1usize, 4] {
        let mut s = Series::new(
            format!("{streams} concurrent transfer(s)"),
            "packet bytes",
            "MB/s aggregate",
        );
        let mut packet = 4096usize;
        while packet <= (4 << 20) {
            let packets = (volume as usize).div_ceil(packet);
            // Each stream sends its share; the channel serializes fairly.
            let secs = packets as f64 * ch.latency_s / streams as f64
                + volume as f64 * streams as f64 / ch.bytes_per_s;
            let aggregate = (volume as f64 * streams as f64) / secs / 1e6;
            s.push(packet as f64, aggregate);
            packet *= 4;
        }
        out.push(s);
    }
    out
}

/// Time for one HIPPI interoperability pass (used by PRODLOAD's per-job
/// HIPPI component): sweep the packet ladder once.
pub fn hippi_test_seconds() -> f64 {
    let ch = Channel::hippi();
    let volume: u64 = 256 << 20;
    let mut total = 0.0;
    let mut packet = 4096usize;
    while packet <= (4 << 20) {
        let packets = (volume as usize).div_ceil(packet);
        total += ch.transfer_seconds_ops(volume, packets);
        packet *= 4;
    }
    total
}

/// NETWORK benchmark: the shell-script's command list against the FDDI/IP
/// model, split into data-transfer and non-data-transfer commands.
pub fn network_table() -> Table {
    let fddi = Channel::fddi();
    let mut t = Table::new(
        "NETWORK benchmark: FDDI/IP external-network commands",
        &["Command", "Kind", "Bytes", "Seconds", "MB/s"],
    );
    let data_cmds: &[(&str, u64)] = &[
        ("ftp put 100MB", 100_000_000),
        ("ftp get 100MB", 100_000_000),
        ("rcp 10MB", 10_000_000),
        ("nfs read 1MB x64", 64_000_000),
    ];
    for (cmd, bytes) in data_cmds {
        // NFS-style traffic pays per-block latency.
        let ops = if cmd.contains("nfs") { 64 * 128 } else { 1 + (bytes / 8_000_000) as usize };
        let secs = fddi.transfer_seconds_ops(*bytes, ops);
        t.row(&[
            cmd.to_string(),
            "data".into(),
            format!("{bytes}"),
            format!("{secs:.2}"),
            format!("{:.2}", *bytes as f64 / secs / 1e6),
        ]);
    }
    let nodata_cmds: &[(&str, usize)] =
        &[("ping", 2), ("hostname lookup", 2), ("rsh true", 6), ("telnet connect", 8)];
    for (cmd, round_trips) in nodata_cmds {
        let secs = *round_trips as f64 * 2.0 * fddi.latency_s;
        t.row(&[cmd.to_string(), "non-data".into(), "0".into(), format!("{secs:.4}"), "-".into()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_covers_all_resolutions_and_scales() {
        let pts = io_benchmark();
        assert_eq!(pts.len(), Resolution::ALL.len());
        // Larger resolutions write more and take longer to become durable.
        for w in pts.windows(2) {
            assert!(w[1].bytes > w[0].bytes);
            assert!(w[1].durable_s > w[0].durable_s);
        }
    }

    #[test]
    fn app_blocking_far_below_durability() {
        // The XMU staging is the whole point of SFS.
        for p in io_benchmark() {
            assert!(p.write_blocked_s < 0.3 * p.durable_s, "{:?}", p.resolution);
        }
    }

    #[test]
    fn hippi_throughput_grows_with_packet_size() {
        let series = hippi_benchmark();
        let single = &series[0];
        let multi = &series[1];
        // One stream is latency-bound at small packets...
        assert!(
            single.points.last().unwrap().1 > 2.0 * single.points.first().unwrap().1,
            "{:?}",
            single.points
        );
        // ...while concurrent transfers amortize the per-packet latency.
        assert!(multi.points.first().unwrap().1 > single.points.first().unwrap().1);
        for s in &series {
            assert!(s.points.last().unwrap().1 >= s.points.first().unwrap().1);
            assert!(s.peak() <= 92.5, "HIPPI cannot beat line rate");
        }
    }

    #[test]
    fn hippi_test_duration_sane() {
        let s = hippi_test_seconds();
        assert!(s > 10.0 && s < 600.0, "{s}");
    }

    #[test]
    fn network_table_has_both_kinds() {
        let t = network_table();
        let render = t.render();
        assert!(render.contains("data"));
        assert!(render.contains("non-data"));
        assert!(render.contains("ftp put 100MB"));
        assert_eq!(t.rows.len(), 8);
    }

    #[test]
    fn ftp_rate_below_fddi_line_rate() {
        let t = network_table();
        let ftp = &t.rows[0];
        let rate: f64 = ftp[4].parse().unwrap();
        assert!(rate > 4.0 && rate <= 9.0, "{rate} MB/s");
    }
}
