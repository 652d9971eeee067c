//! History tapes and restart records.
//!
//! The CCM2 benchmark "writes a simulated header file and a simulated
//! 'history tape' file. The history tape file is an unformatted, direct
//! access file so that if run on a multiprocessing system, different
//! processors could write different records representing data associated
//! with a specific latitude" (paper §4.5.1), and SUPER-UX offers
//! checkpoint/restart "by user or operator commands" (§2.6.2).
//!
//! This module implements both for the proxy model: a binary history-tape
//! encoding with one record per latitude, and a restart record that
//! round-trips the full model state bit-exactly. The encodings are real
//! (written with [`ncar_suite::wire`], parsed back, checksummed) so the I/O
//! benchmark moves honest payloads.

use crate::model::Ccm2Proxy;
use crate::resolution::Resolution;
use ncar_kernels::fft::C64;
use ncar_suite::wire::{WireReader, WireWriter};

/// Magic number at the head of every record ("NCAR" in ASCII).
const MAGIC: u32 = 0x4e43_4152;
/// Format version.
const VERSION: u16 = 1;

/// The header file written before the tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeHeader {
    pub resolution: Resolution,
    pub step: u64,
    pub fields_per_record: u16,
}

impl TapeHeader {
    pub fn encode(&self) -> Vec<u8> {
        let mut b = WireWriter::with_capacity(32);
        b.put_u32(MAGIC);
        b.put_u16(VERSION);
        b.put_u16(self.fields_per_record);
        b.put_u64(self.step);
        b.put_u32(self.resolution.truncation() as u32);
        b.put_u32(self.resolution.nlat() as u32);
        b.put_u32(self.resolution.nlon() as u32);
        b.into_vec()
    }

    pub fn decode(data: &[u8]) -> Result<TapeHeader, String> {
        let mut buf = WireReader::new(data);
        if buf.remaining() < 28 {
            return Err("header truncated".into());
        }
        if buf.get_u32() != MAGIC {
            return Err("bad magic".into());
        }
        let version = buf.get_u16();
        if version != VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let fields = buf.get_u16();
        let step = buf.get_u64();
        let trunc = buf.get_u32() as usize;
        let _nlat = buf.get_u32();
        let _nlon = buf.get_u32();
        let resolution = Resolution::ALL
            .into_iter()
            .find(|r| r.truncation() == trunc)
            .ok_or_else(|| format!("unknown truncation T{trunc}"))?;
        Ok(TapeHeader { resolution, step, fields_per_record: fields })
    }
}

/// One direct-access record: every field's values along one latitude
/// circle (all levels), plus a checksum.
pub fn encode_latitude_record(model: &Ccm2Proxy, lat: usize) -> Vec<u8> {
    let res = model.config.resolution;
    let (nlon, nlev) = (res.nlon(), res.nlev());
    let mut b = WireWriter::with_capacity(16 + nlev * nlon * 8);
    b.put_u32(MAGIC);
    b.put_u32(lat as u32);
    let mut checksum = 0.0f64;
    for lev in &model.q {
        for &v in &lev[lat * nlon..(lat + 1) * nlon] {
            b.put_f64(v);
            checksum += v;
        }
    }
    b.put_f64(checksum);
    b.into_vec()
}

/// Parse a latitude record back; verifies magic and checksum.
pub fn decode_latitude_record(
    data: &[u8],
    nlon: usize,
    nlev: usize,
) -> Result<(usize, Vec<f64>), String> {
    let mut buf = WireReader::new(data);
    if buf.remaining() < 8 + nlev * nlon * 8 + 8 {
        return Err("record truncated".into());
    }
    if buf.get_u32() != MAGIC {
        return Err("bad record magic".into());
    }
    let lat = buf.get_u32() as usize;
    let mut values = Vec::with_capacity(nlev * nlon);
    let mut checksum = 0.0f64;
    for _ in 0..nlev * nlon {
        let v = buf.get_f64();
        checksum += v;
        values.push(v);
    }
    let stored = buf.get_f64();
    if (stored - checksum).abs() > 1e-9 * checksum.abs().max(1.0) {
        return Err("checksum mismatch".into());
    }
    Ok((lat, values))
}

/// A complete restart record: the full prognostic state — both leapfrog
/// time levels, so a restarted run continues bit-exactly.
#[derive(Debug, Clone)]
pub struct Restart {
    pub header: TapeHeader,
    pub phi: Vec<Vec<C64>>,
    pub phi_prev: Vec<Vec<C64>>,
    pub delta: Vec<Vec<C64>>,
    pub delta_prev: Vec<Vec<C64>>,
    pub zeta: Vec<Vec<C64>>,
    pub zeta_prev: Vec<Vec<C64>>,
    pub q: Vec<Vec<f64>>,
}

/// Write the model's state as a restart record.
pub fn checkpoint(model: &Ccm2Proxy) -> Vec<u8> {
    let res = model.config.resolution;
    let header = TapeHeader { resolution: res, step: model.steps as u64, fields_per_record: 7 };
    let mut b = WireWriter::default();
    b.put_bytes(&header.encode());
    let state = model.state();
    let put_spec = |b: &mut WireWriter, field: &[Vec<C64>]| {
        for lev in field {
            for c in lev {
                b.put_f64(c.re);
                b.put_f64(c.im);
            }
        }
    };
    for field in
        [state.phi, state.phi_prev, state.delta, state.delta_prev, state.zeta, state.zeta_prev]
    {
        put_spec(&mut b, field);
    }
    for lev in state.q {
        for &v in lev {
            b.put_f64(v);
        }
    }
    b.into_vec()
}

/// Read a restart record back into structured state.
pub fn read_checkpoint(data: &[u8], nspec: usize) -> Result<Restart, String> {
    if data.len() < 28 {
        return Err("restart record shorter than its header".into());
    }
    let header = TapeHeader::decode(&data[..28])?;
    let mut buf = WireReader::new(&data[28..]);
    let res = header.resolution;
    let (nlev, nlon, nlat) = (res.nlev(), res.nlon(), res.nlat());
    let need = 6 * nlev * nspec * 16 + nlev * nlat * nlon * 8;
    if buf.remaining() < need {
        return Err(format!("restart truncated: {} < {need}", buf.remaining()));
    }
    let get_spec = |buf: &mut WireReader| -> Vec<Vec<C64>> {
        (0..nlev)
            .map(|_| (0..nspec).map(|_| C64::new(buf.get_f64(), buf.get_f64())).collect())
            .collect()
    };
    let phi = get_spec(&mut buf);
    let phi_prev = get_spec(&mut buf);
    let delta = get_spec(&mut buf);
    let delta_prev = get_spec(&mut buf);
    let zeta = get_spec(&mut buf);
    let zeta_prev = get_spec(&mut buf);
    let q = (0..nlev).map(|_| (0..nlat * nlon).map(|_| buf.get_f64()).collect()).collect();
    Ok(Restart { header, phi, phi_prev, delta, delta_prev, zeta, zeta_prev, q })
}

/// Restore a model from a restart record (resolution must match).
pub fn restore(model: &mut Ccm2Proxy, restart: &Restart) {
    assert_eq!(model.config.resolution, restart.header.resolution);
    model.set_state(
        restart.phi.clone(),
        restart.phi_prev.clone(),
        restart.delta.clone(),
        restart.delta_prev.clone(),
        restart.zeta.clone(),
        restart.zeta_prev.clone(),
        restart.q.clone(),
        restart.header.step as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Ccm2Config;
    use sxsim::presets;

    fn model() -> Ccm2Proxy {
        Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked())
    }

    #[test]
    fn header_roundtrip() {
        let h = TapeHeader { resolution: Resolution::T106, step: 12345, fields_per_record: 7 };
        let back = TapeHeader::decode(&h.encode()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn header_rejects_corruption() {
        let h = TapeHeader { resolution: Resolution::T42, step: 1, fields_per_record: 4 };
        let mut bytes = h.encode();
        bytes[0] ^= 0xFF;
        assert!(TapeHeader::decode(&bytes).is_err());
    }

    #[test]
    fn latitude_record_roundtrip() {
        let m = model();
        let res = m.config.resolution;
        let rec = encode_latitude_record(&m, 10);
        let (lat, values) = decode_latitude_record(&rec, res.nlon(), res.nlev()).unwrap();
        assert_eq!(lat, 10);
        assert_eq!(values.len(), res.nlev() * res.nlon());
        assert_eq!(values[0], m.q[0][10 * res.nlon()]);
    }

    #[test]
    fn latitude_record_detects_bitflips() {
        let m = model();
        let res = m.config.resolution;
        let mut bytes = encode_latitude_record(&m, 3);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let r = decode_latitude_record(&bytes, res.nlon(), res.nlev());
        assert!(r.is_err(), "corrupted record must not decode");
    }

    #[test]
    fn checkpoint_restart_is_bit_exact() {
        // Run two models; checkpoint one mid-flight, restore into a fresh
        // model, run both to the same step: identical state.
        let mut a = model();
        for _ in 0..3 {
            a.step(4);
        }
        let ckpt = checkpoint(&a);
        let restart = read_checkpoint(&ckpt, a.transform.nspec()).unwrap();
        let mut b = model();
        restore(&mut b, &restart);
        assert_eq!(b.steps, a.steps);
        for _ in 0..2 {
            a.step(4);
            b.step(4);
        }
        assert_eq!(a.mean_phi(0), b.mean_phi(0));
        assert_eq!(a.energy(0), b.energy(0));
        assert_eq!(a.q[0], b.q[0]);
    }

    #[test]
    fn truncated_checkpoint_is_an_error_not_a_panic() {
        assert!(read_checkpoint(b"short", 10).is_err());
        let m = model();
        let full = checkpoint(&m);
        let cut = &full[0..full.len() / 2];
        assert!(read_checkpoint(cut, m.transform.nspec()).is_err());
    }

    #[test]
    fn checkpoint_size_matches_history_accounting() {
        let m = model();
        let bytes = checkpoint(&m).len() as u64;
        // The restart portion of history_bytes_per_day should be the same
        // order of magnitude as a real checkpoint.
        assert!(bytes > 1 << 20, "checkpoint suspiciously small: {bytes}");
        assert!(bytes < m.history_bytes_per_day() * 4);
    }
}
