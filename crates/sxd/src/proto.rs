//! The `sxd` wire protocol: newline-delimited JSON over TCP, plus the
//! content-address of a run.
//!
//! ## Grammar
//!
//! One request per line, one reply line per request, UTF-8, `\n`
//! terminated. Requests larger than [`MAX_REQUEST_FRAME`] bytes are
//! rejected with a typed `frame_too_long` error (the connection then
//! closes — there is no way to resync inside an oversized frame).
//!
//! ```text
//! request  = submit | stats | metrics | drain | shutdown | put | route
//! submit   = {"op":"submit","suite":S,"machine":M?,"params":{K:V,...}?}
//! stats    = {"op":"stats"}
//! metrics  = {"op":"metrics"}
//! drain    = {"op":"drain","deadline_ms":N?,"member":I?}
//! shutdown = {"op":"shutdown"}
//! put      = {"op":"put","key":"0011223344556677","result":{...}}
//! route    = {"op":"route","suite":S,"machine":M?,"params":{K:V,...}?}
//! reply    = {"ok":true,...} | {"ok":false,"error":{"kind":K,"detail":D}}
//! ```
//!
//! `metrics` returns the daemon's full observability snapshot — per-stage
//! latency histograms, gauges, and the per-suite simulated-seconds
//! breakdown — reconciled against the same job counters `stats` reports
//! (see the README section "Observing the daemon" for the schema).
//!
//! `drain` stops admission, waits `deadline_ms` (10 s when omitted)
//! for in-flight jobs, checkpoints whatever is still pending to restart
//! specs, and then shuts down — see the README section "Durability and
//! restart". The optional `member` field targets one shard of a cluster
//! router (drain it, hand its keyspace to its ring successor); a
//! single-node daemon rejects it.
//!
//! `put` and `route` belong to the cluster layer (see `crate::cluster`):
//! `put` inserts an already-rendered result under its content address —
//! the hand-off path replicating a drained member's journal into its
//! keyspace successor — and `route` asks a router which member owns a
//! configuration without running it.
//!
//! `machine` defaults to `"sx4-9.2"` (the February-1996 benchmarked
//! system); `params` values may be strings, numbers or booleans and are
//! canonicalized to strings.
//!
//! ## Cache key
//!
//! A run's identity is the FNV-1a/64 digest of a canonical
//! [`WireWriter`] record: `CODE_VERSION`, the lowercased suite name, the
//! machine preset's [`canonical_bytes`](sxsim::MachineModel::canonical_bytes)
//! (every model field, IEEE bit patterns — not the preset's *name*, so two
//! aliases of one machine hit the same entry), and the parameter set in
//! sorted key order. Identical submissions are served from the result
//! cache without re-simulation.

use std::collections::BTreeMap;
use std::io::BufRead;

use ncar_suite::report::json_f64;
use ncar_suite::{fnv64, Json, WireWriter};
use sxsim::MachineModel;

use crate::error::SxdError;

/// Cap on one request line's *content* — the terminating newline is not
/// counted, so a request of exactly this many bytes plus its `\n` is the
/// largest frame accepted. The server's [`read_frame`] and the client's
/// pre-send check in [`crate::Client`] enforce the same boundary, so an
/// oversized request fails identically (kind `frame_too_long`) whichever
/// side catches it first.
pub const MAX_REQUEST_FRAME: usize = 64 * 1024;

/// Cap on one reply line (replies embed whole rendered reports).
pub const MAX_REPLY_FRAME: usize = 16 * 1024 * 1024;

/// Version stamp mixed into every cache key. Bump when runner semantics
/// change so stale cached reports can never be served for new code.
pub const CODE_VERSION: u32 = 1;

/// Machine preset assumed when a submit names none.
pub const DEFAULT_MACHINE: &str = "sx4-9.2";

/// Read one `\n`-terminated frame of at most `max` bytes. `Ok(None)` is a
/// clean EOF. Never blocks past the newline, never allocates past the cap,
/// never panics: an oversized frame is a typed error.
pub fn read_frame<R: BufRead>(r: &mut R, max: usize) -> Result<Option<String>, SxdError> {
    let mut buf: Vec<u8> = Vec::new();
    let n = std::io::Read::take(r.by_ref(), max as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(SxdError::io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > max {
        return Err(SxdError::FrameTooLong { len: buf.len(), max });
    }
    // else: EOF without a trailing newline — accept the final frame.
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| SxdError::BadJson { detail: "frame is not valid UTF-8".into() })
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit {
        suite: String,
        machine: String,
        params: BTreeMap<String, String>,
    },
    Stats,
    Metrics,
    /// Stop admission, wait up to `deadline_ms` for in-flight jobs (10 s
    /// when omitted), checkpoint the stragglers, shut
    /// down. `member` targets one shard of a cluster router; a single-node
    /// daemon rejects it.
    Drain {
        deadline_ms: Option<u64>,
        member: Option<usize>,
    },
    Shutdown,
    /// Insert an already-rendered result under its content address (the
    /// cluster hand-off path). `payload` is the result object's exact
    /// bytes, so replicated entries stay byte-identical.
    Put {
        key: u64,
        payload: String,
    },
    /// Ask a cluster router which member owns a configuration's keyspace
    /// without running anything.
    Route {
        suite: String,
        machine: String,
        params: BTreeMap<String, String>,
    },
}

impl Request {
    /// Parse one frame. Every malformation is a typed error — garbage,
    /// truncated JSON, wrong field types — never a panic.
    pub fn parse(frame: &str) -> Result<Request, SxdError> {
        let doc = Json::parse(frame).map_err(|e| SxdError::BadJson { detail: e.to_string() })?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("request must be an object with a string \"op\""))?;
        match op {
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "drain" => {
                let deadline_ms = match doc.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(Json::Num(x)) if *x >= 0.0 && x.is_finite() => Some(*x as u64),
                    Some(_) => {
                        return Err(bad_request("\"deadline_ms\" must be a non-negative number"))
                    }
                };
                let member = match doc.get("member") {
                    None | Some(Json::Null) => None,
                    Some(Json::Num(x)) if *x >= 0.0 && x.is_finite() && x.fract() == 0.0 => {
                        Some(*x as usize)
                    }
                    Some(_) => {
                        return Err(bad_request("\"member\" must be a non-negative integer"))
                    }
                };
                Ok(Request::Drain { deadline_ms, member })
            }
            "put" => {
                let key = doc
                    .get("key")
                    .and_then(Json::as_str)
                    .filter(|k| !k.is_empty() && k.len() <= 16)
                    .and_then(|k| u64::from_str_radix(k, 16).ok())
                    .ok_or_else(|| bad_request("put needs a hex string \"key\""))?;
                let payload = doc
                    .get("result")
                    .ok_or_else(|| bad_request("put needs a \"result\" object"))?
                    .to_string();
                Ok(Request::Put { key, payload })
            }
            "submit" => {
                let (suite, machine, params) = parse_config(&doc)?;
                Ok(Request::Submit { suite, machine, params })
            }
            "route" => {
                let (suite, machine, params) = parse_config(&doc)?;
                Ok(Request::Route { suite, machine, params })
            }
            _ => {
                Err(bad_request("op must be one of submit/stats/metrics/drain/shutdown/put/route"))
            }
        }
    }

    /// Serialize to the one-line form [`Request::parse`] reads back.
    pub fn to_line(&self) -> String {
        match self {
            Request::Stats => "{\"op\":\"stats\"}".into(),
            Request::Metrics => "{\"op\":\"metrics\"}".into(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".into(),
            Request::Drain { deadline_ms: None, member: None } => "{\"op\":\"drain\"}".into(),
            Request::Drain { deadline_ms, member } => {
                let mut line = String::from("{\"op\":\"drain\"");
                if let Some(ms) = deadline_ms {
                    line.push_str(&format!(",\"deadline_ms\":{ms}"));
                }
                if let Some(m) = member {
                    line.push_str(&format!(",\"member\":{m}"));
                }
                line.push('}');
                line
            }
            Request::Put { key, payload } => {
                format!("{{\"op\":\"put\",\"key\":\"{key:016x}\",\"result\":{payload}}}")
            }
            Request::Submit { suite, machine, params } => {
                config_line("submit", suite, machine, params)
            }
            Request::Route { suite, machine, params } => {
                config_line("route", suite, machine, params)
            }
        }
    }
}

/// The shared `suite`/`machine`/`params` body of `submit` and `route`.
fn parse_config(doc: &Json) -> Result<(String, String, BTreeMap<String, String>), SxdError> {
    let suite = doc
        .get("suite")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_request("submit needs a string \"suite\""))?
        .to_string();
    let machine = match doc.get("machine") {
        None | Some(Json::Null) => DEFAULT_MACHINE.to_string(),
        Some(Json::Str(m)) => m.clone(),
        Some(_) => return Err(bad_request("\"machine\" must be a string")),
    };
    let mut params = BTreeMap::new();
    match doc.get("params") {
        None | Some(Json::Null) => {}
        Some(Json::Obj(members)) => {
            for (k, v) in members {
                let v = match v {
                    Json::Str(s) => s.clone(),
                    Json::Num(x) => json_f64(*x),
                    Json::Bool(b) => b.to_string(),
                    _ => {
                        return Err(bad_request(
                            "param values must be strings, numbers or booleans",
                        ))
                    }
                };
                params.insert(k.clone(), v);
            }
        }
        Some(_) => return Err(bad_request("\"params\" must be an object")),
    }
    Ok((suite, machine, params))
}

fn config_line(op: &str, suite: &str, machine: &str, params: &BTreeMap<String, String>) -> String {
    let members = vec![
        ("op".to_string(), Json::Str(op.into())),
        ("suite".to_string(), Json::Str(suite.into())),
        ("machine".to_string(), Json::Str(machine.into())),
        (
            "params".to_string(),
            Json::Obj(params.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect()),
        ),
    ];
    Json::Obj(members).to_string()
}

fn bad_request(detail: &str) -> SxdError {
    SxdError::BadRequest { detail: detail.into() }
}

/// The content address of a run configuration (see module docs).
pub fn cache_key(suite: &str, machine: &MachineModel, params: &BTreeMap<String, String>) -> u64 {
    let mut w = WireWriter::with_capacity(512);
    w.put_u32(CODE_VERSION);
    w.put_str(&suite.to_ascii_lowercase());
    let mb = machine.canonical_bytes();
    w.put_u32(mb.len() as u32);
    w.put_bytes(&mb);
    w.put_u32(params.len() as u32);
    for (k, v) in params {
        w.put_str(k);
        w.put_str(v);
    }
    fnv64(&w.into_vec())
}

/// The successful submit reply line. `payload` is the cached/fresh result
/// object, spliced verbatim so cache hits are byte-identical to the run
/// that populated them.
pub fn submit_reply(cached: bool, key: u64, payload: &str) -> String {
    format!("{{\"ok\":true,\"cached\":{cached},\"key\":\"{key:016x}\",\"result\":{payload}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncar_suite::SmallRng;
    use sxsim::presets;

    #[test]
    fn requests_roundtrip_through_to_line() {
        let mut params = BTreeMap::new();
        params.insert("procs".into(), "16".into());
        params.insert("note".into(), "quote \" and \\".into());
        for req in [
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Drain { deadline_ms: None, member: None },
            Request::Drain { deadline_ms: Some(2500), member: None },
            Request::Drain { deadline_ms: None, member: Some(2) },
            Request::Drain { deadline_ms: Some(100), member: Some(0) },
            // Put payloads round-trip only in the deterministic printer's
            // own form (the hand-off path always replicates printer output).
            Request::Put { key: 0x0011_2233_4455_6677, payload: "{\"x\":1.0}".into() },
            Request::Put { key: u64::MAX, payload: "{\"s\":\"ok\",\"t\":true}".into() },
            Request::Submit {
                suite: "fig5".into(),
                machine: "sx4-9.2".into(),
                params: params.clone(),
            },
            Request::Route { suite: "fig5".into(), machine: "sx4-9.2".into(), params },
        ] {
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn submit_defaults_and_type_coercion() {
        let r = Request::parse(r#"{"op":"submit","suite":"radabs","params":{"n":3,"deep":true}}"#)
            .unwrap();
        let Request::Submit { suite, machine, params } = r else { panic!("not a submit") };
        assert_eq!(suite, "radabs");
        assert_eq!(machine, DEFAULT_MACHINE);
        assert_eq!(params.get("n").map(String::as_str), Some("3.0"));
        assert_eq!(params.get("deep").map(String::as_str), Some("true"));
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (frame, kind) in [
            ("this is not json", "bad_json"),
            ("{\"op\":\"submit\"}", "bad_request"), // no suite
            ("{\"op\":\"launch\"}", "bad_request"), // unknown op
            ("{\"suite\":\"fig5\"}", "bad_request"), // no op
            ("[1,2,3]", "bad_request"),             // not an object
            ("{\"op\":\"submit\",\"suite\":7}", "bad_request"),
            ("{\"op\":\"submit\",\"suite\":\"x\",\"params\":[1]}", "bad_request"),
            ("{\"op\":\"submit\",\"suite\":\"x\",\"params\":{\"k\":[]}}", "bad_request"),
            ("{\"op\":\"submit\",\"suite\":\"x\",\"machine\":5}", "bad_request"),
            ("{\"op\":\"drain\",\"deadline_ms\":-1}", "bad_request"),
            ("{\"op\":\"drain\",\"deadline_ms\":\"soon\"}", "bad_request"),
            ("{\"op\":\"drain\",\"member\":-1}", "bad_request"),
            ("{\"op\":\"drain\",\"member\":1.5}", "bad_request"),
            ("{\"op\":\"drain\",\"member\":\"zero\"}", "bad_request"),
            ("{\"op\":\"put\"}", "bad_request"), // no key
            ("{\"op\":\"put\",\"key\":7}", "bad_request"), // key must be a string
            ("{\"op\":\"put\",\"key\":\"zz\"}", "bad_request"), // not hex
            ("{\"op\":\"put\",\"key\":\"00112233445566778\"}", "bad_request"), // >16 digits
            ("{\"op\":\"put\",\"key\":\"ab\"}", "bad_request"), // no result
            ("{\"op\":\"route\"}", "bad_request"), // no suite
            ("{\"op\":", "bad_json"),
        ] {
            let err = Request::parse(frame).unwrap_err();
            assert_eq!(err.kind(), kind, "frame {frame:?} -> {err}");
        }
    }

    #[test]
    fn fuzzish_random_frames_never_panic() {
        let mut rng = SmallRng::seed_from_u64(0x7379_6421);
        let alphabet: Vec<char> = "{}[]\",:opsubmitstae0123456789\\nul ".chars().collect();
        for _ in 0..2000 {
            let len = rng.next_below(120);
            let s: String = (0..len).map(|_| alphabet[rng.next_below(alphabet.len())]).collect();
            let _ = Request::parse(&s);
        }
    }

    #[test]
    fn read_frame_caps_oversized_lines_and_handles_eof() {
        // In-cap frame passes.
        let mut ok = std::io::Cursor::new(b"{\"op\":\"stats\"}\nrest".to_vec());
        assert_eq!(read_frame(&mut ok, 64).unwrap().unwrap(), "{\"op\":\"stats\"}");
        // Oversized frame (no newline within cap) is a typed error.
        let big = vec![b'x'; 200];
        let mut r = std::io::Cursor::new(big);
        let err = read_frame(&mut r, 64).unwrap_err();
        assert!(matches!(err, SxdError::FrameTooLong { max: 64, .. }), "{err}");
        // Clean EOF is None; final unterminated frame within cap is kept.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty, 64).unwrap(), None);
        let mut tail = std::io::Cursor::new(b"{\"op\":\"stats\"}".to_vec());
        assert_eq!(read_frame(&mut tail, 64).unwrap().unwrap(), "{\"op\":\"stats\"}");
        // Exactly max bytes plus the newline still fits.
        let mut edge = std::io::Cursor::new([vec![b'y'; 64], vec![b'\n']].concat());
        assert_eq!(read_frame(&mut edge, 64).unwrap().unwrap(), "y".repeat(64));
        // CRLF is tolerated.
        let mut crlf = std::io::Cursor::new(b"{\"op\":\"stats\"}\r\n".to_vec());
        assert_eq!(read_frame(&mut crlf, 64).unwrap().unwrap(), "{\"op\":\"stats\"}");
        // Non-UTF-8 is a typed error, not a panic.
        let mut bad = std::io::Cursor::new(vec![0xff, 0xfe, b'\n']);
        assert!(matches!(read_frame(&mut bad, 64), Err(SxdError::BadJson { .. })));
    }

    /// The cap boundary, pinned at the real limit: a frame of exactly
    /// `MAX_REQUEST_FRAME` content bytes is the largest accepted, with or
    /// without its trailing newline; one byte more is rejected, newline
    /// present or not. The client preflight (`client.rs`) mirrors this
    /// exact boundary, so both sides of the wire agree byte-for-byte.
    #[test]
    fn frame_cap_boundary_is_exact_at_max_request_frame() {
        let max = MAX_REQUEST_FRAME;
        for (content_len, ok) in [(max - 1, true), (max, true), (max + 1, false)] {
            // Terminated frame.
            let mut line = vec![b'z'; content_len];
            line.push(b'\n');
            let mut r = std::io::Cursor::new(line);
            let got = read_frame(&mut r, max);
            assert_eq!(got.is_ok(), ok, "terminated frame of {content_len} bytes");
            if ok {
                assert_eq!(got.unwrap().unwrap().len(), content_len);
            } else {
                assert!(matches!(got.unwrap_err(), SxdError::FrameTooLong { .. }));
            }
            // Final unterminated frame (EOF instead of newline): same
            // verdict at every boundary point.
            let mut r = std::io::Cursor::new(vec![b'z'; content_len]);
            let got = read_frame(&mut r, max);
            assert_eq!(got.is_ok(), ok, "unterminated frame of {content_len} bytes");
        }
    }

    #[test]
    fn cache_key_separates_every_identity_component() {
        let sx = presets::sx4_benchmarked();
        let prod = presets::sx4_production();
        let none = BTreeMap::new();
        let mut p1 = BTreeMap::new();
        p1.insert("n".to_string(), "8".to_string());
        let base = cache_key("fig5", &sx, &none);
        assert_eq!(base, cache_key("FIG5", &sx, &none), "suite name is case-folded");
        assert_ne!(base, cache_key("fig6", &sx, &none));
        assert_ne!(base, cache_key("fig5", &prod, &none));
        assert_ne!(base, cache_key("fig5", &sx, &p1));
        let mut p2 = BTreeMap::new();
        p2.insert("n".to_string(), "9".to_string());
        assert_ne!(cache_key("fig5", &sx, &p1), cache_key("fig5", &sx, &p2));
        // Aliases of the same preset share an identity.
        assert_eq!(base, cache_key("fig5", &presets::by_name("SX4").unwrap(), &none));
    }
}
