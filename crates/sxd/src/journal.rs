//! Durable write-ahead result journal and drain-checkpoint restart specs.
//!
//! The paper's SX-4 ran under an operating system whose job story did not
//! end at the process boundary: SUPER-UX checkpointed NQS jobs to disk and
//! restarted them after a reboot (§2.6.2). This module gives `sxd` the
//! same property for its own state. Two files live under `--state-dir`:
//!
//! - `results.sxj` — the result journal: an 8-byte magic header followed
//!   by checksummed [`WireWriter::put_record`] records, one per completed
//!   run, appended as results are produced. On startup the journal is
//!   replayed oldest-first into the result cache, so a configuration that
//!   completed before a crash answers from cache — byte-identically —
//!   after restart.
//! - `restart.sxj` — restart specs written by a drain that hit its
//!   deadline: each still-pending job's submission (suite, machine as the
//!   request spelled it, params) is persisted here, and the next boot
//!   re-admits it as a plain submit.
//!
//! ## Crash model
//!
//! Appends go through a single `write(2)` of the complete record, so a
//! killed *process* (the `kill -9` the fault tests throw) never loses a
//! record the daemon reported durable; only an OS crash could, and the
//! journal is a cache — the worst case is recomputation, never wrong
//! bytes. What a torn append *can* leave is a partial record at the tail.
//! Records are length-prefixed and FNV-digested, so replay detects the
//! torn tail, truncates the file at the last good record boundary, and
//! carries on; corruption is never fatal and never served.
//!
//! Compaction (triggered once appends since the last snapshot exceed a
//! multiple of the cache capacity) rewrites the live cache entries to a
//! temp file, fsyncs, and renames over the journal — crash-atomic at every
//! step: before the rename the old journal is intact, after it the
//! snapshot is.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use ncar_suite::{WireReader, WireWriter};

use crate::faultpoint::{self, Fault};

/// Journal file magic: identifies the format and its version.
const MAGIC: &[u8; 8] = b"SXDJRNL1";

/// Record kind for a completed result (`u64` cache key + payload bytes).
const KIND_RESULT: u16 = 1;
/// Record kind for a drain-checkpoint restart spec.
const KIND_RESTART: u16 = 2;

/// Journal file name under the state directory.
pub(crate) const JOURNAL_FILE: &str = "results.sxj";
/// Restart-spec file name under the state directory.
pub(crate) const RESTART_FILE: &str = "restart.sxj";

/// Append-only result journal with torn-tail recovery and snapshot
/// compaction. All methods take `&mut self`; the server wraps the journal
/// in a `Mutex` (locked *before* the cache — see `server.rs` lock order).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Records appended this process lifetime (not counting compaction
    /// rewrites).
    appended: u64,
    /// Good records replayed into the cache at open.
    replayed: u64,
    /// Bytes of torn/corrupt tail truncated at open (0 = clean).
    truncated_bytes: u64,
    /// Snapshot compactions completed this process lifetime.
    compactions: u64,
    /// Appends since the last compaction (or open), the compaction
    /// trigger.
    since_compact: u64,
}

impl Journal {
    /// Open (creating if necessary) the journal under `dir` and replay it:
    /// returns the journal plus the surviving `(key, payload)` entries
    /// oldest-first, ready to insert into the cache in order so LRU
    /// recency is preserved across the restart. A torn or corrupt tail is
    /// truncated in place; a file with the wrong magic is discarded and
    /// restarted empty (the journal is a cache, so the safe response to an
    /// unreadable file is recomputation, not refusal to boot).
    pub fn open(dir: &Path) -> io::Result<(Journal, Vec<(u64, String)>)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        // A leftover temp file means a crash mid-compaction; the rename
        // never happened, so it is dead weight.
        let _ = fs::remove_file(dir.join(format!("{JOURNAL_FILE}.tmp")));

        let mut bytes = Vec::new();
        if let Ok(mut f) = File::open(&path) {
            f.read_to_end(&mut bytes)?;
        }

        let mut entries: Vec<(u64, String)> = Vec::new();
        let mut replayed = 0u64;
        let mut good_end = MAGIC.len();
        let fresh = bytes.is_empty();
        let mut discard_all = false;
        if !fresh {
            if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
                discard_all = true;
            } else {
                let body = &bytes[MAGIC.len()..];
                let mut r = WireReader::new(body);
                while r.remaining() > 0 {
                    let Ok(payload) = r.try_get_record() else { break };
                    // The digest already vouches for the bytes; a record
                    // that decodes to the wrong shape is from a future
                    // format and ends the replay at the previous boundary.
                    let mut p = WireReader::new(payload);
                    let Ok(kind) = p.try_get_u16() else { break };
                    if kind != KIND_RESULT {
                        break;
                    }
                    let Ok(key) = p.try_get_u64() else { break };
                    let Ok(value) = std::str::from_utf8(p.rest()) else { break };
                    entries.push((key, value.to_string()));
                    replayed += 1;
                    good_end = MAGIC.len() + (body.len() - r.remaining());
                }
            }
        }

        let truncated_bytes = if discard_all {
            bytes.len() as u64
        } else {
            (bytes.len() - good_end.min(bytes.len())) as u64
        };

        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if fresh || discard_all {
            file.set_len(0)?;
            let mut f = &file;
            f.write_all(MAGIC)?;
            entries.clear();
            replayed = 0;
        } else if truncated_bytes > 0 {
            // Cut the torn tail so the next append lands on a record
            // boundary instead of extending garbage.
            file.set_len(good_end as u64)?;
        }

        Ok((
            Journal {
                file,
                path,
                appended: 0,
                replayed,
                truncated_bytes,
                compactions: 0,
                since_compact: 0,
            },
            entries,
        ))
    }

    /// Append one completed result. The record is assembled in memory and
    /// written with a single `write_all`, so a process kill either lands
    /// the whole record or (at worst, mid-syscall) a detectable torn tail.
    /// No per-append fsync: the threat model is process death, not power
    /// loss, and `write(2)`-ed pages survive the former.
    pub fn append(&mut self, key: u64, payload: &str) -> io::Result<()> {
        faultpoint::check("journal.append")?;
        let bytes = encode_result(key, payload);
        match faultpoint::armed("journal.append.torn") {
            Some(Fault::Crash) => {
                // Simulate the kill arriving mid-write: half the record
                // reaches the file, then the process dies.
                let _ = self.file.write_all(&bytes[..bytes.len() / 2]);
                let _ = self.file.sync_data();
                std::process::abort();
            }
            Some(Fault::IoError) => {
                return Err(io::Error::other("fault injected at journal.append.torn"));
            }
            None => {}
        }
        self.file.write_all(&bytes)?;
        self.appended += 1;
        self.since_compact += 1;
        Ok(())
    }

    /// Has enough been appended since the last snapshot that the journal
    /// should be compacted? The threshold is a multiple of the cache
    /// capacity: the journal can hold at most `cap` *live* entries, so a
    /// file several times that deep is mostly superseded records.
    pub fn should_compact(&self, cap: usize) -> bool {
        self.since_compact >= (4 * cap.max(1)).max(8) as u64
    }

    /// Rewrite the journal as a snapshot of `entries` (pass them
    /// oldest-first so replay rebuilds the same LRU order). Temp-file +
    /// fsync + rename: a crash before the rename leaves the old journal
    /// untouched; after it, the snapshot is complete.
    pub fn compact(&mut self, entries: &[(u64, String)]) -> io::Result<()> {
        let tmp = self.path.with_extension("sxj.tmp");
        let mut body = Vec::with_capacity(MAGIC.len() + entries.len() * 64);
        body.extend_from_slice(MAGIC);
        for (key, payload) in entries {
            body.extend_from_slice(&encode_result(*key, payload));
        }
        {
            let mut f = File::create(&tmp)?;
            match faultpoint::armed("journal.compact.write") {
                Some(Fault::Crash) => {
                    // Die with the snapshot half-written: the rename never
                    // happens, so the live journal must stay intact.
                    let _ = f.write_all(&body[..body.len() / 2]);
                    let _ = f.sync_data();
                    std::process::abort();
                }
                Some(Fault::IoError) => {
                    return Err(io::Error::other("fault injected at journal.compact.write"));
                }
                None => {}
            }
            f.write_all(&body)?;
            f.sync_all()?;
        }
        faultpoint::check("journal.compact.rename")?;
        fs::rename(&tmp, &self.path)?;
        // The old handle points at the unlinked inode; reopen on the new
        // snapshot so subsequent appends extend it.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.compactions += 1;
        self.since_compact = 0;
        Ok(())
    }

    pub(crate) fn appended(&self) -> u64 {
        self.appended
    }

    pub(crate) fn replayed(&self) -> u64 {
        self.replayed
    }

    pub(crate) fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }
}

fn encode_result(key: u64, payload: &str) -> Vec<u8> {
    let mut inner = WireWriter::with_capacity(2 + 8 + payload.len());
    inner.put_u16(KIND_RESULT);
    inner.put_u64(key);
    inner.put_bytes(payload.as_bytes());
    let inner = inner.into_vec();
    let mut w = WireWriter::with_capacity(inner.len() + 12);
    w.put_record(&inner);
    w.into_vec()
}

/// The submission of a job a drain checkpointed at its deadline. On the
/// next boot the server re-admits it as a plain submit, so the rerun
/// caches exactly what a fresh run of the same configuration would.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartSpec {
    pub suite: String,
    /// The machine as the request spelled it: a [`sxsim::presets::by_name`] key.
    pub machine: String,
    /// Sorted `(key, value)` parameter pairs, as the cache key uses them.
    pub(crate) params: Vec<(String, String)>,
}

impl RestartSpec {
    fn encode(&self, w: &mut WireWriter) {
        let mut inner = WireWriter::with_capacity(64);
        inner.put_u16(KIND_RESTART);
        inner.put_str(&self.suite);
        inner.put_str(&self.machine);
        inner.put_u32(self.params.len() as u32);
        for (k, v) in &self.params {
            inner.put_str(k);
            inner.put_str(v);
        }
        w.put_record(&inner.into_vec());
    }

    fn decode(payload: &[u8]) -> Option<RestartSpec> {
        let mut p = WireReader::new(payload);
        if p.try_get_u16().ok()? != KIND_RESTART {
            return None;
        }
        let suite = p.try_get_str().ok()?;
        let machine = p.try_get_str().ok()?;
        let n = p.try_get_u32().ok()? as usize;
        let mut params = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            params.push((p.try_get_str().ok()?, p.try_get_str().ok()?));
        }
        Some(RestartSpec { suite, machine, params })
    }
}

/// Persist drain-checkpoint restart specs atomically (temp + fsync +
/// rename). The caller only marks jobs as checkpointed *after* this
/// returns `Ok`, so a crash or IO fault here leaves them un-checkpointed —
/// work is never considered saved until it durably is.
pub(crate) fn write_restart_specs(dir: &Path, specs: &[RestartSpec]) -> io::Result<()> {
    faultpoint::check("drain.persist")?;
    fs::create_dir_all(dir)?;
    let path = dir.join(RESTART_FILE);
    let tmp = dir.join(format!("{RESTART_FILE}.tmp"));
    let mut w = WireWriter::with_capacity(MAGIC.len() + specs.len() * 96);
    w.put_bytes(MAGIC);
    for s in specs {
        s.encode(&mut w);
    }
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&w.into_vec())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)
}

/// Load the restart specs persisted by a previous drain. A missing file
/// means no checkpointed work; a torn or alien tail ends the load at the
/// last good record (same discipline as the journal).
pub fn load_restart_specs(dir: &Path) -> Vec<RestartSpec> {
    let mut bytes = Vec::new();
    match File::open(dir.join(RESTART_FILE)) {
        Ok(mut f) => {
            if f.read_to_end(&mut bytes).is_err() {
                return Vec::new();
            }
        }
        Err(_) => return Vec::new(),
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Vec::new();
    }
    let mut r = WireReader::new(&bytes[MAGIC.len()..]);
    let mut specs = Vec::new();
    while r.remaining() > 0 {
        let Ok(payload) = r.try_get_record() else { break };
        let Some(spec) = RestartSpec::decode(payload) else { break };
        specs.push(spec);
    }
    specs
}

/// Delete the restart-spec file: called only after every loaded spec has
/// been re-admitted and retired, so a crash mid-boot re-loads (and the
/// result cache dedupes) rather than losing work.
pub(crate) fn clear_restart_specs(dir: &Path) -> io::Result<()> {
    match fs::remove_file(dir.join(RESTART_FILE)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sxd-journal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replay_returns_appends_in_order_across_reopen() {
        let dir = scratch("replay");
        {
            let (mut j, entries) = Journal::open(&dir).unwrap();
            assert!(entries.is_empty());
            j.append(11, "{\"a\":1}").unwrap();
            j.append(22, "{\"b\":2}").unwrap();
            j.append(33, "{\"c\":3}").unwrap();
            assert_eq!(j.appended(), 3);
        }
        let (j, entries) = Journal::open(&dir).unwrap();
        assert_eq!(j.replayed(), 3);
        assert_eq!(j.truncated_bytes(), 0);
        assert_eq!(
            entries,
            vec![
                (11, "{\"a\":1}".to_string()),
                (22, "{\"b\":2}".to_string()),
                (33, "{\"c\":3}".to_string()),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue_cleanly() {
        let dir = scratch("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(1, "first").unwrap();
            j.append(2, "second").unwrap();
        }
        // Tear the tail: chop bytes off the last record, the way a kill
        // mid-write would.
        let path = dir.join(JOURNAL_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut j, entries) = Journal::open(&dir).unwrap();
        assert_eq!(entries, vec![(1, "first".to_string())]);
        assert!(j.truncated_bytes() > 0, "the torn tail was detected");
        // The file was cut at the record boundary, so a fresh append and
        // another replay see both records intact.
        j.append(3, "third").unwrap();
        drop(j);
        let (_, entries) = Journal::open(&dir).unwrap();
        assert_eq!(entries, vec![(1, "first".to_string()), (3, "third".to_string())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_byte_cuts_replay_at_the_boundary_not_the_boot() {
        let dir = scratch("corrupt");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(1, "keep-me").unwrap();
            j.append(2, "flip-me").unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x20; // inside the second record's payload
        fs::write(&path, &bytes).unwrap();

        let (j, entries) = Journal::open(&dir).unwrap();
        assert_eq!(entries, vec![(1, "keep-me".to_string())]);
        assert!(j.truncated_bytes() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn alien_magic_restarts_the_journal_empty() {
        let dir = scratch("magic");
        fs::write(dir.join(JOURNAL_FILE), b"NOTAJRNLgarbage").unwrap();
        let (j, entries) = Journal::open(&dir).unwrap();
        assert!(entries.is_empty());
        assert_eq!(j.replayed(), 0);
        assert!(j.truncated_bytes() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_to_the_live_set_and_resets_the_trigger() {
        let dir = scratch("compact");
        let (mut j, _) = Journal::open(&dir).unwrap();
        for i in 0..10u64 {
            j.append(i % 2, format!("v{i}").as_str()).unwrap();
        }
        assert!(j.should_compact(2), "10 appends over cap 2 must trigger");
        // The cache's live view: two keys, latest values, LRU order.
        let live = vec![(0, "v8".to_string()), (1, "v9".to_string())];
        j.compact(&live).unwrap();
        assert!(!j.should_compact(2));
        assert_eq!(j.compactions(), 1);
        // Appends after compaction extend the snapshot.
        j.append(7, "post").unwrap();
        drop(j);
        let (_, entries) = Journal::open(&dir).unwrap();
        assert_eq!(
            entries,
            vec![(0, "v8".to_string()), (1, "v9".to_string()), (7, "post".to_string())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_specs_roundtrip_and_tolerate_missing_or_torn_files() {
        let dir = scratch("restart");
        assert!(load_restart_specs(&dir).is_empty(), "missing file is empty, not an error");
        let specs = vec![
            RestartSpec {
                suite: "shal".into(),
                machine: "sx4-9.2".into(),
                params: vec![("n".into(), "64".into())],
            },
            RestartSpec { suite: "table2".into(), machine: "sx4-9.2".into(), params: vec![] },
        ];
        write_restart_specs(&dir, &specs).unwrap();
        assert_eq!(load_restart_specs(&dir), specs);

        // Tear the second record: the first must still load.
        let path = dir.join(RESTART_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        assert_eq!(load_restart_specs(&dir), specs[..1].to_vec());

        clear_restart_specs(&dir).unwrap();
        assert!(load_restart_specs(&dir).is_empty());
        clear_restart_specs(&dir).unwrap(); // idempotent
        let _ = fs::remove_dir_all(&dir);
    }
}
