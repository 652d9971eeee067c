//! Incremental newline-delimited frame decoding for the reactor.
//!
//! The blocking serving path reads frames with `BufRead::read_until` under
//! an `io::Take` cap; a readiness-driven reactor instead receives bytes in
//! arbitrary chunks and must carve frames out of them without ever
//! blocking. [`LineDecoder`] is that carving, with byte-for-byte the same
//! accept/reject behavior as the blocking reader:
//!
//! - a frame is one `\n`-terminated line; the newline is not part of the
//!   content and a single trailing `\r` is stripped (CRLF tolerance);
//! - the *content* cap counts every byte before the newline (`\r`
//!   included, exactly like the blocking reader's `Take` window), and an
//!   oversized frame is rejected as soon as `max + 1` bytes arrive with no
//!   newline among them — a slowloris client cannot make the decoder
//!   buffer unboundedly;
//! - at EOF a final unterminated frame within the cap is accepted
//!   (trailing `\r` stripped), so `printf '...' | nc` works;
//! - content must be UTF-8; anything else is a typed error.

/// Why a frame could not be decoded. The connection is unrecoverable after
/// either: there is no resync point inside a lost frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// More than `max` content bytes arrived before any newline. `len` is
    /// capped at `max + 1`, mirroring the blocking reader's `Take` window
    /// (it never learns how much longer the line would have been).
    FrameTooLong { len: usize, max: usize },
    /// The frame content is not valid UTF-8.
    NotUtf8,
}

/// Incremental decoder: feed it raw chunks with [`push`](Self::push), pull
/// complete frames with [`next_frame`](Self::next_frame), flush the final
/// unterminated frame at EOF with [`finish`](Self::finish).
#[derive(Debug)]
pub(crate) struct LineDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline, so repeated
    /// `next_frame` calls over a growing partial frame stay linear.
    scanned: usize,
    max: usize,
}

impl LineDecoder {
    pub(crate) fn new(max: usize) -> LineDecoder {
        LineDecoder { buf: Vec::new(), scanned: 0, max }
    }

    /// Append raw bytes from the socket.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extract the next complete frame, `Ok(None)` when more bytes are
    /// needed. An error is terminal for the connection.
    pub(crate) fn next_frame(&mut self) -> Result<Option<String>, DecodeError> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.scanned + off;
                if end > self.max {
                    return Err(self.too_long());
                }
                let mut content: Vec<u8> = self.buf.drain(..=end).collect();
                content.pop(); // the newline
                self.scanned = 0;
                Self::content_to_frame(content).map(Some)
            }
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() > self.max {
                    return Err(self.too_long());
                }
                Ok(None)
            }
        }
    }

    /// EOF: accept a final unterminated frame within the cap, or report a
    /// clean end of stream as `Ok(None)`.
    pub(crate) fn finish(&mut self) -> Result<Option<String>, DecodeError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf.len() > self.max {
            return Err(self.too_long());
        }
        let content = std::mem::take(&mut self.buf);
        self.scanned = 0;
        Self::content_to_frame(content).map(Some)
    }

    fn too_long(&self) -> DecodeError {
        DecodeError::FrameTooLong { len: self.buf.len().min(self.max + 1), max: self.max }
    }

    fn content_to_frame(mut content: Vec<u8>) -> Result<String, DecodeError> {
        if content.last() == Some(&b'\r') {
            content.pop();
        }
        String::from_utf8(content).map_err(|_| DecodeError::NotUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_on_newlines_across_arbitrary_chunks() {
        let mut d = LineDecoder::new(64);
        d.push(b"{\"op\":\"sta");
        assert_eq!(d.next_frame().unwrap(), None);
        d.push(b"ts\"}\n{\"op\":\"metrics\"}\npartial");
        assert_eq!(d.next_frame().unwrap().unwrap(), "{\"op\":\"stats\"}");
        assert_eq!(d.next_frame().unwrap().unwrap(), "{\"op\":\"metrics\"}");
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.buffered(), "partial".len());
        assert_eq!(d.finish().unwrap().unwrap(), "partial");
        assert_eq!(d.finish().unwrap(), None, "clean EOF after the flush");
    }

    /// Property: however the byte stream is sliced into `push` calls, the
    /// decoder yields exactly the frames that were encoded, in order. 64
    /// seeded trials, each a few dozen frames (empty frames and CRLF
    /// endings included) split at SplitMix64-chosen boundaries, with
    /// `next_frame` drained after every chunk — the access pattern the
    /// reactor's pipelined read loop actually produces.
    #[test]
    fn random_chunking_never_changes_the_frame_sequence() {
        let mut rng = crate::SmallRng::seed_from_u64(0x4445_434f_4445); // "DECODE"
        for trial in 0..64 {
            let nframes = 1 + (rng.next_u64() % 40) as usize;
            let mut frames = Vec::with_capacity(nframes);
            let mut stream = Vec::new();
            for i in 0..nframes {
                let len = (rng.next_u64() % 24) as usize;
                let frame: String =
                    (0..len).map(|j| char::from(b'a' + ((i + j) % 26) as u8)).collect();
                stream.extend_from_slice(frame.as_bytes());
                if rng.next_u64().is_multiple_of(4) {
                    stream.push(b'\r');
                }
                stream.push(b'\n');
                frames.push(frame);
            }
            let mut d = LineDecoder::new(64);
            let mut got = Vec::new();
            let mut off = 0;
            while off < stream.len() {
                let take = 1 + (rng.next_u64() as usize % (stream.len() - off)).min(13);
                d.push(&stream[off..off + take]);
                off += take;
                while let Some(f) = d.next_frame().unwrap() {
                    got.push(f);
                }
            }
            while let Some(f) = d.finish().unwrap() {
                got.push(f);
            }
            assert_eq!(got, frames, "trial {trial} diverged");
        }
    }

    #[test]
    fn crlf_is_tolerated_in_both_paths() {
        let mut d = LineDecoder::new(64);
        d.push(b"hello\r\nworld\r");
        assert_eq!(d.next_frame().unwrap().unwrap(), "hello");
        assert_eq!(d.finish().unwrap().unwrap(), "world");
    }

    /// The cap boundary, pinned exactly like `sxd::proto::read_frame`: max
    /// content bytes pass (newline or EOF terminated), max + 1 fail.
    #[test]
    fn cap_boundary_is_exact() {
        let max = 64;
        for (content_len, ok) in [(max - 1, true), (max, true), (max + 1, false)] {
            let mut d = LineDecoder::new(max);
            d.push(&vec![b'z'; content_len]);
            d.push(b"\n");
            let got = d.next_frame();
            assert_eq!(got.is_ok(), ok, "terminated frame of {content_len} bytes");
            if !ok {
                assert_eq!(got.unwrap_err(), DecodeError::FrameTooLong { len: max + 1, max });
            }

            let mut d = LineDecoder::new(max);
            d.push(&vec![b'z'; content_len]);
            assert_eq!(d.finish().is_ok(), ok, "unterminated frame of {content_len} bytes");
        }
    }

    #[test]
    fn oversized_frames_reject_before_their_newline_arrives() {
        // A slowloris client drip-feeding an endless line is rejected as
        // soon as the cap is crossed, not when (never) the newline shows.
        let mut d = LineDecoder::new(16);
        d.push(&[b'x'; 16]);
        assert_eq!(d.next_frame().unwrap(), None, "cap itself is still fine");
        d.push(b"x");
        assert_eq!(d.next_frame().unwrap_err(), DecodeError::FrameTooLong { len: 17, max: 16 });
    }

    #[test]
    fn rescans_do_not_forget_the_partial_offset() {
        let mut d = LineDecoder::new(1024);
        for _ in 0..100 {
            d.push(b"abc");
            assert_eq!(d.next_frame().unwrap(), None);
        }
        d.push(b"\n");
        assert_eq!(d.next_frame().unwrap().unwrap(), "abc".repeat(100));
    }

    #[test]
    fn non_utf8_content_is_a_typed_error() {
        let mut d = LineDecoder::new(64);
        d.push(&[0xff, 0xfe, b'\n']);
        assert_eq!(d.next_frame().unwrap_err(), DecodeError::NotUtf8);
        let mut d = LineDecoder::new(64);
        d.push(&[0xff, 0xfe]);
        assert_eq!(d.finish().unwrap_err(), DecodeError::NotUtf8);
    }

    #[test]
    fn empty_frames_are_frames() {
        let mut d = LineDecoder::new(8);
        d.push(b"\n\r\n");
        assert_eq!(d.next_frame().unwrap().unwrap(), "");
        assert_eq!(d.next_frame().unwrap().unwrap(), "");
    }
}
