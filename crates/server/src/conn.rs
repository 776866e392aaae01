//! Per-connection plumbing for the reactor: an incremental
//! frame decoder over a growable read buffer, the ordered response
//! slot queue that preserves request order under pipelining, and the
//! server-wide buffer pool behind the zero-copy write path.
//!
//! [`FrameBuf`] accepts bytes in whatever chunks `read(2)` produces and
//! yields complete frames: text lines, binary frames (sniffed per frame
//! on [`FRAME_MAGIC`]), or oversized markers for input past
//! [`MAX_LINE`] / [`MAX_FRAME`] — oversized input is drained, answered,
//! and never desynchronises the stream.
//!
//! [`SlotQueue`] is the pipelining invariant in data-structure form:
//! every request occupies one slot in arrival order; control requests
//! complete their slot immediately, query and batch requests complete it
//! when the executor pool finishes; bytes leave the connection strictly
//! from the head of the queue. A later request can *execute* before an
//! earlier one finishes but can never *respond* first.
//!
//! [`BufferPool`] recycles the two buffer species the reactor burns
//! through: response frames ([`FrameRc`], reference-counted so one
//! encoded frame can be queued on many connections — the drain farewell
//! — and so a partially-written head stays alive while queued) and the
//! plain read buffers behind [`FrameBuf`]. Responses are encoded once
//! into a pooled frame and written straight out of it via `writev`;
//! closed connections hand every buffer back, so steady-state
//! connection churn allocates nothing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::{FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME, MAX_LINE};

/// A pooled response buffer. The bytes are written in place right after
/// the frame leaves the pool (while the `Arc` is provably unshared) and
/// are immutable from then on — every later holder only reads.
#[derive(Debug, Default)]
pub(crate) struct FrameBox {
    pub(crate) bytes: Vec<u8>,
}

/// A reference-counted handle to one encoded response frame.
pub(crate) type FrameRc = Arc<FrameBox>;

/// Frames kept in the pool at most; beyond this, recycled frames are
/// dropped to the allocator (bounds pool memory after a burst).
const MAX_POOLED_FRAMES: usize = 16 * 1024;
/// A recycled buffer keeping more capacity than this is dropped rather
/// than pooled, so one huge answer cannot pin its footprint forever.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// The server-wide buffer pool (executors and the reactor share it).
///
/// The `*_issued` / `*_returned` ledger counts every hand-out and every
/// final-holder hand-back (including buffers the pool then drops for
/// capacity), so a drained server can assert the no-leak invariant:
/// issued equals returned.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    frames: Mutex<Vec<FrameRc>>,
    vecs: Mutex<Vec<Vec<u8>>>,
    frames_issued: AtomicU64,
    frames_returned: AtomicU64,
    vecs_issued: AtomicU64,
    vecs_returned: AtomicU64,
}

impl BufferPool {
    pub(crate) fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Takes a frame (unshared, empty) and fills it with `fill` before
    /// any clone can exist.
    pub(crate) fn frame(&self, fill: impl FnOnce(&mut Vec<u8>)) -> FrameRc {
        self.frames_issued.fetch_add(1, Ordering::Relaxed);
        let mut frame = self
            .frames
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| Arc::new(FrameBox::default()));
        let slot = Arc::get_mut(&mut frame).expect("pooled frame is unshared");
        fill(&mut slot.bytes);
        frame
    }

    /// Returns a frame to the pool if this was the last reference;
    /// shared frames (another connection still queues them) are left to
    /// their remaining holders, whose final recycle settles the ledger.
    pub(crate) fn recycle_frame(&self, mut frame: FrameRc) {
        let Some(slot) = Arc::get_mut(&mut frame) else {
            return;
        };
        self.frames_returned.fetch_add(1, Ordering::Relaxed);
        if slot.bytes.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        slot.bytes.clear();
        let mut frames = self.frames.lock().unwrap();
        if frames.len() < MAX_POOLED_FRAMES {
            frames.push(frame);
        }
    }

    /// Takes a plain (empty) byte buffer — the read-buffer species.
    pub(crate) fn vec(&self) -> Vec<u8> {
        self.vecs_issued.fetch_add(1, Ordering::Relaxed);
        self.vecs.lock().unwrap().pop().unwrap_or_default()
    }

    /// Returns a read buffer to the pool.
    pub(crate) fn recycle_vec(&self, mut buf: Vec<u8>) {
        self.vecs_returned.fetch_add(1, Ordering::Relaxed);
        if buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        buf.clear();
        let mut vecs = self.vecs.lock().unwrap();
        if vecs.len() < MAX_POOLED_FRAMES {
            vecs.push(buf);
        }
    }

    /// The leak ledger: `(frames_issued, frames_returned, vecs_issued,
    /// vecs_returned)`. Balanced pairs after a drain mean every buffer
    /// came home.
    pub(crate) fn ledger(&self) -> (u64, u64, u64, u64) {
        (
            self.frames_issued.load(Ordering::Relaxed),
            self.frames_returned.load(Ordering::Relaxed),
            self.vecs_issued.load(Ordering::Relaxed),
            self.vecs_returned.load(Ordering::Relaxed),
        )
    }

    /// Frames currently parked in the pool (tests).
    #[cfg(test)]
    pub(crate) fn pooled_frames(&self) -> usize {
        self.frames.lock().unwrap().len()
    }
}

/// Consumes `written` bytes from the front of a connection's outgoing
/// frame queue after a (possibly partial) `writev`: fully-written head
/// frames return to the pool, and `out_pos` lands mid-frame when the
/// kernel stopped inside one — the resume invariant for the next
/// vectored write (DESIGN.md §14).
pub(crate) fn advance_written(
    out: &mut VecDeque<FrameRc>,
    out_pos: &mut usize,
    mut written: usize,
    pool: &BufferPool,
) {
    while written > 0 {
        let head = out.front().expect("writev wrote beyond the queue");
        let remaining = head.bytes.len() - *out_pos;
        if written >= remaining {
            written -= remaining;
            *out_pos = 0;
            pool.recycle_frame(out.pop_front().expect("head exists"));
        } else {
            *out_pos += written;
            written = 0;
        }
    }
}

/// Which encoding a request arrived in — its response uses the same one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wire {
    /// Newline-delimited text.
    Text,
    /// Length-prefixed binary frame.
    Binary,
}

/// One complete unit of input recovered from the byte stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum InFrame {
    /// A text line within [`MAX_LINE`] (newline stripped).
    Text(String),
    /// A text line past [`MAX_LINE`]; its bytes were drained.
    TextOversized,
    /// A binary frame within [`MAX_FRAME`].
    Binary {
        /// The frame kind byte.
        kind: u8,
        /// The payload (header stripped).
        payload: Vec<u8>,
    },
    /// A binary frame whose header claimed more than [`MAX_FRAME`]; its
    /// payload bytes were drained.
    BinaryOversized,
}

/// What the decoder is in the middle of.
#[derive(Debug)]
enum ScanState {
    /// At a frame boundary.
    Normal,
    /// Draining an oversized binary payload (`remaining` bytes to go).
    SkipBinary(u64),
    /// Draining an oversized text line (until the next newline).
    SkipText,
}

/// Incremental frame decoder over an append-only read buffer.
#[derive(Debug)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
    state: ScanState,
}

impl FrameBuf {
    #[cfg(test)]
    pub(crate) fn new() -> FrameBuf {
        FrameBuf::with_buf(Vec::new())
    }

    /// Builds the decoder over a recycled read buffer.
    pub(crate) fn with_buf(mut buf: Vec<u8>) -> FrameBuf {
        buf.clear();
        FrameBuf {
            buf,
            pos: 0,
            state: ScanState::Normal,
        }
    }

    /// Hands the read buffer back (connection closing) for pooling.
    pub(crate) fn reclaim(self) -> Vec<u8> {
        self.buf
    }

    /// Appends freshly read bytes, reclaiming consumed prefix space when
    /// it dominates the buffer.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Yields the next complete frame, or `None` until more bytes arrive.
    pub(crate) fn next_frame(&mut self) -> Option<InFrame> {
        loop {
            match self.state {
                ScanState::SkipBinary(remaining) => {
                    let avail = (self.buf.len() - self.pos) as u64;
                    let take = remaining.min(avail);
                    self.pos += take as usize;
                    if take == remaining {
                        self.state = ScanState::Normal;
                        return Some(InFrame::BinaryOversized);
                    }
                    self.state = ScanState::SkipBinary(remaining - take);
                    return None;
                }
                ScanState::SkipText => {
                    match self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                        Some(i) => {
                            self.pos += i + 1;
                            self.state = ScanState::Normal;
                            return Some(InFrame::TextOversized);
                        }
                        None => {
                            self.pos = self.buf.len();
                            return None;
                        }
                    }
                }
                ScanState::Normal => {
                    let avail = &self.buf[self.pos..];
                    let first = *avail.first()?;
                    if first == FRAME_MAGIC {
                        if avail.len() < FRAME_HEADER_LEN {
                            return None;
                        }
                        let kind = avail[1];
                        let len = u32::from_le_bytes(avail[2..FRAME_HEADER_LEN].try_into().unwrap())
                            as u64;
                        if len > MAX_FRAME as u64 {
                            self.pos += FRAME_HEADER_LEN;
                            self.state = ScanState::SkipBinary(len);
                            continue;
                        }
                        let total = FRAME_HEADER_LEN + len as usize;
                        if avail.len() < total {
                            return None;
                        }
                        let payload = avail[FRAME_HEADER_LEN..total].to_vec();
                        self.pos += total;
                        return Some(InFrame::Binary { kind, payload });
                    }
                    match avail.iter().position(|&b| b == b'\n') {
                        Some(i) => {
                            self.pos += i + 1;
                            if i > MAX_LINE {
                                return Some(InFrame::TextOversized);
                            }
                            let line = String::from_utf8_lossy(&avail[..i]).into_owned();
                            return Some(InFrame::Text(line));
                        }
                        None => {
                            if avail.len() > MAX_LINE {
                                // The line is already over the cap; drop
                                // what's buffered and drain to the newline.
                                self.pos = self.buf.len();
                                self.state = ScanState::SkipText;
                            }
                            return None;
                        }
                    }
                }
            }
        }
    }
}

/// One response slot: `None` while the executor pool still owns the
/// request, `Some(frame)` once its serialized response is ready.
#[derive(Debug)]
struct Slot {
    seq: u64,
    data: Option<FrameRc>,
}

/// The per-connection ordered response queue (see module docs).
#[derive(Debug)]
pub(crate) struct SlotQueue {
    slots: VecDeque<Slot>,
    next_seq: u64,
}

impl SlotQueue {
    pub(crate) fn new() -> SlotQueue {
        SlotQueue {
            slots: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Opens a slot for a request now in flight; the returned sequence
    /// number routes the executor's completion back here.
    pub(crate) fn push_waiting(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(Slot { seq, data: None });
        seq
    }

    /// Opens and immediately completes a slot (control responses).
    pub(crate) fn push_ready(&mut self, frame: FrameRc) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(Slot {
            seq,
            data: Some(frame),
        });
    }

    /// Completes the in-flight slot `seq`. When the slot no longer
    /// exists (connection already gone) the frame is handed back so the
    /// caller can recycle it.
    pub(crate) fn complete(&mut self, seq: u64, frame: FrameRc) -> Result<(), FrameRc> {
        match self.slots.iter_mut().find(|s| s.seq == seq) {
            Some(slot) => {
                slot.data = Some(frame);
                Ok(())
            }
            None => Err(frame),
        }
    }

    /// Takes the head slot's frame if — and only if — the head is ready.
    /// Later ready slots stay queued behind an in-flight head; that is
    /// the ordering guarantee.
    pub(crate) fn pop_ready(&mut self) -> Option<FrameRc> {
        if self.slots.front()?.data.is_some() {
            return self.slots.pop_front()?.data;
        }
        None
    }

    /// Drops every slot, recycling the ready frames (connection close).
    pub(crate) fn recycle_into(&mut self, pool: &BufferPool) {
        for slot in self.slots.drain(..) {
            if let Some(frame) = slot.data {
                pool.recycle_frame(frame);
            }
        }
    }

    /// Requests currently occupying slots (in flight or unwritten).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether any slot still awaits its executor completion (as opposed
    /// to ready-but-unwritten).
    pub(crate) fn has_inflight(&self) -> bool {
        self.slots.iter().any(|s| s.data.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_request_frame, Request};

    fn frame_bytes(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request_frame(req, &mut out).unwrap();
        out
    }

    #[test]
    fn text_lines_split_across_arbitrary_chunks() {
        let mut fb = FrameBuf::new();
        let input = b"PING\nSTATS\r\nQUIT\n";
        for &b in input.iter() {
            fb.extend(&[b]);
        }
        assert_eq!(fb.next_frame(), Some(InFrame::Text("PING".into())));
        assert_eq!(fb.next_frame(), Some(InFrame::Text("STATS\r".into())));
        assert_eq!(fb.next_frame(), Some(InFrame::Text("QUIT".into())));
        assert_eq!(fb.next_frame(), None);
    }

    #[test]
    fn binary_frames_reassemble_from_single_bytes() {
        let bytes = frame_bytes(&Request::Deadline(123));
        let mut fb = FrameBuf::new();
        for (i, &b) in bytes.iter().enumerate() {
            fb.extend(&[b]);
            let got = fb.next_frame();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "premature frame at byte {i}");
            } else {
                match got {
                    Some(InFrame::Binary { kind, payload }) => {
                        assert_eq!(kind, bytes[1]);
                        assert_eq!(payload, bytes[FRAME_HEADER_LEN..].to_vec());
                    }
                    other => panic!("expected binary frame, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn text_and_binary_interleave_on_one_stream() {
        let bin = frame_bytes(&Request::Ping);
        let mut stream = Vec::new();
        stream.extend_from_slice(b"PING\n");
        stream.extend_from_slice(&bin);
        stream.extend_from_slice(b"STATS\n");
        stream.extend_from_slice(&bin);
        let mut fb = FrameBuf::new();
        fb.extend(&stream);
        assert_eq!(fb.next_frame(), Some(InFrame::Text("PING".into())));
        assert!(matches!(fb.next_frame(), Some(InFrame::Binary { .. })));
        assert_eq!(fb.next_frame(), Some(InFrame::Text("STATS".into())));
        assert!(matches!(fb.next_frame(), Some(InFrame::Binary { .. })));
        assert_eq!(fb.next_frame(), None);
    }

    #[test]
    fn oversized_text_is_drained_not_fatal() {
        let mut fb = FrameBuf::new();
        let long = vec![b'x'; MAX_LINE + 10];
        fb.extend(&long);
        assert_eq!(fb.next_frame(), None);
        fb.extend(b"tail\nPING\n");
        assert_eq!(fb.next_frame(), Some(InFrame::TextOversized));
        assert_eq!(fb.next_frame(), Some(InFrame::Text("PING".into())));
        // Buffer does not retain the oversized line's bytes.
        assert!(fb.buffered() < MAX_LINE);
    }

    #[test]
    fn oversized_binary_is_drained_not_fatal() {
        let mut fb = FrameBuf::new();
        let len = (MAX_FRAME as u32) + 5;
        let mut header = vec![FRAME_MAGIC, 0x01];
        header.extend_from_slice(&len.to_le_bytes());
        fb.extend(&header);
        assert_eq!(fb.next_frame(), None);
        // Drain the claimed payload in two chunks, then resume parsing.
        fb.extend(&vec![0u8; MAX_FRAME / 2]);
        assert_eq!(fb.next_frame(), None);
        fb.extend(&vec![0u8; MAX_FRAME / 2 + 5]);
        assert_eq!(fb.next_frame(), Some(InFrame::BinaryOversized));
        fb.extend(b"PING\n");
        assert_eq!(fb.next_frame(), Some(InFrame::Text("PING".into())));
    }

    fn boxed(bytes: &[u8]) -> FrameRc {
        Arc::new(FrameBox {
            bytes: bytes.to_vec(),
        })
    }

    fn popped(q: &mut SlotQueue) -> Option<Vec<u8>> {
        q.pop_ready().map(|f| f.bytes.clone())
    }

    #[test]
    fn slot_queue_releases_strictly_in_order() {
        let mut q = SlotQueue::new();
        let a = q.push_waiting();
        q.push_ready(boxed(b"ctrl"));
        let b = q.push_waiting();
        // Later request finishes first: nothing can be written yet.
        assert!(q.complete(b, boxed(b"second")).is_ok());
        assert_eq!(popped(&mut q), None);
        assert!(q.complete(a, boxed(b"first")).is_ok());
        assert_eq!(popped(&mut q), Some(b"first".to_vec()));
        assert_eq!(popped(&mut q), Some(b"ctrl".to_vec()));
        assert_eq!(popped(&mut q), Some(b"second".to_vec()));
        assert!(q.is_empty());
        // A vanished slot hands the frame back for recycling.
        assert!(q.complete(99, boxed(b"")).is_err());
    }

    /// The partial-writev resume invariant: a short `writev` return may
    /// stop anywhere — mid-frame, exactly on a frame boundary, or after
    /// spanning several frames — and the queue/offset pair must land
    /// exactly where the kernel stopped.
    #[test]
    fn advance_written_resumes_across_iovec_boundaries() {
        let pool = BufferPool::new();
        let mut out: VecDeque<FrameRc> = [&b"aaaaa"[..], &b"bbb"[..], &b"ccccccc"[..]]
            .iter()
            .map(|b| boxed(b))
            .collect();
        let mut pos = 0;

        // Stop mid-second-frame: 5 (all of a) + 1 (into b).
        advance_written(&mut out, &mut pos, 6, &pool);
        assert_eq!(out.len(), 2);
        assert_eq!(pos, 1);
        assert_eq!(pool.pooled_frames(), 1, "frame a returned to the pool");

        // Exactly finish the remainder of b.
        advance_written(&mut out, &mut pos, 2, &pool);
        assert_eq!(out.len(), 1);
        assert_eq!(pos, 0);

        // Span the final frame to completion.
        advance_written(&mut out, &mut pos, 7, &pool);
        assert!(out.is_empty());
        assert_eq!(pos, 0);
        assert_eq!(pool.pooled_frames(), 3, "every frame recycled");
    }

    /// Pool round trip: a recycled frame comes back cleared with its
    /// capacity kept, and a frame that is still shared (the drain
    /// farewell queued on several connections) is not stolen back.
    #[test]
    fn buffer_pool_recycles_unshared_frames_only() {
        let pool = BufferPool::new();
        let frame = pool.frame(|b| b.extend_from_slice(b"hello"));
        let shared = frame.clone();
        pool.recycle_frame(frame);
        assert_eq!(pool.pooled_frames(), 0, "shared frame stays out");
        assert_eq!(shared.bytes, b"hello");
        pool.recycle_frame(shared);
        assert_eq!(pool.pooled_frames(), 1);
        let reused = pool.frame(|b| b.extend_from_slice(b"x"));
        assert_eq!(reused.bytes, b"x", "recycled frame starts empty");
        assert!(reused.bytes.capacity() >= 5, "capacity survives the pool");
    }
}
