//! Chunked, `Arc`-backed file contents: the zero-copy data plane's
//! foundation.
//!
//! A regular file's bytes are held as a sequence of immutable,
//! reference-counted chunks ([`Arc<[u8]>`]) of a fixed nominal size
//! (the last chunk may be shorter; every chunk's stored length is
//! exact). Readers that want the bytes wholesale — the kernel's
//! extent read path, the Chirp server's `get` — receive cheap `Arc`
//! clones wrapped in [`ByteExtent`]s instead of a copy, so a 64 MB
//! read costs a handful of pointer bumps under the shard lock rather
//! than a 64 MB memcpy.
//!
//! Writes are copy-on-write per chunk: a chunk still uniquely owned by
//! the file is patched in place (`Arc::get_mut`), while a chunk shared
//! with an in-flight reader is rebuilt, leaving the reader's snapshot
//! untouched. Readers therefore observe a consistent point-in-time
//! view of every extent they hold, no matter what writers do next —
//! the property the streaming reply path relies on while a reply
//! drains under backpressure.

use std::sync::Arc;

/// Default nominal chunk size: 64 KiB, matching the client's
/// `write_file_mode` streaming granularity so sequential puts build
/// exactly one chunk per wire write.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// Bounds on configurable chunk sizes (see `Vfs::set_chunk_size`).
pub const MIN_CHUNK_SIZE: usize = 512;
/// Upper bound on configurable chunk sizes.
pub const MAX_CHUNK_SIZE: usize = 16 * 1024 * 1024;

/// One borrowed run of file bytes: a reference-counted chunk plus the
/// half-open `[start, end)` window of it that belongs to the read.
///
/// Cloning is O(1) (an `Arc` bump); the bytes themselves are immutable
/// for the extent's lifetime even if the file is concurrently written
/// (writers copy-on-write shared chunks instead of mutating them).
#[derive(Debug, Clone)]
pub struct ByteExtent {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl ByteExtent {
    /// An extent covering `[start, end)` of `data`.
    ///
    /// # Panics
    /// When the window is out of bounds or inverted.
    pub fn new(data: Arc<[u8]>, start: usize, end: usize) -> ByteExtent {
        assert!(start <= end && end <= data.len(), "extent window out of bounds");
        ByteExtent { data, start, end }
    }

    /// An extent owning the whole of `data`.
    pub fn from_vec(data: Vec<u8>) -> ByteExtent {
        let data: Arc<[u8]> = data.into();
        let end = data.len();
        ByteExtent { data, start: 0, end }
    }

    /// The bytes this extent covers.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the extent covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Extents compare by the bytes they cover, not by chunk identity:
/// two lists describing the same logical contents are equal even when
/// chunked differently (required for `SysRet` equality in tests).
impl PartialEq for ByteExtent {
    fn eq(&self, other: &ByteExtent) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ByteExtent {}

/// An ordered list of extents describing one contiguous logical byte
/// range (a read result). `total` is the sum of the parts' lengths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentList {
    /// Total logical length in bytes.
    pub total: usize,
    /// The extents, in logical order.
    pub parts: Vec<ByteExtent>,
}

impl ExtentList {
    /// An empty list.
    pub fn empty() -> ExtentList {
        ExtentList::default()
    }

    /// A list with a single extent (used by driver-backed reads, which
    /// have no chunk structure to share).
    pub fn single(data: Vec<u8>) -> ExtentList {
        let total = data.len();
        if total == 0 {
            return ExtentList::empty();
        }
        ExtentList {
            total,
            parts: vec![ByteExtent::from_vec(data)],
        }
    }

    /// Flatten into one contiguous buffer (compat path; defeats the
    /// point of extents, so only borderlands like tests use it).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total);
        for p in &self.parts {
            out.extend_from_slice(p.as_slice());
        }
        out
    }

    /// True when no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// A regular file's contents: exact-length immutable chunks of a fixed
/// nominal size, copy-on-write per chunk.
///
/// Invariant: `chunks[i].len() == min(chunk, len - i*chunk)` for every
/// `i`, and `chunks.len() == ceil(len / chunk)` (zero when empty) —
/// i.e. every chunk is full except possibly the last, and lengths are
/// always exact (no slack capacity hidden in a chunk).
#[derive(Debug, Clone)]
pub(crate) struct FileContent {
    /// Nominal chunk size, fixed at creation.
    chunk: usize,
    /// Logical file length.
    len: usize,
    chunks: Vec<Arc<[u8]>>,
}

impl FileContent {
    /// An empty file with the given nominal chunk size.
    pub(crate) fn new(chunk_size: usize) -> FileContent {
        FileContent {
            chunk: chunk_size.clamp(MIN_CHUNK_SIZE, MAX_CHUNK_SIZE),
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// Logical length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Copy up to `out.len()` bytes starting at `off` into `out`;
    /// returns the count copied (0 at or past EOF).
    pub(crate) fn read_into(&self, off: usize, out: &mut [u8]) -> usize {
        if off >= self.len || out.is_empty() {
            return 0;
        }
        let n = out.len().min(self.len - off);
        let mut done = 0;
        while done < n {
            let pos = off + done;
            let ci = pos / self.chunk;
            let co = pos % self.chunk;
            let chunk = &self.chunks[ci];
            let take = (chunk.len() - co).min(n - done);
            out[done..done + take].copy_from_slice(&chunk[co..co + take]);
            done += take;
        }
        n
    }

    /// Borrow `[off, off+want)` (clamped to EOF) as cheap `Arc` clones
    /// of the underlying chunks. First and last extents are windowed;
    /// interior extents cover whole chunks. O(parts), no byte copies.
    pub(crate) fn extents(&self, off: usize, want: usize) -> ExtentList {
        if off >= self.len || want == 0 {
            return ExtentList::empty();
        }
        let n = want.min(self.len - off);
        let mut parts = Vec::with_capacity(n / self.chunk + 2);
        let mut done = 0;
        while done < n {
            let pos = off + done;
            let ci = pos / self.chunk;
            let co = pos % self.chunk;
            let chunk = &self.chunks[ci];
            let take = (chunk.len() - co).min(n - done);
            parts.push(ByteExtent::new(Arc::clone(chunk), co, co + take));
            done += take;
        }
        ExtentList { total: n, parts }
    }

    /// Flatten into one contiguous buffer (compat for `file_data`).
    pub(crate) fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Write `data` at `off`, zero-filling any gap past EOF. Chunks
    /// fully or partially covered are patched in place when uniquely
    /// owned, rebuilt when shared (copy-on-write).
    pub(crate) fn write_at(&mut self, off: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if off > self.len {
            self.append_fill(off - self.len, None);
        }
        let overlap = self.len.saturating_sub(off).min(data.len());
        if overlap > 0 {
            self.overwrite(off, &data[..overlap]);
        }
        if overlap < data.len() {
            self.append_fill(data.len() - overlap, Some(&data[overlap..]));
        }
    }

    /// Truncate to `new_len`, or extend with zeros.
    pub(crate) fn resize(&mut self, new_len: usize) {
        if new_len < self.len {
            let keep = new_len.div_ceil(self.chunk);
            self.chunks.truncate(keep);
            let tail = new_len - (keep.saturating_sub(1)) * self.chunk;
            if keep > 0 && self.chunks[keep - 1].len() != tail {
                // Exact-length invariant: rebuild the now-partial tail.
                self.chunks[keep - 1] = self.chunks[keep - 1][..tail].into();
            }
            self.len = new_len;
        } else if new_len > self.len {
            self.append_fill(new_len - self.len, None);
        }
    }

    /// Overwrite `[off, off+data.len())`, which must lie entirely
    /// within the current length. Copy-on-write per chunk.
    fn overwrite(&mut self, off: usize, data: &[u8]) {
        debug_assert!(off + data.len() <= self.len);
        let mut done = 0;
        while done < data.len() {
            let pos = off + done;
            let ci = pos / self.chunk;
            let co = pos % self.chunk;
            let chunk = &mut self.chunks[ci];
            let take = (chunk.len() - co).min(data.len() - done);
            match Arc::get_mut(chunk) {
                Some(owned) => owned[co..co + take].copy_from_slice(&data[done..done + take]),
                None => {
                    // Shared with a reader: rebuild, leave theirs alone.
                    let mut v = chunk.to_vec();
                    v[co..co + take].copy_from_slice(&data[done..done + take]);
                    *chunk = v.into();
                }
            }
            done += take;
        }
    }

    /// Append `n` bytes at EOF: from `data` when given, zeros
    /// otherwise. Tops up the partial tail chunk first (rebuild — the
    /// length changes), then emits full chunks straight from `data`
    /// without intermediate buffers.
    fn append_fill(&mut self, n: usize, data: Option<&[u8]>) {
        debug_assert!(data.is_none_or(|d| d.len() == n));
        let mut done = 0;
        // Top up a partial tail chunk.
        let tail = self.len % self.chunk;
        if tail != 0 {
            let take = (self.chunk - tail).min(n);
            let last = self.chunks.last_mut().expect("partial tail implies a chunk");
            let mut v = Vec::with_capacity(tail + take);
            v.extend_from_slice(last);
            match data {
                Some(d) => v.extend_from_slice(&d[..take]),
                None => v.resize(tail + take, 0),
            }
            *last = v.into();
            done = take;
        }
        // Whole new chunks.
        while done < n {
            let take = (n - done).min(self.chunk);
            let chunk: Arc<[u8]> = match data {
                Some(d) => d[done..done + take].into(),
                None => vec![0u8; take].into(),
            };
            self.chunks.push(chunk);
            done += take;
        }
        self.len += n;
    }

    /// Number of chunks currently held (tests / invariant checks).
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invariants(f: &FileContent) {
        assert_eq!(f.chunks.len(), f.len.div_ceil(f.chunk));
        for (i, c) in f.chunks.iter().enumerate() {
            let expect = (f.len - i * f.chunk).min(f.chunk);
            assert_eq!(c.len(), expect, "chunk {i} length");
        }
    }

    #[test]
    fn append_and_read_across_chunks() {
        let mut f = FileContent::new(512);
        let data: Vec<u8> = (0..1500u32).map(|i| (i % 251) as u8).collect();
        f.write_at(0, &data);
        invariants(&f);
        assert_eq!(f.len(), 1500);
        assert_eq!(f.chunk_count(), 3);
        assert_eq!(f.to_vec(), data);
        let mut buf = vec![0u8; 700];
        assert_eq!(f.read_into(400, &mut buf), 700);
        assert_eq!(&buf[..], &data[400..1100]);
    }

    #[test]
    fn gap_write_zero_fills() {
        let mut f = FileContent::new(512);
        f.write_at(1000, b"xyz");
        invariants(&f);
        assert_eq!(f.len(), 1003);
        let v = f.to_vec();
        assert!(v[..1000].iter().all(|&b| b == 0));
        assert_eq!(&v[1000..], b"xyz");
    }

    #[test]
    fn overwrite_is_cow_against_held_extents() {
        let mut f = FileContent::new(512);
        f.write_at(0, &vec![7u8; 1024]);
        let snapshot = f.extents(0, 1024);
        f.write_at(200, &vec![9u8; 700]);
        invariants(&f);
        // The reader's snapshot is untouched.
        assert!(snapshot.to_vec().iter().all(|&b| b == 7));
        let now = f.to_vec();
        assert!(now[200..900].iter().all(|&b| b == 9));
        assert!(now[..200].iter().all(|&b| b == 7));
        assert!(now[900..].iter().all(|&b| b == 7));
    }

    #[test]
    fn unshared_overwrite_patches_in_place() {
        let mut f = FileContent::new(512);
        f.write_at(0, &vec![1u8; 512]);
        let before = Arc::as_ptr(&f.chunks[0]);
        f.write_at(10, b"abc");
        assert_eq!(Arc::as_ptr(&f.chunks[0]), before, "uniquely owned chunk rebuilt");
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let mut f = FileContent::new(512);
        f.write_at(0, &vec![5u8; 1300]);
        f.resize(600);
        invariants(&f);
        assert_eq!(f.len(), 600);
        assert_eq!(f.chunk_count(), 2);
        f.resize(2000);
        invariants(&f);
        let v = f.to_vec();
        assert!(v[..600].iter().all(|&b| b == 5));
        assert!(v[600..].iter().all(|&b| b == 0));
        f.resize(0);
        invariants(&f);
        assert_eq!(f.chunk_count(), 0);
    }

    #[test]
    fn extents_window_first_and_last() {
        let mut f = FileContent::new(512);
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        f.write_at(0, &data);
        let x = f.extents(100, 1000);
        assert_eq!(x.total, 1000);
        assert_eq!(x.to_vec(), &data[100..1100]);
        // Reads past EOF clamp; reads at EOF are empty.
        assert_eq!(f.extents(1990, 100).total, 10);
        assert!(f.extents(2000, 10).is_empty());
        assert!(f.extents(0, 0).is_empty());
    }

    #[test]
    fn extent_equality_ignores_chunking() {
        let a = ExtentList::single(b"hello world".to_vec());
        let mut f = FileContent::new(512);
        f.write_at(0, b"hello world");
        let b = f.extents(0, 11);
        assert_eq!(a.to_vec(), b.to_vec());
    }
}
