//! Streaming host I/O: where sequencer input comes from and where output
//! goes.
//!
//! The paper's host listings consume and produce *blocks* — the board never
//! sees the whole workload at once, and neither should the host simulator.
//! [`InputSource`] and [`OutputSink`] are the two ends of that contract:
//! a sequencer (see [`crate::host`]) pulls one batch of `k·block_words`
//! words at a time from the source, runs it through the board, and pushes
//! the results into the sink. Host memory therefore stays bounded by the
//! batch geometry, never by the workload size `I`.
//!
//! Four adapters cover the common cases:
//!
//! * [`SliceSource`] / [`VecSink`] — the materialized convenience pair
//!   behind [`crate::host::Sequencer::run_slice`];
//! * [`SyntheticSource`] — a deterministic generator for arbitrarily large
//!   workloads (multi-GB streams at constant memory);
//! * [`CountingSink`] — discards data but keeps a word count and a
//!   lane-fissioned FNV-1a digest, so huge runs can still be checked for
//!   bit-exactness against a materialized reference.

/// A supplier of input words for one sequencer run.
///
/// Sources yield a fixed number of words ([`InputSource::len_words`]) in
/// order; a driver calls [`InputSource::read`] with monotonically advancing
/// requests and never asks for more than `len_words()` in total. Sources are
/// single-use — create a fresh one per run.
pub trait InputSource {
    /// Total words this source yields over its lifetime. Drivers derive the
    /// computation count from this, so it must be exact (and a multiple of
    /// the design's per-computation input width).
    fn len_words(&self) -> u64;

    /// Copies the next `buf.len()` words into `buf`, advancing the cursor.
    fn read(&mut self, buf: &mut [i32]);
}

impl<S: InputSource + ?Sized> InputSource for &mut S {
    fn len_words(&self) -> u64 {
        (**self).len_words()
    }
    fn read(&mut self, buf: &mut [i32]) {
        (**self).read(buf)
    }
}

/// A consumer of output words from one sequencer run. Drivers push each
/// batch's real (non-padding) outputs in computation order.
pub trait OutputSink {
    /// Accepts the next run of output words.
    fn write(&mut self, words: &[i32]);
}

impl<S: OutputSink + ?Sized> OutputSink for &mut S {
    fn write(&mut self, words: &[i32]) {
        (**self).write(words)
    }
}

/// An [`InputSource`] over an in-memory slice — the materialized end of the
/// spectrum, used by the `run_*` convenience wrappers.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    data: &'a [i32],
    cursor: usize,
}

impl<'a> SliceSource<'a> {
    /// Streams `data` front to back.
    pub fn new(data: &'a [i32]) -> Self {
        SliceSource { data, cursor: 0 }
    }
}

impl InputSource for SliceSource<'_> {
    fn len_words(&self) -> u64 {
        self.data.len() as u64
    }

    fn read(&mut self, buf: &mut [i32]) {
        let end = self.cursor + buf.len();
        buf.copy_from_slice(&self.data[self.cursor..end]);
        self.cursor = end;
    }
}

/// An [`OutputSink`] that materializes every word — the inverse of
/// [`SliceSource`], used by the `run_*` convenience wrappers.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    data: Vec<i32>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The words collected so far.
    pub fn data(&self) -> &[i32] {
        &self.data
    }

    /// Consumes the sink, returning everything it collected.
    pub fn into_vec(self) -> Vec<i32> {
        self.data
    }
}

impl OutputSink for VecSink {
    fn write(&mut self, words: &[i32]) {
        self.data.extend_from_slice(words);
    }
}

/// SplitMix64 — the deterministic mixer behind [`SyntheticSource`] and the
/// flow layer's synthetic kernels, re-exported from its one definition.
pub use sparcs_estimate::splitmix64;

/// A deterministic synthetic workload generator: computation `c`'s words are
/// a pure function of `(seed, c)`, so a multi-gigabyte stream needs no
/// backing storage and two sources with equal parameters yield identical
/// streams. Values stay in `[-96, 96]` so sample kernels (multiplies, adds)
/// cannot overflow `i32` even after several stages.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    computations: u64,
    words_per_computation: u64,
    seed: u64,
    cursor: u64,
}

impl SyntheticSource {
    /// A generator for `computations` computations of
    /// `words_per_computation` input words each, with the default seed.
    ///
    /// # Panics
    ///
    /// Panics when the total word count overflows `u64` (such a stream
    /// could never be consumed anyway).
    pub fn new(computations: u64, words_per_computation: u64) -> Self {
        Self::with_seed(computations, words_per_computation, 0xD0C7)
    }

    /// Same, with an explicit seed.
    ///
    /// # Panics
    ///
    /// See [`SyntheticSource::new`].
    pub fn with_seed(computations: u64, words_per_computation: u64, seed: u64) -> Self {
        assert!(
            computations.checked_mul(words_per_computation).is_some(),
            "synthetic stream of {computations} x {words_per_computation} words overflows u64"
        );
        SyntheticSource {
            computations,
            words_per_computation,
            seed,
            cursor: 0,
        }
    }

    /// The word at absolute index `i` (exposed so tests can materialize a
    /// reference stream without a second source).
    pub fn word_at(&self, i: u64) -> i32 {
        (splitmix64(self.seed ^ i) % 193) as i32 - 96
    }
}

impl InputSource for SyntheticSource {
    fn len_words(&self) -> u64 {
        self.computations * self.words_per_computation
    }

    fn read(&mut self, buf: &mut [i32]) {
        for (off, slot) in buf.iter_mut().enumerate() {
            *slot = self.word_at(self.cursor + off as u64);
        }
        self.cursor += buf.len() as u64;
    }
}

/// An [`OutputSink`] that stores nothing: it counts words and folds them
/// into a digest, so a constant-memory run over a huge workload can still
/// be compared bit for bit against a materialized reference
/// ([`CountingSink::digest_of`] computes the same digest from a slice).
///
/// The digest is a *lane-fissioned* FNV-1a: word `i` of the stream is
/// hashed (as its little-endian `u32` bytes) into accumulator `i mod 8`,
/// and the eight accumulators are folded together on read. Plain FNV-1a is
/// a single xor-multiply dependency chain — at four serial multiplies per
/// word the sink would cap streaming throughput no matter how fast the
/// host path got. Dealing words round-robin across eight independent
/// chains is the same loop-fission discipline as the host's batch phases,
/// and keeps every guarantee the tests rely on: the digest is a pure
/// function of the word *stream* (chunking into `write` calls doesn't
/// matter), and order still matters.
#[derive(Debug, Clone)]
pub struct CountingSink {
    words: u64,
    lanes: [u64; DIGEST_LANES],
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Independent FNV-1a accumulators in a [`CountingSink`] — enough to cover
/// the four-multiply serial latency of one word's hash with independent
/// work.
const DIGEST_LANES: usize = 8;

impl CountingSink {
    /// An empty sink.
    pub fn new() -> Self {
        CountingSink {
            words: 0,
            lanes: [FNV_OFFSET; DIGEST_LANES],
        }
    }

    /// Words accepted so far.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// The lane-fissioned FNV-1a digest over every word accepted so far:
    /// the eight per-lane accumulators, folded in lane order through one
    /// more FNV-1a pass over their bytes.
    pub fn digest(&self) -> u64 {
        let mut d = FNV_OFFSET;
        for lane in self.lanes {
            for byte in lane.to_le_bytes() {
                d = (d ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
        d
    }

    /// The digest a [`CountingSink`] would report after accepting exactly
    /// `words` — the reference for equivalence tests.
    pub fn digest_of(words: &[i32]) -> u64 {
        let mut sink = CountingSink::new();
        sink.write(words);
        sink.digest()
    }
}

impl Default for CountingSink {
    fn default() -> Self {
        CountingSink::new()
    }
}

impl OutputSink for CountingSink {
    fn write(&mut self, words: &[i32]) {
        // Lane assignment follows the absolute word index, not the write
        // call, so any chunking of the same stream yields the same digest.
        let mut l = (self.words % DIGEST_LANES as u64) as usize;
        self.words += words.len() as u64;
        let mut lanes = self.lanes;
        for &w in words {
            let w = w as u32;
            let mut d = lanes[l];
            d = (d ^ u64::from(w & 0xff)).wrapping_mul(FNV_PRIME);
            d = (d ^ u64::from((w >> 8) & 0xff)).wrapping_mul(FNV_PRIME);
            d = (d ^ u64::from((w >> 16) & 0xff)).wrapping_mul(FNV_PRIME);
            d = (d ^ u64::from(w >> 24)).wrapping_mul(FNV_PRIME);
            lanes[l] = d;
            l = (l + 1) % DIGEST_LANES;
        }
        self.lanes = lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_round_trips_through_vec_sink() {
        let data = [3, -1, 4, 1, -5, 9];
        let mut src = SliceSource::new(&data);
        assert_eq!(src.len_words(), 6);
        let mut sink = VecSink::new();
        let mut buf = [0i32; 2];
        for _ in 0..3 {
            src.read(&mut buf);
            sink.write(&buf);
        }
        assert_eq!(sink.into_vec(), data);
    }

    #[test]
    fn synthetic_source_is_deterministic_and_chunk_invariant() {
        let whole = {
            let mut s = SyntheticSource::new(8, 3);
            let mut buf = vec![0i32; 24];
            s.read(&mut buf);
            buf
        };
        // Same parameters, different chunking: identical stream.
        let mut s = SyntheticSource::new(8, 3);
        let mut chunked = Vec::new();
        for len in [5usize, 1, 10, 8] {
            let mut buf = vec![0i32; len];
            s.read(&mut buf);
            chunked.extend_from_slice(&buf);
        }
        assert_eq!(whole, chunked);
        assert!(whole.iter().all(|&v| (-96..=96).contains(&v)));
        // A different seed yields a different stream.
        let mut other = SyntheticSource::with_seed(8, 3, 7);
        let mut buf = vec![0i32; 24];
        other.read(&mut buf);
        assert_ne!(whole, buf);
    }

    #[test]
    fn counting_sink_matches_digest_of() {
        let words = [i32::MIN, -1, 0, 1, i32::MAX, 42];
        let mut sink = CountingSink::new();
        sink.write(&words[..2]);
        sink.write(&words[2..]);
        assert_eq!(sink.words(), 6);
        assert_eq!(sink.digest(), CountingSink::digest_of(&words));
        // Order matters: a digest is a stream identity, not a multiset.
        let mut swapped = words;
        swapped.swap(0, 5);
        assert_ne!(CountingSink::digest_of(&swapped), sink.digest());
    }
}
