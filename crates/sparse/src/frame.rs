//! The one `MFCK` frame: the 48-byte header, the XXH64 trailer behind
//! every section, and the torn-vs-corrupt split all three versions share
//! (`docs/FORMAT.md`, "Framing").
//!
//! v1 snapshots and v2 deltas (`mf-serve`) and the v3 block arena
//! ([`crate::arena`]) are *schemas* over this module: they name field
//! offsets, check their version and validate geometry. Every byte they
//! move and every hash they compute goes through [`FrameWriter`] and
//! [`FrameReader`].
//!
//! **The allocation rule.** No length read from a file sizes an
//! allocation. [`FrameReader::take_vec`] grows its result one 64 KiB
//! chunk at a time, each chunk only after its bytes have arrived, so a
//! checksummed-but-hostile length ends as [`FrameError::Torn`] when the
//! stream runs dry — never as an abort inside the allocator.

use std::io::{self, Read, Write};

use crate::hash::Xxh64;

/// Magic bytes opening every `MFCK` file.
pub const MAGIC: [u8; 4] = *b"MFCK";

/// Header length in bytes, excluding its trailing checksum.
pub const HEADER_LEN: usize = 48;

/// Streaming granularity of both directions — the same 64 KiB as the
/// text parser. A multiple of 8, so a chunk never splits a value.
const CHUNK: usize = 64 * 1024;

/// What can go wrong below the schema level — a carrier, not a report:
/// each schema's own error type has a variant (and the one `Display`
/// string) for every case and converts with `From`.
#[derive(Debug)]
pub enum FrameError {
    /// I/O failure other than running out of bytes.
    Io(io::Error),
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The stream ended mid-`section`: bytes are missing, the expected
    /// residue of an interrupted write.
    Torn {
        /// The section the stream ran dry in.
        section: &'static str,
    },
    /// All of `section`'s bytes arrived but do not hash to its trailer:
    /// they rotted in place.
    ChecksumMismatch {
        /// The section whose trailer disagreed.
        section: &'static str,
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
}

impl FrameError {
    /// Types a failed read of `section`: running out of bytes is
    /// [`FrameError::Torn`], anything else [`FrameError::Io`].
    pub fn from_read(e: io::Error, section: &'static str) -> FrameError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Torn { section },
            _ => FrameError::Io(e),
        }
    }
}

/// The fixed-width little-endian values sections are made of.
pub trait Le: Copy {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Writes `self` into `out` (`SIZE` bytes).
    fn put(self, out: &mut [u8]);
    /// Reads a value from `bytes` (`SIZE` bytes).
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! impl_le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> $t {
                <$t>::from_le_bytes(bytes.try_into().expect("SIZE bytes"))
            }
        }
    )*};
}
impl_le!(u32, u64, f32);

/// The 48 header bytes. Magic and version sit at offsets 0 and 4 in
/// every version; a schema places its own fields in the rest by offset.
#[derive(Debug, Clone, Copy)]
pub struct Header([u8; HEADER_LEN]);

impl Header {
    /// Magic, `version`, and zeros.
    pub fn new(version: u32) -> Header {
        let mut bytes = [0u8; HEADER_LEN];
        bytes[..4].copy_from_slice(&MAGIC);
        Header(bytes).with(4, version)
    }

    /// This header with `value` stored at byte offset `at`.
    pub fn with<T: Le>(mut self, at: usize, value: T) -> Header {
        value.put(&mut self.0[at..at + T::SIZE]);
        self
    }

    /// The field at byte offset `at`.
    pub fn get<T: Le>(&self, at: usize) -> T {
        T::get(&self.0[at..at + T::SIZE])
    }

    /// The version field.
    pub fn version(&self) -> u32 {
        self.get(4)
    }
}

/// Hashes what it writes; [`FrameWriter::seal`] closes a section with
/// the XXH64 of everything put since the previous seal.
pub struct FrameWriter<W: Write> {
    w: W,
    hash: Xxh64,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// A writer at the start of a file.
    pub fn new(w: W) -> FrameWriter<W> {
        FrameWriter {
            w,
            hash: Xxh64::new(0),
            buf: vec![0u8; CHUNK],
        }
    }

    /// Writes the header section: the 48 bytes and their checksum.
    pub fn header(&mut self, header: &Header) -> io::Result<()> {
        self.hash.update(&header.0);
        self.w.write_all(&header.0)?;
        self.seal()
    }

    /// Appends `values` to the open section, encoded a chunk at a time.
    pub fn put<T: Le>(&mut self, values: &[T]) -> io::Result<()> {
        for part in values.chunks(CHUNK / T::SIZE) {
            let bytes = &mut self.buf[..part.len() * T::SIZE];
            for (slot, &x) in bytes.chunks_exact_mut(T::SIZE).zip(part) {
                x.put(slot);
            }
            self.hash.update(bytes);
            self.w.write_all(bytes)?;
        }
        Ok(())
    }

    /// Closes the open section with its checksum and opens the next.
    pub fn seal(&mut self) -> io::Result<()> {
        let digest = std::mem::replace(&mut self.hash, Xxh64::new(0)).digest();
        self.w.write_all(&digest.to_le_bytes())
    }

    /// Flushes the sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Hashes what it reads; [`FrameReader::seal`] checks a section's
/// trailer against everything taken since the previous seal. A section
/// name travels with every call so a short read can say where.
pub struct FrameReader<R: Read> {
    r: R,
    hash: Xxh64,
    buf: Vec<u8>,
}

fn fill<R: Read>(r: &mut R, buf: &mut [u8], section: &'static str) -> Result<(), FrameError> {
    r.read_exact(buf)
        .map_err(|e| FrameError::from_read(e, section))
}

impl<R: Read> FrameReader<R> {
    /// A reader at the start of a file (or of an arena block frame).
    pub fn new(r: R) -> FrameReader<R> {
        FrameReader {
            r,
            hash: Xxh64::new(0),
            buf: vec![0u8; CHUNK],
        }
    }

    /// Reads the header section: magic first, then the checksum, so a
    /// foreign file is [`FrameError::BadMagic`] rather than corrupt.
    pub fn header(&mut self) -> Result<Header, FrameError> {
        let mut bytes = [0u8; HEADER_LEN];
        fill(&mut self.r, &mut bytes, "header")?;
        self.hash.update(&bytes);
        if bytes[..4] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        self.seal("header")?;
        Ok(Header(bytes))
    }

    /// Takes `n` values from the open section. `n` may be any claim a
    /// file makes: the result only ever grows by chunks already read
    /// (the allocation rule in the module docs).
    pub fn take_vec<T: Le>(
        &mut self,
        n: usize,
        section: &'static str,
    ) -> Result<Vec<T>, FrameError> {
        let per_chunk = CHUNK / T::SIZE;
        let mut out = Vec::with_capacity(n.min(per_chunk));
        while out.len() < n {
            let bytes = &mut self.buf[..(n - out.len()).min(per_chunk) * T::SIZE];
            fill(&mut self.r, bytes, section)?;
            self.hash.update(bytes);
            out.extend(bytes.chunks_exact(T::SIZE).map(T::get));
        }
        Ok(out)
    }

    /// Reads the open section's trailer and compares it with the hash
    /// of the bytes taken.
    pub fn seal(&mut self, section: &'static str) -> Result<(), FrameError> {
        let actual = std::mem::replace(&mut self.hash, Xxh64::new(0)).digest();
        let mut trailer = [0u8; 8];
        fill(&mut self.r, &mut trailer, section)?;
        let expected = u64::from_le_bytes(trailer);
        if expected != actual {
            return Err(FrameError::ChecksumMismatch {
                section,
                expected,
                actual,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::xxh64;

    #[test]
    fn sections_round_trip_and_match_one_shot_hashes() {
        let floats: Vec<f32> = (0..40_000).map(|i| i as f32 * 0.25).collect();
        let mut file = Vec::new();
        let mut w = FrameWriter::new(&mut file);
        w.header(&Header::new(7).with(8, 5u32).with(16, 9u64))
            .unwrap();
        w.put(&[1u32, 2, 3]).unwrap();
        w.put(&floats).unwrap();
        w.seal().unwrap();
        // Trailers are plain XXH64 of the section bytes.
        assert_eq!(file[48..56], xxh64(&file[..48]).to_le_bytes());
        let body = &file[56..file.len() - 8];
        assert_eq!(body.len(), (3 + floats.len()) * 4);
        assert_eq!(file[file.len() - 8..], xxh64(body).to_le_bytes());

        let mut r = FrameReader::new(&file[..]);
        let h = r.header().unwrap();
        assert_eq!((h.version(), h.get::<u32>(8), h.get::<u64>(16)), (7, 5, 9));
        assert_eq!(r.take_vec::<u32>(3, "body").unwrap(), [1, 2, 3]);
        assert_eq!(r.take_vec::<f32>(floats.len(), "body").unwrap(), floats);
        r.seal("body").unwrap();
    }

    #[test]
    fn a_claimed_length_never_outruns_the_bytes_present() {
        let mut file = Vec::new();
        let mut w = FrameWriter::new(&mut file);
        w.put(&[1u64, 2, 3]).unwrap();
        let mut r = FrameReader::new(&file[..]);
        let err = r.take_vec::<u64>(usize::MAX, "directory").unwrap_err();
        assert!(matches!(
            err,
            FrameError::Torn {
                section: "directory"
            }
        ));
    }

    #[test]
    fn torn_corrupt_and_foreign_are_told_apart() {
        let mut file = Vec::new();
        FrameWriter::new(&mut file).header(&Header::new(1)).unwrap();
        let read = |bytes: &[u8]| FrameReader::new(bytes).header().map(|_| ());
        assert!(read(&file).is_ok());
        assert!(matches!(
            read(&file[..50]),
            Err(FrameError::Torn { section: "header" })
        ));
        let mut flipped = file.clone();
        flipped[20] ^= 1;
        assert!(matches!(
            read(&flipped),
            Err(FrameError::ChecksumMismatch {
                section: "header",
                ..
            })
        ));
        flipped[0] = b'X';
        assert!(matches!(read(&flipped), Err(FrameError::BadMagic)));
    }
}
