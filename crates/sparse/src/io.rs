//! Reading and writing rating matrices as **text**: one `u v r` triple
//! per line, whitespace-separated, the de-facto interchange format of
//! the MF literature (LIBMF, cuMF). The binary form of a partitioned
//! matrix is the `MFCK` v3 arena ([`crate::arena`]).

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::matrix::{Rating, SparseMatrix};

/// Errors arising while loading a matrix.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line or field, with its 1-based line number.
    Parse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Description of what failed to parse.
        what: String,
    },
    /// Entry out of declared bounds.
    OutOfBounds {
        /// Index of the offending entry.
        index: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, what } => write!(f, "parse error on line {line}: {what}"),
            LoadError::OutOfBounds { index } => {
                write!(f, "entry {index} out of declared bounds")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Writes a matrix as text triples: `u v r` per line.
pub fn write_text<W: Write>(m: &SparseMatrix, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for e in m.entries() {
        writeln!(w, "{} {} {}", e.u, e.v, e.r)?;
    }
    w.flush()
}

/// Writes a matrix as text triples to a file path.
pub fn save_text<P: AsRef<Path>>(m: &SparseMatrix, path: P) -> io::Result<()> {
    write_text(m, File::create(path)?)
}

/// Read-buffer size of the streaming text parser.
const TEXT_READ_CHUNK: usize = 64 * 1024;

/// True for the whitespace the text format accepts between fields.
#[inline]
fn is_field_sep(b: u8) -> bool {
    b == b' ' || b == b'\t' || b == b'\r' || b == 0x0b || b == 0x0c
}

/// Splits a line into its next field, skipping leading separators.
/// Returns `(field, rest)`; the field is empty only when the line is
/// exhausted.
#[inline]
fn next_field(line: &[u8]) -> (&[u8], &[u8]) {
    let start = line
        .iter()
        .position(|&b| !is_field_sep(b))
        .unwrap_or(line.len());
    let line = &line[start..];
    let end = line
        .iter()
        .position(|&b| is_field_sep(b))
        .unwrap_or(line.len());
    line.split_at(end)
}

/// Parses a decimal `u32` field (optional leading `+`, digits only —
/// the same inputs `str::parse::<u32>` accepts for non-negative values).
fn parse_u32_field(field: &[u8]) -> Option<u32> {
    let digits = match field.split_first() {
        Some((b'+', rest)) => rest,
        _ => field,
    };
    if digits.is_empty() {
        return None;
    }
    let mut out: u32 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        out = out.checked_mul(10)?.checked_add(d as u32)?;
    }
    Some(out)
}

/// Parses an `f32` field via the standard parser over the borrowed bytes
/// (no allocation; the field slice is validated as UTF-8 in place).
fn parse_f32_field(field: &[u8]) -> Option<f32> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// Parses one line of the text format into `entries`. Blank and
/// comment lines are skipped.
fn parse_text_line(line: &[u8], lineno: usize, entries: &mut Vec<Rating>) -> Result<(), LoadError> {
    let (user, rest) = next_field(line);
    if user.is_empty() || user[0] == b'#' || user[0] == b'%' {
        return Ok(());
    }
    let field_err = |what: &str| LoadError::Parse {
        line: lineno,
        what: what.to_string(),
    };
    let (item, rest) = next_field(rest);
    if item.is_empty() {
        return Err(field_err("missing item"));
    }
    let (rating, _) = next_field(rest);
    if rating.is_empty() {
        return Err(field_err("missing rating"));
    }
    let u = parse_u32_field(user).ok_or_else(|| field_err("user: invalid unsigned integer"))?;
    let v = parse_u32_field(item).ok_or_else(|| field_err("item: invalid unsigned integer"))?;
    let r = parse_f32_field(rating).ok_or_else(|| field_err("rating: invalid float"))?;
    entries.push(Rating::new(u, v, r));
    Ok(())
}

/// Reads a matrix from text triples. Shape is inferred from max indices
/// unless `shape` is given. Blank lines and lines starting with `#` or `%`
/// are skipped (MatrixMarket-style comments).
///
/// The parser streams fixed-size byte chunks and splits fields directly
/// on the byte buffer — no per-line `String` (or any per-line
/// allocation), which is what makes ingesting paper-scale rating files
/// (hundreds of millions of lines) parse-bound rather than
/// allocator-bound. Lines spanning a chunk boundary are carried over in
/// a small pending buffer. Field separators are **ASCII** whitespace
/// (space, tab, CR, VT, FF) — a deliberate divergence from the old
/// `split_whitespace` parser, which also accepted exotic Unicode
/// whitespace; the interchange format is ASCII, and staying on bytes is
/// what keeps the loop allocation- and decode-free.
pub fn read_text<R: Read>(r: R, shape: Option<(u32, u32)>) -> Result<SparseMatrix, LoadError> {
    let mut r = r;
    let mut entries = Vec::new();
    let mut chunk = vec![0u8; TEXT_READ_CHUNK];
    // Tail of the previous chunk that did not end in a newline.
    let mut pending: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        let got = match r.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut data = &chunk[..got];
        while let Some(nl) = data.iter().position(|&b| b == b'\n') {
            lineno += 1;
            if pending.is_empty() {
                parse_text_line(&data[..nl], lineno, &mut entries)?;
            } else {
                pending.extend_from_slice(&data[..nl]);
                parse_text_line(&pending, lineno, &mut entries)?;
                pending.clear();
            }
            data = &data[nl + 1..];
        }
        pending.extend_from_slice(data);
    }
    if !pending.is_empty() {
        lineno += 1;
        parse_text_line(&pending, lineno, &mut entries)?;
    }
    match shape {
        Some((nrows, ncols)) => SparseMatrix::new(nrows, ncols, entries)
            .map_err(|index| LoadError::OutOfBounds { index }),
        None => Ok(SparseMatrix::from_triples(
            entries.into_iter().map(|e| (e.u, e.v, e.r)),
        )),
    }
}

/// Loads a matrix from a text file path.
pub fn load_text<P: AsRef<Path>>(
    path: P,
    shape: Option<(u32, u32)>,
) -> Result<SparseMatrix, LoadError> {
    read_text(File::open(path)?, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn sample() -> SparseMatrix {
        SparseMatrix::from_triples(vec![(0, 0, 3.5), (1, 2, 4.0), (2, 1, 1.25)])
    }

    /// The pre-optimization line-at-a-time parser, kept verbatim as the
    /// semantic oracle for the byte-slice parser.
    fn read_text_reference<R: Read>(
        r: R,
        shape: Option<(u32, u32)>,
    ) -> Result<SparseMatrix, LoadError> {
        let mut reader = BufReader::new(r);
        let mut entries = Vec::new();
        let mut line_buf = String::new();
        let mut lineno = 0usize;
        loop {
            line_buf.clear();
            lineno += 1;
            if reader.read_line(&mut line_buf)? == 0 {
                break;
            }
            let line = line_buf.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            let mut it = line.split_whitespace();
            let mut field = |what: &str| {
                it.next().ok_or_else(|| LoadError::Parse {
                    line: lineno,
                    what: format!("missing {what}"),
                })
            };
            let u: u32 = field("user")?.parse().map_err(|_| LoadError::Parse {
                line: lineno,
                what: "user".into(),
            })?;
            let v: u32 = field("item")?.parse().map_err(|_| LoadError::Parse {
                line: lineno,
                what: "item".into(),
            })?;
            let r: f32 = field("rating")?.parse().map_err(|_| LoadError::Parse {
                line: lineno,
                what: "rating".into(),
            })?;
            entries.push(Rating::new(u, v, r));
        }
        match shape {
            Some((nrows, ncols)) => SparseMatrix::new(nrows, ncols, entries)
                .map_err(|index| LoadError::OutOfBounds { index }),
            None => Ok(SparseMatrix::from_triples(
                entries.into_iter().map(|e| (e.u, e.v, e.r)),
            )),
        }
    }

    /// Both parsers must agree — same matrix on success, same error line
    /// on failure — on every edge-case input.
    #[test]
    fn byte_parser_matches_reference_on_edge_cases() {
        let long_gap = " ".repeat(2 * TEXT_READ_CHUNK);
        let big: String = (0..5000)
            .map(|i| format!("{} {} {}.5\n", i % 97, i % 89, i % 7))
            .collect();
        let cases: Vec<String> = vec![
            String::new(),
            "\n".into(),
            "\r\n\r\n".into(),
            "0 0 1.5".into(), // no trailing newline
            "0 0 1.5\n".into(),
            "  0\t0  1.5  \r\n".into(),
            "# comment\n% comment\n  # indented comment\n1 2 3\n".into(),
            "0 0 1e-3\n1 1 -2.5\n2 2 +3.25\n".into(),
            "+1 +2 4\n".into(),
            "0 0 inf\n0 1 -inf\n".into(),
            "0 0 1.0 trailing junk ignored\n".into(),
            format!("0{long_gap}1{long_gap}2.5\n"), // line far exceeds one read chunk
            big,
            // Malformed inputs: missing fields, bad numbers, negatives.
            "0 0\n".into(),
            "0\n".into(),
            "a 0 1\n".into(),
            "0 b 1\n".into(),
            "0 0 x\n".into(),
            "-1 0 1\n".into(),
            "0 -1 1\n".into(),
            "4294967296 0 1\n".into(), // u32 overflow
            "1 1 1\n0 oops 2.0\n".into(),
            "# fine\n\n9 9 9.9\nbroken\n".into(),
        ];
        for case in &cases {
            for shape in [None, Some((100u32, 100u32))] {
                let fast = read_text(case.as_bytes(), shape);
                let slow = read_text_reference(case.as_bytes(), shape);
                match (fast, slow) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case:?}"),
                    (
                        Err(LoadError::Parse { line: a, .. }),
                        Err(LoadError::Parse { line: b, .. }),
                    ) => {
                        assert_eq!(a, b, "error line differs on {case:?}")
                    }
                    (
                        Err(LoadError::OutOfBounds { index: a }),
                        Err(LoadError::OutOfBounds { index: b }),
                    ) => assert_eq!(a, b, "oob index differs on {case:?}"),
                    (fast, slow) => {
                        panic!("parsers disagree on {case:?}: fast {fast:?} vs slow {slow:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn text_round_trip() {
        let m = sample();
        let mut buf = Vec::new();
        write_text(&m, &mut buf).unwrap();
        let back = read_text(&buf[..], None).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn text_with_comments_and_blanks() {
        let text = "# header\n\n0 0 1.5\n% more\n1 1 2.5\n";
        let m = read_text(text.as_bytes(), None).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.entries()[1].r, 2.5);
    }

    #[test]
    fn text_parse_error_reports_line() {
        let text = "0 0 1.0\n1 oops 2.0\n";
        match read_text(text.as_bytes(), None) {
            Err(LoadError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_missing_field() {
        let text = "0 0\n";
        assert!(matches!(
            read_text(text.as_bytes(), None),
            Err(LoadError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn explicit_shape_checked() {
        let text = "5 5 1.0\n";
        assert!(matches!(
            read_text(text.as_bytes(), Some((3, 3))),
            Err(LoadError::OutOfBounds { index: 0 })
        ));
        let ok = read_text(text.as_bytes(), Some((6, 6))).unwrap();
        assert_eq!(ok.nrows(), 6);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let p_text = dir.join("mf_sparse_io_test.txt");
        let m = sample();
        save_text(&m, &p_text).unwrap();
        assert_eq!(load_text(&p_text, None).unwrap(), m);
        let _ = std::fs::remove_file(p_text);
    }
}
