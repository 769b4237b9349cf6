//! Row-blob codec for the serve wire protocol.
//!
//! `OP_QUERY` responses carry result rows as an opaque blob inside the
//! existing chunked-reply frames; this module defines that blob. The
//! serve protocol layer treats it as bytes — the schema stays here so
//! the query crate owns both ends.
//!
//! Layout: `u32 row_count`, then per row `u16 cell_count` followed by
//! tagged cells. Tags: 0 = null, 1 = bool (u8), 2 = int (i64 LE),
//! 3 = float (f64 LE), 4 = string (u32 LE length + UTF-8 bytes).
//! Decoding is fully bounds-checked and rejects trailing bytes — a
//! truncated or oversized blob is a typed [`QueryError`], never a panic.

use crate::error::{QueryError, QueryResult};
use crate::value::{Row, Value};

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Encode a batch of rows into one blob.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + rows.len() * 16);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        out.extend_from_slice(&(row.len() as u16).to_le_bytes());
        for v in row {
            match v {
                Value::Null => out.push(TAG_NULL),
                Value::Bool(b) => {
                    out.push(TAG_BOOL);
                    out.push(*b as u8);
                }
                Value::Int(i) => {
                    out.push(TAG_INT);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    out.push(TAG_FLOAT);
                    out.extend_from_slice(&f.to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(TAG_STR);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> QueryResult<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| QueryError::wire("row blob truncated"))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> QueryResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> QueryResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> QueryResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

/// Decode a blob back into rows.
pub fn decode_rows(bytes: &[u8]) -> QueryResult<Vec<Row>> {
    let mut r = Reader { buf: bytes, at: 0 };
    let n = r.u32()? as usize;
    // A row costs at least 2 bytes — reject absurd counts before
    // reserving memory for them.
    if n > bytes.len() / 2 + 1 {
        return Err(QueryError::wire(format!("row count {n} exceeds blob size")));
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        // A cell costs at least its 1-byte tag: reserve no more cells
        // than the bytes left could hold.
        let cells = r.u16()? as usize;
        let mut row = Vec::with_capacity(cells.min(bytes.len() - r.at));
        for _ in 0..cells {
            let v = match r.u8()? {
                TAG_NULL => Value::Null,
                TAG_BOOL => Value::Bool(r.u8()? != 0),
                TAG_INT => Value::Int(i64::from_le_bytes(r.take(8)?.try_into().unwrap())),
                TAG_FLOAT => Value::Float(f64::from_le_bytes(r.take(8)?.try_into().unwrap())),
                TAG_STR => {
                    let len = r.u32()? as usize;
                    let s = std::str::from_utf8(r.take(len)?)
                        .map_err(|_| QueryError::wire("non-UTF8 string cell"))?;
                    Value::Str(s.to_owned())
                }
                t => return Err(QueryError::wire(format!("unknown cell tag {t}"))),
            };
            row.push(v);
        }
        rows.push(row);
    }
    if r.at != bytes.len() {
        return Err(QueryError::wire("trailing bytes after last row"));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rows = vec![
            vec![Value::Null, Value::Bool(true), Value::Int(-7)],
            vec![Value::Float(2.5), Value::Str("hello ∞".into())],
            vec![],
        ];
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
        assert_eq!(decode_rows(&encode_rows(&[])).unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let blob = encode_rows(&[vec![Value::Str("abcdef".into()), Value::Int(1)]]);
        for cut in 0..blob.len() {
            assert!(decode_rows(&blob[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing junk.
        let mut ext = blob.clone();
        ext.push(0);
        assert!(decode_rows(&ext).is_err());
        // Bad tag.
        let bad = vec![1, 0, 0, 0, 1, 0, 9];
        assert!(decode_rows(&bad).is_err());
        // Absurd row count.
        let absurd = vec![255, 255, 255, 255];
        assert!(decode_rows(&absurd).is_err());
    }
}
