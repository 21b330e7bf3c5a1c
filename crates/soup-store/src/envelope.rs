//! The `soup-ckpt/2` binary envelope.
//!
//! Layout (little-endian, 24-byte header):
//!
//! ```text
//! offset  size  field
//! 0       12    magic  b"soup-ckpt/2\n"
//! 12      8     payload length (u64 LE)
//! 20      4     CRC32 (IEEE) of the payload (u32 LE)
//! 24      n     payload (opaque bytes; in practice a JSON document)
//! ```
//!
//! [`open`] classifies *every* kind of damage — short header, wrong magic,
//! length mismatch (both truncation and trailing garbage), checksum
//! mismatch — as [`SoupError::Corrupt`]. It never panics and never
//! silently accepts a damaged buffer; the torn-write/bit-flip fuzz suite
//! in `tests/envelope_fuzz.rs` holds it to that contract byte by byte.

use soup_error::SoupError;

use crate::crc::crc32;

type Result<T> = std::result::Result<T, SoupError>;

/// Envelope magic: format name + version, newline-terminated so a `head -c`
/// on a checkpoint is self-describing.
pub const MAGIC: [u8; 12] = *b"soup-ckpt/2\n";

/// Header length in bytes (magic + payload length + CRC32).
pub const HEADER_LEN: usize = 24;

/// Wrap `payload` in a sealed `soup-ckpt/2` envelope.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate an envelope and return its payload slice.
///
/// All damage is reported as [`SoupError::Corrupt`] with a reason string;
/// `context` (typically the file name) prefixes the message.
pub fn open<'a>(bytes: &'a [u8], context: &str) -> Result<&'a [u8]> {
    let corrupt = |why: String| SoupError::corrupt(format!("{context}: {why}"));
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "truncated header ({} of {HEADER_LEN} bytes)",
            bytes.len()
        )));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic (not a soup-ckpt/2 envelope)".into()));
    }
    let declared = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if declared != actual {
        return Err(corrupt(format!(
            "payload length mismatch (header says {declared}, file has {actual})"
        )));
    }
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    let computed = crc32(payload);
    if stored_crc != computed {
        return Err(corrupt(format!(
            "checksum mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        for payload in [&b""[..], b"{}", b"x", &[0u8; 4096]] {
            let sealed = seal(payload);
            assert_eq!(open(&sealed, "t").unwrap(), payload);
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut sealed = seal(b"payload");
        sealed.push(0);
        let err = open(&sealed, "t").unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    #[test]
    fn empty_buffer_is_corrupt() {
        assert_eq!(open(b"", "t").unwrap_err().kind(), "corrupt");
    }
}
